#include "checks.hpp"

#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

using rtmac::LinkId;

Domains complete_domain(std::size_t num_links) {
  return Domains{std::vector<std::uint32_t>(num_links, 0), 1};
}

namespace {

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Neighbours of `n` in `list` that lie in n's own domain, self excluded.
std::size_t same_domain_neighbours(const Domains& d, LinkId n, const std::vector<LinkId>& list) {
  std::size_t count = 0;
  for (const LinkId m : list) {
    if (m != n && d.of[m] == d.of[n]) ++count;
  }
  return count;
}

}  // namespace

Domains sensing_domains(const rtmac::phy::SparseTopology& topology) {
  const std::size_t n = topology.num_links;
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0U);
  for (std::size_t a = 0; a < n; ++a) {
    for (const LinkId b : topology.sense[a]) {
      const std::uint32_t ra = find_root(parent, static_cast<std::uint32_t>(a));
      const std::uint32_t rb = find_root(parent, b);
      if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
    }
  }
  Domains d;
  d.of.resize(n);
  std::vector<std::uint32_t> index_of_root(n, UINT32_MAX);
  for (std::size_t a = 0; a < n; ++a) {
    const std::uint32_t r = find_root(parent, static_cast<std::uint32_t>(a));
    if (index_of_root[r] == UINT32_MAX) index_of_root[r] = static_cast<std::uint32_t>(d.count++);
    d.of[a] = index_of_root[r];
  }
  std::vector<std::size_t> size(d.count, 0);
  for (const std::uint32_t c : d.of) ++size[c];
  for (std::size_t a = 0; a < n; ++a) {
    const auto link = static_cast<LinkId>(a);
    const std::size_t others = size[d.of[a]] - 1;
    if (same_domain_neighbours(d, link, topology.sense[a]) != others ||
        same_domain_neighbours(d, link, topology.conflict[a]) != others) {
      throw std::runtime_error("sensing domain of link " + std::to_string(a) +
                               " is not a clique; the per-domain bound does not apply");
    }
  }
  return d;
}

std::uint64_t Outcome::delivered_total() const {
  return std::accumulate(seen_delivered.begin(), seen_delivered.end(), std::uint64_t{0});
}

double Outcome::mean_interval_total() const {
  return intervals > 0 ? interval_total_sum / static_cast<double>(intervals) : 0.0;
}

double Outcome::tallied_deficiency() const {
  double total = 0.0;
  for (std::size_t n = 0; n < q.size() && n < seen_delivered.size(); ++n) {
    const double throughput =
        intervals > 0 ? static_cast<double>(seen_delivered[n]) / static_cast<double>(intervals)
                      : 0.0;
    total += std::max(0.0, q[n] - throughput);
  }
  return total;
}

std::vector<std::string> check(const Outcome& o) {
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) { failures.push_back(o.label + ": " + what); };

  // Packet conservation per link and per interval.
  if (o.seen_arrivals.size() != o.links || o.seen_delivered.size() != o.links) {
    fail("observer saw a link vector of the wrong size");
    return failures;
  }
  if (o.over_delivered > 0) {
    fail(std::to_string(o.over_delivered) + " (link, interval) pairs delivered more than arrived");
  }
  for (std::size_t n = 0; n < o.links; ++n) {
    if (o.seen_delivered[n] > o.seen_arrivals[n]) {
      fail("link " + std::to_string(n) + " delivered more packets than arrived");
      break;
    }
  }

  // The program's own statistics must equal what the observer saw, and the
  // medium's channel accounting must agree with both.
  if (o.stats_intervals != o.intervals) fail("stats interval count differs from the observer's");
  if (o.stats_arrivals != o.seen_arrivals) fail("stats arrivals differ from the observer's tally");
  if (o.stats_delivered != o.seen_delivered) {
    fail("stats deliveries differ from the observer's tally");
  }
  if (o.medium.delivered != o.delivered_total()) {
    fail("medium counted " + std::to_string(o.medium.delivered) + " deliveries, stats " +
         std::to_string(o.delivered_total()));
  }
  if (o.medium.delivered > o.medium.data_tx) fail("medium delivered more than it transmitted");

  // No sensing domain delivers more than fit into one deadline.
  if (o.domain_overflows > 0) {
    fail(std::to_string(o.domain_overflows) + " (domain, interval) pairs exceeded " +
         std::to_string(o.domain_bound) + " deliveries");
  }

  if (o.collision_free && o.medium.collisions != 0) {
    fail(std::to_string(o.medium.collisions) + " collisions on a complete-sensing DB-DP domain");
  }

  // Exact priority-chain total: no policy beats a work-conserving priority
  // schedule on a symmetric collision domain, and LDF is one.
  if (o.evaluator_total >= 0.0 && o.intervals > 1) {
    const double k = static_cast<double>(o.intervals);
    const double mean = o.mean_interval_total();
    const double var = std::max(0.0, (o.interval_total_sumsq - k * mean * mean) / (k - 1.0));
    const double margin = kSamplingZ * std::sqrt(var / k);
    std::ostringstream msg;
    msg << "mean deliveries/interval " << mean << " vs exact " << o.evaluator_total
        << " (+-" << margin << ")";
    if (mean > o.evaluator_total + margin) fail(msg.str() + ": above the exact optimum");
    if (o.evaluator_match && mean < o.evaluator_total - margin) {
      fail(msg.str() + ": LDF below the exact total");
    }
  }

  const double deficiency = o.tallied_deficiency();
  if (std::abs(deficiency - o.program_deficiency) > 1e-9 * (1.0 + deficiency)) {
    std::ostringstream msg;
    msg << "program deficiency " << o.program_deficiency << " differs from tallied "
        << deficiency;
    fail(msg.str());
  }
  if (o.requirements_met && o.intervals > 1 && o.seen_delivered_sq.size() == o.links) {
    const double k = static_cast<double>(o.intervals);
    for (std::size_t n = 0; n < o.links; ++n) {
      const double mean = static_cast<double>(o.seen_delivered[n]) / k;
      const double var = std::max(
          0.0, (static_cast<double>(o.seen_delivered_sq[n]) - k * mean * mean) / (k - 1.0));
      const double shortfall = o.q[n] - mean;
      const double allowed = kSamplingZ * std::sqrt(var / k);
      if (shortfall > allowed) {
        std::ostringstream msg;
        msg << "link " << n << " falls " << shortfall << " short of its requirement " << o.q[n]
            << " (sampling allows " << allowed << "; total deficiency " << deficiency
            << ") inside the capacity region";
        fail(msg.str());
        break;
      }
    }
  }
  return failures;
}

IntervalTally::IntervalTally(const Domains& domains, std::int64_t domain_bound)
    : domains_{domains},
      bound_{domain_bound},
      arrivals_(domains.of.size(), 0),
      delivered_(domains.of.size(), 0),
      delivered_sq_(domains.of.size(), 0),
      domain_sum_(domains.count, 0) {}

void IntervalTally::observe(std::span<const int> arrivals, std::span<const int> delivered) {
  const std::size_t n_links = arrivals_.size();
  if (arrivals.size() != n_links || delivered.size() != n_links) {
    ++over_delivered_;  // a malformed interval can never pass the checks
    return;
  }
  std::int64_t total = 0;
  for (std::size_t n = 0; n < n_links; ++n) {
    const int a = arrivals[n];
    const int s = delivered[n];
    arrivals_[n] += static_cast<std::uint64_t>(a);
    delivered_[n] += static_cast<std::uint64_t>(s);
    delivered_sq_[n] += static_cast<std::uint64_t>(s) * static_cast<std::uint64_t>(s);
    if (s > a || s < 0) ++over_delivered_;
    domain_sum_[domains_.of[n]] += s;
    total += s;
  }
  for (std::int64_t& sum : domain_sum_) {
    if (sum > bound_) ++domain_overflows_;
    sum = 0;
  }
  const auto t = static_cast<double>(total);
  total_sum_ += t;
  total_sumsq_ += t * t;
  ++intervals_;
}

void IntervalTally::fill(Outcome& o) {
  o.links = arrivals_.size();
  o.intervals = intervals_;
  o.seen_arrivals = std::move(arrivals_);
  o.seen_delivered = std::move(delivered_);
  o.seen_delivered_sq = std::move(delivered_sq_);
  o.over_delivered = over_delivered_;
  o.domain_overflows = domain_overflows_;
  o.domain_bound = bound_;
  o.interval_total_sum = total_sum_;
  o.interval_total_sumsq = total_sumsq_;
}

}  // namespace perfbench
