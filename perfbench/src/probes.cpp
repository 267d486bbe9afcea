#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "core/debt.hpp"
#include "mac/dp_batch_kernel.hpp"
#include "mac/priority_provider.hpp"
#include "net/arrival_kernel.hpp"
#include "spans.hpp"
#include "stats/link_stats.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Calls `body` in batches of `batch` calls until `budget_s` has passed
/// (at least 9 batches) and returns the median seconds per call divided
/// by `per_call_units`.
template <typename Body>
ProbeResult time_batches(std::size_t batch, double per_call_units, double budget_s, Body&& body) {
  body();  // warm caches and lazy state before timing
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 9 || seconds_since(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) body();
    samples.push_back(seconds_since(t0) / static_cast<double>(batch) / per_call_units);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return ProbeResult{samples[samples.size() / 2], samples.size()};
}

/// Enough calls per batch that one batch does about 2^18 link-steps.
std::size_t batch_for(std::size_t links) {
  return std::max<std::size_t>(1, (std::size_t{1} << 18) / std::max<std::size_t>(links, 1));
}

/// The central arrival kernel over the config's arrival processes.
void build_kernel(const rtmac::net::NetworkConfig& cfg, rtmac::util::Arena& arena,
                  rtmac::net::ArrivalKernel& kernel) {
  if (cfg.uniform_arrivals) {
    kernel.build_uniform(*cfg.uniform_arrivals, cfg.num_links(), arena);
  } else {
    kernel.build(cfg.arrivals, arena);
  }
}

/// Inputs for the interval bookkeeping probes: one interval's arrivals and
/// at most one delivery per link.
struct IntervalInputs {
  std::vector<int> arrivals;
  std::vector<int> delivered;
};

IntervalInputs sample_interval(const rtmac::net::NetworkConfig& cfg) {
  rtmac::util::Arena arena;
  rtmac::net::ArrivalKernel kernel;
  build_kernel(cfg, arena, kernel);
  rtmac::Rng rng{cfg.seed, 0xA11};
  IntervalInputs in;
  in.arrivals.assign(cfg.num_links(), 0);
  kernel.sample_into(rng, in.arrivals);
  in.delivered.resize(in.arrivals.size());
  std::transform(in.arrivals.begin(), in.arrivals.end(), in.delivered.begin(),
                 [](int a) { return std::min(a, 1); });
  return in;
}

}  // namespace

ProbeResult probe_arrivals(const rtmac::net::NetworkConfig& cfg, double budget_s) {
  rtmac::util::Arena arena;
  rtmac::net::ArrivalKernel kernel;
  build_kernel(cfg, arena, kernel);
  rtmac::Rng rng{cfg.seed, 0xA11};
  std::vector<int> out(cfg.num_links(), 0);
  const auto links = static_cast<double>(cfg.num_links());
  return time_batches(batch_for(cfg.num_links()), links * 1e-9, budget_s,
                      [&] { kernel.sample_into(rng, out); });
}

ProbeResult probe_stats_record(const rtmac::net::NetworkConfig& cfg, double budget_s) {
  const IntervalInputs in = sample_interval(cfg);
  rtmac::stats::LinkStatsCollector stats{cfg.num_links()};
  const auto links = static_cast<double>(cfg.num_links());
  return time_batches(batch_for(cfg.num_links()), links * 1e-9, budget_s,
                      [&] { stats.record(in.arrivals, in.delivered); });
}

ProbeResult probe_debt_update(const rtmac::net::NetworkConfig& cfg, double budget_s) {
  const IntervalInputs in = sample_interval(cfg);
  rtmac::core::DebtTracker debts{cfg.requirements.q()};
  const auto links = static_cast<double>(cfg.num_links());
  return time_batches(batch_for(cfg.num_links()), links * 1e-9, budget_s,
                      [&] { debts.on_interval_end(in.delivered); });
}

ProbeResult probe_dp_plan(std::size_t cell_links, std::size_t priority_space, std::uint64_t seed,
                          double budget_s) {
  // The cell holds the first `cell_links` links of the domain, keyed by
  // their global ids, with the identity priorities a fresh run starts from.
  std::vector<rtmac::PriorityIndex> priorities(cell_links);
  std::vector<rtmac::LinkId> ids(cell_links);
  for (std::size_t n = 0; n < cell_links; ++n) {
    priorities[n] = static_cast<rtmac::PriorityIndex>(n + 1);
    ids[n] = static_cast<rtmac::LinkId>(n);
  }
  const rtmac::mac::FixedMuProvider provider{std::vector<double>(cell_links, 0.5)};
  rtmac::mac::DpBatchKernel kernel{cell_links,    rtmac::mac::SharedSeed{seed},
                                   provider,      /*reordering=*/true,
                                   /*max_pairs=*/1, priorities,
                                   seed,          priority_space,
                                   ids};
  rtmac::IntervalIndex k = 0;
  return time_batches(batch_for(cell_links), 1e-6, budget_s,
                      [&] { kernel.plan_interval(k++); });
}

double reference_pass_s() {
  constexpr std::size_t kEntries = 4096;
  constexpr int kSteps = 60000;
  static std::vector<std::uint64_t> heap(kEntries);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t& key : heap) key = next();
  std::make_heap(heap.begin(), heap.end());  // also brings the heap into cache
  const Clock::time_point t0 = Clock::now();
  std::uint64_t sum = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    sum += heap.back();
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
  }
  const double seconds = seconds_since(t0);
  static volatile std::uint64_t sink;
  sink = sum;  // keeps the loop from being optimised away
  return seconds;
}

}  // namespace perfbench
