#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace rtmac::obs {

QuantileSketch::QuantileSketch(const SketchOptions& opts)
    : opts_{opts}, coin_{opts.seed, /*stream_id=*/0x434f494eULL /* "COIN" */} {
  if (opts.k < 4 || opts.k % 2 != 0) {
    throw std::invalid_argument{"QuantileSketch: k must be even and >= 4"};
  }
  if (opts.exact_threshold < 4 || opts.exact_threshold % 2 != 0) {
    throw std::invalid_argument{"QuantileSketch: exact_threshold must be even and >= 4"};
  }
  // Level capacities: level 0 is the exact buffer; every higher level must
  // hold its own trigger fill (k - 1) plus the largest batch one compaction
  // below can promote (ceil(capacity/2)), so a promotion can never overrun
  // the pre-sized block mid-cascade.
  std::uint32_t total = 0;
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    capacity_[l] = l == 0 ? opts.exact_threshold : opts.k + (capacity_[l - 1] + 1) / 2;
    offset_[l] = total;
    total += capacity_[l];
  }
  storage_.assign(total, 0.0);
}

void QuantileSketch::update(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  storage_[offset_[0] + size_[0]] = v;
  if (++size_[0] >= capacity_[0]) compact(0);
}

void QuantileSketch::compact(std::size_t level) {
  RTMAC_ASSERT(level + 1 < kMaxLevels, "sketch level hierarchy overflow");
  exact_ = false;
  double* base = storage_.data() + offset_[level];
  const std::uint32_t n = size_[level];
  std::sort(base, base + n);
  // Promote every other sample of the even prefix at doubled weight; the
  // coin picks which half survives, which is what keeps the estimator
  // unbiased. An odd leftover (the largest) stays behind at its own weight,
  // so retained weight stays exactly equal to the input count.
  const std::uint32_t survivors = n & 1U;
  const std::uint32_t even = n - survivors;
  const auto start = static_cast<std::uint32_t>(coin_.next_u64() & 1U);
  double* up = storage_.data() + offset_[level + 1];
  std::uint32_t up_n = size_[level + 1];
  for (std::uint32_t i = start; i < even; i += 2) up[up_n++] = base[i];
  if (survivors != 0) base[0] = base[n - 1];
  size_[level] = survivors;
  RTMAC_ASSERT(up_n <= capacity_[level + 1], "sketch promotion overran the level");
  size_[level + 1] = up_n;
  if (up_n >= opts_.k) compact(level + 1);  // levels >= 1 trigger at k
}

void QuantileSketch::merge(const QuantileSketch& other) {
  RTMAC_REQUIRE(&other != this, "cannot merge a sketch into itself");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  exact_ = exact_ && other.exact_;
  merged_.reserve(merged_.size() + other.retained());
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    const double* base = other.storage_.data() + other.offset_[l];
    const std::uint64_t weight = std::uint64_t{1} << l;
    for (std::uint32_t i = 0; i < other.size_[l]; ++i) {
      merged_.push_back(Weighted{base[i], weight});
    }
  }
  merged_.insert(merged_.end(), other.merged_.begin(), other.merged_.end());
  merged_sums_.push_back(other.sum_);
  merged_sums_.insert(merged_sums_.end(), other.merged_sums_.begin(),
                      other.merged_sums_.end());
}

double QuantileSketch::sum() const {
  if (merged_sums_.empty()) return sum_;
  // Reduce the own-stream sum and every merged input's sum in value order:
  // the component multiset is the same whatever the merge grouping was, so
  // the reduction (and its bytes) is too.
  std::vector<double> parts;
  parts.reserve(merged_sums_.size() + 1);
  parts.push_back(sum_);
  parts.insert(parts.end(), merged_sums_.begin(), merged_sums_.end());
  std::sort(parts.begin(), parts.end());
  double total = 0.0;
  for (const double p : parts) total += p;
  return total;
}

double QuantileSketch::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double QuantileSketch::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double QuantileSketch::mean() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : sum() / static_cast<double>(count_);
}

std::size_t QuantileSketch::retained() const {
  std::size_t total = merged_.size();
  for (std::size_t l = 0; l < kMaxLevels; ++l) total += size_[l];
  return total;
}

void QuantileSketch::gather() const {
  scratch_.clear();
  scratch_.reserve(retained());
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    const double* base = storage_.data() + offset_[l];
    const std::uint64_t weight = std::uint64_t{1} << l;
    for (std::uint32_t i = 0; i < size_[l]; ++i) {
      scratch_.push_back(Weighted{base[i], weight});
    }
  }
  scratch_.insert(scratch_.end(), merged_.begin(), merged_.end());
  std::sort(scratch_.begin(), scratch_.end(), [](const Weighted& a, const Weighted& b) {
    return a.value < b.value || (a.value == b.value && a.weight < b.weight);  // lint-ok: float-equality total order for determinism
  });
}

double QuantileSketch::quantile(double q) const {
  double out = 0.0;
  quantiles(std::span<const double>{&q, 1}, std::span<double>{&out, 1});
  return out;
}

void QuantileSketch::quantiles(std::span<const double> qs, std::span<double> out) const {
  RTMAC_REQUIRE(qs.size() == out.size(), "one output slot per quantile");
  bool gathered = false;
  std::uint64_t total_weight = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    double q = qs[i];
    if (count_ == 0 || std::isnan(q)) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
      continue;
    }
    q = std::clamp(q, 0.0, 1.0);
    if (q == 0.0) {
      out[i] = min_;
      continue;
    }
    if (q == 1.0) {
      out[i] = max_;
      continue;
    }
    if (!gathered) {
      gather();
      for (const Weighted& w : scratch_) total_weight += w.weight;
      RTMAC_ASSERT(total_weight == count_, "retained weight drifted from the input count");
      gathered = true;
    }
    // Inverted-CDF rank over the weighted multiset (1-based, ceil — the same
    // convention Histogram::quantile uses); exact when every weight is 1.
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_weight)));
    rank = std::clamp<std::uint64_t>(rank, 1, total_weight);
    out[i] = max_;  // unreachable fallback: cumulative == total_weight >= rank by the end
    std::uint64_t cumulative = 0;
    for (const Weighted& w : scratch_) {
      cumulative += w.weight;
      if (cumulative >= rank) {
        out[i] = w.value;
        break;
      }
    }
  }
}

}  // namespace rtmac::obs
