// The quantile-sketch contract: exact mode below the threshold, the
// rank-error guarantee on a 10^7-sample stream (property-tested against the
// exact sorted reference), merge-order-invariant byte-identical exports,
// seed-determinism, scalar preservation, and the zero-steady-state-
// allocation update path (interposed global new/delete, the same gate the
// event engine's hot path uses).
#include "obs/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

// ---- allocation counting ----------------------------------------------------
// Interposed global new/delete: counts every heap allocation made by this
// binary. Tests read the counter around a measurement window; gtest's own
// allocations outside the window are irrelevant.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// gcc -O2 cannot see that the replaced operator new forwards to malloc, so
// inlined delete sites trip -Wmismatched-new-delete; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtmac::obs {
namespace {

TEST(SketchOptionsTest, InvalidConfigurationsThrow) {
  EXPECT_THROW(QuantileSketch({/*k=*/3}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/7}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/8, /*exact_threshold=*/3}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/8, /*exact_threshold=*/9}), std::invalid_argument);
}

TEST(SketchTest, EmptySketchIsAllNaN) {
  const QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_TRUE(s.exact());
}

TEST(SketchTest, NanQuantileRequestReturnsNan) {
  QuantileSketch s;
  s.update(1.0);
  EXPECT_TRUE(std::isnan(s.quantile(std::nan(""))));
}

// Below exact_threshold no compaction has happened: every quantile is the
// exact inverted-CDF value of the sample multiset.
TEST(SketchTest, ExactModeMatchesInvertedCdf) {
  QuantileSketch s{{/*k=*/16, /*exact_threshold=*/64}};
  std::vector<double> data;
  Rng rng{99};
  for (int i = 0; i < 63; ++i) {
    const double v = rng.next_double();
    data.push_back(v);
    s.update(v);
  }
  ASSERT_TRUE(s.exact());
  std::sort(data.begin(), data.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto n = static_cast<double>(data.size());
    const auto rank = q == 0.0 ? std::size_t{1}
                               : static_cast<std::size_t>(std::ceil(q * n));
    EXPECT_DOUBLE_EQ(s.quantile(q), data[std::min(rank, data.size()) - 1]) << "q=" << q;
  }
  // q clamping mirrors Histogram::quantile.
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), s.min());
  EXPECT_DOUBLE_EQ(s.quantile(2.0), s.max());
}

TEST(SketchTest, CompactionClearsExactFlagAndPreservesScalars) {
  QuantileSketch s{{/*k=*/8, /*exact_threshold=*/8}};
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    s.update(v);
    sum += v;
  }
  EXPECT_FALSE(s.exact());
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), sum / 1000.0);
  // Memory actually stays bounded far below the input count.
  EXPECT_LT(s.retained(), 200u);
}

TEST(SketchTest, BatchQuantilesMatchSingleReads) {
  // The export path reads p50/p90/p99 through one gather; every entry must
  // be the exact value quantile() reports, edge cases included.
  const std::vector<double> qs = {0.5, 0.9, 0.99, 0.0, 1.0, -1.0, 2.0, std::nan(""), 0.25};
  QuantileSketch exact;
  QuantileSketch compacted{{/*k=*/8, /*exact_threshold=*/8}};
  QuantileSketch merged;
  const QuantileSketch empty;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    if (i < 100) exact.update(v);
    compacted.update(v);
  }
  merged.merge(exact);
  merged.merge(compacted);
  const std::vector<const QuantileSketch*> sketches = {&exact, &compacted, &merged, &empty};
  for (const QuantileSketch* s : sketches) {
    std::vector<double> batch(qs.size());
    s->quantiles(qs, batch);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double single = s->quantile(qs[i]);
      if (std::isnan(single)) {
        EXPECT_TRUE(std::isnan(batch[i])) << "q=" << qs[i];
      } else {
        EXPECT_EQ(batch[i], single) << "q=" << qs[i];
      }
    }
  }
}

// The headline property: on a 10^7-sample stream the estimate for every
// tested q lands within options().rank_error() of q in rank space, measured
// against the fully-sorted exact reference. Uses a heavy-tailed mixture so
// the guarantee is exercised away from the uniform easy case.
TEST(SketchTest, RankErrorBoundOnTenMillionSamples) {
  constexpr std::size_t kN = 10'000'000;
  const SketchOptions opts{};  // default k = 256
  QuantileSketch s{opts};
  std::vector<double> data;
  data.reserve(kN);
  Rng rng{20260808};
  for (std::size_t i = 0; i < kN; ++i) {
    // Mixture: 90% uniform [0,1), 10% exponential-ish tail via -3*log(u).
    const double u = rng.next_double();
    const double v = (i % 10 == 9) ? -3.0 * std::log(u + 1e-18) : u;
    data.push_back(v);
    s.update(v);
  }
  ASSERT_EQ(s.count(), kN);
  std::sort(data.begin(), data.end());

  const double bound = opts.rank_error();
  for (const double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    const double est = s.quantile(q);
    // Rank of the estimate in the exact reference, as the fraction of
    // samples <= est; a range because of duplicates.
    const auto lo = std::lower_bound(data.begin(), data.end(), est) - data.begin();
    const auto hi = std::upper_bound(data.begin(), data.end(), est) - data.begin();
    const double lo_frac = static_cast<double>(lo) / static_cast<double>(kN);
    const double hi_frac = static_cast<double>(hi) / static_cast<double>(kN);
    EXPECT_LE(lo_frac - bound, q) << "q=" << q << " est=" << est;
    EXPECT_GE(hi_frac + bound, q) << "q=" << q << " est=" << est;
  }
}

TEST(SketchTest, SameSeedSameInputIsBitIdentical) {
  const SketchOptions opts{/*k=*/32, /*exact_threshold=*/32, /*seed=*/1234};
  QuantileSketch a{opts};
  QuantileSketch b{opts};
  Rng rng{5};
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.next_double();
    a.update(v);
    b.update(v);
  }
  EXPECT_EQ(a.retained(), b.retained());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

// Fingerprint every exported statistic through the deterministic JSON
// number formatter: byte-equality here is exactly what "byte-identical
// JSONL exports" means downstream.
std::string export_fingerprint(const QuantileSketch& s) {
  std::ostringstream out;
  out << json_number(s.count()) << ',' << json_number(s.sum()) << ','
      << json_number(s.min()) << ',' << json_number(s.max()) << ','
      << json_number(s.mean());
  for (const double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    out << ',' << json_number(s.quantile(q));
  }
  return std::move(out).str();
}

TEST(SketchTest, MergeIsOrderAndGroupingInvariant) {
  const auto make_part = [](std::uint64_t seed, int n, double scale) {
    QuantileSketch s{{/*k=*/32, /*exact_threshold=*/32, seed}};
    Rng rng{seed};
    for (int i = 0; i < n; ++i) s.update(scale * rng.next_double());
    return s;
  };
  const QuantileSketch a = make_part(1, 5000, 1.0);
  const QuantileSketch b = make_part(2, 3000, 10.0);
  const QuantileSketch c = make_part(3, 7000, 0.1);
  const QuantileSketch d = make_part(4, 11, 100.0);  // exact-mode input

  QuantileSketch fwd = a;
  fwd.merge(b);
  fwd.merge(c);
  fwd.merge(d);

  QuantileSketch rev = d;
  rev.merge(c);
  rev.merge(b);
  rev.merge(a);

  QuantileSketch nested = a;
  QuantileSketch right = c;
  right.merge(d);
  nested.merge(b);
  nested.merge(right);

  const std::string want = export_fingerprint(fwd);
  EXPECT_EQ(export_fingerprint(rev), want);
  EXPECT_EQ(export_fingerprint(nested), want);
  EXPECT_EQ(fwd.count(), 15011u);
  EXPECT_FALSE(fwd.exact());
}

TEST(SketchTest, MergingExactSketchesStaysExact) {
  QuantileSketch a{{/*k=*/16, /*exact_threshold=*/64}};
  QuantileSketch b{{/*k=*/16, /*exact_threshold=*/64}};
  for (int i = 0; i < 20; ++i) a.update(static_cast<double>(i));
  for (int i = 20; i < 40; ++i) b.update(static_cast<double>(i));
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.count(), 40u);
  // Exact union: the median of 0..39 at ceil-rank 20 is 19.
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 19.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 39.0);
}

// The whole point of pre-sized compactors: once constructed, update()
// never touches the allocator, however many compaction cascades run.
TEST(SketchTest, UpdatePathIsAllocationFree) {
  QuantileSketch s{{/*k=*/64, /*exact_threshold=*/128}};
  Rng rng{7};
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1'000'000; ++i) s.update(rng.next_double());
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(s.count(), 1'000'000u);
}

// Registry integration: get-or-create handles, per-name seed separation,
// and the v2 "sketch" JSONL record.
TEST(SketchTest, RegistryExportRoundTrips) {
  MetricsRegistry reg;
  QuantileSketch& s1 = reg.sketch("lat.us");
  QuantileSketch& s2 = reg.sketch("lat.us");
  EXPECT_EQ(&s1, &s2);
  // Distinct names derive distinct coin seeds from the same base.
  EXPECT_NE(reg.sketch("other").options().seed, s1.options().seed);

  for (int i = 1; i <= 100; ++i) s1.update(static_cast<double>(i));
  std::ostringstream out;
  reg.write_jsonl(out, "");
  std::istringstream in{std::move(out).str()};
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (parsed->at("name") != "\"lat.us\"") continue;
    found = true;
    EXPECT_EQ(parsed->at("type"), "\"sketch\"");
    EXPECT_EQ(parsed->at("count"), "100");
    EXPECT_EQ(parsed->at("sum"), "5050");
    EXPECT_EQ(parsed->at("min"), "1");
    EXPECT_EQ(parsed->at("max"), "100");
    EXPECT_EQ(parsed->at("p50"), "50");
    EXPECT_EQ(parsed->at("exact"), "1");
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace rtmac::obs
