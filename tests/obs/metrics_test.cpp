// The metrics registry contract: instrument semantics (counter, gauge,
// histogram with quantile readout), stable get-or-create handles, the
// deterministic schema-versioned JSONL export (validated by round-tripping
// through the flat-JSON parser), and — load-bearing for the whole design —
// that attaching a registry never perturbs simulation results.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/collect.hpp"
#include "obs/json.hpp"

namespace rtmac::obs {
namespace {

TEST(CounterTest, MonotoneIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(HistogramTest, CountsSumAndBuckets) {
  Histogram h{{1.0, 2.0, 4.0}};
  for (const double v : {0.5, 1.5, 3.0, 3.5, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 108.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 108.5 / 5.0);
  // One overflow bucket beyond the configured bounds.
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);  // 0.5 <= 1
  EXPECT_EQ(h.bucket_counts()[1], 1u);  // 1.5 <= 2
  EXPECT_EQ(h.bucket_counts()[2], 2u);  // 3.0, 3.5 <= 4
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // 100 -> +inf
}

TEST(HistogramTest, QuantileEdges) {
  Histogram empty{{1.0, 2.0}};
  EXPECT_TRUE(std::isnan(empty.quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.min()));
  EXPECT_TRUE(std::isnan(empty.max()));
  EXPECT_TRUE(std::isnan(empty.mean()));

  Histogram h{{1.0, 2.0, 4.0, 8.0}};
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  h.observe(7.5);
  // q clamped; q=0 and q=1 report the exact observed extremes.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 7.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 7.5);
  // The median rank lands in the (1, 2] bucket; interpolation stays inside
  // the observed range.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // p99+ of 101 samples reaches the outlier's bucket.
  EXPECT_GT(h.quantile(0.999), 4.0);
}

TEST(HistogramTest, SingleSampleQuantilesCollapse) {
  Histogram h{{10.0}};
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(LogBoundsTest, GeometricLadder) {
  const auto b = log_bounds(1.0, 8.0, 2.0);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_DOUBLE_EQ(b[2], 4.0);
  EXPECT_DOUBLE_EQ(b[3], 8.0);
}

TEST(RegistryTest, HandlesAreStableAndGetOrCreate) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("a.count");
  c1.inc(3);
  // Same name -> same instrument; creating others must not invalidate it.
  for (int i = 0; i < 100; ++i) {
    std::string name = "g";  // two-step append: gcc 12 -O2 misfires -Wrestrict on "g" + to_string(i)
    name += std::to_string(i);
    reg.gauge(name);
  }
  Counter& c2 = reg.counter("a.count");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
  // Re-registering a histogram keeps the original bounds.
  Histogram& h1 = reg.histogram("h", {1.0, 2.0});
  Histogram& h2 = reg.histogram("h", {5.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
}

TEST(RegistryTest, LinkMetricNaming) {
  EXPECT_EQ(link_metric("phy.tx_data", 3), "phy.tx_data.link3");
  EXPECT_EQ(link_metric("core.debt", 0), "core.debt.link0");
}

// The JSONL export must parse line by line with the bundled flat parser and
// round-trip every recorded value — this is the contract CI's
// well-formedness check and any downstream tooling rely on.
TEST(RegistryTest, JsonlExportRoundTrips) {
  MetricsRegistry reg;
  reg.counter("z.count").inc(7);
  reg.gauge("a.gauge").set(0.25);
  Histogram& h = reg.histogram("m.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);

  std::ostringstream out;
  write_metrics_header(out);
  reg.write_jsonl(out, "\"scheme\":\"LDF\",\"rep\":0");

  std::istringstream in{out.str()};
  std::string line;
  // Header line carries the schema id + version.
  ASSERT_TRUE(std::getline(in, line));
  auto header = parse_flat_json(line);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->at("schema"), "\"rtmac.metrics\"");
  EXPECT_EQ(header->at("version"), std::to_string(kMetricsSchemaVersion));

  // Metric lines come out in name order, each carrying the context fields.
  std::vector<std::map<std::string, std::string>> lines;
  while (std::getline(in, line)) {
    auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->at("scheme"), "\"LDF\"");
    EXPECT_EQ(parsed->at("rep"), "0");
    lines.push_back(std::move(*parsed));
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("name"), "\"a.gauge\"");
  EXPECT_EQ(lines[0].at("type"), "\"gauge\"");
  EXPECT_EQ(lines[0].at("value"), "0.25");
  EXPECT_EQ(lines[1].at("name"), "\"m.hist\"");
  EXPECT_EQ(lines[1].at("type"), "\"histogram\"");
  EXPECT_EQ(lines[1].at("count"), "2");
  EXPECT_EQ(lines[1].at("sum"), "5.5");
  EXPECT_EQ(lines[2].at("name"), "\"z.count\"");
  EXPECT_EQ(lines[2].at("type"), "\"counter\"");
  EXPECT_EQ(lines[2].at("value"), "7");
}

TEST(JsonTest, NumberFormattingIsDeterministicAndFinite) {
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(std::int64_t{-3}), "-3");
  EXPECT_EQ(json_number(std::uint64_t{18446744073709551615ULL}),
            "18446744073709551615");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
}

TEST(JsonTest, QuoteUnquoteRoundTrip) {
  const std::string raw = "a \"b\"\\\n\tc";
  const auto unquoted = json_unquote(json_quote(raw));
  ASSERT_TRUE(unquoted.has_value());
  EXPECT_EQ(*unquoted, raw);
  EXPECT_FALSE(json_unquote("not-quoted").has_value());
}

// Two identically-seeded networks, one instrumented and one not, must
// produce bit-identical results: the whole observability layer is read-only
// with respect to the simulation.
TEST(ObservabilityTest, AttachedRegistryDoesNotPerturbResults) {
  const auto make = [] {
    return net::Network{expfw::video_symmetric(0.55, 0.9, 77), expfw::dbdp_factory()};
  };
  net::Network plain = make();
  plain.run(50);

  net::Network observed = make();
  MetricsRegistry registry;
  observed.attach_metrics(&registry);
  observed.run(50);

  EXPECT_EQ(plain.events_executed(), observed.events_executed());
  EXPECT_DOUBLE_EQ(plain.total_deficiency(), observed.total_deficiency());
  for (LinkId n = 0; n < 20; ++n) {
    EXPECT_DOUBLE_EQ(plain.stats().timely_throughput(n),
                     observed.stats().timely_throughput(n));
  }
  // The instrumented run actually recorded something.
  EXPECT_GT(registry.size(), 0u);
}

// collect_network_metrics needs no live registry: it reads the always-on
// accounting, so end-of-run metrics are available at zero in-run cost.
TEST(ObservabilityTest, CollectWorksWithoutLiveAttachment) {
  net::Network network{expfw::video_symmetric(0.55, 0.9, 78), expfw::dbdp_factory()};
  network.run(20);
  MetricsRegistry registry;
  collect_network_metrics(registry, network);

  EXPECT_GT(registry.counter("phy.tx_data").value(), 0u);
  EXPECT_GT(registry.counter("sim.events_executed").value(), 0u);
  const double busy = registry.gauge("phy.busy_fraction").value();
  EXPECT_GT(busy, 0.0);
  EXPECT_LE(busy, 1.0);
  for (LinkId n = 0; n < 20; ++n) {
    const double rate = registry.gauge(link_metric("link.delivery_rate", n)).value();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_GE(registry.gauge("net.deficiency").value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.gauge("net.intervals").value(), 20.0);
}

// Regression: phy.busy_fraction must be channel occupancy (union of busy
// periods), not summed airtime over sim time. Under a colliding scheme the
// summed airtime double-counts overlaps and can exceed the sim duration, so
// the old computation reported a "fraction" above 1.
TEST(ObservabilityTest, BusyFractionStaysAFractionUnderCollisions) {
  net::Network network{expfw::video_symmetric(0.9, 0.9, 79), expfw::fcsma_factory()};
  network.run(40);
  ASSERT_GT(network.medium_counters().collisions, 0u)
      << "scenario must actually collide to exercise the overlap accounting";

  MetricsRegistry registry;
  collect_network_metrics(registry, network);
  const double busy = registry.gauge("phy.busy_fraction").value();
  const double airtime = registry.gauge("phy.airtime_fraction").value();
  const double sim_seconds = network.now().seconds_f();
  EXPECT_GT(busy, 0.0);
  EXPECT_LE(busy, 1.0);
  EXPECT_DOUBLE_EQ(
      busy, network.global_sense_busy_time().seconds_f() / sim_seconds);
  // Overlap is exactly the gap between summed airtime and occupancy.
  EXPECT_GT(airtime, busy);
}

// ---- merge (the sharded-run aggregation path) -------------------------------

TEST(HistogramMergeTest, FoldsCountsSumAndExtremes) {
  Histogram a{{1.0, 2.0, 4.0}};
  Histogram b{{1.0, 2.0, 4.0}};
  for (const double v : {0.5, 1.5, 3.0}) a.observe(v);
  for (const double v : {1.8, 100.0}) b.observe(v);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 106.8);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  ASSERT_EQ(a.bucket_counts().size(), 4u);
  EXPECT_EQ(a.bucket_counts()[0], 1u);  // 0.5
  EXPECT_EQ(a.bucket_counts()[1], 2u);  // 1.5, 1.8
  EXPECT_EQ(a.bucket_counts()[2], 1u);  // 3.0
  EXPECT_EQ(a.bucket_counts()[3], 1u);  // 100 -> +inf
  // b is untouched.
  EXPECT_EQ(b.count(), 2u);
}

TEST(HistogramMergeTest, EmptyOperandsAreIdentity) {
  Histogram a{{1.0, 2.0}};
  Histogram empty{{1.0, 2.0}};
  a.observe(1.5);
  a.merge(empty);  // empty right operand: no change
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 1.5);

  Histogram c{{1.0, 2.0}};
  c.merge(a);  // empty left operand: adopts a's stats exactly
  EXPECT_EQ(c.count(), 1u);
  EXPECT_DOUBLE_EQ(c.min(), 1.5);
  EXPECT_DOUBLE_EQ(c.max(), 1.5);
  EXPECT_DOUBLE_EQ(c.sum(), 1.5);
}

TEST(RegistryMergeTest, CountersAddGaugesTakeTheirsHistogramsFold) {
  MetricsRegistry into;
  MetricsRegistry from;
  into.counter("c").inc(2);
  from.counter("c").inc(40);
  from.counter("only_theirs").inc(7);
  into.gauge("g").set(1.0);
  from.gauge("g").set(9.0);
  into.histogram("h", {1.0, 2.0}).observe(0.5);
  from.histogram("h", {1.0, 2.0}).observe(1.5);

  into.merge_from(from);
  EXPECT_EQ(into.counter("c").value(), 42u);
  EXPECT_EQ(into.counter("only_theirs").value(), 7u);  // created on the fly
  EXPECT_DOUBLE_EQ(into.gauge("g").value(), 9.0);      // last write wins
  EXPECT_EQ(into.histogram("h", {1.0, 2.0}).count(), 2u);
  // The source registry is read-only under merge.
  EXPECT_EQ(from.counter("c").value(), 40u);
}

TEST(RegistryMergeTest, SketchUnionIsDeterministicAndOrderInsensitiveOnExactSketches) {
  // Exact-mode sketches (few samples) merge as true unions, so folding the
  // same per-cell registries in any order must give identical quantiles —
  // the property the sharded metrics aggregation relies on.
  const auto fill = [](MetricsRegistry& reg, int lo, int hi) {
    QuantileSketch& s = reg.sketch("lat");
    for (int v = lo; v < hi; ++v) s.update(static_cast<double>(v));
  };
  MetricsRegistry cell0;
  MetricsRegistry cell1;
  fill(cell0, 0, 50);
  fill(cell1, 50, 100);

  MetricsRegistry ab;
  ab.merge_from(cell0);
  ab.merge_from(cell1);
  MetricsRegistry ba;
  ba.merge_from(cell1);
  ba.merge_from(cell0);

  QuantileSketch& sab = ab.sketch("lat");
  QuantileSketch& sba = ba.sketch("lat");
  EXPECT_EQ(sab.count(), 100u);
  EXPECT_EQ(sba.count(), 100u);
  EXPECT_DOUBLE_EQ(sab.sum(), sba.sum());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sab.quantile(q), sba.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(sab.min(), 0.0);
  EXPECT_DOUBLE_EQ(sab.max(), 99.0);
}

TEST(RegistryMergeTest, MergingPerCellRegistriesMatchesTheFlatRegistry) {
  // Simulate the sharded collect path: three cells each record into private
  // registries; merging them must equal one registry fed the same stream.
  MetricsRegistry flat;
  MetricsRegistry cells[3];
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      const double v = c * 20 + i;
      cells[c].counter("n").inc();
      cells[c].histogram("h", {8.0, 32.0}).observe(v);
      flat.counter("n").inc();
      flat.histogram("h", {8.0, 32.0}).observe(v);
    }
  }
  MetricsRegistry merged;
  for (const auto& cell : cells) merged.merge_from(cell);
  EXPECT_EQ(merged.counter("n").value(), flat.counter("n").value());
  EXPECT_EQ(merged.histogram("h", {8.0, 32.0}).bucket_counts(),
            flat.histogram("h", {8.0, 32.0}).bucket_counts());
  EXPECT_DOUBLE_EQ(merged.histogram("h", {8.0, 32.0}).sum(),
                   flat.histogram("h", {8.0, 32.0}).sum());
}

}  // namespace
}  // namespace rtmac::obs
