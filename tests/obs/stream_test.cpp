// The in-run metrics stream: schema header, snapshot cadence, sim-time
// stamping (monotone t_ns, no wall-clock anywhere), the no-sink fast path,
// and — the invariant everything else rides on — that attaching a stream
// does not perturb simulation results.
#include "obs/stream.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rtmac::obs {
namespace {

std::vector<std::map<std::string, std::string>> parse_lines(const std::string& text) {
  std::istringstream in{text};
  std::string line;
  std::vector<std::map<std::string, std::string>> out;
  while (std::getline(in, line)) {
    auto parsed = parse_flat_json(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (parsed.has_value()) out.push_back(std::move(*parsed));
  }
  return out;
}

TEST(StreamSinkTest, HeaderCarriesSchemaAndVersion) {
  std::ostringstream out;
  write_stream_header(out);
  const auto header = parse_flat_json(out.str());
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->at("schema"), "\"rtmac.metrics-stream\"");
  EXPECT_EQ(header->at("version"), std::to_string(kMetricsStreamSchemaVersion));
}

TEST(StreamSinkTest, NullSinkDiscardsEverything) {
  NullStreamSink sink;
  sink.stream() << "a large payload that goes nowhere\n";
  sink.flush();
  EXPECT_TRUE(sink.stream().good());
}

TEST(StreamTest, CadenceEmitsEveryKthTick) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  StringStreamSink sink;
  reg.stream_to(&sink, /*every=*/3, "\"label\":\"t\"");
  ASSERT_TRUE(reg.streaming());
  for (std::uint64_t k = 0; k < 10; ++k) {
    reg.stream_tick(k, static_cast<std::int64_t>(1000 * (k + 1)));
  }
  // Ticks 3, 6, 9 (1-based cadence counting) -> k = 2, 5, 8.
  const auto lines = parse_lines(sink.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].at("k"), "2");
  EXPECT_EQ(lines[1].at("k"), "5");
  EXPECT_EQ(lines[2].at("k"), "8");
  for (const auto& line : lines) {
    EXPECT_EQ(line.at("label"), "\"t\"");
    EXPECT_EQ(line.at("name"), "\"c\"");
  }
}

TEST(StreamTest, TickWithoutSinkIsANoOp) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  EXPECT_FALSE(reg.streaming());
  reg.stream_tick(0, 0);  // must not crash or emit
  StringStreamSink sink;
  reg.stream_to(&sink, 1);
  reg.stream_to(nullptr);  // detach resets
  EXPECT_FALSE(reg.streaming());
  reg.stream_tick(1, 1);
  EXPECT_TRUE(sink.str().empty());
}

TEST(StreamTest, ZeroCadenceThrows) {
  MetricsRegistry reg;
  StringStreamSink sink;
  EXPECT_THROW(reg.stream_to(&sink, 0), std::invalid_argument);
}

// End-to-end through Network::run: every snapshot is stamped with the
// interval index and the sim-time interval end, strictly monotone — the
// property CI's stream validation asserts on real bench output.
TEST(StreamTest, NetworkStreamStampsAreMonotoneSimTime) {
  net::Network network{expfw::video_symmetric(0.55, 0.9, 91), expfw::dbdp_factory()};
  MetricsRegistry reg;
  StringStreamSink sink;
  network.attach_metrics(&reg);
  reg.stream_to(&sink, /*every=*/5);
  network.run(20);

  const auto lines = parse_lines(sink.str());
  ASSERT_FALSE(lines.empty());
  std::int64_t prev_t = -1;
  std::int64_t prev_k = -1;
  std::size_t snapshots = 0;
  for (const auto& line : lines) {
    const auto k = std::stoll(line.at("k"));
    const auto t = std::stoll(line.at("t_ns"));
    if (k != prev_k) {
      ++snapshots;
      EXPECT_GT(t, prev_t) << "sim-time stamps must be strictly monotone";
      prev_t = t;
      prev_k = k;
    } else {
      EXPECT_EQ(t, prev_t) << "one snapshot = one timestamp";
    }
  }
  // 20 intervals at cadence 5 -> snapshots at k = 4, 9, 14, 19.
  EXPECT_EQ(snapshots, 4u);
  EXPECT_EQ(prev_k, 19);
}

// Two identically-seeded networks, streaming and not: bit-identical
// results. The stream is read-only observability like the registry itself.
TEST(StreamTest, StreamingDoesNotPerturbResults) {
  const auto make = [] {
    return net::Network{expfw::video_symmetric(0.55, 0.9, 92), expfw::dbdp_factory()};
  };
  net::Network plain = make();
  plain.run(30);

  net::Network streamed = make();
  MetricsRegistry reg;
  StringStreamSink sink;
  streamed.attach_metrics(&reg);
  reg.stream_to(&sink, 2);
  streamed.run(30);

  EXPECT_EQ(plain.events_executed(), streamed.events_executed());
  EXPECT_DOUBLE_EQ(plain.total_deficiency(), streamed.total_deficiency());
  EXPECT_FALSE(sink.str().empty());
}

}  // namespace
}  // namespace rtmac::obs
