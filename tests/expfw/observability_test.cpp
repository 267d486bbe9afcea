// End-to-end observability of the experiment framework: run_sweeps with
// --metrics-out/--trace-out must produce well-formed, schema-versioned
// JSONL whose sim-domain half is byte-identical across --jobs (the same
// determinism contract the CSV output honours), plus a structurally valid
// Chrome trace; RunObserver must do the same for directly-run networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "expfw/observe.hpp"
#include "expfw/runner.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace rtmac::expfw {
namespace {

std::string file_contents(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("rtmac_obs_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// Asserts every line of a JSONL file parses, and that the first line is
/// the rtmac.metrics schema header. Returns the parsed non-header lines'
/// "name" values (quotes stripped).
std::vector<std::string> check_jsonl(const std::string& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.is_open()) << path;
  std::string line;
  EXPECT_TRUE(std::getline(in, line));
  auto header = obs::parse_flat_json(line);
  EXPECT_TRUE(header.has_value());
  EXPECT_EQ(header->at("schema"), "\"rtmac.metrics\"");

  std::vector<std::string> names;
  while (std::getline(in, line)) {
    auto parsed = obs::parse_flat_json(line);
    EXPECT_TRUE(parsed.has_value()) << line;
    if (!parsed) continue;
    const auto name = obs::json_unquote(parsed->at("name"));
    EXPECT_TRUE(name.has_value());
    if (name) names.push_back(*name);
  }
  return names;
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

SweepOptions observed_options(std::size_t jobs, const std::string& dir,
                              const std::string& trace) {
  SweepOptions opts;
  opts.reps = 2;
  opts.jobs = jobs;
  opts.metrics_dir = dir;
  opts.trace_out = trace;
  return opts;
}

std::vector<SweepResult> tiny_sweep(const SweepOptions& opts) {
  return run_sweeps({{"LDF", ldf_factory()}, {"DB-DP", dbdp_factory()}},
                    [](double a) { return video_symmetric(a, 0.9, 42); }, {0.4, 0.55},
                    /*intervals=*/10, total_deficiency_metric(), {"deficiency"}, opts);
}

TEST(SweepObservabilityTest, WritesWellFormedMetricsProfileAndTrace) {
  const std::string dir = temp_dir("sweep");
  const std::string trace = dir + "/trace.json";
  const auto results = tiny_sweep(observed_options(2, dir, trace));

  // Profiles are populated alongside the files.
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    ASSERT_EQ(r.profiles.size(), 2u);
    for (const auto& point : r.profiles) {
      ASSERT_EQ(point.size(), 2u);
      for (const auto& p : point) EXPECT_GT(p.events, 0u);
    }
  }

  const auto names = check_jsonl(dir + "/metrics.jsonl");
  EXPECT_TRUE(contains(names, "phy.busy_fraction"));
  EXPECT_TRUE(contains(names, "link.delivery_rate.link0"));
  EXPECT_TRUE(contains(names, "link.collision_rate.link19"));
  EXPECT_TRUE(contains(names, "net.deficiency"));
  EXPECT_TRUE(contains(names, "sim.events_executed"));
  // Wall-clock data lives in profile.jsonl, not the deterministic file.
  EXPECT_FALSE(contains(names, "task_profile"));
  const auto profile_names = check_jsonl(dir + "/profile.jsonl");
  // One profile line per (scheme, point, rep) task.
  EXPECT_EQ(profile_names.size(), 2u * 2u * 2u);
  // Lane attribution is wall clock: profile output only.
  const std::string profile = file_contents(dir + "/profile.jsonl");
  EXPECT_NE(profile.find("\"prof.lane_rounds\":10,"), std::string::npos);
  EXPECT_NE(profile.find("\"prof.lane_work_ns\":["), std::string::npos);
  EXPECT_NE(profile.find("\"prof.lane_wait_ns\":["), std::string::npos);
  EXPECT_EQ(file_contents(dir + "/metrics.jsonl").find("prof."), std::string::npos);

  const std::string trace_json = file_contents(trace);
  EXPECT_EQ(trace_json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace_json.find("\"schema\":\"rtmac.trace\""), std::string::npos);
}

TEST(SweepObservabilityTest, MetricsFileIsByteIdenticalAcrossJobCounts) {
  const std::string dir1 = temp_dir("jobs1");
  const std::string dirN = temp_dir("jobsN");
  (void)tiny_sweep(observed_options(1, dir1, {}));
  (void)tiny_sweep(observed_options(4, dirN, {}));
  const std::string serial = file_contents(dir1 + "/metrics.jsonl");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, file_contents(dirN + "/metrics.jsonl"));
}

TEST(SweepObservabilityTest, DisabledObservabilityLeavesResultsLean) {
  SweepOptions opts;
  opts.reps = 1;
  opts.jobs = 1;
  const auto results = tiny_sweep(opts);
  for (const auto& r : results) EXPECT_TRUE(r.profiles.empty());
}

TEST(RunObserverTest, WritesLabeledMetricsAndTrace) {
  const std::string dir = temp_dir("observer");
  const std::string trace = dir + "/run_trace.json";
  net::Network network{video_symmetric(0.55, 0.9, 7), dbdp_factory()};
  RunObserver observer{dir, trace};
  EXPECT_TRUE(observer.enabled());
  observer.attach(network, "dbdp");
  network.run(10);
  ASSERT_TRUE(observer.finish());

  const auto names = check_jsonl(dir + "/metrics_dbdp.jsonl");
  EXPECT_TRUE(contains(names, "phy.busy_fraction"));
  EXPECT_TRUE(contains(names, "profile.wall_seconds"));
  EXPECT_TRUE(contains(names, "profile.events_per_sec"));
  // The label is spliced into every metric line.
  std::ifstream in{dir + "/metrics_dbdp.jsonl"};
  std::string header, line;
  std::getline(in, header);
  while (std::getline(in, line)) {
    const auto parsed = obs::parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->at("label"), "\"dbdp\"");
  }

  const std::string trace_json = file_contents(trace);
  EXPECT_EQ(trace_json.find("{\"traceEvents\":["), 0u);
}

TEST(RunObserverTest, DisabledObserverIsANoOp) {
  net::Network network{video_symmetric(0.55, 0.9, 8), dbdp_factory()};
  RunObserver observer{{}, {}};
  EXPECT_FALSE(observer.enabled());
  observer.attach(network, "ignored");
  network.run(5);
  EXPECT_TRUE(observer.finish());
  EXPECT_GT(network.events_executed(), 0u);
}

}  // namespace
}  // namespace rtmac::expfw
