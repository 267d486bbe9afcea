// The benchmark's workloads and the measurement loop that runs them.
//
// A workload is a fixed list of operations; an operation is one simulated
// network run (synthesis, construction, intervals) together with its result
// checks. A run repeats the list in rounds until the time budget is spent,
// each round starting only when the previous one has returned (a closed
// loop). Round 0 warms the process and is left out of every median.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its spans ("" = nowhere)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< how many measurements the value summarises
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per violated check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines for the traced run's table
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
