// rtmac benchmark driver: runs one workload and prints its metrics.
//
//   rtmac_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. Failed checks are listed on standard error.
#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "rtmac_perfbench: " << error << "\n"
            << "usage: rtmac_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

/// Shortest decimal form that reads back as the same double.
std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string{"null"};
}

template <typename T>
bool parse_number(const std::string& text, T& out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ok = parse_number(value, options.seed);
    } else if (flag == "--seconds") {
      ok = parse_number(value, options.seconds) && options.seconds > 0.0;
    } else if (flag == "--trace") {
      ok = parse_number(value, trace) && (trace == 0 || trace == 1);
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
    if (!ok) return usage("bad value '" + value + "' for " + flag);
  }
  if (!have_workload) return usage("--workload is required");
  options.trace = trace == 1;

  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "rtmac_perfbench: " << e.what() << "\n";
    return 1;
  }

  if (options.trace) {
    std::cout << "per-layer metrics, workload " << options.workload << ", seed " << options.seed
              << "\n";
    for (const perfbench::Metric& m : report.metrics) {
      std::cout << "  " << std::left << std::setw(36) << m.name << std::right << std::setw(16)
                << m.value << " " << std::left << std::setw(13) << m.unit << std::right
                << " n=" << m.samples << "\n";
    }
    for (const std::string& note : report.notes) std::cout << note << "\n";
  }
  constexpr std::size_t kMaxListed = 20;
  for (std::size_t i = 0; i < report.failures.size() && i < kMaxListed; ++i) {
    std::cerr << "CHECK FAILED: " << report.failures[i] << "\n";
  }

  std::cout << "{\"correct\": " << (report.failures.empty() ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
