#include "expfw/bench_cli.hpp"

#include <cstdlib>
#include <iostream>

#include "util/args.hpp"

namespace rtmac::expfw {

std::size_t BenchArgs::grid_points(std::size_t full) const {
  return smoke ? std::min<std::size_t>(full, 3) : full;
}

IntervalIndex BenchArgs::scaled(IntervalIndex full, IntervalIndex smoke_value) const {
  return smoke ? std::min(full, smoke_value) : full;
}

BenchArgs parse_bench_args(int argc, const char* const* argv,
                           IntervalIndex default_intervals, IntervalIndex smoke_intervals) {
  const ArgParser args{argc, argv};
  const auto usage = [&](std::ostream& out) {
    out << "usage: " << (argc > 0 ? argv[0] : "bench")
        << " [--intervals N] [--reps N] [--jobs N] [--smoke]\n"
        << "             [--shards N] [--shard-jobs N]\n"
        << "             [--metrics-out DIR] [--trace-out FILE]\n"
        << "             [--metrics-stream FILE] [--stream-every N] [--progress]\n"
        << "  --intervals N    deadline intervals per simulation (default "
        << default_intervals << ")\n"
        << "  --reps N         replications per grid point (default 1)\n"
        << "  --jobs N         sweep worker threads (default 0 = all cores)\n"
        << "  --shards N       partition each network into N shards (0 runs one\n"
        << "                   cell over all links; default: whatever the bench's\n"
        << "                   configs say). Results are byte-identical for any value.\n"
        << "  --shard-jobs N   execution lanes per sharded network: the calling\n"
        << "                   thread plus N-1 workers (default: one per parallel\n"
        << "                   group, capped at the core count)\n"
        << "  --smoke          tiny grid + short horizon for CI\n"
        << "  --metrics-out D  write JSONL metrics + engine profile under D\n"
        << "  --trace-out F    write a Perfetto-loadable Chrome trace to F\n"
        << "  --metrics-stream F  stream in-run metric snapshots (JSONL) to F\n"
        << "  --stream-every N    snapshot cadence in intervals (default 10)\n"
        << "  --progress       live heartbeat on stderr (tasks, rates, ETA)\n";
  };
  if (args.has("help")) {
    usage(std::cout);
    std::exit(0);
  }
  const auto unknown = args.unknown_flags({"intervals", "reps", "jobs", "smoke",
                                           "shards", "shard-jobs",
                                           "metrics-out", "trace-out", "metrics-stream",
                                           "stream-every", "progress", "help"});
  if (!unknown.empty()) {
    std::cerr << "unknown flag --" << unknown.front() << "\n";
    usage(std::cerr);
    std::exit(2);
  }

  // ArgParser's typed getters are best-effort (malformed values fall back
  // to the default); the bench flags must fail loudly instead, or a typo
  // silently reruns the default configuration.
  const auto require_int = [&](const char* name, std::int64_t def) -> std::int64_t {
    if (!args.has(name)) return def;
    const std::string raw = args.get(name, std::string{});
    char* end = nullptr;
    const long long v = raw.empty() ? 0 : std::strtoll(raw.c_str(), &end, 10);
    if (raw.empty() || end == nullptr || *end != '\0') {
      std::cerr << "--" << name << " expects an integer, got \"" << raw << "\"\n";
      usage(std::cerr);
      std::exit(2);
    }
    return v;
  };

  BenchArgs out;
  // Legacy style: a bare positional integer is the interval count.
  IntervalIndex intervals = default_intervals;
  if (!args.positional().empty()) {
    intervals = std::strtoull(args.positional().front().c_str(), nullptr, 10);
    if (intervals == 0) intervals = default_intervals;
  }
  intervals = static_cast<IntervalIndex>(
      require_int("intervals", static_cast<std::int64_t>(intervals)));
  out.smoke = args.get("smoke", false);
  out.intervals = out.smoke ? std::min(intervals, smoke_intervals) : intervals;
  const std::int64_t reps = require_int("reps", 1);
  const std::int64_t jobs = require_int("jobs", 0);
  if (reps < 1) {
    std::cerr << "--reps must be >= 1\n";
    std::exit(2);
  }
  if (jobs < 0) {
    std::cerr << "--jobs must be >= 0 (0 = all cores)\n";
    std::exit(2);
  }
  out.sweep.reps = static_cast<std::size_t>(reps);
  out.sweep.jobs = static_cast<std::size_t>(jobs);
  const std::int64_t shards = require_int("shards", -1);
  const std::int64_t shard_jobs = require_int("shard-jobs", -1);
  if (args.has("shards") && shards < 0) {
    std::cerr << "--shards must be >= 0 (0 runs one cell over all links)\n";
    std::exit(2);
  }
  if (args.has("shard-jobs") && shard_jobs < 0) {
    std::cerr << "--shard-jobs must be >= 0 (0 = one per group)\n";
    std::exit(2);
  }
  out.sweep.shards = static_cast<int>(shards);
  out.sweep.shard_jobs = static_cast<int>(shard_jobs);
  out.sweep.metrics_dir = args.get("metrics-out", std::string{});
  out.sweep.trace_out = args.get("trace-out", std::string{});
  out.sweep.stream_path = args.get("metrics-stream", std::string{});
  if ((args.has("metrics-out") && out.sweep.metrics_dir.empty()) ||
      (args.has("trace-out") && out.sweep.trace_out.empty()) ||
      (args.has("metrics-stream") && out.sweep.stream_path.empty())) {
    std::cerr << "--metrics-out/--trace-out/--metrics-stream expect a path\n";
    usage(std::cerr);
    std::exit(2);
  }
  const std::int64_t stream_every = require_int("stream-every", 10);
  if (stream_every < 1) {
    std::cerr << "--stream-every must be >= 1\n";
    std::exit(2);
  }
  out.sweep.stream_every = static_cast<std::uint64_t>(stream_every);
  out.sweep.progress = args.get("progress", false);
  return out;
}

}  // namespace rtmac::expfw
