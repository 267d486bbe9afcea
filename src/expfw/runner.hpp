// Sweep execution: run schemes across parameter grids and collect metrics.
//
// The sweep engine fans (scheme x grid point x replication) tasks across a
// fixed-size thread pool. Each task derives its root RNG seed
// deterministically from (base seed, scheme name, x-index, replication), so
// the numbers are bit-identical regardless of --jobs or scheduling order,
// and every replication is an independent stream. Per-replication samples
// are kept so reports can show mean / stddev / 95% confidence intervals,
// matching how the paper's ns-3 evaluation averages independent runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "mac/link_mac.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"

namespace rtmac::expfw {

/// Builds the network config for one sweep point (x = alpha*, rho, ...).
/// Must be safe to call from the sweep engine's worker threads; calls are
/// serialized, so a builder that reads shared state needs no locking of
/// its own, but it must not depend on call order.
using ConfigAt = std::function<net::NetworkConfig(double x)>;

/// Extracts one or more metric values from a finished run. The default
/// metric everywhere is total timely-throughput deficiency. Runs on worker
/// threads, possibly concurrently; must be stateless or internally locked.
using MetricFn = std::function<std::vector<double>(const net::Network&)>;

/// Execution knobs shared by every sweep (the --reps/--jobs flag pair plus
/// the observability outputs).
struct SweepOptions {
  std::size_t reps = 1;  ///< independent replications per grid point (>= 1)
  std::size_t jobs = 0;  ///< worker threads; 0 = all hardware threads

  /// Sharding override applied to every task's config: -1 leaves the
  /// config's own shards/auto_shard untouched, 0 runs one cell over all
  /// links, >= 1 requests that many shards (net/network partitions the
  /// topology; results are byte-identical for any value by construction —
  /// the flag only moves work between cells).
  int shards = -1;
  /// Worker threads per sharded network (NetworkConfig::shard_jobs); -1
  /// leaves the config untouched. Keep the product with `jobs` near the
  /// hardware thread count.
  int shard_jobs = -1;

  /// When non-empty, every task runs with a metrics registry attached and
  /// the sweep writes <metrics_dir>/metrics.jsonl (sim-domain metrics,
  /// deterministic across --jobs) plus <metrics_dir>/profile.jsonl
  /// (wall-clock engine profiling, inherently nondeterministic — kept in a
  /// separate file so the deterministic one can be diffed byte-for-byte).
  std::string metrics_dir;
  /// When non-empty, the first task (first scheme, first grid point, rep 0)
  /// runs with a tracer attached for its first kTraceCaptureIntervals
  /// intervals and the sweep writes a Chrome trace-event timeline here
  /// (loadable in Perfetto / chrome://tracing).
  std::string trace_out;

  /// When non-empty, every task streams a whole-registry metrics snapshot
  /// every `stream_every` intervals and the sweep concatenates the per-task
  /// JSONL blocks here in deterministic task order — the in-run time series
  /// behind --metrics-stream. Snapshots carry sim-time stamps only, so the
  /// file is byte-identical across --jobs. Works with or without
  /// metrics_dir (a registry is attached either way).
  std::string stream_path;
  /// Snapshot cadence in intervals for stream_path (>= 1).
  std::uint64_t stream_every = 10;

  /// Prints a live heartbeat to stderr (tasks done, grid points done,
  /// events/s, intervals/s, ETA) as tasks finish — the --progress flag.
  /// Wall-clock by nature; never touches any deterministic output file.
  bool progress = false;

  /// When non-empty, the sweep writes the figure CSV incrementally to this
  /// path: the header goes out up front and each grid-point row is flushed
  /// as soon as every (scheme, rep) task for that point has finished, in
  /// ascending grid order. Byte-identical to write_sweep_csv for the same
  /// results. Incompatible with metrics_dir (the buffered writer prepends
  /// per-task profile comments that only exist at the end of the run);
  /// run_sweeps throws std::invalid_argument if both are set.
  std::string csv_path;
  /// First-column label of the incremental CSV (the grid variable name).
  std::string csv_x = "x";
};

/// How many intervals of the traced task a sweep captures (bounds the trace
/// file; one interval is enough to inspect, fifty show convergence).
inline constexpr IntervalIndex kTraceCaptureIntervals = 50;

/// Engine profile of one (scheme, grid point, replication) task.
struct TaskProfile {
  std::uint64_t events = 0;    ///< simulator events executed by the task
  double wall_seconds = 0.0;   ///< wall-clock time of Network::run
  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
};

/// One scheme to sweep: display name + factory.
struct SchemeSpec {
  std::string name;
  mac::SchemeFactory factory;
};

/// Result of sweeping one scheme over a grid, with all replications kept.
struct SweepResult {
  std::string scheme;
  std::vector<std::string> metric_names;  ///< one per metric column
  std::vector<double> xs;                 ///< grid
  std::size_t reps = 1;                   ///< replications per grid point
  /// samples[i][r][m]: metric m of replication r at grid point i.
  std::vector<std::vector<std::vector<double>>> samples;
  /// profiles[i][r]: engine profile of replication r at grid point i.
  /// Empty unless the sweep ran with SweepOptions::metrics_dir set.
  std::vector<std::vector<TaskProfile>> profiles;

  /// Mean over replications of metric m at grid point i.
  [[nodiscard]] double mean(std::size_t i, std::size_t m) const;
  /// Sample standard deviation (n-1); 0 when reps == 1.
  [[nodiscard]] double stddev(std::size_t i, std::size_t m) const;
  /// Half-width of the 95% confidence interval for the mean,
  /// 1.96 * stddev / sqrt(reps) (normal approximation); 0 when reps == 1.
  [[nodiscard]] double ci95(std::size_t i, std::size_t m) const;
};

/// Root seed for one simulation task. Chained SplitMix64 over
/// (base_seed, FNV-1a(scheme), x_index, replication): platform-independent,
/// collision-resistant, and independent of thread count by construction.
[[nodiscard]] std::uint64_t sweep_seed(std::uint64_t base_seed, std::string_view scheme,
                                       std::size_t x_index, std::size_t replication);

/// The standard metric: { total deficiency } (Definition 1).
[[nodiscard]] MetricFn total_deficiency_metric();

/// Group-wise deficiency metric for the asymmetric experiments.
[[nodiscard]] MetricFn group_deficiency_metric(std::vector<std::vector<LinkId>> groups);

/// Runs every scheme at every grid point for `opts.reps` replications of
/// `intervals` deadline intervals each, fanned across one shared thread
/// pool. The seed in the config produced by `config_at` is the base seed
/// of the per-task derivation. Returns one SweepResult per scheme, in
/// input order. Throws std::invalid_argument on an empty grid/scheme list,
/// reps == 0, or empty metric names; rethrows any task failure.
[[nodiscard]] std::vector<SweepResult> run_sweeps(
    const std::vector<SchemeSpec>& schemes, const ConfigAt& config_at,
    const std::vector<double>& grid, IntervalIndex intervals, const MetricFn& metric,
    std::vector<std::string> metric_names, const SweepOptions& opts = {});

/// Single-scheme convenience wrapper around run_sweeps.
[[nodiscard]] SweepResult run_sweep(const std::string& scheme_name,
                                    const mac::SchemeFactory& scheme, const ConfigAt& config_at,
                                    const std::vector<double>& grid, IntervalIndex intervals,
                                    const MetricFn& metric, std::vector<std::string> metric_names,
                                    const SweepOptions& opts = {});

/// Evenly spaced grid [lo, hi] with `points` points (inclusive). Throws
/// std::invalid_argument if points < 2 (also in NDEBUG builds).
[[nodiscard]] std::vector<double> linspace(double lo, double hi, std::size_t points);

}  // namespace rtmac::expfw
