#include "expfw/runner.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "expfw/report.hpp"
#include "obs/collect.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace_export.hpp"
#include "sim/trace.hpp"
#include "stats/deficiency.hpp"
#include "util/lane_runner.hpp"
#include "util/math.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace rtmac::expfw {

namespace {

std::vector<double> replication_column(const std::vector<std::vector<double>>& point_samples,
                                       std::size_t m) {
  std::vector<double> xs;
  xs.reserve(point_samples.size());
  for (const auto& sample : point_samples) xs.push_back(sample[m]);
  return xs;
}

/// Serializes calls to the user's config builder. Config builders are user
/// lambdas with no thread-safety contract beyond order-independence, so
/// every pool task builds under one lock (building is trivial next to a
/// run). Holding the callable as a GUARDED_BY member makes the discipline
/// compile-time checkable, which a bare local mutex never was.
class SerializedConfigAt {
 public:
  explicit SerializedConfigAt(const ConfigAt& fn) : fn_{fn} {}

  net::NetworkConfig operator()(double x) RTMAC_EXCLUDES(mutex_) {
    const util::LockGuard lock{mutex_};
    return fn_(x);
  }

 private:
  util::Mutex mutex_;
  const ConfigAt& fn_ RTMAC_GUARDED_BY(mutex_);
};

/// Completion bookkeeping behind one mutex: per-point done counters (CSV row
/// flushing + the heartbeat's grid-point count) and the wall-clock progress
/// aggregates. The mutex also orders each task's sample writes (sequenced
/// before its task_finished call) before any CSV row that reads them.
class ProgressBoard {
 public:
  ProgressBoard(const std::vector<SweepResult>& results, std::size_t grid_size,
                std::size_t tasks_per_point, std::size_t tasks, IntervalIndex intervals,
                bool progress, CsvWriter* csv, std::ofstream* csv_file)
      : results_{results},
        tasks_per_point_{tasks_per_point},
        tasks_{tasks},
        grid_size_{grid_size},
        intervals_{intervals},
        progress_{progress},
        csv_{csv},
        csv_file_{csv_file},
        sweep_start_{std::chrono::steady_clock::now()},
        point_done_(grid_size, 0) {}

  /// Called by each pool task after it stored its sample (and profile).
  void task_finished(std::size_t point, std::uint64_t events) RTMAC_EXCLUDES(mutex_) {
    const util::LockGuard lock{mutex_};
    ++point_done_[point];
    if (point_done_[point] == tasks_per_point_) ++points_done_;
    if (csv_ != nullptr) {
      // Incremental CSV: flush grid-point rows in ascending grid order as
      // soon as every task for the next point has finished.
      while (next_flush_ < grid_size_ && point_done_[next_flush_] == tasks_per_point_) {
        write_sweep_csv_row(*csv_, results_, next_flush_);
        csv_file_->flush();
        ++next_flush_;
      }
    }
    if (progress_) {
      ++tasks_done_;
      events_done_ += events;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start_)
              .count();
      const double inv = elapsed > 0.0 ? 1.0 / elapsed : 0.0;
      const double eta = static_cast<double>(tasks_ - tasks_done_) * elapsed /
                         static_cast<double>(tasks_done_);
      // Heartbeat only: wall-clock rates on stderr, overwritten in place;
      // never written to any deterministic output (that is also why peak
      // RSS lives here and NOT in the metrics registry — it is a property
      // of the whole process, not of any one run).
      std::fprintf(stderr,
                   "\rsweep: %zu/%zu tasks, %zu/%zu points, %.3g events/s, "
                   "%.3g intervals/s, rss %ld KB, eta %.1fs   ",
                   tasks_done_, tasks_, points_done_, grid_size_,
                   static_cast<double>(events_done_) * inv,
                   static_cast<double>(tasks_done_) * static_cast<double>(intervals_) * inv,
                   util::peak_rss_kb(), eta);
      std::fflush(stderr);
    }
  }

 private:
  const std::vector<SweepResult>& results_;
  const std::size_t tasks_per_point_;
  const std::size_t tasks_;
  const std::size_t grid_size_;
  const IntervalIndex intervals_;
  const bool progress_;
  CsvWriter* const csv_ RTMAC_PT_GUARDED_BY(mutex_);        ///< null = no CSV
  std::ofstream* const csv_file_ RTMAC_PT_GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point sweep_start_;

  util::Mutex mutex_;
  std::vector<std::size_t> point_done_ RTMAC_GUARDED_BY(mutex_);
  std::size_t next_flush_ RTMAC_GUARDED_BY(mutex_) = 0;
  std::size_t points_done_ RTMAC_GUARDED_BY(mutex_) = 0;
  std::size_t tasks_done_ RTMAC_GUARDED_BY(mutex_) = 0;
  std::uint64_t events_done_ RTMAC_GUARDED_BY(mutex_) = 0;
};

}  // namespace

double SweepResult::mean(std::size_t i, std::size_t m) const {
  return rtmac::mean(replication_column(samples[i], m));
}

double SweepResult::stddev(std::size_t i, std::size_t m) const {
  return std::sqrt(sample_variance(replication_column(samples[i], m)));
}

double SweepResult::ci95(std::size_t i, std::size_t m) const {
  if (reps < 2) return 0.0;
  return 1.96 * stddev(i, m) / std::sqrt(static_cast<double>(reps));
}

std::uint64_t sweep_seed(std::uint64_t base_seed, std::string_view scheme,
                         std::size_t x_index, std::size_t replication) {
  // FNV-1a folds the scheme name into the stream so every scheme sees
  // independent randomness even at the same (point, replication).
  std::uint64_t name_hash = 1469598103934665603ULL;
  for (const char c : scheme) {
    name_hash ^= static_cast<unsigned char>(c);
    name_hash *= 1099511628211ULL;
  }
  std::uint64_t seed = mix64(base_seed, name_hash);
  seed = mix64(seed, static_cast<std::uint64_t>(x_index));
  seed = mix64(seed, static_cast<std::uint64_t>(replication));
  return seed;
}

MetricFn total_deficiency_metric() {
  return [](const net::Network& network) {
    return std::vector<double>{stats::total_deficiency(network.stats(),
                                                       network.config().requirements.q())};
  };
}

MetricFn group_deficiency_metric(std::vector<std::vector<LinkId>> groups) {
  return [groups = std::move(groups)](const net::Network& network) {
    std::vector<double> out;
    out.reserve(groups.size());
    for (const auto& group : groups) {
      out.push_back(stats::group_deficiency(network.stats(),
                                            network.config().requirements.q(), group));
    }
    return out;
  };
}

std::vector<SweepResult> run_sweeps(const std::vector<SchemeSpec>& schemes,
                                    const ConfigAt& config_at, const std::vector<double>& grid,
                                    IntervalIndex intervals, const MetricFn& metric,
                                    std::vector<std::string> metric_names,
                                    const SweepOptions& opts) {
  if (schemes.empty()) throw std::invalid_argument{"run_sweeps: no schemes"};
  if (grid.empty()) throw std::invalid_argument{"run_sweeps: empty grid"};
  if (opts.reps == 0) throw std::invalid_argument{"run_sweeps: reps must be >= 1"};
  if (metric_names.empty()) throw std::invalid_argument{"run_sweeps: no metric names"};
  if (opts.stream_every == 0) {
    throw std::invalid_argument{"run_sweeps: stream_every must be >= 1"};
  }

  const bool with_metrics = !opts.metrics_dir.empty();
  const bool with_trace = !opts.trace_out.empty();
  const bool with_stream = !opts.stream_path.empty();
  const bool with_csv = !opts.csv_path.empty();
  if (with_csv && with_metrics) {
    throw std::invalid_argument{
        "run_sweeps: csv_path is incompatible with metrics_dir (profile comments "
        "are only known at the end of the run; use write_sweep_csv instead)"};
  }

  std::vector<SweepResult> results;
  results.reserve(schemes.size());
  for (const auto& scheme : schemes) {
    SweepResult r;
    r.scheme = scheme.name;
    r.metric_names = metric_names;
    r.xs = grid;
    r.reps = opts.reps;
    r.samples.assign(grid.size(),
                     std::vector<std::vector<double>>(opts.reps, std::vector<double>{}));
    if (with_metrics) {
      r.profiles.assign(grid.size(), std::vector<TaskProfile>(opts.reps));
    }
    results.push_back(std::move(r));
  }

  const std::size_t tasks = schemes.size() * grid.size() * opts.reps;
  const std::size_t requested = opts.jobs == 0 ? util::hardware_threads() : opts.jobs;
  ThreadPool pool{std::min(requested, tasks)};
  SerializedConfigAt serialized_config_at{config_at};

  // Per-task observability output, serialized JSONL held per task slot so
  // the concatenated files come out in deterministic (scheme, point, rep)
  // order whatever the thread schedule was. Sim-domain metrics and
  // wall-clock profile lines are kept apart: the former are byte-identical
  // across --jobs, the latter cannot be.
  std::vector<std::string> metric_blocks(with_metrics ? tasks : 0);
  std::vector<std::string> profile_blocks(with_metrics ? tasks : 0);
  // In-run metric snapshots, same per-task-slot scheme as metric_blocks:
  // each task streams into its own string sink and the blocks concatenate
  // in task order, so the streamed file is byte-identical across --jobs.
  std::vector<std::string> stream_blocks(with_stream ? tasks : 0);
  // The first task additionally records a protocol trace of its first
  // kTraceCaptureIntervals intervals for the timeline export.
  sim::Tracer trace_capture{0};

  // Incremental CSV: header up front, each grid-point row flushed (in
  // ascending grid order) once all tasks_per_point tasks for it finished.
  // Shares write_sweep_csv's column/row formatting, so the bytes match the
  // buffered writer exactly.
  const std::size_t tasks_per_point = schemes.size() * opts.reps;
  // unique_ptr rather than optional: the late-bound stream/writer pair is
  // all-or-nothing, and pointers keep flow-sensitive optional-access
  // analyzers (bugprone-unchecked-optional-access) out of the picture.
  std::unique_ptr<std::ofstream> csv_file;
  std::unique_ptr<CsvWriter> csv;
  if (with_csv) {
    if (const auto parent = std::filesystem::path{opts.csv_path}.parent_path();
        !parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    csv_file = std::make_unique<std::ofstream>(opts.csv_path);
    if (!*csv_file) {
      throw std::runtime_error{"run_sweeps: cannot write csv to " + opts.csv_path};
    }
    csv = std::make_unique<CsvWriter>(*csv_file);
    if (opts.reps > 1) {
      csv->comment("reps=" + std::to_string(opts.reps) +
                   "; ci95 = 1.96*sd/sqrt(reps) (normal approximation)");
    }
    csv->header(sweep_csv_columns(opts.csv_x, results));
    csv_file->flush();
  }

  ProgressBoard board{results,      grid.size(), tasks_per_point, tasks,
                      intervals,    opts.progress, csv.get(),     csv_file.get()};

  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      for (std::size_t rep = 0; rep < opts.reps; ++rep) {
        const std::size_t task_index = (s * grid.size() + i) * opts.reps + rep;
        futures.push_back(pool.submit([&, s, i, rep, task_index] {
          net::NetworkConfig config = serialized_config_at(grid[i]);
          config.seed = sweep_seed(config.seed, schemes[s].name, i, rep);
          // Engine-selection overrides: purely an execution knob (results
          // are partition-independent), so applying it after config_at is
          // safe for any scenario builder.
          if (opts.shards >= 0) {
            config.shards = static_cast<std::size_t>(opts.shards);
            config.auto_shard = false;
          }
          if (opts.shard_jobs >= 0) {
            config.shard_jobs = static_cast<std::size_t>(opts.shard_jobs);
          }
          net::Network network{std::move(config), schemes[s].factory};

          // Shared provenance fields of every observability line this task
          // emits (metrics.jsonl records and streamed snapshots alike).
          std::string context;
          if (with_metrics || with_stream) {
            context = "\"scheme\":" + obs::json_quote(schemes[s].name) +
                      ",\"x\":" + obs::json_number(grid[i]) +
                      ",\"x_index\":" + std::to_string(i) +
                      ",\"rep\":" + std::to_string(rep);
          }

          obs::MetricsRegistry registry;
          obs::StringStreamSink stream_sink;
          if (with_metrics || with_stream) network.attach_metrics(&registry);
          if (with_stream) registry.stream_to(&stream_sink, opts.stream_every, context);
          // Protocol tracing needs a one-cell network; a multi-cell task
          // simply goes untraced (the trace file stays empty).
          if (with_trace && task_index == 0 && network.cell_count() == 1) {
            network.attach_tracer(&trace_capture);
            network.add_observer([&network](IntervalIndex k, std::span<const int>,
                                            std::span<const int>) {
              if (k + 1 >= kTraceCaptureIntervals) network.attach_tracer(nullptr);
            });
          }

          const auto wall_start = std::chrono::steady_clock::now();
          network.run(intervals);
          const double wall_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                  .count();

          std::vector<double> sample = metric(network);
          if (sample.size() != metric_names.size()) {
            throw std::runtime_error{"run_sweeps: metric returned " +
                                     std::to_string(sample.size()) + " values, expected " +
                                     std::to_string(metric_names.size())};
          }
          results[s].samples[i][rep] = std::move(sample);

          if (with_stream) stream_blocks[task_index] = stream_sink.str();
          if (with_metrics) {
            network.attach_metrics(nullptr);
            obs::collect_network_metrics(registry, network);
            const TaskProfile profile{network.events_executed(), wall_seconds};
            results[s].profiles[i][rep] = profile;

            std::ostringstream block;
            registry.write_jsonl(block, context);
            metric_blocks[task_index] = std::move(block).str();
            // Lane attribution (wall clock, so profile output only): per
            // lane, the time spent running cells and the time lost waiting
            // at the lane barrier for the slowest lane.
            std::string work_ns = "[";
            std::string wait_ns = "[";
            for (const util::LaneRunner::LaneStats& lane : network.lane_stats()) {
              if (work_ns.size() > 1) {
                work_ns += ',';
                wait_ns += ',';
              }
              work_ns += obs::json_number(lane.work_ns);
              wait_ns += obs::json_number(lane.wait_ns);
            }
            profile_blocks[task_index] =
                obs::JsonObject{}
                    .field("name", "task_profile")
                    .raw("scheme", obs::json_quote(schemes[s].name))
                    .field("x", grid[i])
                    .field("x_index", static_cast<std::uint64_t>(i))
                    .field("rep", static_cast<std::uint64_t>(rep))
                    .field("events", profile.events)
                    .field("wall_seconds", profile.wall_seconds)
                    .field("events_per_sec", profile.events_per_sec())
                    .field("prof.lane_rounds", network.lane_rounds())
                    .raw("prof.lane_work_ns", work_ns + "]")
                    .raw("prof.lane_wait_ns", wait_ns + "]")
                    .str() +
                "\n";
          }

          if (with_csv || opts.progress) {
            board.task_finished(i, network.events_executed());
          }
        }));
      }
    }
  }
  pool.wait_all(futures);
  for (auto& f : futures) f.get();  // surface the first task failure
  if (opts.progress) std::fprintf(stderr, "\n");

  if (with_stream) {
    obs::FileStreamSink stream_file{opts.stream_path};
    if (!stream_file.ok()) {
      throw std::runtime_error{"run_sweeps: cannot write metrics stream to " +
                               opts.stream_path};
    }
    obs::write_stream_header(stream_file.stream());
    for (const auto& block : stream_blocks) stream_file.stream() << block;
    stream_file.flush();
  }
  if (with_metrics) {
    std::error_code ec;
    std::filesystem::create_directories(opts.metrics_dir, ec);
    std::ofstream metrics_file{opts.metrics_dir + "/metrics.jsonl"};
    std::ofstream profile_file{opts.metrics_dir + "/profile.jsonl"};
    if (!metrics_file || !profile_file) {
      throw std::runtime_error{"run_sweeps: cannot write metrics files under " +
                               opts.metrics_dir};
    }
    obs::write_metrics_header(metrics_file);
    for (const auto& block : metric_blocks) metrics_file << block;
    obs::write_metrics_header(profile_file);
    for (const auto& block : profile_blocks) profile_file << block;
  }
  if (with_trace) {
    if (const auto parent = std::filesystem::path{opts.trace_out}.parent_path();
        !parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    std::ofstream trace_file{opts.trace_out};
    if (!trace_file) {
      throw std::runtime_error{"run_sweeps: cannot write trace to " + opts.trace_out};
    }
    obs::write_chrome_trace(trace_file, trace_capture);
  }
  return results;
}

SweepResult run_sweep(const std::string& scheme_name, const mac::SchemeFactory& scheme,
                      const ConfigAt& config_at, const std::vector<double>& grid,
                      IntervalIndex intervals, const MetricFn& metric,
                      std::vector<std::string> metric_names, const SweepOptions& opts) {
  auto results = run_sweeps({{scheme_name, scheme}}, config_at, grid, intervals, metric,
                            std::move(metric_names), opts);
  return std::move(results.front());
}

std::vector<double> linspace(double lo, double hi, std::size_t points) {
  if (points < 2) throw std::invalid_argument{"linspace: need at least 2 points"};
  std::vector<double> xs(points);
  for (std::size_t i = 0; i < points; ++i) {
    xs[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
  }
  return xs;
}

}  // namespace rtmac::expfw
