// Microbenchmarks (google-benchmark): raw engine and protocol throughput —
// how many simulated events/intervals per wall-clock second the substrate
// sustains. Not a paper figure; guards against performance regressions in
// the simulator that would make the figure benches impractically slow.
//
// This binary also owns the repo's allocation-count benchmarks: a counting
// `operator new` hook (below) makes heap traffic a measurable, CI-gatable
// quantity. The engine's steady-state contract — zero allocations per
// scheduled/cancelled/fired event once pools are warm — is asserted by
// tools/bench_report.py over this binary's JSON output.
//
// Provides its own main so `--smoke` works like every other bench binary
// (CI runs `$b --smoke` uniformly): smoke mode runs the cheap event queue
// and sketch benchmarks plus every allocation-count benchmark (BM_*Allocs)
// instead of the multi-second protocol loops, and exits 1 when any
// allocation counter of a BM_*Allocs benchmark is nonzero.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <numeric>

#include "analysis/priority_evaluator.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/sketch.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival_process.hpp"
#include "util/rng.hpp"

// ---- counting allocator hook ------------------------------------------------
// Global operator new/delete replacements that count every heap allocation in
// the process. Benchmarks snapshot the counter around a measured window; the
// difference is reported as a benchmark counter ("allocs") that CI gates on.
// Atomic because google-benchmark may touch the heap from helper threads.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

// Over-aligned types (the lane runner's per-lane cache lines) need the
// requested alignment, which malloc does not promise.
void* counted_alloc(std::size_t size, std::align_val_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;  // aligned_alloc's rule
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace rtmac;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(Duration::microseconds(i % 97), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// One schedule/cancel/fire churn cycle mix, shaped like what DP/FCSMA/DCF
// backoff state machines generate: a working set of pending expiries that are
// constantly cancelled (medium turned busy) and rescheduled (medium idle),
// with a fraction actually firing. Cancelled handles are re-cancelled later
// (after their slot may have been reused) to keep the stale-handle path hot.
// Returns the number of cycles executed.
// `ids` is caller-owned scratch (resized here) so allocation-count windows
// can pre-warm it and measure the queue alone.
std::uint64_t churn_window(sim::EventQueue& q, std::uint64_t cycles, std::uint64_t* fired,
                           std::vector<sim::EventId>& ids) {
  constexpr std::size_t kLive = 256;
  ids.assign(kLive, sim::EventId{});
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // deterministic xorshift stream
  std::int64_t t = 0;
  for (std::size_t i = 0; i < kLive; ++i) {
    ids[i] = q.push(TimePoint::from_ns(t + static_cast<std::int64_t>(i)), [] {});
  }
  for (std::uint64_t c = 0; c < cycles; ++c) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::size_t slot = x % kLive;
    q.cancel(ids[slot]);  // often already fired/cancelled: stale-handle no-op
    ++t;
    ids[slot] = q.push(TimePoint::from_ns(t * 100 + static_cast<std::int64_t>(x % 97)), [] {});
    if ((x & 3) == 0 && !q.empty()) {
      q.pop().callback();
      ++*fired;
    }
  }
  std::uint64_t drained = 0;
  while (!q.empty()) {
    q.pop().callback();
    ++drained;
  }
  benchmark::DoNotOptimize(drained);
  return cycles;
}

void BM_EventQueueCancelChurn(benchmark::State& state) {
  std::uint64_t fired = 0;
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::EventQueue q;
    churn_window(q, 4096, &fired, ids);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelChurn);

// Steady-state allocation count: after one warm-up window has grown the
// queue's internal storage to its working-set size, a second, identical
// window of >= 1e5 schedule/cancel/fire cycles must not allocate at all.
// CI gates on counters["allocs"] == 0 (exact and deterministic, unlike the
// wall-clock numbers). counters["cycles"] documents the window size.
void BM_EventQueueSteadyStateAllocs(benchmark::State& state) {
  constexpr std::uint64_t kCycles = 1 << 17;  // 131072 >= 1e5
  std::uint64_t fired = 0;
  std::uint64_t window_allocs = 0;
  std::vector<sim::EventId> ids;
  for (auto _ : state) {
    sim::EventQueue q;
    churn_window(q, kCycles, &fired, ids);  // warm-up: grows pool and heap storage
    const std::uint64_t before = alloc_count();
    churn_window(q, kCycles, &fired, ids);  // measured steady-state window
    window_allocs = alloc_count() - before;
  }
  state.counters["allocs"] = static_cast<double>(window_allocs);
  state.counters["cycles"] = static_cast<double>(kCycles);
  state.SetItemsProcessed(state.iterations() * kCycles);
}
BENCHMARK(BM_EventQueueSteadyStateAllocs);

void BM_DbdpVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::dbdp_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("simulated 20ms intervals (20 links)");
}
BENCHMARK(BM_DbdpVideoInterval);

void BM_LdfVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::ldf_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LdfVideoInterval);

void BM_FcsmaVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::fcsma_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FcsmaVideoInterval);

void BM_DcfVideoInterval(benchmark::State& state) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::dcf_factory()};
  for (auto _ : state) {
    net.run(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcfVideoInterval);

// Allocations per simulated interval for a full protocol stack, after a
// warm-up run. CI-gated at zero (tools/bench_report.py --gate-zero-alloc):
// the whole steady-state interval path — SoA kernel, shared backoff clock,
// burst transmissions, caller-owned delivery buffers — must never touch the
// heap. A regression here fails the bench-perf lane, not just a dashboard.
void BM_DbdpIntervalAllocs(benchmark::State& state) {
  constexpr IntervalIndex kWindow = 32;
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::dbdp_factory()};
  net.run(8);  // warm-up: pools, stats buffers, scheme state
  double allocs_per_interval = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    net.run(kWindow);
    allocs_per_interval =
        static_cast<double>(alloc_count() - before) / static_cast<double>(kWindow);
  }
  state.counters["allocs_per_interval"] = allocs_per_interval;
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_DbdpIntervalAllocs);

// Same gate for the centralized LDF scheduler (sort-based serve loop).
void BM_LdfIntervalAllocs(benchmark::State& state) {
  constexpr IntervalIndex kWindow = 32;
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), expfw::ldf_factory()};
  net.run(8);
  double allocs_per_interval = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    net.run(kWindow);
    allocs_per_interval =
        static_cast<double>(alloc_count() - before) / static_cast<double>(kWindow);
  }
  state.counters["allocs_per_interval"] = allocs_per_interval;
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_LdfIntervalAllocs);

// Same gate for the sharded engine's cut path: a chain of 16 carrier-sense
// cliques of 8 links coupled by conflict-only cut pairs, on range(0) shard
// jobs. Every interval runs the coordinator's barrier rounds, the cut
// outboxes, the mailbox, the cut resolver and (on two jobs) the lane
// barriers — all on storage reused across rounds.
void BM_ShardedChainIntervalAllocs(benchmark::State& state) {
  constexpr IntervalIndex kWindow = 32;
  constexpr std::size_t kCells = 16;
  constexpr std::size_t kCellSize = 8;
  net::NetworkConfig cfg = expfw::with_sparse_topology(
      net::symmetric_network(kCells * kCellSize, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 1),
      expfw::chain_cells_topology(kCells, kCellSize));
  cfg.shards = kCells;
  cfg.shard_jobs = static_cast<std::size_t>(state.range(0));
  net::Network net{std::move(cfg), expfw::fcsma_factory()};
  net.run(16);  // warm-up: mailbox, outbox and cut-record capacities
  double allocs_per_interval = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    net.run(kWindow);
    allocs_per_interval =
        static_cast<double>(alloc_count() - before) / static_cast<double>(kWindow);
  }
  state.counters["allocs_per_interval"] = allocs_per_interval;
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_ShardedChainIntervalAllocs)->Arg(1)->Arg(2);

// Quantile-sketch update throughput: the per-interval observability cost of
// the sketch-backed series (debt, deliveries, busy periods, latency).
void BM_SketchUpdate(benchmark::State& state) {
  obs::QuantileSketch sketch;
  Rng rng{11};
  for (auto _ : state) {
    sketch.update(rng.next_double());
  }
  benchmark::DoNotOptimize(sketch.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchUpdate);

// The sketch's zero-steady-state-allocation contract, CI-gated at zero like
// the event queue's: compactor levels are pre-sized at construction, so a
// window of 1e6 updates (with many compaction cascades) must never touch
// the heap.
void BM_SketchUpdateAllocs(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 1'000'000;
  obs::QuantileSketch sketch;
  Rng rng{12};
  double window_allocs = 0.0;
  for (auto _ : state) {
    const std::uint64_t before = alloc_count();
    for (std::uint64_t i = 0; i < kWindow; ++i) sketch.update(rng.next_double());
    window_allocs = static_cast<double>(alloc_count() - before);
  }
  state.counters["allocs"] = window_allocs;
  state.counters["updates"] = static_cast<double>(kWindow);
  state.SetItemsProcessed(state.iterations() * kWindow);
}
BENCHMARK(BM_SketchUpdateAllocs);

// Merge cost for the fan-in path (one sketch per task folded at export).
void BM_SketchMerge(benchmark::State& state) {
  const auto parts = static_cast<std::size_t>(state.range(0));
  std::vector<obs::QuantileSketch> inputs;
  Rng rng{13};
  for (std::size_t p = 0; p < parts; ++p) {
    obs::QuantileSketch s{{/*k=*/256, /*exact_threshold=*/2048,
                           /*seed=*/0x5eed0000ULL + p}};
    for (int i = 0; i < 100'000; ++i) s.update(rng.next_double());
    inputs.push_back(std::move(s));
  }
  for (auto _ : state) {
    obs::QuantileSketch total;
    for (const auto& s : inputs) total.merge(s);
    benchmark::DoNotOptimize(total.quantile(0.5));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(parts));
}
BENCHMARK(BM_SketchMerge)->Arg(4)->Arg(16);

void BM_PriorityEvaluatorExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  analysis::PriorityEvaluator eval{ProbabilityVector(n, 0.7), 60};
  std::vector<LinkId> order(n);
  std::iota(order.begin(), order.end(), LinkId{0});
  const std::vector<std::vector<double>> pmfs(
      n, traffic::UniformBurstyArrivals{0.55}.pmf());
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.evaluate(order, pmfs));
  }
}
BENCHMARK(BM_PriorityEvaluatorExact)->Arg(5)->Arg(10)->Arg(20);

/// Console output plus the allocation gate of smoke mode: every counter
/// named allocs* of a BM_*Allocs benchmark must read exactly 0.
class AllocGateReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      const std::string name = run.benchmark_name();
      if (name.find("Allocs") == std::string::npos) continue;
      for (const auto& [counter, value] : run.counters) {
        if (counter.rfind("allocs", 0) == 0 && value.value != 0.0) {
          std::fprintf(stderr, "allocation gate: %s reports %s = %g (must be 0)\n",
                       name.c_str(), counter.c_str(), value.value);
          failed_ = true;
        }
      }
    }
  }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  bool failed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--smoke") {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char filter[] = "--benchmark_filter=BM_EventQueue.*|BM_Sketch.*|BM_.*Allocs.*";
  if (smoke) args.push_back(filter);
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  int status = 0;
  if (smoke) {
    AllocGateReporter gate;
    benchmark::RunSpecifiedBenchmarks(&gate);
    status = gate.failed() ? 1 : 0;
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return status;
}
