// Conservative parallel coordination of per-shard event engines.
//
// Each shard cell owns a full engine stack (Simulator + Medium + MACs) over
// an induced subgraph of the topology; the only couplings left are the
// explicit cut edges from the ShardPlan. The coordinator advances all cells
// to a common horizon (the interval end) in rounds, Chandy–Misra style:
//
//   1. Barrier (serial, deterministic cell order): every cell drains its
//      outbox of finished/started cut-link transmissions into the shared
//      mailbox (and the cross-shard collision ledger); each fresh record is
//      handed to the cells that listen to its link (remote-sense
//      injection), in ascending cell order. Conflict-only records reach no
//      cell: the ledger already holds them. The cell-local barrier steps —
//      staging the outbox, probing the activity bound, arming the window —
//      run in the lanes, next to each cell's window, so the serial section
//      touches only per-cell slots and the cells that have records.
//   2. Each cell i gets a resolution bound R_i = min(horizon, min activity
//      bound of its cut-neighbor cells). A cut-link completion at time t
//      can be resolved exactly once no conflicting neighbor can still start
//      a transmission at a time < t — all overlapping remote transmissions
//      are then in the mailbox.
//   3. Parallel phase: lanes of cells run concurrently (one persistent
//      worker per lane, util::LaneRunner), each cell's Simulator bounded by
//      a run limit = the earliest unresolvable cut completion (end > R_i);
//      the clock stops there. A round costs two lane-barrier crossings.
//
// A neighbor's activity bound is its next pending event time (adaptive
// lookahead). That is exact, not heuristic: transmissions start only inside event
// callbacks at the engine's current clock, so a neighbor whose next event
// is at time b cannot start a transmission before b, and every start
// before its clock was already exported (exports happen at start) and
// delivered at this barrier. A completion at t <= R_i therefore has every
// overlapping remote transmission in the mailbox — same invariant as the
// clock-based bound, reached in fewer rounds. An idle neighbor (empty
// queue) yields bound = +inf: it provably cannot interact this interval,
// so it stops throttling everyone else entirely.
//
// Progress: activity bounds never trail the clocks, so each round makes at
// least the progress of the clock-based scheme — the cell with the minimum
// clock c_min has R_i >= c_min, its earliest blocking completion lies
// strictly beyond c_min, and its clock strictly advances. No deadlock, and
// the round count is bounded above by that of a clock-based window (each
// barrier reaches at least as far).
//
// Determinism: per-cell execution is single-threaded and schedule-free; the
// barrier runs serially in canonical cell order; remote records are
// injected in drain order. The result is byte-identical for any worker
// count and any assignment of cells to lanes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sim/shard_barrier.hpp"
#include "sim/shard_partitioner.hpp"
#include "util/lane_runner.hpp"
#include "util/time.hpp"

namespace rtmac::sim {

/// One cut-link transmission exported at a window barrier.
struct CutTxRecord {
  LinkId link = 0;          ///< global link id
  std::uint32_t cell = 0;   ///< originating cell
  TimePoint start;
  TimePoint end;
};

/// A shard cell as the coordinator sees it. Implemented by net::Network's
/// per-cell glue; the coordinator never touches a Medium or EventQueue
/// directly.
///
/// Phase discipline is compile-time checked via the `shard_barrier` phantom
/// capability: barrier-phase methods REQUIRE it, the parallel-phase method
/// EXCLUDES it. The coordinator's serial section holds it; so does a lane
/// for the cell-local barrier steps (stage_outbox, next_activity_bound,
/// begin_window) of its own cells, which touch no other cell and run only
/// while that cell's engine is stopped. Overrides must repeat the
/// annotations — the analysis does not inherit attributes through virtual
/// dispatch declarations in derived classes.
class ShardCell {
 public:
  virtual ~ShardCell() = default;
  /// The cell's engine clock. Safe in either phase (each cell is advanced by
  /// exactly one thread, and the coordinator reads it only at barriers).
  [[nodiscard]] virtual TimePoint clock() const = 0;
  /// Barrier phase, cell-local: moves the cut-link transmissions the engine
  /// recorded since the last call into the cell's staging buffer (start-time
  /// order). Returns true when anything is staged.
  virtual bool stage_outbox() RTMAC_REQUIRES(shard_barrier) = 0;
  /// Barrier phase, serial: appends the staged transmissions and forgets
  /// them locally.
  virtual void drain_outbox(std::vector<CutTxRecord>& into)
      RTMAC_REQUIRES(shard_barrier) = 0;
  /// Barrier phase: hands over a fresh remote record of a link that some of
  /// this cell's nodes hear; the cell injects it into their sense views.
  virtual void deliver_remote(const CutTxRecord& record)
      RTMAC_REQUIRES(shard_barrier) = 0;
  /// Barrier phase, cell-local: earliest instant at which this cell could
  /// still start a new transmission. Must never trail clock(); the
  /// conservative default is the clock itself (the fixed-window scheme).
  /// Engine-backed cells return their next pending event time —
  /// transmissions start only inside event callbacks, so neighbors may
  /// extend their resolution windows up to this bound (adaptive lookahead).
  /// Probed again after remote deliveries so freshly injected events are
  /// visible.
  [[nodiscard]] virtual TimePoint next_activity_bound() RTMAC_REQUIRES(shard_barrier) {
    return clock();
  }
  /// Barrier phase, cell-local: arms the next window with resolution bound
  /// `bound`.
  virtual void begin_window(TimePoint bound) RTMAC_REQUIRES(shard_barrier) = 0;
  /// Parallel phase: runs the engine toward `horizon` (stopping early at
  /// the armed run limit).
  virtual void run_window(TimePoint horizon) RTMAC_EXCLUDES(shard_barrier) = 0;
};

/// The cells that listen to each cut speaker, as CSR over global link ids:
/// speaker s is heard by cells[offsets[s] .. offsets[s + 1]), ascending and
/// unique. Links no other cell hears (conflict-only cut links, uncut links)
/// have empty rows.
struct CutListeners {
  std::vector<std::uint32_t> offsets;  ///< size num_links + 1
  std::vector<std::uint32_t> cells;

  /// Built from plan.cut_senses.
  [[nodiscard]] static CutListeners from_plan(const ShardPlan& plan);
};

/// Advances a set of shard cells to successive horizons.
class ShardCoordinator {
 public:
  /// `cut_neighbors[i]` = cells sharing at least one cut conflict edge with
  /// cell i (these bound cell i's resolution window). `listeners` routes
  /// each fresh record to the cells that hear its link. `lanes[l]` = cell
  /// indices run by lane l of `runner` in the parallel phase (one lane per
  /// runner lane); the runner is borrowed, not owned. Per-round resolution
  /// bounds come from the neighbors' next_activity_bound().
  ShardCoordinator(std::vector<ShardCell*> cells,
                   std::vector<std::vector<std::uint32_t>> cut_neighbors,
                   CutListeners listeners, std::vector<std::vector<std::uint32_t>> lanes,
                   util::LaneRunner& runner);

  /// Runs rounds until every cell's clock reaches `horizon`.
  void advance_to(TimePoint horizon);

  /// Barrier rounds executed so far (an observability counter; one round
  /// per interval on cut-free plans).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  std::vector<ShardCell*> cells_;
  std::vector<std::vector<std::uint32_t>> cut_neighbors_;
  CutListeners listeners_;
  std::vector<std::vector<std::uint32_t>> lanes_;
  util::LaneRunner& runner_;
  std::uint64_t rounds_ = 0;
  /// Lane body: cell c's barrier steps around its window, under the lane's
  /// own PhantomLock.
  void settle(std::size_t c) RTMAC_REQUIRES(shard_barrier);

  // Barrier state, one slot per cell. The serial section reads and writes
  // every slot; during the parallel phase a lane writes only the slots of
  // its own cells (settle), so the vectors are never shared unsafely.
  std::vector<CutTxRecord> fresh_ RTMAC_GUARDED_BY(shard_barrier);
  std::vector<TimePoint> clock_ RTMAC_GUARDED_BY(shard_barrier);        ///< settled clocks
  std::vector<TimePoint> round_start_ RTMAC_GUARDED_BY(shard_barrier);  ///< clocks before the round
  std::vector<TimePoint> bound_ RTMAC_GUARDED_BY(shard_barrier);        ///< activity bounds
  std::vector<TimePoint> window_ RTMAC_GUARDED_BY(shard_barrier);       ///< armed resolution bounds
  std::vector<std::uint8_t> staged_ RTMAC_GUARDED_BY(shard_barrier);    ///< outbox non-empty
};

}  // namespace rtmac::sim
