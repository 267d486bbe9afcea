#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rtmac::sim {

CutListeners CutListeners::from_plan(const ShardPlan& plan) {
  // (speaker, listening cell) pairs, sorted and deduplicated: a cell with
  // several nodes hearing one speaker gets the record once.
  std::vector<std::pair<LinkId, std::uint32_t>> pairs;
  pairs.reserve(plan.cut_senses.size());
  for (const CutSense& s : plan.cut_senses) {
    pairs.emplace_back(s.speaker, plan.cell_of[s.listener]);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  CutListeners out;
  out.offsets.assign(plan.num_links() + 1, 0);
  out.cells.reserve(pairs.size());
  for (const auto& [speaker, cell] : pairs) {
    ++out.offsets[speaker + 1];
    out.cells.push_back(cell);
  }
  for (std::size_t i = 1; i < out.offsets.size(); ++i) out.offsets[i] += out.offsets[i - 1];
  return out;
}

ShardCoordinator::ShardCoordinator(std::vector<ShardCell*> cells,
                                   std::vector<std::vector<std::uint32_t>> cut_neighbors,
                                   CutListeners listeners,
                                   std::vector<std::vector<std::uint32_t>> lanes,
                                   util::LaneRunner& runner)
    : cells_{std::move(cells)},
      cut_neighbors_{std::move(cut_neighbors)},
      listeners_{std::move(listeners)},
      lanes_{std::move(lanes)},
      runner_{runner} {
  RTMAC_REQUIRE(!cells_.empty(), "coordinator needs at least one cell");
  RTMAC_REQUIRE(cut_neighbors_.size() == cells_.size(), "cut_neighbors size mismatch");
  RTMAC_REQUIRE(!listeners_.offsets.empty(), "listener index needs an offsets row");
  RTMAC_REQUIRE(lanes_.size() == runner_.lanes(), "one cell list per runner lane");
  const util::PhantomLock barrier{shard_barrier};
  const std::size_t n = cells_.size();
  clock_.resize(n);
  round_start_.resize(n);
  bound_.resize(n);
  window_.resize(n);
  staged_.assign(n, 0);
}

void ShardCoordinator::settle(std::size_t c) {
  ShardCell& cell = *cells_[c];
  clock_[c] = cell.clock();
  staged_[c] = cell.stage_outbox() ? 1 : 0;
  bound_[c] = cell.next_activity_bound();
  RTMAC_ASSERT(bound_[c] >= clock_[c], "activity bound trails the cell clock");
}

void ShardCoordinator::advance_to(TimePoint horizon) {
  // The barrier steps of one cell touch only that cell, so a lane holds the
  // barrier capability for its own cells' steps while other lanes' cells
  // run; run_window itself runs outside it. Every cell is settled once at
  // interval start, then by its lane at the end of each window.
  auto settle_lane = [this](std::size_t lane) {
    const util::PhantomLock barrier{shard_barrier};
    for (const std::uint32_t c : lanes_[lane]) settle(c);
  };
  auto advance = [this, horizon](std::size_t lane) {
    for (const std::uint32_t c : lanes_[lane]) {
      {
        const util::PhantomLock barrier{shard_barrier};
        cells_[c]->begin_window(window_[c]);
      }
      if (cells_[c]->clock() < horizon) cells_[c]->run_window(horizon);
      const util::PhantomLock barrier{shard_barrier};
      settle(c);
    }
  };
  runner_.run(settle_lane);
  for (;;) {
    {
      // Serial barrier phase. The PhantomLock grants the shard_barrier
      // capability to this scope (coordinating thread only), which is what
      // entitles it to call the cells' barrier-phase methods and touch the
      // barrier state.
      const util::PhantomLock barrier{shard_barrier};

      // The settled clocks are this round's snapshot: R_i below depends on
      // the snapshot only, never on execution order inside the lanes.
      bool done = true;
      for (const TimePoint clock : clock_) {
        if (clock < horizon) done = false;
      }
      if (done) break;

      // Drain staged outboxes in canonical cell order, then deliver each
      // fresh record to the cells that listen to its link, in ascending
      // cell order. Serial + ordered == deterministic mailbox contents.
      fresh_.clear();
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        if (staged_[c] != 0) cells_[c]->drain_outbox(fresh_);
      }
      for (const CutTxRecord& record : fresh_) {
        const std::uint32_t first = listeners_.offsets[record.link];
        const std::uint32_t last = listeners_.offsets[record.link + 1];
        for (std::uint32_t i = first; i < last; ++i) {
          const std::uint32_t listener = listeners_.cells[i];
          RTMAC_ASSERT(listener != record.cell, "a cell listens to itself");
          cells_[listener]->deliver_remote(record);
          // Injections schedule events: the listener's activity bound is
          // probed again after each delivery, since a stale bound could
          // overshoot its reaction to fresh remote activity. Every other
          // cell is unchanged since its lane settled it.
          bound_[listener] = cells_[listener]->next_activity_bound();
        }
      }
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        TimePoint bound = horizon;
        for (const std::uint32_t nb : cut_neighbors_[c]) {
          if (bound_[nb] < bound) bound = bound_[nb];
        }
        window_[c] = bound;
      }
      round_start_ = clock_;
    }

    runner_.run(advance);
    ++rounds_;

    // Safety net: the conservative bound guarantees the minimum clock
    // strictly advances each round; a stall means a lookahead bug, and
    // looping forever would be far harder to debug than this abort.
    const util::PhantomLock barrier{shard_barrier};
    bool advanced = false;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (clock_[c] > round_start_[c]) advanced = true;
    }
    RTMAC_ASSERT(advanced, "shard coordinator made no progress in a round");
  }
}

}  // namespace rtmac::sim
