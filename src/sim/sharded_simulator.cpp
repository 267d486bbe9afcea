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
                                   std::vector<std::vector<std::uint32_t>> groups,
                                   ThreadPool* pool)
    : cells_{std::move(cells)},
      cut_neighbors_{std::move(cut_neighbors)},
      listeners_{std::move(listeners)},
      groups_{std::move(groups)},
      pool_{pool} {
  RTMAC_REQUIRE(!cells_.empty(), "coordinator needs at least one cell");
  RTMAC_REQUIRE(cut_neighbors_.size() == cells_.size(), "cut_neighbors size mismatch");
  RTMAC_REQUIRE(!listeners_.offsets.empty(), "listener index needs an offsets row");
  futures_.reserve(groups_.size());
  const util::PhantomLock barrier{shard_barrier};
  clock_snapshot_.resize(cells_.size());
  bound_snapshot_.resize(cells_.size());
}

void ShardCoordinator::advance_to(TimePoint horizon) {
  for (;;) {
    {
      // Serial barrier phase. The PhantomLock grants the shard_barrier
      // capability to this scope (coordinating thread only), which is what
      // entitles it to call the cells' barrier-phase methods and touch the
      // guarded scratch vectors.
      const util::PhantomLock barrier{shard_barrier};

      // Snapshot clocks once per round; R_i below uses the snapshot so the
      // round is independent of execution order inside the parallel phase.
      bool done = true;
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        clock_snapshot_[c] = cells_[c]->clock();
        if (clock_snapshot_[c] < horizon) done = false;
      }
      if (done) break;

      // Drain outboxes in canonical cell order, then deliver each fresh
      // record to the cells that listen to its link, in ascending cell
      // order. Serial + ordered == deterministic mailbox contents.
      fresh_.clear();
      for (auto* cell : cells_) cell->drain_outbox(fresh_);
      for (const CutTxRecord& record : fresh_) {
        const std::uint32_t first = listeners_.offsets[record.link];
        const std::uint32_t last = listeners_.offsets[record.link + 1];
        for (std::uint32_t i = first; i < last; ++i) {
          RTMAC_ASSERT(listeners_.cells[i] != record.cell, "a cell listens to itself");
          cells_[listeners_.cells[i]]->deliver_remote(record);
        }
      }
      // Activity bounds are probed AFTER the deliveries above: injections
      // schedule events, and a bound that ignored them could overshoot a
      // neighbor's reaction to fresh remote activity.
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        bound_snapshot_[c] = cells_[c]->next_activity_bound();
        RTMAC_ASSERT(bound_snapshot_[c] >= clock_snapshot_[c],
                     "activity bound trails the cell clock");
      }
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        TimePoint bound = horizon;
        for (std::uint32_t nb : cut_neighbors_[c]) {
          if (bound_snapshot_[nb] < bound) bound = bound_snapshot_[nb];
        }
        cells_[c]->begin_window(bound);
      }
    }

    // Parallel phase: each group advances its cells toward the horizon.
    if (pool_ != nullptr && groups_.size() > 1) {
      futures_.clear();
      for (const auto& group : groups_) {
        futures_.push_back(pool_->submit([this, &group, horizon] {
          for (std::uint32_t c : group) {
            if (cells_[c]->clock() < horizon) cells_[c]->run_window(horizon);
          }
        }));
      }
      pool_->wait_all(futures_);
      for (auto& f : futures_) f.get();  // surface task exceptions
    } else {
      for (const auto& group : groups_) {
        for (std::uint32_t c : group) {
          if (cells_[c]->clock() < horizon) cells_[c]->run_window(horizon);
        }
      }
    }
    ++rounds_;

    // Safety net: the conservative bound guarantees the minimum clock
    // strictly advances each round; a stall means a lookahead bug, and
    // looping forever would be far harder to debug than this abort. The
    // parallel phase is over, so re-entering the barrier phase to read the
    // snapshot is legitimate.
    const util::PhantomLock barrier{shard_barrier};
    bool advanced = false;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c]->clock() > clock_snapshot_[c]) advanced = true;
    }
    RTMAC_ASSERT(advanced, "shard coordinator made no progress in a round");
  }
}

}  // namespace rtmac::sim
