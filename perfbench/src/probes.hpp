// Stand-alone probes of layer entry points that run inside Network::run,
// timed on the workload's own inputs. Each probe repeats its call in
// batches and reports the median batch, so one slow batch cannot move it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/network_config.hpp"

namespace perfbench {

struct ProbeResult {
  double value = 0.0;       ///< median over batches
  std::size_t samples = 0;  ///< number of batches
};

/// net::ArrivalKernel::sample_into over the config's arrival processes,
/// in nanoseconds per link.
[[nodiscard]] ProbeResult probe_arrivals(const rtmac::net::NetworkConfig& cfg,
                                         double budget_s);

/// stats::LinkStatsCollector::record at the config's link count, in
/// nanoseconds per link.
[[nodiscard]] ProbeResult probe_stats_record(const rtmac::net::NetworkConfig& cfg,
                                             double budget_s);

/// core::DebtTracker::on_interval_end at the config's link count and
/// requirements, in nanoseconds per link.
[[nodiscard]] ProbeResult probe_debt_update(const rtmac::net::NetworkConfig& cfg,
                                            double budget_s);

/// mac::DpBatchKernel::plan_interval for one cell of `cell_links` links
/// whose priorities live in a space of `priority_space`, in microseconds
/// per interval.
[[nodiscard]] ProbeResult probe_dp_plan(std::size_t cell_links, std::size_t priority_space,
                                        std::uint64_t seed, double budget_s);

/// Seconds for one pass of a fixed reference kernel that uses no rtmac
/// code: 60 000 pops and pushes on a 4096-entry binary heap of
/// pseudo-random keys (32 KiB, cache-resident, branchy), refilled the same
/// way before every pass so each pass does identical work. Timed next to a
/// single-threaded workload it tracks how fast the host's core runs at that
/// moment, whatever the program does.
[[nodiscard]] double reference_pass_s();

}  // namespace perfbench
