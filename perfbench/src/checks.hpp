// Result checks made apart from the simulator.
//
// Every simulated network run ends in an Outcome: the benchmark's own tally
// of what the interval observer saw, the totals the program reports about
// itself, and the expectations the workload derives from its parameters
// alone (requirements, the exact priority-chain total, which domains must be
// collision-free). check() compares them and returns one message per
// violated property; an empty list means the run is correct.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "phy/interference.hpp"
#include "phy/medium.hpp"

namespace perfbench {

/// Sensing domains: groups of links that all hear and all conflict with
/// each other, so their successful transmissions can never overlap.
struct Domains {
  std::vector<std::uint32_t> of;  ///< domain index per link
  std::size_t count = 0;
};

/// One domain holding all `num_links` links (the paper's collision domain).
[[nodiscard]] Domains complete_domain(std::size_t num_links);

/// Connected components of the sense relation. Throws std::runtime_error
/// when a component is not a clique of both relations: the per-domain
/// delivery bound would not hold there.
[[nodiscard]] Domains sensing_domains(const rtmac::phy::SparseTopology& topology);

struct Outcome {
  std::string label;
  std::size_t links = 0;
  rtmac::IntervalIndex intervals = 0;

  // ---- the benchmark's own tally, from the interval observer ---------------
  std::vector<std::uint64_t> seen_arrivals;   ///< per link
  std::vector<std::uint64_t> seen_delivered;  ///< per link
  std::vector<std::uint64_t> seen_delivered_sq;  ///< per link, sum of squared interval counts
  std::uint64_t over_delivered = 0;   ///< (link, interval) with delivered > arrivals
  std::uint64_t domain_overflows = 0; ///< (domain, interval) with deliveries > bound
  std::int64_t domain_bound = 0;      ///< transmissions that fit in one interval
  double interval_total_sum = 0.0;    ///< sum over intervals of total deliveries
  double interval_total_sumsq = 0.0;  ///< ... and of its square

  // ---- what the program reports --------------------------------------------
  std::vector<std::uint64_t> stats_arrivals;
  std::vector<std::uint64_t> stats_delivered;
  rtmac::IntervalIndex stats_intervals = 0;
  rtmac::phy::MediumCounters medium;
  double program_deficiency = 0.0;

  // ---- expectations from the workload's parameters -------------------------
  rtmac::RateVector q;          ///< required timely throughput per link
  bool collision_free = false;  ///< DB-DP on complete-sensing domains
  /// Exact expected total deliveries per interval of a work-conserving
  /// priority schedule (analysis::PriorityEvaluator); < 0 = no claim.
  double evaluator_total = -1.0;
  bool evaluator_match = false;  ///< the scheme is that schedule (LDF)
  /// The paper's optimality claim applies: every link meets its requirement,
  /// up to kSamplingZ standard errors of its own empirical throughput.
  bool requirements_met = false;

  [[nodiscard]] std::uint64_t delivered_total() const;
  /// Mean total deliveries per interval, from the tally.
  [[nodiscard]] double mean_interval_total() const;
  /// Total deficiency (Definition 1) from the tally.
  [[nodiscard]] double tallied_deficiency() const;
};

/// Number of standard errors a sample mean may stray from an exact
/// expectation before the check fails (two-sided 99.99%).
inline constexpr double kSamplingZ = 4.0;

[[nodiscard]] std::vector<std::string> check(const Outcome& outcome);

/// Interval observer state: accumulates the Outcome tally fields.
class IntervalTally {
 public:
  /// `domains` must outlive the tally.
  IntervalTally(const Domains& domains, std::int64_t domain_bound);

  void observe(std::span<const int> arrivals, std::span<const int> delivered);
  /// Moves the tally into `outcome` (links, intervals and tally fields).
  void fill(Outcome& outcome);

 private:
  const Domains& domains_;
  std::int64_t bound_;
  rtmac::IntervalIndex intervals_ = 0;
  std::vector<std::uint64_t> arrivals_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint64_t> delivered_sq_;
  std::vector<std::int64_t> domain_sum_;
  std::uint64_t over_delivered_ = 0;
  std::uint64_t domain_overflows_ = 0;
  double total_sum_ = 0.0;
  double total_sumsq_ = 0.0;
};

}  // namespace perfbench
