// In-memory span log for the traced run.
//
// A span brackets one call into an rtmac layer, made from the benchmark's
// own code: name, start, end, the enclosing span, and the operation (one
// simulated network run) it belongs to. Spans are kept in memory and
// written out once, when the benchmark ends. With the log disabled a Scope
// reads no clock and records nothing, so the untraced run pays nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t parent = 0;  ///< 1-based index of the enclosing span, 0 = none
    std::uint32_t op = 0;      ///< operation the span belongs to, 0 = none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII bracket; `name` must be a string literal (stored by pointer).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;  ///< null when the log is disabled
    std::uint32_t index_ = 0;
  };

  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_operation(std::uint32_t op) { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations in seconds of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Seconds covered by top-level spans (those with no parent).
  [[nodiscard]] double top_level_seconds() const;
  /// Per name: sample count and self time (duration minus child spans).
  struct NameTotals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, NameTotals> totals() const;

  /// One JSON object per span, times relative to the log's creation.
  void write_jsonl(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< stack of open span indices (1-based)
};

}  // namespace perfbench
