#include "spans.hpp"

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_{log.enabled_ ? &log : nullptr} {
  if (log_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = log_->open_.empty() ? 0 : log_->open_.back();
  s.op = log_->op_;
  s.start_ns = log_->now_ns();
  log_->spans_.push_back(s);
  index_ = static_cast<std::uint32_t>(log_->spans_.size());
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_ - 1].end_ns = log_->now_ns();
  log_->open_.pop_back();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double SpanLog::top_level_seconds() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, SpanLog::NameTotals> SpanLog::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

void SpanLog::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace perfbench
