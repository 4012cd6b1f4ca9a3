#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}

thread_local std::int64_t t_innermost = -1;

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int number = next.fetch_add(1);
  return number;
}

void write_escaped(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union built so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

SpanTotals totals(const std::vector<Span>& spans) {
  SpanTotals out;
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out.self_s[s.name] += self[i];
    out.duration_s[s.name] += s.end - s.start;
    out.calls[s.name] += 1;
    (layer_of(s.name) == "bench" ? out.bench_self_s : out.layer_self_s) += self[i];
  }
  return out;
}

std::int64_t SpanRecorder::open(std::string_view name, std::int64_t parent, std::int64_t item) {
  if (!enabled_) return -1;
  Span span{std::string{name}, 0.0, 0.0, parent, item, thread_number()};
  const std::lock_guard lock{mutex_};
  span.start = span.end = now_s();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::close(std::int64_t id) {
  if (id < 0) return;
  const double end = now_s();
  const std::lock_guard lock{mutex_};
  spans_[static_cast<std::size_t>(id)].end = end;
}

void SpanRecorder::count(std::string_view name, double value) {
  if (!enabled_) return;
  const std::lock_guard lock{mutex_};
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string{name}, value);
  } else {
    it->second += value;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  const std::lock_guard lock{mutex_};
  return spans_;
}

std::map<std::string, double> SpanRecorder::counters() const {
  const std::lock_guard lock{mutex_};
  return {counters_.begin(), counters_.end()};
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) os << ",\n";
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":";
    write_escaped(os, s.name);
    os << ",\"cat\":";
    write_escaped(os, layer_of(s.name));
    os << ",\"ts\":" << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"item\":" << s.item
       << "}}";
  }
  os << "]}\n";
}

Scope::Scope(SpanRecorder& recorder, std::string_view name, std::int64_t item,
             std::int64_t parent)
    : recorder_{recorder},
      id_{recorder.open(name, parent == kInnermost ? t_innermost : parent, item)},
      saved_{t_innermost} {
  if (id_ >= 0) t_innermost = id_;
}

Scope::~Scope() {
  if (id_ < 0) return;
  recorder_.close(id_);
  t_innermost = saved_;
}

}  // namespace perfbench
