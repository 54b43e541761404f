// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps each call it makes into a layer of the program in a
// Span. Spans record their name, start, end, parent span and op id, stay in
// memory while the run is timed, and are written as Chrome-trace JSON (the
// format `fdlc --trace` emits) after the run ends. A layer's self time is
// its span minus the part its child spans cover. Single-threaded by design:
// every workload runs one client at jobs=1.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", or "op" for an op's root
  std::int32_t parent = -1;
  std::uint32_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool failed = false;
};

struct LayerTotals {
  double self_ms = 0;
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(std::uint32_t op) { op_ = op; }
  // Drops the spans recorded so far (the warm-up slice's).
  void clear() { spans_.clear(); }

  std::int32_t begin(const char* name) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void end(std::int32_t index, bool failed) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(index)].failed = failed;
    stack_.pop_back();
  }

  // Self time, calls and failures per span name.
  [[nodiscard]] std::map<std::string, LayerTotals> totals() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      LayerTotals& t = out[s.name];
      t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
      ++t.calls;
      if (s.failed) ++t.failures;
    }
    return out;
  }

  // Summed duration of the root "op" spans: the traced op time. Set-up
  // and checkpoint spans are roots too but are not ops.
  [[nodiscard]] double op_ms() const {
    double total = 0;
    for (const SpanRecord& s : spans_) {
      if (s.parent < 0 && std::string_view(s.name) == "op") {
        total += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    return total;
  }

  // Chrome-trace JSON; ts/dur in microseconds relative to the first span.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\": [", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      const std::string name = s.name;
      const std::string cat = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %u, "
                   "\"failed\": %d}}",
                   i == 0 ? "" : ",", s.name, cat.c_str(),
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.op, s.failed ? 1 : 0);
    }
    std::fputs("\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"tool\": "
               "\"perfbench\"}}\n",
               f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::uint32_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span; a no-op when tracing is off. Call fail() before the scope
// ends to mark the spanned call as failed.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Span() { tracer_.end(index_, failed_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void fail() { failed_ = true; }

 private:
  Tracer& tracer_;
  std::int32_t index_;
  bool failed_ = false;
};

}  // namespace perfbench
