// In-memory span recorder for the traced benchmark run.
//
// Spans nest by call structure: begin() pushes onto an open-span stack,
// so each span's parent is whatever was open when it started.  All
// spans of one pipeline pass carry that pass's id.  Nothing is written
// until write_chrome_json() at exit, so recording costs two clock reads
// and a vector push per span.  Single-threaded by design: every
// instrumented call (sim::run, the policy and fault-model wrappers,
// bounds, validation, partitioning) happens on the benchmark's main
// thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Interns a span or counter name; the id is stable for the run.
  std::uint32_t intern(const std::string& name);

  void set_pass(std::int32_t pass) { pass_ = pass; }

  /// Opens a span starting now; returns its index.
  std::size_t begin(std::uint32_t name);
  void end(std::size_t span);
  /// Records an already finished span under the currently open one.
  void add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns);
  /// Records one sample of a counter track (Chrome "C" event).
  void counter(std::uint32_t name, std::int64_t at_ns, double value);

  /// Self time (span duration minus the time covered by direct
  /// children) summed per span name, for the spans of `pass`.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::int32_t pass) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).  `stamp`
  /// is a JSON object stored under "otherData".
  void write_chrome_json(std::ostream& out, const std::string& stamp) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t pass = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Sample {
    std::uint32_t name = 0;
    std::int64_t at_ns = 0;
    double value = 0.0;
  };

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
  std::vector<std::size_t> open_;
  std::int32_t pass_ = 0;
  std::int64_t origin_ns_ = now_ns();
};

/// RAII span; a null tracer records nothing (the untraced passes).
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer),
        span_(tracer ? tracer->begin(tracer->intern(name)) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

}  // namespace perfbench
