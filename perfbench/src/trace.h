#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Span recorder of the traced benchmark runs. Spans wrap the benchmark's
// own calls into each PTRider module (set-up builds, StepWindow,
// AdvanceTick, probes); quote instants come from the dispatcher's match
// observer. Everything stays in memory until the run ends, then goes out
// as Chrome trace-event JSON, which Perfetto and chrome://tracing open
// without a plugin. The per-layer metrics are computed from these spans.
//
// Not thread-safe: only the driver thread records. Worker-thread events
// (quote instants) are buffered per worker by the caller and folded in
// between windows.

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Microseconds since process start: the one epoch every span uses.
double NowUs();

struct Span {
  const char* cat = "";
  const char* name = "";
  double ts_us = 0.0;
  /// < 0 marks an instant event.
  double dur_us = 0.0;
  int tid = 0;
  /// Work items the span covers (a probe batch times n calls at once).
  double n = 1.0;
  /// Request id the span belongs to (0 = none): spans of one request
  /// share it.
  uint64_t req = 0;
  /// Process CPU seconds consumed inside the span (< 0 = not measured).
  double cpu_s = -1.0;
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Add(const Span& span) {
    if (enabled_) spans_.push_back(span);
  }
  void Instant(const char* cat, const char* name, double ts_us, int tid,
               uint64_t req) {
    if (!enabled_) return;
    Span s;
    s.cat = cat;
    s.name = name;
    s.ts_us = ts_us;
    s.dur_us = -1.0;
    s.tid = tid;
    s.req = req;
    spans_.push_back(s);
  }

  /// Durations (us) of every complete span called `name`.
  std::vector<double> Durations(const char* name) const;
  /// Sum of durations (us) and of covered items over spans `name`.
  double TotalUs(const char* name) const;
  double TotalN(const char* name) const;
  /// Sum over spans `name` of their measured CPU seconds.
  double TotalCpuS(const char* name) const;
  /// Per-call time of spans `name`: total duration over items covered.
  double UsPerItem(const char* name) const;
  size_t size() const { return spans_.size(); }

  /// Writes the Chrome trace-event JSON object to `path`.
  ptrider::util::Status WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Records one complete span, from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* cat, const char* name,
             double n = 1.0, uint64_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  Span span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
