#include "trace.h"

#include <cstdio>
#include <memory>
#include <string_view>

#include "util/timer.h"

namespace perfbench {

double NowUs() {
  static const ptrider::util::WallTimer epoch;
  return epoch.ElapsedMicros();
}

std::vector<double> Trace::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.dur_us >= 0.0 && std::string_view(s.name) == name) {
      out.push_back(s.dur_us);
    }
  }
  return out;
}

double Trace::TotalUs(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.dur_us >= 0.0 && std::string_view(s.name) == name) {
      total += s.dur_us;
    }
  }
  return total;
}

double Trace::TotalN(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.dur_us >= 0.0 && std::string_view(s.name) == name) total += s.n;
  }
  return total;
}

double Trace::TotalCpuS(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.cpu_s >= 0.0 && std::string_view(s.name) == name) {
      total += s.cpu_s;
    }
  }
  return total;
}

double Trace::UsPerItem(const char* name) const {
  const double n = TotalN(name);
  return n > 0.0 ? TotalUs(name) / n : 0.0;
}

ptrider::util::Status Trace::WriteChromeJson(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) {
    return ptrider::util::Status::IoError("cannot write trace " + path);
  }
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f.get(), "%s\n{\"cat\":\"%s\",\"name\":\"%s\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f",
                 first ? "" : ",", s.cat, s.name, s.tid, s.ts_us);
    if (s.dur_us >= 0.0) {
      std::fprintf(f.get(), ",\"ph\":\"X\",\"dur\":%.3f", s.dur_us);
    } else {
      std::fprintf(f.get(), ",\"ph\":\"i\",\"s\":\"t\"");
    }
    std::fprintf(f.get(), ",\"args\":{\"n\":%.17g", s.n);
    if (s.req != 0) {
      std::fprintf(f.get(), ",\"req\":%llu",
                   static_cast<unsigned long long>(s.req));
    }
    if (s.cpu_s >= 0.0) std::fprintf(f.get(), ",\"cpu_s\":%.9f", s.cpu_s);
    std::fprintf(f.get(), "}}");
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  if (std::ferror(f.get()) != 0) {
    return ptrider::util::Status::IoError("short write to " + path);
  }
  return ptrider::util::Status::Ok();
}

ScopedSpan::ScopedSpan(Trace& trace, const char* cat, const char* name,
                       double n, uint64_t req)
    : trace_(&trace) {
  span_.cat = cat;
  span_.name = name;
  span_.n = n;
  span_.req = req;
  span_.ts_us = NowUs();
}

ScopedSpan::~ScopedSpan() {
  span_.dur_us = NowUs() - span_.ts_us;
  trace_->Add(span_);
}

}  // namespace perfbench
