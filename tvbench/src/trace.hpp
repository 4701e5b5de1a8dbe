// In-memory span recorder for the traced run.
//
// Spans nest workload > round > request > call (Solver construction, run,
// submit/ready, baseline, oracle).  Each carries its name, start, end,
// parent and request id; a run's RunResult::seconds is recorded as its
// "kernel" child ending where the call ended.  Nothing is written until
// the end, where the spans become a Chrome trace-event file and a table of
// self times (a span's duration minus the time its children cover).
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace tvbench {

class Tracer {
 public:
  // Spans are dropped while disabled; ids from a disabled tracer are -1.
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  // A complete span [t0, t1] (seconds on now_s()'s clock).
  int add(const char* name, int parent, double t0, double t1, long req = -1,
          int lane = 0) {
    if (!on_) return -1;
    spans_.push_back({name, t0, t1, parent, req, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  // An open span; close() stamps its end.
  int open(const char* name, int parent, long req = -1, int lane = 0) {
    return add(name, parent, now_s(), 0.0, req, lane);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
  }

  // Total self seconds per span name: a span's duration minus the part of
  // its interval that its children cover (children of one serve round
  // overlap, so the cover is a union, not a sum).
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<std::pair<double, double>>& k = kids[i];
      std::sort(k.begin(), k.end());
      double covered = 0.0, reach = s.t0;
      for (const auto& [a, b] : k) {
        const double lo = std::max(a, reach), hi = std::min(b, s.t1);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(b, s.t1));
      }
      out[s.name] += (s.t1 - s.t0) - covered;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"req\":%ld}}",
                   i == 0 ? "" : ",", s.name, s.lane, s.t0 * 1e6,
                   (s.t1 - s.t0) * 1e6, i, s.parent, s.req);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;  // string literal
    double t0, t1;
    int parent;
    long req;
    int lane;  // Chrome "tid": 0 = the driving thread, k = serve window slot k
  };
  std::vector<Span> spans_;
  bool on_ = false;
};

}  // namespace tvbench
