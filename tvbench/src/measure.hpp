// Clock, resource usage, order statistics and a minimal JSON writer for the
// benchmark program.  Nothing here touches libtvs.
#pragma once

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace tvbench {

// Seconds on the monotonic clock since the first call in this process.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

// Minor page faults of the whole process so far.
inline long minflt() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

// Guest CPU time stolen by the hypervisor, summed over CPUs, in clock ticks
// (the "steal" column of /proc/stat); -1 when unavailable.
inline long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long f[8] = {};
  in >> cpu;
  for (long& x : f) in >> x;
  return in && cpu == "cpu" ? f[7] : -1;
}

// One "Vm..." field of /proc/self/status (VmRSS, VmHWM) in MiB; -1 when
// the field is missing.
inline double proc_status_mib(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// Opens the window the peak-RSS metric covers, once the benchmark's own
// data is built: freed heap pages go back to the kernel, then the RSS
// high-water mark is reset (writing "5" to /proc/self/clear_refs, Linux
// >= 4.0), so VmHWM from here on is the peak of what ran since.  Returns
// the resident set at that point; `reset` is false when the kernel refused
// the reset and VmHWM still holds earlier peaks.
struct RssBase {
  double mib = 0.0;
  bool reset = false;
};
inline RssBase open_rss_window() {
  malloc_trim(0);
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  const bool reset = fd >= 0 && ::write(fd, "5", 1) == 1;
  if (fd >= 0) ::close(fd);
  return {proc_status_mib("VmRSS"), reset};
}

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Geometric mean of the positive entries; 0 when there are none.
inline double geomean(const std::vector<double>& v) {
  double s = 0.0;
  int n = 0;
  for (double x : v) {
    if (x > 0.0) {
      s += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(s / n);
}

// The highest of a fixed ladder of percentiles that still has at least
// `min_beyond` samples above it (0 when the sample is too small for any).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  long beyond = 0;
};
inline Tail tail_of(const std::vector<double>& v, long min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const auto n = static_cast<double>(v.size());
  for (double p : kLadder) {
    const auto beyond = static_cast<long>(std::floor(n * (1.0 - p / 100.0)));
    if (beyond >= min_beyond) return {p, quantile(v, p / 100.0), beyond};
  }
  return {};
}

// Appends JSON text; values keep all their significant digits.
class Json {
 public:
  Json& raw(std::string_view s) {
    out_ += s;
    return *this;
  }
  Json& str(std::string_view s) {
    out_ += '"';
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out_ += '\\';
        out_ += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        out_ += buf;
      } else {
        out_ += ch;
      }
    }
    out_ += '"';
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    fresh_ = false;
    return *this;
  }
  Json& num(long v) {
    out_ += std::to_string(v);
    fresh_ = false;
    return *this;
  }
  Json& key(std::string_view k) {
    sep().str(k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  // Separator before the next member/element of the current container.
  Json& sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
    return *this;
  }
  Json& kv(std::string_view k, std::string_view v) { return key(k).str(v); }
  Json& kv(std::string_view k, double v) { return key(k).num(v); }
  Json& kv(std::string_view k, long v) { return key(k).num(v); }
  Json& flag(std::string_view k, bool v) {
    key(k).raw(v ? "true" : "false");
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  std::string out_;
  bool fresh_ = true;
};

}  // namespace tvbench
