//===- perfbench/Trace.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into the library. Every
/// timing in the benchmark goes through Trace::now(), traced or not; only a
/// traced run keeps the spans. They are written out at the end as Chrome
/// trace-event JSON, and per-name self times are derived from them.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PERFBENCH_TRACE_H
#define CALIBRO_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  double Start = 0; ///< Seconds since the trace origin.
  double End = 0;
  int Parent = -1; ///< Index of the enclosing span, -1 for a root.
  int App = 0;     ///< Per-app (or per-client) id; the Chrome "tid".
  /// True for spans placed from the library's own stage timers rather than
  /// measured around a call; their position inside the parent is inferred.
  bool FromStats = false;
};

class Trace {
public:
  explicit Trace(bool Enabled) : Enabled(Enabled) {}

  Trace(const Trace &) = delete;
  Trace &operator=(const Trace &) = delete;

  bool enabled() const { return Enabled; }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  /// Records a finished span; returns its index, or -1 when tracing is off.
  int record(std::string Name, double Start, double End, int Parent, int App,
             bool FromStats = false) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> Lock(M);
    Spans.push_back({std::move(Name), Start, End, Parent, App, FromStats});
    return static_cast<int>(Spans.size()) - 1;
  }

  /// Sum of self time per span name: each span's duration minus the part of
  /// its interval covered by its children.
  std::map<std::string, double> selfTimes() const {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[S.Parent].push_back({S.Start, S.End});
    std::map<std::string, double> Self;
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      auto &K = Kids[I];
      std::sort(K.begin(), K.end());
      double Covered = 0, Lo = S.Start, Hi = S.Start;
      for (auto [A, B] : K) {
        A = std::clamp(A, S.Start, S.End);
        B = std::clamp(B, S.Start, S.End);
        if (A > Hi) {
          Covered += Hi - Lo;
          Lo = A;
          Hi = B;
        } else {
          Hi = std::max(Hi, B);
        }
      }
      Covered += Hi - Lo;
      Self[S.Name] += (S.End - S.Start) - Covered;
    }
    return Self;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Spans.size();
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, in
  /// microseconds). Returns false when the file cannot be written.
  bool writeChrome(const std::string &Path) const {
    std::lock_guard<std::mutex> Lock(M);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"from_stats\":%s}}",
                   I ? "," : "", S.Name.c_str(), S.App, S.Start * 1e6,
                   (S.End - S.Start) * 1e6, I, S.Parent,
                   S.FromStats ? "true" : "false");
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  using Clock = std::chrono::steady_clock;
  const bool Enabled;
  const Clock::time_point Origin = Clock::now();
  mutable std::mutex M;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // CALIBRO_PERFBENCH_TRACE_H
