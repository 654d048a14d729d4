//===- perfbench/trace.h - In-memory layer spans ---------------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the traced benchmark run records around its own calls into each
/// layer. A span's name is "<layer>.<what>"; its parent is the span open
/// when it started. Spans stay in memory until the run ends, when
/// totals() folds them into per-name total and self times. A span's self
/// time is its duration minus the durations of its direct children, so the
/// self times of one root span and all its descendants sum to the root's
/// duration exactly.
///
/// Single-threaded by design: the traced grid runs on one thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

class SpanLog {
public:
  struct Totals {
    double TotalMs = 0.0;
    double SelfMs = 0.0;
    uint64_t Count = 0;
  };

  void open(const char *Name) {
    int Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back({Name, Clock::now(), {}, Parent});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
  }

  void close() {
    Spans[Stack.back()].End = Clock::now();
    Stack.pop_back();
  }

  /// Total time, self time and count per span name.
  std::map<std::string, Totals> totals() const {
    std::vector<double> ChildMs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildMs[S.Parent] += ms(S);
    std::map<std::string, Totals> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      Totals &T = Out[Spans[I].Name];
      T.TotalMs += ms(Spans[I]);
      T.SelfMs += ms(Spans[I]) - ChildMs[I];
      ++T.Count;
    }
    return Out;
  }

private:
  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    int Parent;
  };

  static double ms(const Span &S) {
    return std::chrono::duration<double, std::milli>(S.End - S.Start).count();
  }

  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Opens a span for the enclosing scope and closes it on every exit path,
/// exceptions included. A null log records nothing (the untraced run).
class SpanScope {
public:
  SpanScope(SpanLog *Log, const char *Name) : Log(Log) {
    if (Log)
      Log->open(Name);
  }
  ~SpanScope() {
    if (Log)
      Log->close();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanLog *Log;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
