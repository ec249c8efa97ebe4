//===- perfbench/harness/Bench.h - Shared benchmark plumbing ----*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the clock,
/// percentile helpers, the in-memory span recorder of the traced run,
/// and the Report a workload hands back to main().
///
/// Spans are recorded only here, in the benchmark, around calls into the
/// analyzer's public functions; nothing inside src/ is instrumented.
/// Where a call is opaque (AnalysisSession::run, the server), its
/// children are *supplied*: given the start and duration of work known
/// from elsewhere (AnalysisStats phase times, the server's timing block,
/// or the same call measured on the same input), and flagged as such in
/// the written trace.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERFBENCH_BENCH_H
#define SYNTOX_PERFBENCH_BENCH_H

#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Nearest-rank percentile of \p V (0 <= P <= 1); 0 for an empty sample.
double percentile(std::vector<double> V, double P);
double mean(const std::vector<double> &V);
double median(std::vector<double> V);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// One named metric value with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload run hands back: the contract fields, the metrics of
/// the requested mode, and free-form detail for the result file.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< failed requests plus oracle mismatches
  std::vector<std::string> Mismatches; ///< first few, for the log
  std::vector<Metric> Metrics;
  syntox::json::Value Detail = syntox::json::Value::object();

  void fail(std::string Why) {
    ++Failed;
    if (Mismatches.size() < 20)
      Mismatches.push_back(std::move(Why));
  }
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Settings of one workload, read from workloads.json.
struct WorkloadConfig {
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  syntox::json::Value Params; ///< the workload's object in workloads.json

  double num(const std::string &Key) const;
  std::vector<double> nums(const std::string &Key) const;
};

/// In-memory span recorder of the traced run. Spans nest through an
/// explicit stack of open spans; every span of one request carries the
/// request's id. Written out as JSON lines at the end of the run.
class SpanRecorder {
public:
  struct Span {
    std::string Name; ///< "<layer>.<what>", e.g. "frontend.lex"
    uint64_t Request = 0;
    int Parent = -1;
    double Start = 0, End = 0; ///< seconds since the recorder's epoch
    bool Supplied = false; ///< placed from known durations, not timed
    /// A supplied span's duration as measured, before it was clipped to
    /// its parent; negative for a span timed in place.
    double Measured = -1;
    /// Nothing measured says what the span's own time was spent on: an
    /// opaque call (only its children explain it) or a residual.
    bool Unexplained = false;
  };

  SpanRecorder() : Epoch(Clock::now()) {}

  double now() const { return secondsBetween(Epoch, Clock::now()); }

  int open(std::string Name, uint64_t Request);
  void close(int Index);
  /// Adds a closed root span timed elsewhere (seconds on this
  /// recorder's scale or any other shared by its children).
  int record(std::string Name, uint64_t Request, double Start, double End);
  /// Adds a closed child of \p Parent covering [Start, Start + Seconds],
  /// clipped to the parent's interval; returns its index. The unclipped
  /// \p Seconds is kept as the span's measured duration.
  int supply(std::string Name, int Parent, double Start, double Seconds);
  /// Marks span \p Index as unexplained (see Span::Unexplained).
  void markUnexplained(int Index) { Spans[Index].Unexplained = true; }

  const std::vector<Span> &spans() const { return Spans; }
  double duration(int Index) const {
    return Spans[Index].End - Spans[Index].Start;
  }

  /// Self time of every span: its duration minus the time its direct
  /// children cover.
  std::vector<double> selfTimes() const;

  bool writeJsonLines(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> OpenStack;
};

/// RAII span for timed work.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name, uint64_t Request)
      : R(R), Index(R ? R->open(Name, Request) : -1) {}
  ~ScopedSpan() {
    if (R)
      R->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int index() const { return Index; }

private:
  SpanRecorder *R;
  int Index;
};

/// Aggregates of a finished trace: total seconds per span name, self
/// seconds per layer, the request roots' total time, and the time that
/// measured spans explain.
struct TraceSummary {
  std::map<std::string, double> TotalByName;
  std::map<std::string, double> SelfByLayer;
  double RequestSeconds = 0; ///< sum of the "request" roots
  /// Sum of the measured durations of the outermost explained spans
  /// (those with no explained ancestor). Unexplained spans -- opaque
  /// calls, residuals -- count only through their explained children,
  /// so time the children miss inside an opaque call is not covered.
  double ExplainedSeconds = 0;
  uint64_t Requests = 0;
};
TraceSummary summarize(const SpanRecorder &R);

/// Adds trace.coverage_frac (explained time per traced request over the
/// untraced mean request time), trace.overhead_frac and the per-layer
/// self-time shares (<layer>.self_frac) for \p S to \p Rep.
/// \p UntracedMeanSeconds is the mean request time of the untraced
/// half of the same run.
void addTraceMetrics(Report &Rep, const TraceSummary &S,
                     double UntracedMeanSeconds);

} // namespace perfbench

#endif // SYNTOX_PERFBENCH_BENCH_H
