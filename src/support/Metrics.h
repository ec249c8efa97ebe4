//===- support/Metrics.h - Named counters, gauges, histograms ---*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named metrics that subsumes and extends the Figure 2
/// AnalysisStats aggregate: counters (monotone, thread-safe), gauges
/// (last/max value), and histograms (count/sum/min/max plus power-of-two
/// buckets). The analyzer publishes one metric per statistic it tracks
/// ("solver.widenings", "phase.seconds", ...; full taxonomy in
/// DESIGN.md §Telemetry), and exporters snapshot the registry into JSON
/// for --metrics-json and the BENCH_*.json per-phase breakdowns.
///
/// Instrument accessors return stable references: hot paths resolve the
/// name once and bump the returned object without further locking.
///
/// A registry may mirror into an upstream one (mirrorTo): every update
/// of one of its instruments is applied to the same-named instrument
/// upstream as well, so a session keeps its own counts while a batch or
/// server registry still sees the totals of all its sessions.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_METRICS_H
#define SYNTOX_SUPPORT_METRICS_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace syntox {

/// Monotonically increasing counter.
class Counter {
public:
  void inc(uint64_t N = 1) {
    V.fetch_add(N, std::memory_order_relaxed);
    if (Up)
      Up->inc(N);
  }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> V{0};
  Counter *Up = nullptr; ///< the upstream registry's namesake
};

/// A point-in-time value; set() overwrites, accumulateMax() keeps the
/// largest observation.
class Gauge {
public:
  void set(int64_t New) {
    V.store(New, std::memory_order_relaxed);
    if (Up)
      Up->set(New);
  }
  void accumulateMax(int64_t New) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (New > Cur &&
           !V.compare_exchange_weak(Cur, New, std::memory_order_relaxed))
      ;
    if (Up)
      Up->accumulateMax(New);
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<int64_t> V{0};
  Gauge *Up = nullptr; ///< the upstream registry's namesake
};

/// Distribution summary over double observations. Buckets are upper
/// bounds 2^(I - HalfBuckets), so sub-1.0 observations (phase seconds)
/// and large integer observations (sweep counts) both resolve.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 64;
  static constexpr int HalfBuckets = 32;

  void observe(double X);

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const;
  double minValue() const;
  double maxValue() const;
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket \p I.
  static double bucketBound(unsigned I);

private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> SumBits{0}; ///< double bit-pattern, CAS-updated
  std::atomic<uint64_t> MinBits{0x7FF0000000000000ull};  ///< +inf
  std::atomic<uint64_t> MaxBits{0xFFF0000000000000ull};  ///< -inf
  std::atomic<uint64_t> Buckets[NumBuckets]{};
  Histogram *Up = nullptr; ///< the upstream registry's namesake
};

/// Owner of all metrics of one analysis session. Lookup registers on
/// first use; returned references stay valid for the registry lifetime.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Point-in-time JSON snapshot:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:
  ///    {"count":..,"sum":..,"min":..,"max":..}}}
  /// Names are emitted sorted so snapshots are diffable.
  json::Value snapshot() const;

  /// Convenience for tests and text reports: counter value or 0.
  uint64_t counterValue(const std::string &Name) const;

  /// Mirrors every later update of this registry's instruments into
  /// \p Up as well (null stops mirroring). \p Up must stay alive while
  /// this registry is updated. Updates made before the call are not
  /// copied, and the call must not race with updates of this registry.
  void mirrorTo(MetricsRegistry *Up);

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  MetricsRegistry *Upstream = nullptr;
};

} // namespace syntox

#endif // SYNTOX_SUPPORT_METRICS_H
