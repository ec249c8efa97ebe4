//===- support/Metrics.cpp ------------------------------------------------===//

#include "support/Metrics.h"

#include <bit>
#include <cassert>
#include <cmath>

using namespace syntox;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

double bitsToDouble(uint64_t Bits) { return std::bit_cast<double>(Bits); }
uint64_t doubleToBits(double D) { return std::bit_cast<uint64_t>(D); }

/// CAS-accumulates Bits with Fn(old, X) — used for sum/min/max since
/// std::atomic<double>::fetch_add needs hardware support we don't assume.
template <typename Fn>
void accumulateBits(std::atomic<uint64_t> &Bits, double X, Fn &&F) {
  uint64_t Cur = Bits.load(std::memory_order_relaxed);
  for (;;) {
    double New = F(bitsToDouble(Cur), X);
    if (Bits.compare_exchange_weak(Cur, doubleToBits(New),
                                   std::memory_order_relaxed))
      return;
  }
}

} // namespace

void Histogram::observe(double X) {
  N.fetch_add(1, std::memory_order_relaxed);
  accumulateBits(SumBits, X, [](double A, double B) { return A + B; });
  accumulateBits(MinBits, X,
                 [](double A, double B) { return B < A ? B : A; });
  accumulateBits(MaxBits, X,
                 [](double A, double B) { return B > A ? B : A; });
  int Exp = 0;
  if (X > 0)
    (void)std::frexp(X, &Exp); // X in [2^(Exp-1), 2^Exp)
  int I = Exp + HalfBuckets;
  if (I < 0)
    I = 0;
  if (I >= static_cast<int>(NumBuckets))
    I = NumBuckets - 1;
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  if (Up)
    Up->observe(X);
}

double Histogram::sum() const {
  return bitsToDouble(SumBits.load(std::memory_order_relaxed));
}
double Histogram::minValue() const {
  return count() ? bitsToDouble(MinBits.load(std::memory_order_relaxed))
                 : 0.0;
}
double Histogram::maxValue() const {
  return count() ? bitsToDouble(MaxBits.load(std::memory_order_relaxed))
                 : 0.0;
}
double Histogram::bucketBound(unsigned I) {
  return std::ldexp(1.0, static_cast<int>(I) - HalfBuckets);
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Counters[Name];
  if (!Slot) {
    Slot = std::make_unique<Counter>();
    if (Upstream)
      Slot->Up = &Upstream->counter(Name);
  }
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Gauges[Name];
  if (!Slot) {
    Slot = std::make_unique<Gauge>();
    if (Upstream)
      Slot->Up = &Upstream->gauge(Name);
  }
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Histograms[Name];
  if (!Slot) {
    Slot = std::make_unique<Histogram>();
    if (Upstream)
      Slot->Up = &Upstream->histogram(Name);
  }
  return *Slot;
}

void MetricsRegistry::mirrorTo(MetricsRegistry *Up) {
  assert(Up != this && "a registry cannot mirror into itself");
  std::lock_guard<std::mutex> Lock(M);
  if (Up == Upstream)
    return;
  Upstream = Up;
  for (auto &[Name, C] : Counters)
    C->Up = Up ? &Up->counter(Name) : nullptr;
  for (auto &[Name, G] : Gauges)
    G->Up = Up ? &Up->gauge(Name) : nullptr;
  for (auto &[Name, H] : Histograms)
    H->Up = Up ? &Up->histogram(Name) : nullptr;
}

uint64_t MetricsRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second->value();
}

json::Value MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  json::Value Out = json::Value::object();
  json::Value Cs = json::Value::object();
  for (const auto &[Name, C] : Counters) // std::map: already sorted
    Cs.set(Name, C->value());
  json::Value Gs = json::Value::object();
  for (const auto &[Name, G] : Gauges)
    Gs.set(Name, G->value());
  json::Value Hs = json::Value::object();
  for (const auto &[Name, H] : Histograms) {
    json::Value Summary = json::Value::object();
    Summary.set("count", H->count());
    Summary.set("sum", H->sum());
    Summary.set("min", H->minValue());
    Summary.set("max", H->maxValue());
    Hs.set(Name, std::move(Summary));
  }
  Out.set("counters", std::move(Cs));
  Out.set("gauges", std::move(Gs));
  Out.set("histograms", std::move(Hs));
  return Out;
}
