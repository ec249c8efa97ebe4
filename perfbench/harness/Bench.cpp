//===- perfbench/harness/Bench.cpp - Shared benchmark plumbing ------------===//

#include "Bench.h"

#include <cmath>
#include <fstream>
#include <stdexcept>
#include <sys/resource.h>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / V.size();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

double WorkloadConfig::num(const std::string &Key) const {
  const syntox::json::Value *V = Params.find(Key);
  if (!V || !V->isNumber())
    throw std::runtime_error("workloads.json: " + Name + "." + Key +
                             " missing or not a number");
  return V->asDouble();
}

std::vector<double> WorkloadConfig::nums(const std::string &Key) const {
  const syntox::json::Value *V = Params.find(Key);
  if (!V || !V->isArray())
    throw std::runtime_error("workloads.json: " + Name + "." + Key +
                             " missing or not an array");
  std::vector<double> Out;
  for (const syntox::json::Value &E : V->elements())
    Out.push_back(E.asDouble());
  return Out;
}

int SpanRecorder::open(std::string Name, uint64_t Request) {
  Span S;
  S.Name = std::move(Name);
  S.Request = Request;
  S.Parent = OpenStack.empty() ? -1 : OpenStack.back();
  S.Start = now();
  Spans.push_back(std::move(S));
  OpenStack.push_back(static_cast<int>(Spans.size()) - 1);
  return OpenStack.back();
}

void SpanRecorder::close(int Index) {
  Spans[Index].End = now();
  if (!OpenStack.empty() && OpenStack.back() == Index)
    OpenStack.pop_back();
}

int SpanRecorder::record(std::string Name, uint64_t Request, double Start,
                         double End) {
  Span S;
  S.Name = std::move(Name);
  S.Request = Request;
  S.Start = Start;
  S.End = std::max(Start, End);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

int SpanRecorder::supply(std::string Name, int Parent, double Start,
                         double Seconds) {
  const Span &P = Spans[Parent];
  Span S;
  S.Name = std::move(Name);
  S.Request = P.Request;
  S.Parent = Parent;
  S.Start = std::clamp(Start, P.Start, P.End);
  S.End = std::clamp(Start + std::max(0.0, Seconds), S.Start, P.End);
  S.Supplied = true;
  S.Measured = std::max(0.0, Seconds);
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

std::vector<double> SpanRecorder::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  // Children of one parent never overlap (timed ones nest sequentially,
  // supplied ones are laid end to end), so subtracting durations is
  // subtracting the time they cover.
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  for (double &X : Self)
    X = std::max(0.0, X);
  return Self;
}

bool SpanRecorder::writeJsonLines(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    syntox::json::Value V = syntox::json::Value::object();
    V.set("id", static_cast<uint64_t>(I));
    V.set("name", S.Name);
    V.set("request", S.Request);
    V.set("parent", static_cast<int64_t>(S.Parent));
    V.set("start_s", S.Start);
    V.set("end_s", S.End);
    if (S.Supplied) {
      V.set("supplied", true);
      V.set("measured_s", S.Measured);
    }
    if (S.Unexplained)
      V.set("unexplained", true);
    OS << V.str() << '\n';
  }
  return static_cast<bool>(OS);
}

TraceSummary summarize(const SpanRecorder &R) {
  TraceSummary S;
  std::vector<double> Self = R.selfTimes();
  const auto &Spans = R.spans();
  // Whether some ancestor below the root already explains a span's time.
  // Parents precede their children in the recorder.
  std::vector<bool> AncestorExplains(Spans.size(), false);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecorder::Span &Sp = Spans[I];
    double Dur = Sp.End - Sp.Start;
    if (Sp.Name == "request") {
      S.RequestSeconds += Dur;
      ++S.Requests;
      continue;
    }
    const SpanRecorder::Span &P = Spans[Sp.Parent];
    bool Inside = P.Name != "request" &&
                  (AncestorExplains[Sp.Parent] || !P.Unexplained);
    AncestorExplains[I] = Inside;
    if (!Inside && !Sp.Unexplained)
      S.ExplainedSeconds += Sp.Measured >= 0 ? Sp.Measured : Dur;
    S.TotalByName[Sp.Name] += Dur;
    S.SelfByLayer[Sp.Name.substr(0, Sp.Name.find('.'))] += Self[I];
  }
  return S;
}

void addTraceMetrics(Report &Rep, const TraceSummary &S,
                     double UntracedMeanSeconds) {
  double TracedMean = S.Requests ? S.RequestSeconds / S.Requests : 0.0;
  double ExplainedMean = S.Requests ? S.ExplainedSeconds / S.Requests : 0.0;
  Rep.add("trace.coverage_frac",
          UntracedMeanSeconds > 0 ? ExplainedMean / UntracedMeanSeconds : 0.0,
          "frac");
  Rep.add("trace.overhead_frac",
          UntracedMeanSeconds > 0 ? TracedMean / UntracedMeanSeconds - 1.0
                                  : 0.0,
          "frac");
  for (const char *Layer : {"frontend", "cfg", "semantics", "fixpoint",
                            "checks", "core", "persist", "serve"}) {
    auto It = S.SelfByLayer.find(Layer);
    double Self = It == S.SelfByLayer.end() ? 0.0 : It->second;
    Rep.add(std::string(Layer) + ".self_frac",
            S.RequestSeconds > 0 ? Self / S.RequestSeconds : 0.0, "frac");
  }
}

} // namespace perfbench
