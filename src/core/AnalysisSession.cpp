//===- core/AnalysisSession.cpp - Session/result analysis API -------------===//

#include "core/AnalysisSession.h"

#include "persist/WarmCache.h"

#include <cassert>
#include <stdexcept>

using namespace syntox;

namespace {

/// Routes store detaches to \p Trace for the lifetime of one run when
/// detail tracing asked for them. Detaches happen inside a value type
/// with no telemetry context, so they go through the process-global
/// hook; the destructor clears it on every exit, exceptions included,
/// so a worker thread never keeps pointing at a recorder its session
/// may free.
class StoreDetachScope {
public:
  explicit StoreDetachScope(TraceRecorder *Trace)
      : Installed(Trace && Trace->wants(TraceEventKind::StoreDetach)) {
    if (Installed)
      trace::StoreDetachHook.store(Trace, std::memory_order_relaxed);
  }
  ~StoreDetachScope() {
    if (Installed)
      trace::StoreDetachHook.store(nullptr, std::memory_order_relaxed);
  }
  StoreDetachScope(const StoreDetachScope &) = delete;
  StoreDetachScope &operator=(const StoreDetachScope &) = delete;

private:
  bool Installed;
};

} // namespace

bool AnalysisResult::someExecutionMaySatisfySpec() const {
  const Analyzer &An = analyzer();
  return !An.envelopeAt(An.graph().mainEntry()).isBottom();
}

std::vector<PointState> AnalysisResult::stateAt(SourceLoc Loc) const {
  std::vector<PointState> Out;
  for (unsigned Node : Dbg->nodesAt(Loc))
    Out.push_back(Dbg->pointState(Node));
  return Out;
}

std::vector<PointState>
AnalysisResult::mainStates(const std::string &DescFilter) const {
  const SuperGraph &G = analyzer().graph();
  const Instance &Main = G.instances()[0];
  std::vector<PointState> Out;
  for (unsigned P = 0; P < Main.Cfg->numPoints(); ++P) {
    if (!DescFilter.empty() &&
        Main.Cfg->pointDesc(P).find(DescFilter) == std::string::npos)
      continue;
    Out.push_back(Dbg->pointState(G.node(Main, P)));
  }
  return Out;
}

bool DemandResult::covers(SourceLoc Loc) const {
  const std::vector<uint8_t> &Cone = analyzer().demandMask();
  for (unsigned Node : Dbg->nodesAt(Loc))
    if (Cone.empty() || !Cone[Node])
      return false;
  return true;
}

std::vector<PointState> DemandResult::stateAt(SourceLoc Loc) const {
  if (!covers(Loc))
    throw std::out_of_range(
        "stateAt(): " + Loc.str() +
        " is outside the solved demand cone; ask the session a demand "
        "query for this point or run a full analysis");
  std::vector<PointState> Out;
  for (unsigned Node : Dbg->nodesAt(Loc))
    Out.push_back(Dbg->pointState(Node));
  return Out;
}

json::Value AnalysisResult::toJson() const {
  json::Value V = json::Value::object();
  V.set("domain",
        domainKindName(Dbg->analyzer().storeOps().domainKind()));
  V.set("verdict", someExecutionMaySatisfySpec()
                       ? "some_execution_may_satisfy_spec"
                       : "no_execution_satisfies_spec");
  json::Value Cs = json::Value::array();
  for (const NecessaryCondition &C : conditions())
    Cs.push(C.toJson());
  V.set("conditions", std::move(Cs));
  json::Value Ws = json::Value::array();
  for (const InvariantWarning &W : invariantWarnings())
    Ws.push(W.toJson());
  V.set("invariant_warnings", std::move(Ws));
  V.set("checks", checks().toJson());
  V.set("stats", stats().toJson());
  V.set("metrics", MetricsSnapshot);
  return V;
}

json::Value DemandResult::toJson() const {
  json::Value V = json::Value::object();
  V.set("domain",
        domainKindName(Dbg->analyzer().storeOps().domainKind()));
  json::Value Q = json::Value::object();
  if (Spec.K == DemandSpec::Kind::Point) {
    Q.set("kind", "point");
    Q.set("line", Spec.Loc.Line);
    Q.set("column", Spec.Loc.Column);
  } else {
    Q.set("kind", "check");
    Q.set("check_id", Spec.CheckId);
  }
  V.set("query", std::move(Q));
  json::Value Ss = json::Value::array();
  for (const PointState &S : States)
    Ss.push(S.toJson());
  V.set("states", std::move(Ss));
  if (const CheckResult *C = check())
    V.set("check", C->toJson(Dbg->analyzer().storeOps().domain()));
  json::Value Cs = json::Value::array();
  for (const NecessaryCondition &C : conditions())
    Cs.push(C.toJson());
  V.set("conditions", std::move(Cs));
  json::Value Ws = json::Value::array();
  for (const InvariantWarning &W : invariantWarnings())
    Ws.push(W.toJson());
  V.set("invariant_warnings", std::move(Ws));
  V.set("stats", stats().toJson());
  V.set("metrics", MetricsSnapshot);
  return V;
}

std::unique_ptr<AnalysisSession>
AnalysisSession::create(std::string Source, DiagnosticsEngine &Diags,
                        AnalysisOptions Opts) {
  std::unique_ptr<AnalysisSession> S(new AnalysisSession());
  S->Opts = std::move(Opts);
  S->wireTelemetry();
  // Validate the program up front so run() cannot fail: frontend errors
  // surface here, once, with diagnostics. The engine built to validate
  // is kept under the options run() will compare against, so the first
  // run analyzes it instead of building another.
  S->Engine = AbstractDebugger::create(Source, Diags, S->Opts);
  if (!S->Engine)
    return nullptr;
  S->EngineOpts = S->Opts;
  S->Source = std::move(Source);
  return S;
}

AnalysisSession::~AnalysisSession() = default;

TraceRecorder &AnalysisSession::enableTracing(uint32_t Mask) {
  if (!Trace || Trace->mask() != Mask)
    Trace = std::make_unique<TraceRecorder>(Mask);
  return *Trace;
}

void AnalysisSession::flushTrace(TraceSink &Sink) {
  if (Trace)
    Trace->flushTo(Sink);
}

void AnalysisSession::wireTelemetry() {
  Opts.Telem.Trace = Trace.get();
  // The engine always reports into the session's registry, so each
  // result's snapshot holds this session's counts; a caller-supplied
  // registry receives every update as well.
  if (Opts.Telem.Metrics != &Metrics) {
    Metrics.mirrorTo(Opts.Telem.Metrics);
    Opts.Telem.Metrics = &Metrics;
  }
}

std::shared_ptr<AbstractDebugger> AnalysisSession::engineForRun(
    bool ForDemand) {
  wireTelemetry();
  // Reuse requires: we kept an engine, nothing else can observe it (a
  // live AnalysisResult/DemandResult shares ownership), every option
  // field is unchanged (the semantic knobs change the computed values,
  // the strategy changes the recorded warm-chain shape, and the
  // telemetry pointers are captured by the Analyzer at construction),
  // and the run kinds compose — a full run must not recycle a demand
  // engine (the published chain only ever held a private demand
  // replay) and a demand run must not recycle a fully analyzed engine
  // (it would overwrite the published results). The engine create()
  // validated with passes this gate unanalyzed; only an engine that
  // already ran counts as a reuse.
  bool Reusable = Engine && Engine.use_count() == 1 &&
                  EngineOpts == Opts &&
                  (ForDemand ? !Engine->Analyzed : !Engine->DemandAnalyzed);
  if (Reusable) {
    if (Engine->Analyzed || Engine->DemandAnalyzed)
      if (MetricsRegistry *M = Opts.Telem.Metrics)
        M->counter("session.engine_reuses").inc();
    return Engine;
  }
  DiagnosticsEngine Diags;
  Engine = AbstractDebugger::create(Source, Diags, Opts);
  assert(Engine && "session source was validated by create()");
  EngineOpts = Opts;
  EnginePersistProbed = false;
  return Engine;
}

void AnalysisSession::loadPersistCache(AbstractDebugger &Dbg) {
  // With a cache directory configured, the first run on a fresh engine
  // warm-starts from the persisted recordings of an earlier process,
  // falling back to cold on any mismatch.
  if (Opts.CacheDir.empty() || !Opts.WarmStart || EnginePersistProbed)
    return;
  EnginePersistProbed = true;
  MetricsRegistry *M = Opts.Telem.Metrics;
  persist::CacheLoadResult R = persist::loadWarmCache(Opts.CacheDir, *Dbg.An);
  if (M) {
    if (R.Loaded) {
      M->counter("persist.loaded").inc();
      M->counter("persist.slots").inc(R.Slots);
      M->counter("persist.restored_nodes").inc(R.RestoredNodes);
      M->counter("persist.invalidated_nodes").inc(R.InvalidatedNodes);
      M->counter("persist.matched_elements").inc(R.MatchedElements);
      M->counter("persist.unmatched_elements").inc(R.UnmatchedElements);
      M->counter("persist.restored_edge_memos").inc(R.RestoredEdgeMemos);
    } else {
      M->counter("persist.fallback").inc();
    }
  }
}

void AnalysisSession::savePersistCache(const AbstractDebugger &Dbg) {
  if (Opts.CacheDir.empty() || !Opts.WarmStart)
    return;
  if (persist::saveWarmCache(Opts.CacheDir, *Dbg.An))
    if (MetricsRegistry *M = Opts.Telem.Metrics)
      M->counter("persist.saved").inc();
}

AnalysisResult AnalysisSession::run() {
  StoreDetachScope Detach(Trace.get());
  std::shared_ptr<AbstractDebugger> Dbg = engineForRun(/*ForDemand=*/false);
  loadPersistCache(*Dbg);
  Dbg->analyze();
  savePersistCache(*Dbg);
  return AnalysisResult(std::move(Dbg), Metrics.snapshot());
}

DemandResult AnalysisSession::runDemandQuery(const DemandSpec &Spec) {
  StoreDetachScope Detach(Trace.get());
  std::shared_ptr<AbstractDebugger> Dbg = engineForRun(/*ForDemand=*/true);
  // Demand runs compose with the on-disk cache exactly like full runs
  // (out-of-cone components replay from the loaded chain) but never
  // save: the cache must only ever hold full recordings.
  loadPersistCache(*Dbg);
  Dbg->analyzeDemand(Spec);
  DemandResult R(std::move(Dbg), Spec);
  // The query's own points (or check sites) seed the cone, so its
  // answer is always inside it.
  if (Spec.K == DemandSpec::Kind::Point)
    R.States = R.stateAt(Spec.Loc);
  else
    R.Check = CheckAnalysis::classifyCheck(R.analyzer(), Spec.CheckId);
  R.MetricsSnapshot = Metrics.snapshot();
  return R;
}

DemandResult AnalysisSession::demandStateAt(SourceLoc Loc) {
  return runDemandQuery(DemandSpec::point(Loc));
}

DemandResult AnalysisSession::demandCheck(unsigned CheckId) {
  return runDemandQuery(DemandSpec::check(CheckId));
}
