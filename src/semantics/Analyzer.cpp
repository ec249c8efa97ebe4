//===- semantics/Analyzer.cpp - The abstract debugging analyses -----------===//

#include "semantics/Analyzer.h"

#include "semantics/Liveness.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>

using namespace syntox;

namespace {

/// Shared helpers for the three equation systems.
struct SystemBase {
  const SuperGraph &G;
  const StoreOps &Ops;
  /// The shared transfer cache, or null when caching is off. Owned by
  /// the Analyzer; the fwd/bwd systems consult it per Local edge.
  TransferCache *Cache;
  mutable uint64_t Unions = 0;
  /// Warm-start dirty bits: per node, whether the non-graph inputs of
  /// its equation (envelope slot, seed) are unchanged since the run
  /// that recorded the warm-start memo. Empty (conservative: nothing
  /// provably unchanged) unless the Analyzer filled it in.
  std::vector<uint8_t> ExternalUnchanged;

  SystemBase(const SuperGraph &G, const StoreOps &Ops,
             TransferCache *Cache = nullptr)
      : G(G), Ops(Ops), Cache(Cache) {}

  using Value = AbstractStore;

  bool externalInputsUnchanged(unsigned Node) const {
    return Node < ExternalUnchanged.size() && ExternalUnchanged[Node];
  }

  bool leq(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.leq(A, B);
  }
  bool equal(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.equal(A, B);
  }
  AbstractStore widen(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.widen(A, B);
  }
  AbstractStore narrow(const AbstractStore &A, const AbstractStore &B) const {
    return Ops.narrow(A, B);
  }
};

/// Builds the forward dependency digraph: every supergraph edge, plus
/// the NodeP -> NodeQ dependency of the copy-out/channel-out transfers
/// (they read the frozen caller store at NodeP). ForwardSystem::evaluate
/// reads exactly these predecessors, as the solver's System contract
/// requires.
Digraph buildForwardDep(const SuperGraph &G) {
  Digraph Dep(G.numNodes());
  for (const SuperEdge &E : G.edges()) {
    Dep.addEdge(E.From, E.To);
    if (E.K == SuperEdge::Kind::CallOut ||
        E.K == SuperEdge::Kind::ChannelOut)
      Dep.addEdge(G.links()[E.Link].NodeP, E.To);
  }
  return Dep;
}

/// Backward dependency digraph: the inversion of every supergraph edge
/// (BackwardSystem::evaluate reads X only at edge targets).
Digraph buildBackwardDep(const SuperGraph &G) {
  Digraph Dep(G.numNodes());
  for (const SuperEdge &E : G.edges())
    Dep.addEdge(E.To, E.From);
  return Dep;
}

/// Forward reachability: X_c = (entry seed) |_| join over incoming edges
/// of the forward transfer, met with the envelope when present.
struct ForwardSystem : SystemBase {
  const Transfer &Xfer;
  const std::vector<AbstractStore> *Envelope;
  /// Per-node live-slot masks; null = no dead-slot pruning. The
  /// restriction runs *after* the envelope meet, so requirement residue
  /// a backward phase left on dead slots never re-enters the forward
  /// values.
  const LivenessInfo *Live;
  mutable uint64_t PrunedSlots = 0;
  const Digraph &Dep;

  ForwardSystem(const SuperGraph &G, const Digraph &Dep, const StoreOps &Ops,
                const Transfer &Xfer, TransferCache *Cache,
                const std::vector<AbstractStore> *Envelope,
                const LivenessInfo *Live)
      : SystemBase(G, Ops, Cache), Xfer(Xfer), Envelope(Envelope),
        Live(Live), Dep(Dep) {}

  unsigned numNodes() const { return G.numNodes(); }
  const Digraph &graph() const { return Dep; }

  AbstractStore initialValue(unsigned, bool) const {
    return AbstractStore::bottom();
  }

  AbstractStore evaluate(unsigned Node,
                         const std::vector<AbstractStore> &X) const {
    AbstractStore Out = Node == G.mainEntry() ? AbstractStore::top()
                                              : AbstractStore::bottom();
    for (unsigned EdgeIdx : G.inEdges(Node)) {
      const SuperEdge &E = G.edges()[EdgeIdx];
      AbstractStore V;
      switch (E.K) {
      case SuperEdge::Kind::Local:
        if (Cache) {
          // Join straight out of the shared cache entry: no store copy.
          ++Unions;
          Out = Ops.join(Out, *Cache->fwd(Xfer, EdgeIdx, *E.Act, X[E.From],
                                          G.instanceOf(E.From).Frame));
          continue;
        }
        V = Xfer.fwd(*E.Act, X[E.From], G.instanceOf(E.From).Frame);
        break;
      case SuperEdge::Kind::CallIn:
      case SuperEdge::Kind::CallOut:
      case SuperEdge::Kind::ChannelOut:
        V = G.fwdTransfer(EdgeIdx, X);
        break;
      }
      ++Unions;
      Out = Ops.join(Out, V);
    }
    if (Envelope)
      Out = Ops.meet(Out, (*Envelope)[Node]);
    if (Live) {
      uint64_t Dropped = 0;
      Out = Ops.restrictTo(Out, Live->maskFor(Node), Live->wordsPerNode(),
                           &Dropped);
      if (Dropped)
        PrunedSlots += Dropped;
    }
    return Out;
  }
};

/// Backward systems: the inversion of the forward one. For
/// `always` (gfp) the seed is top at the program exit; for `eventually`
/// (lfp) the seeds are the intermittent assertions. In both cases
///   X_c = seed_c |_| join over outgoing edges of the backward transfer,
/// met with the envelope.
struct BackwardSystem : SystemBase {
  const Transfer &Xfer;
  const std::vector<AbstractStore> &Envelope;
  std::vector<AbstractStore> Seeds;
  const Digraph &Dep;

  BackwardSystem(const SuperGraph &G, const Digraph &Dep, const StoreOps &Ops,
                 const Transfer &Xfer, TransferCache *Cache,
                 const std::vector<AbstractStore> &Envelope)
      : SystemBase(G, Ops, Cache), Xfer(Xfer), Envelope(Envelope), Dep(Dep) {
    Seeds.assign(G.numNodes(), AbstractStore::bottom());
  }

  unsigned numNodes() const { return G.numNodes(); }
  const Digraph &graph() const { return Dep; }

  AbstractStore initialValue(unsigned, bool FromTop) const {
    return FromTop ? AbstractStore::top() : AbstractStore::bottom();
  }

  AbstractStore evaluate(unsigned Node,
                         const std::vector<AbstractStore> &X) const {
    AbstractStore Out = Seeds[Node];
    for (unsigned EdgeIdx : G.outEdges(Node)) {
      const SuperEdge &E = G.edges()[EdgeIdx];
      AbstractStore V;
      switch (E.K) {
      case SuperEdge::Kind::Local:
        if (Cache) {
          ++Unions;
          Out = Ops.join(Out, *Cache->bwd(Xfer, EdgeIdx, *E.Act, X[E.To],
                                          G.instanceOf(E.From).Frame));
          continue;
        }
        V = Xfer.bwd(*E.Act, X[E.To], G.instanceOf(E.From).Frame);
        break;
      case SuperEdge::Kind::CallIn:
      case SuperEdge::Kind::CallOut:
      case SuperEdge::Kind::ChannelOut:
        V = G.bwdTransfer(EdgeIdx, X);
        break;
      }
      ++Unions;
      Out = Ops.join(Out, V);
    }
    return Ops.meet(Out, Envelope[Node]);
  }
};

/// Callee instances whose every control point sat in a fully-replayed
/// WTO element of this solve: the round left the token's entry state
/// unchanged and reused its exit summary without evaluating a single
/// equation of the instance.
template <typename SolverT>
uint64_t countFullInstanceReplays(const SolverT &Solver,
                                  const SuperGraph &G) {
  const std::vector<uint8_t> &Replayed = Solver.fullyReplayedElements();
  if (Replayed.empty())
    return 0;
  std::vector<uint8_t> Seen(G.instances().size(), 0);
  std::vector<uint8_t> AllReplayed(G.instances().size(), 1);
  for (unsigned V = 0; V < G.numNodes(); ++V) {
    unsigned Inst = G.instanceOf(V).Id;
    Seen[Inst] = 1;
    if (!Replayed[Solver.wto().topElement(V)])
      AllReplayed[Inst] = 0;
  }
  uint64_t Count = 0;
  for (size_t I = 0; I < Seen.size(); ++I)
    Count += Seen[I] && AllReplayed[I];
  return Count;
}

} // namespace

Analyzer::Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program, Options Opts)
    : Cfg(Cfg), Program(Program), Opts(std::move(Opts)),
      Domain(this->Opts.Domain), Ops(Domain), Exprs(Ops),
      Xfer(Ops, Exprs, Cfg) {
  if (!this->Opts.WideningThresholds.empty())
    Ops.setWideningThresholds(this->Opts.WideningThresholds);
  Graph = std::make_unique<SuperGraph>(Cfg, Program, Ops, Exprs, Xfer,
                                       this->Opts.ContextInsensitive,
                                       this->Opts.Telem);
  // Adaptive transfer cache: unless the caller pinned the cache
  // explicitly (--cache/--no-cache), enable it once the token unfolding
  // is large enough that shared transfer results start repeating across
  // instances.
  if (this->Opts.TransferCache.value_or(
          Graph->instances().size() >= AdaptiveCacheInstanceThreshold)) {
    Cache = std::make_unique<TransferCache>(Ops);
    Cache->setTrace(this->Opts.Telem.Trace);
  }
  if (this->Opts.WarmStart)
    Graph->enableTransferMemo();
  if (this->Opts.PruneDeadSlots) {
    Live = std::make_unique<LivenessInfo>(*Graph, Cfg);
    for (unsigned I = 0; I < Graph->instances().size(); ++I)
      Graph->setAccessedKeys(I, Live->accessedShared(I));
  }
}

Analyzer::Analyzer(const ProgramCfg &Cfg, RoutineDecl *Program)
    : Analyzer(Cfg, Program, Options()) {}

Analyzer::~Analyzer() = default;

const Analyzer::DependencyOrder &Analyzer::forwardOrder() const {
  if (!FwdOrder)
    FwdOrder = std::make_unique<DependencyOrder>(
        buildForwardDep(*Graph), std::vector<unsigned>{Graph->mainEntry()});
  return *FwdOrder;
}

const Analyzer::DependencyOrder &Analyzer::backwardOrder() const {
  if (!BwdOrder)
    BwdOrder = std::make_unique<DependencyOrder>(
        buildBackwardDep(*Graph), std::vector<unsigned>{Graph->mainExit()});
  return *BwdOrder;
}

Analyzer::WarmSlot &Analyzer::chainSlot(PhaseSig Sig) {
  unsigned Ord = ChainOrdinal++;
  if (Ord >= ChainSlots.size())
    ChainSlots.emplace_back();
  WarmSlot &S = ChainSlots[Ord];
  if (S.Memo.Valid && S.Sig != Sig)
    S = WarmSlot(); // the schedule changed shape under this ordinal
  if (!S.Memo.Valid) {
    // Fresh ordinal: seed from the nearest earlier slot of the same
    // system, so within one run a later round still replays against the
    // previous round's recording (COW stores make the copy cheap).
    for (unsigned I = Ord; I-- > 0;)
      if (ChainSlots[I].Memo.Valid && ChainSlots[I].Sig == Sig) {
        S = ChainSlots[I];
        break;
      }
  }
  S.Sig = Sig;
  return S;
}

bool Analyzer::importWarmFrom(const Analyzer &Other) {
  // Same program shape: the memos are indexed by supergraph node and
  // WTO element, so the graphs must match key-for-key.
  if (Graph->stableIds().supergraphHash() !=
          Other.Graph->stableIds().supergraphHash() ||
      Graph->numNodes() != Other.Graph->numNodes())
    return false;
  // Same value semantics: replayed boundaries were computed under the
  // donor's widening/narrowing configuration; verification compares
  // values against *recorded* values, so it cannot detect that the
  // recording itself would differ under this analyzer's semantics.
  if (Opts.solverSemanticsHash() != Other.Opts.solverSemanticsHash())
    return false;
  ChainSlots = Other.ChainSlots;
  // The per-edge transfer memos are input-verified on every probe, so
  // they transplant safely whenever the value semantics match.
  if (Graph->transferMemoEnabled() && Other.Graph->transferMemoEnabled()) {
    const auto &Donor = Other.Graph->edgeMemos();
    for (unsigned E = 0; E < Donor.size(); ++E)
      for (unsigned Dir = 0; Dir < 2; ++Dir)
        if (Donor[E][Dir].Valid)
          Graph->importEdgeMemo(E, Dir, Donor[E][Dir]);
  }
  return true;
}

bool Analyzer::hasEventuallySeeds() const {
  if (Opts.TerminationGoal)
    return true;
  for (const Instance &Inst : Graph->instances())
    if (!Inst.Cfg->intermittents().empty())
      return true;
  return false;
}

/// Phase begin/end events around a solver run, with the phase name as
/// the span label.
void Analyzer::tracePhase(bool Begin, const PhaseStats &Phase) {
  TraceRecorder *R = Opts.Telem.Trace;
  TraceEventKind K =
      Begin ? TraceEventKind::PhaseBegin : TraceEventKind::PhaseEnd;
  if (R && R->wants(K))
    R->record(K, Stats.Phases.size() - 1, 0, Phase.Name);
}

/// Folds one solver run's counters into the aggregate stats and the
/// metrics registry.
void Analyzer::accumulateSolverStats(const SolverStats &S,
                                     uint64_t SysUnions,
                                     PhaseStats &Phase) {
  Phase.WideningSteps = S.AscendingSteps;
  Phase.NarrowingSteps = S.DescendingSteps;
  Phase.ComponentSkips = S.ComponentSkips;
  Phase.SkippedSteps = S.SkippedSteps;
  Stats.Widenings += S.Widenings;
  Stats.Narrowings += S.Narrowings;
  Stats.ComponentSkips += S.ComponentSkips;
  Stats.SkippedSteps += S.SkippedSteps;
  Stats.DemandedComponents += S.DemandedComponents;
  Stats.SkippedByDemand += S.SkippedByDemand;
  Stats.Unions += SysUnions;
  if (MetricsRegistry *M = Opts.Telem.Metrics) {
    M->counter("solver.ascending_steps").inc(S.AscendingSteps);
    M->counter("solver.descending_steps").inc(S.DescendingSteps);
    M->counter("solver.widenings").inc(S.Widenings);
    M->counter("solver.narrowings").inc(S.Narrowings);
    M->counter("solver.component_skips").inc(S.ComponentSkips);
    M->counter("solver.skipped_steps").inc(S.SkippedSteps);
    M->counter("solver.reused_evaluations").inc(S.ReusedEvaluations);
    M->counter("solver.unions").inc(SysUnions);
    if (S.DemandedComponents + S.SkippedByDemand > 0) {
      M->counter("demand.components").inc(S.DemandedComponents);
      M->counter("demand.skipped_components").inc(S.SkippedByDemand);
    }
    M->histogram("phase.seconds").observe(Phase.Seconds);
    M->histogram("phase." + Phase.Name + ".seconds").observe(Phase.Seconds);
  }
}

/// Marks the nodes whose non-graph inputs match what \p Slot's recorded
/// run solved under. Payload-identity equality makes the common case —
/// an envelope slot the previous round did not refine — O(1) per node.
std::vector<uint8_t>
Analyzer::unchangedInputs(const WarmSlot &Slot,
                          const std::vector<AbstractStore> *Env,
                          const std::vector<AbstractStore> *Seeds) const {
  unsigned N = Graph->numNodes();
  std::vector<uint8_t> U(N, 0);
  if (!Slot.Memo.Valid)
    return U; // first run of the slot: nothing to compare against
  if ((Env != nullptr) != Slot.HadEnv)
    return U; // no-envelope vs. envelope run: every input is dirty
  if ((Env && Slot.Env.size() != N) || (Seeds && Slot.Seeds.size() != N))
    return U;
  for (unsigned I = 0; I < N; ++I) {
    bool Same = !Env || Ops.equal((*Env)[I], Slot.Env[I]);
    if (Same && Seeds)
      Same = Ops.equal((*Seeds)[I], Slot.Seeds[I]);
    U[I] = Same;
  }
  return U;
}

std::vector<AbstractStore>
Analyzer::solveForward(const std::vector<AbstractStore> *Env,
                       PhaseStats &Phase,
                       const std::vector<uint8_t> *Demand) {
  auto Start = std::chrono::steady_clock::now();
  tracePhase(/*Begin=*/true, Phase);
  const DependencyOrder &Dep = forwardOrder();
  ForwardSystem Sys(*Graph, Dep.Dep, Ops, Xfer, Cache.get(), Env, Live.get());
  FixpointSolver<ForwardSystem>::Options SolverOpts;
  SolverOpts.Kind = Opts.HarrisonGfp ? FixpointKind::Gfp : FixpointKind::Lfp;
  SolverOpts.Strategy = Opts.Strategy;
  SolverOpts.NarrowingPasses = Opts.NarrowingPasses;
  SolverOpts.Telem = Opts.Telem;
  SolverOpts.DemandNodes = Demand;
  WarmSlot *Slot = nullptr;
  if (Opts.WarmStart) {
    // Demand runs take the same path: runImpl swapped in a private copy
    // of the chain, so the slot they replay from holds the published
    // recordings while their own (cone-partial) recording never reaches
    // the chain future full runs replay against.
    Slot = &chainSlot(Env ? PhaseSig::FwdEnv : PhaseSig::FwdNoEnv);
    Sys.ExternalUnchanged = unchangedInputs(*Slot, Env, nullptr);
    SolverOpts.Memo = &Slot->Memo;
  }
  FixpointSolver<ForwardSystem> Solver(Sys, Dep.Order, SolverOpts);
  std::vector<AbstractStore> Result = Solver.solve();
  if (Slot) {
    Slot->HadEnv = Env != nullptr;
    Slot->Env = Env ? *Env : std::vector<AbstractStore>();
    if (!Demand)
      Stats.SummaryReuses += countFullInstanceReplays(Solver, *Graph);
  }
  Phase.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  accumulateSolverStats(Solver.stats(), Sys.Unions, Phase);
  if (Live) {
    uint64_t Dropped = Sys.PrunedSlots;
    PrunedSlotsRun += Dropped;
    if (TraceRecorder *Rec = Opts.Telem.Trace;
        Rec && Rec->wants(TraceEventKind::StorePrune))
      Rec->record(TraceEventKind::StorePrune, Dropped,
                  Live->liveSlotCount(), Phase.Name);
  }
  if (Demand)
    DemandAudit.push_back({Phase.Name, *Demand, Solver.nodeLiveSteps()});
  tracePhase(/*Begin=*/false, Phase);
  return Result;
}

std::vector<AbstractStore>
Analyzer::solveBackward(bool Eventually,
                        const std::vector<AbstractStore> &Env,
                        PhaseStats &Phase,
                        const std::vector<uint8_t> *Demand) {
  auto Start = std::chrono::steady_clock::now();
  tracePhase(/*Begin=*/true, Phase);
  const DependencyOrder &Dep = backwardOrder();
  BackwardSystem Sys(*Graph, Dep.Dep, Ops, Xfer, Cache.get(), Env);
  if (Eventually) {
    // Seeds: the intermittent assertions (and optionally termination).
    for (const Instance &Inst : Graph->instances()) {
      for (const IntermittentAssertion &A : Inst.Cfg->intermittents()) {
        unsigned Node = Graph->node(Inst, A.Point);
        AbstractStore Seed = AbstractStore::top();
        Exprs.refineBool(A.Cond, true, Seed, Inst.Frame);
        Sys.Seeds[Node] = Ops.join(Sys.Seeds[Node], Seed);
      }
    }
    if (Opts.TerminationGoal)
      Sys.Seeds[Graph->mainExit()] = AbstractStore::top();
  } else {
    // always(Pi): output states are stable and satisfy Pi trivially.
    Sys.Seeds[Graph->mainExit()] = AbstractStore::top();
  }

  FixpointSolver<BackwardSystem>::Options SolverOpts;
  SolverOpts.Kind = Eventually ? FixpointKind::Lfp : FixpointKind::Gfp;
  SolverOpts.Strategy = Opts.Strategy;
  SolverOpts.NarrowingPasses = Opts.NarrowingPasses;
  SolverOpts.Telem = Opts.Telem;
  SolverOpts.DemandNodes = Demand;
  WarmSlot *Slot = nullptr;
  if (Opts.WarmStart) {
    // Same private-chain arrangement as solveForward for demand runs.
    Slot = &chainSlot(Eventually ? PhaseSig::Eventually : PhaseSig::Always);
    Sys.ExternalUnchanged = unchangedInputs(*Slot, &Env, &Sys.Seeds);
    SolverOpts.Memo = &Slot->Memo;
  }
  FixpointSolver<BackwardSystem> Solver(Sys, Dep.Order, SolverOpts);
  std::vector<AbstractStore> Result = Solver.solve();
  if (Slot) {
    Slot->HadEnv = true;
    Slot->Env = Env;
    Slot->Seeds = Sys.Seeds;
    if (!Demand)
      Stats.SummaryReuses += countFullInstanceReplays(Solver, *Graph);
  }
  Phase.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  accumulateSolverStats(Solver.stats(), Sys.Unions, Phase);
  if (Demand)
    DemandAudit.push_back({Phase.Name, *Demand, Solver.nodeLiveSteps()});
  tracePhase(/*Begin=*/false, Phase);
  return Result;
}

void Analyzer::meetInto(std::vector<AbstractStore> &Env,
                        const std::vector<AbstractStore> &Refinement) {
  for (size_t I = 0; I < Env.size(); ++I)
    Env[I] = Ops.meet(Env[I], Refinement[I]);
}

std::vector<Analyzer::PlannedPhase> Analyzer::phasePlan() const {
  std::vector<PlannedPhase> Plan;
  Plan.push_back({PhaseSig::FwdNoEnv, 0, "Forward analysis"});
  Plan.push_back({PhaseSig::FwdEnv, 0, "Forward refinement"});
  bool Backward = Opts.UseBackward && !Opts.HarrisonGfp;
  for (unsigned Round = 0; Round < Opts.BackwardRounds && Backward;
       ++Round) {
    Plan.push_back({PhaseSig::Always, Round + 1, "Invariant assertions"});
    if (hasEventuallySeeds())
      Plan.push_back(
          {PhaseSig::Eventually, Round + 1, "Intermittent assertions"});
    Plan.push_back({PhaseSig::FwdEnv, Round + 1, "Forward analysis"});
  }
  return Plan;
}

std::vector<uint8_t>
Analyzer::dependencyCone(const Digraph &Dep,
                         const std::vector<unsigned> &Query) {
  std::vector<uint8_t> In(Dep.numNodes(), 0);
  std::vector<unsigned> Work;
  for (unsigned Q : Query)
    if (Q < In.size() && !In[Q]) {
      In[Q] = 1;
      Work.push_back(Q);
    }
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    for (unsigned P : Dep.preds(V))
      if (!In[P]) {
        In[P] = 1;
        Work.push_back(P);
      }
  }
  return In;
}

void Analyzer::run() { runImpl(nullptr); }

void Analyzer::runDemand(const std::vector<unsigned> &QueryNodes) {
  // One mask per planned phase, computed back-to-front: the cone of
  // phase k is everything whose value phase k+1's cone reads — its own
  // transitive dependencies under phase k's equation system, seeded by
  // the *nodes* of phase k+1's cone (envelope/seed reads are per-node).
  // Masks therefore grow monotonically backward (Masks.back() is the
  // smallest), every mask contains the query nodes, and each is closed
  // under its phase's dependency-graph predecessors — the invariant
  // Solver::Options::DemandNodes requires for exact sub-solutions.
  std::vector<PlannedPhase> Plan = phasePlan();
  std::vector<std::vector<uint8_t>> Masks(Plan.size());
  std::vector<unsigned> Want = QueryNodes;
  for (size_t I = Plan.size(); I-- > 0;) {
    const Digraph &Dep = (Plan[I].Sig == PhaseSig::Always ||
                          Plan[I].Sig == PhaseSig::Eventually)
                             ? backwardOrder().Dep
                             : forwardOrder().Dep;
    Masks[I] = dependencyCone(Dep, Want);
    Want.clear();
    for (unsigned V = 0; V < Masks[I].size(); ++V)
      if (Masks[I][V])
        Want.push_back(V);
  }
  runImpl(&Masks);
}

void Analyzer::runImpl(const std::vector<std::vector<uint8_t>> *Masks) {
  auto Start = std::chrono::steady_clock::now();
  // The construction counters are reported by the first run (no run
  // has started while Stats holds no phase), so an engine that is
  // built and then discarded unanalyzed reports nothing.
  if (Stats.Phases.empty())
    if (MetricsRegistry *M = Opts.Telem.Metrics) {
      M->counter("interproc.instances").inc(Graph->instances().size());
      if (Cache && !Opts.TransferCache.has_value())
        M->counter("cache.auto_enabled").inc();
    }
  Stats = AnalysisStats();
  Stats.ControlPoints = Graph->numNodes();
  Stats.Equations = Graph->numNodes();
  // The chain slots deliberately survive into the next run(): an
  // Analyzer's options and equation systems are fixed at construction,
  // so a repeated run() solves the identical chain phase-by-phase and
  // every replay check (memo shape, recorded Env/Seeds, value-by-value
  // boundary comparison) re-verifies against the same ordinal of the
  // previous run. Phases whose inputs still match replay outright;
  // anything else is solved cold. A second run() of an unchanged
  // program therefore replays the *entire* chain — zero live solver
  // steps — while remaining bitwise-identical.
  // Demand runs (Masks != null) walk the same ordinals against a
  // private copy of the chain: they replay whatever the published
  // slots allow AND record their own phases (so a later round replays
  // the earlier round's cone — the masks only shrink along the plan),
  // but the copy is discarded below, so a demand run never poisons the
  // chain a future full run replays against.
  ChainOrdinal = 0;
  std::vector<WarmSlot> PublishedChain;
  if (Masks)
    PublishedChain = ChainSlots; // COW stores: structural sharing
  uint64_t MemoHitsAtStart = Graph->transferMemoHits();
  uint64_t KernelBlocksAtStart = Ops.kernelBlocks();
  PrunedSlotsRun = 0;

  Snapshots.clear();
  DemandMask.clear();
  DemandAudit.clear();

  std::vector<PlannedPhase> Plan = phasePlan();
  for (size_t I = 0; I < Plan.size(); ++I) {
    const PlannedPhase &P = Plan[I];
    const std::vector<uint8_t> *Mask = Masks ? &(*Masks)[I] : nullptr;
    Stats.Phases.push_back(PhaseStats{P.Name, 0, 0});
    Stats.Phases.back().Round = P.Round;
    PhaseStats &Phase = Stats.Phases.back();
    switch (P.Sig) {
    case PhaseSig::FwdNoEnv:
      Forward = solveForward(nullptr, Phase, Mask);
      break;
    case PhaseSig::FwdEnv:
      if (P.Round == 0) {
        // Second ascent from bottom *inside* the first result: widening
        // at nested component heads mixes iterations of enclosing loops
        // (an outer loop's variable overshoots at an inner head, and
        // narrowing cannot descend past the first finite bound it
        // finds). Restarting within the sound envelope removes that
        // loss — this is what proves the Matrix accesses of §6.5.
        // Still pure reachability, so check elimination may rely on it.
        Forward = solveForward(&Forward, Phase, Mask);
        Envelope = Forward;
      } else {
        Envelope = solveForward(&Envelope, Phase, Mask);
      }
      Snapshots.emplace_back("forward", Envelope);
      break;
    case PhaseSig::Always: {
      std::vector<AbstractStore> Always =
          solveBackward(/*Eventually=*/false, Envelope, Phase, Mask);
      meetInto(Envelope, Always);
      Snapshots.emplace_back("always", Envelope);
      break;
    }
    case PhaseSig::Eventually:
      Envelope =
          solveBackward(/*Eventually=*/true, Envelope, Phase, Mask);
      Snapshots.emplace_back("eventually", Envelope);
      break;
    }
  }

  // The answerable set of a demand run is the final phase's cone (the
  // last phase is always forward, so the mask is predecessor-closed
  // under the forward dependencies the findings derivations read).
  if (Masks) {
    DemandMask = Masks->back();
    ChainSlots = std::move(PublishedChain);
  }

  if (Cache) {
    Stats.CacheHits = Cache->hits();
    Stats.CacheMisses = Cache->misses();
  }
  Stats.BytesUsed = Graph->approximateBytes();
  // COW stores structurally share payloads across program points; count
  // each distinct payload once so Figure 4 reports the real footprint.
  std::unordered_set<const void *> SeenPayloads;
  for (const AbstractStore &S : Forward)
    Stats.BytesUsed += S.approximateBytes(SeenPayloads);
  for (const AbstractStore &S : Envelope)
    Stats.BytesUsed += S.approximateBytes(SeenPayloads);
  Stats.CpuSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  if (MetricsRegistry *M = Opts.Telem.Metrics) {
    M->gauge("graph.control_points")
        .set(static_cast<int64_t>(Stats.ControlPoints));
    M->gauge("graph.equations").set(static_cast<int64_t>(Stats.Equations));
    M->gauge("graph.instances")
        .set(static_cast<int64_t>(Graph->instances().size()));
    M->gauge("memory.bytes").set(static_cast<int64_t>(Stats.BytesUsed));
    if (Cache) {
      M->counter("cache.hits").inc(Stats.CacheHits);
      M->counter("cache.misses").inc(Stats.CacheMisses);
    }
    if (Opts.WarmStart) {
      M->counter("interproc.summary_reuse").inc(Stats.SummaryReuses);
      M->counter("interproc.link_memo_hits")
          .inc(Graph->transferMemoHits() - MemoHitsAtStart);
    }
    if (Live) {
      M->gauge("store.live_slots")
          .set(static_cast<int64_t>(Live->liveSlotCount()));
      M->counter("store.pruned_slots").inc(PrunedSlotsRun);
    }
    M->counter("store.kernel_blocks")
        .inc(Ops.kernelBlocks() - KernelBlocksAtStart);
    M->histogram("analysis.seconds").observe(Stats.CpuSeconds);
  }
}
