//===- fixpoint/Solver.h - Chaotic iteration with widening ------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic equation-system solver implementing the fixpoint machinery
/// of paper §4:
///  - least fixpoints: an ascending *widening phase* from bottom followed
///    by a descending *narrowing phase* (a configurable number of
///    passes),
///  - greatest fixpoints: a single narrowing phase starting from top.
///
/// Two chaotic iteration strategies are provided (companion FMPA'93
/// paper). The *recursive* strategy stabilizes every WTO component
/// before leaving it; the *worklist* strategy picks pending equations in
/// WTO order. Widening/narrowing is applied at the WTO component heads,
/// which cut every dependency cycle.
///
/// The System type parameter supplies the lattice and the equations:
///
///   struct System {
///     using Value = ...;
///     unsigned numNodes() const;
///     const Digraph &graph() const;          // dependency graph
///     Value initialValue(unsigned Node, bool FromTop) const;
///     // Evaluate the RHS of equation Node given current values.
///     Value evaluate(unsigned Node, const std::vector<Value> &X) const;
///     bool leq(const Value &A, const Value &B) const;
///     bool equal(const Value &A, const Value &B) const;
///     Value widen(const Value &A, const Value &B) const;
///     Value narrow(const Value &A, const Value &B) const;
///   };
///
/// evaluate(Node, X) must read X only at graph().preds(Node) (plus
/// inputs that stay fixed for the whole solve, such as an envelope or
/// seeds), and must be a deterministic function of those values. The
/// solver relies on this to evaluate an equation only when one of its
/// inputs changed: every write to X goes through one helper that stamps
/// the node when its value changed, and a node none of whose
/// predecessors was stamped since its last evaluation reuses that
/// evaluation's result instead of calling evaluate() again. A Value
/// with payload identity (a member `bool samePayload(const Value &)
/// const`, true only when both values share one representation and so
/// are equal) lets a write that keeps the representation count as
/// unchanged; any other Value counts every write as a change.
///
/// Warm starts. A refinement chain re-solves the same equation system
/// with slightly different external inputs (envelope slots, seeds).
/// Passing a caller-owned WarmStartMemo through Options::Memo makes the
/// solver (a) record its per-sweep trajectory into the memo and (b) on
/// the next run, *replay* every top-level WTO element whose inputs
/// provably match the recording — the element's values are copied from
/// the memo instead of re-iterated, which is exact (not merely sound):
/// the element's stabilization is a deterministic function of its
/// external feeder values, its seed/envelope slice and its start state,
/// and all three are verified equal before a replay. Systems with
/// inputs that are not values of other nodes additionally implement
///
///   // True when Node's non-graph inputs (envelope slot, seed) are
///   // unchanged since the run that recorded the memo.
///   bool externalInputsUnchanged(unsigned Node) const;
///
/// (detected at compile time; absent means "always unchanged", which is
/// correct for closed systems whose equations read only other nodes).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_FIXPOINT_SOLVER_H
#define SYNTOX_FIXPOINT_SOLVER_H

#include "fixpoint/Digraph.h"
#include "fixpoint/Wto.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <type_traits>
#include <vector>

namespace syntox {

/// Which fixpoint to approximate.
enum class FixpointKind {
  /// Least fixpoint: ascending widening phase from bottom, then
  /// descending narrowing passes.
  Lfp,
  /// Greatest fixpoint: single descending narrowing phase from top
  /// (paper §4).
  Gfp,
};

/// Chaotic iteration strategy (paper §6.3 / FMPA'93). The enumerator
/// values are persisted (options hash, warm-cache memos): never renumber.
enum class IterationStrategy {
  Recursive = 0, ///< stabilize each WTO component before moving on
  Worklist = 1,  ///< WTO-ordered worklist
};

/// Counters reported by one solver run.
struct SolverStats {
  /// Equation steps scheduled while ascending / descending. A step whose
  /// inputs did not change since the equation's last evaluation reuses
  /// that result instead (counted in ReusedEvaluations too).
  uint64_t AscendingSteps = 0;
  uint64_t DescendingSteps = 0;
  /// Scheduled steps answered from the equation's last result because
  /// none of its dependency-graph predecessors changed since.
  uint64_t ReusedEvaluations = 0;
  uint64_t Widenings = 0;
  uint64_t Narrowings = 0;
  /// Stable top-level WTO elements replayed from the warm-start memo
  /// instead of re-iterated (one count per element per sweep).
  uint64_t ComponentSkips = 0;
  /// Equation evaluations those replays avoided: the cost the run that
  /// recorded the memo spent on the replayed elements.
  uint64_t SkippedSteps = 0;
  /// Top-level WTO elements scheduled under the demand mask (demand
  /// solves only; 0 on a full solve).
  uint64_t DemandedComponents = 0;
  /// Top-level WTO elements outside the demand cone, excluded from the
  /// schedule entirely — they perform zero live evaluations.
  uint64_t SkippedByDemand = 0;
};

/// Cross-run memo connecting consecutive solver runs of one slot of a
/// refinement chain (see the file comment). Owned by the caller and
/// reused across rounds; a run with Options::Memo set replays whatever
/// the previous contents allow and then overwrites them with its own
/// trajectory.
template <typename ValueT> struct WarmStartMemo {
  bool Valid = false; ///< a completed run recorded the fields below
  FixpointKind Kind = FixpointKind::Lfp;
  IterationStrategy Strategy = IterationStrategy::Recursive;
  unsigned NumNodes = 0;
  /// Full solution snapshot at each sweep boundary, in sweep order: for
  /// Lfp, snapshot 0 is the post-ascending state and the rest follow
  /// the descending passes; for Gfp every snapshot is one descending
  /// sweep. Copy-on-write values make a snapshot O(numNodes) pointer
  /// copies, not a deep copy.
  std::vector<std::vector<ValueT>> Boundaries;
  /// Per boundary, per top-level WTO element: whether the element
  /// changed during that sweep. Replayed elements contribute this flag
  /// to the descending convergence test, so a warm run performs exactly
  /// the sweeps the cold run would. (Ascending sweeps record 1; the
  /// flag is unused there.)
  std::vector<std::vector<uint8_t>> ElemChanged;
  /// Per boundary, per element: equation evaluations the recorded run
  /// spent on it (reported as SkippedSteps when replayed).
  std::vector<std::vector<uint64_t>> ElemSteps;
  /// Per node: 1 when the Boundaries entries for this node are genuine
  /// recorded values; 0 for placeholder entries created when a
  /// persisted memo was mapped into an edited program (the node had no
  /// counterpart in the recorded run). Empty = all valid, the
  /// in-process case. An element containing an invalid node can
  /// neither replay nor be verified as matched, and an invalid feeder
  /// value fails verification unconditionally — placeholders must
  /// never satisfy an equality check.
  std::vector<uint8_t> NodeValid;
  /// Per top-level element: 1 when the ElemChanged/ElemSteps rows are
  /// genuine recordings for this element; 0 when the element's
  /// membership did not match the recorded run (its values may still
  /// be valid and serve feeder verification, but replay needs the
  /// per-sweep rows). Empty = all replayable.
  std::vector<uint8_t> ElemReplayable;
};

namespace solver_detail {
/// Detects the optional System::externalInputsUnchanged(unsigned).
template <typename S, typename = void>
struct HasExternalInputs : std::false_type {};
template <typename S>
struct HasExternalInputs<
    S, std::void_t<decltype(static_cast<bool>(
           std::declval<const S &>().externalInputsUnchanged(0u)))>>
    : std::true_type {};

/// Detects the optional Value::samePayload(const Value &).
template <typename V, typename = void>
struct HasPayloadIdentity : std::false_type {};
template <typename V>
struct HasPayloadIdentity<
    V, std::void_t<decltype(static_cast<bool>(
           std::declval<const V &>().samePayload(std::declval<const V &>())))>>
    : std::true_type {};
} // namespace solver_detail

template <typename System> class FixpointSolver {
public:
  using Value = typename System::Value;

  struct Options {
    FixpointKind Kind = FixpointKind::Lfp;
    IterationStrategy Strategy = IterationStrategy::Recursive;
    /// Descending passes after the ascending phase (Lfp only). The
    /// paper's Syntox runs one narrowing phase per analysis.
    unsigned NarrowingPasses = 1;
    /// Optional trace/metrics sinks; every hook is a null-pointer check
    /// when absent.
    Telemetry Telem;
    /// Caller-owned warm-start memo (see the file comment). When set,
    /// the run replays provably-stable top-level WTO elements from it
    /// and then overwrites it with this run's trajectory. Null = cold
    /// solve, bit-for-bit the pre-warm-start behavior.
    WarmStartMemo<typename System::Value> *Memo = nullptr;
    /// Demand-driven solve: per-node mask (numNodes() entries, 1 =
    /// demanded). Top-level WTO elements containing no demanded node
    /// are excluded from the schedule — never evaluated, never
    /// activated — and when a replayable memo is present their values
    /// are spliced in from its last recorded boundary instead. The
    /// mask must be closed under graph predecessors; closure makes
    /// every feeder of a demanded element demanded itself, so the
    /// demanded sub-solution is bitwise-identical to the same nodes of
    /// a full solve. Null = full solve.
    const std::vector<uint8_t> *DemandNodes = nullptr;
    /// Replay from Options::Memo but never overwrite it. A
    /// demand-restricted run's recording describes a partial schedule —
    /// genuine rows for scheduled elements, placeholder rows elsewhere —
    /// so callers must either set this flag or hand a demand solve a
    /// private memo copy they will not replay full solves from (the
    /// analyzer's demand chain does the latter, which keeps cross-round
    /// replay alive inside one demand run).
    bool MemoReadOnly = false;
  };

  /// Solves over \p Order, a WTO of Sys.graph() from the roots where
  /// iteration starts. The caller builds it once and may share it across
  /// solves of the same dependency graph; it must outlive the solver.
  FixpointSolver(const System &Sys, const Wto &Order, Options Opts)
      : Sys(Sys), Opts(Opts), Order(Order), Trace(Opts.Telem.Trace) {}

  /// Runs the solver and returns the per-node solution.
  std::vector<Value> solve() {
    unsigned N = Sys.numNodes();
    X.clear();
    X.reserve(N);
    bool FromTop = Opts.Kind == FixpointKind::Gfp;
    for (unsigned Node = 0; Node < N; ++Node)
      X.push_back(Sys.initialValue(Node, FromTop));

    NodeSteps.assign(N, 0);
    prepareChangeTracking();
    prepareWarm();
    prepareDemand();

    if (Opts.Kind == FixpointKind::Lfp) {
      if (Opts.Strategy == IterationStrategy::Recursive)
        ascendRecursive();
      else
        ascendWorklist();
      for (unsigned Pass = 0; Pass < Opts.NarrowingPasses; ++Pass)
        if (!descendOnce())
          break;
    } else {
      // Gfp: descending narrowing iterations until stable. The sweep
      // bound is a safety net; narrowing at the heads makes the chain
      // finite in practice long before it triggers.
      for (unsigned Sweep = 0; Sweep < MaxGfpSweeps; ++Sweep)
        if (!descendOnce())
          break;
    }
    finishWarm();
    return X;
  }

  const SolverStats &stats() const { return Stats; }
  const Wto &wto() const { return Order; }

  /// Per top-level WTO element (in WTO order): 1 when every sweep of
  /// this run replayed the element from the memo — none of its
  /// equations were re-evaluated. Empty when no memo was passed;
  /// all-zero on the run that records a memo for the first time. The
  /// element's head vertex is wto().elements()[i].Vertex.
  const std::vector<uint8_t> &fullyReplayedElements() const {
    return FullyReplayed;
  }

  /// Per node: equation steps this run scheduled on it, evaluated or
  /// reused (replays and demand skips contribute nothing). The audit
  /// trail behind the demand-mode guarantee that out-of-cone nodes run
  /// zero live steps.
  const std::vector<uint64_t> &nodeLiveSteps() const { return NodeSteps; }

private:
  //===--------------------------------------------------------------------===//
  // Change-driven evaluation
  //===--------------------------------------------------------------------===//
  //
  // evaluate(V) reads X only at preds(V) (see the System contract), so
  // an equation none of whose predecessors was written since its last
  // evaluation would return the same value again. Every write to X goes
  // through assign(), which stamps the node with a fresh clock tick when
  // its value changed; EvalAt[V] holds the clock of V's last evaluation
  // (0 = none usable). A non-head's last result is X[V] itself: its own
  // evaluations leave X[V] equal to the result, and every other write
  // (leaf reset, warm replay, demand splice) goes through overwrite(),
  // which marks the node unevaluated. Heads keep their last result in
  // HeadLast, since X[head] holds the widened or narrowed value; a result
  // equal to X[head] is stored as X[head] itself, so a converged head
  // keeps no second store alive.
  // Scheduled steps are counted whether they evaluate or reuse, so the
  // step counters, the sweep structure and the solution are exactly
  // those of evaluating every scheduled step.

  void prepareChangeTracking() {
    unsigned N = Sys.numNodes();
    Clock = 1;
    Stamp.assign(N, 0);
    EvalAt.assign(N, 0);
    HeadSlot.assign(N, 0);
    HeadLast.clear();
    for (unsigned V = 0; V < N; ++V)
      if (Order.isHead(V)) {
        HeadSlot[V] = static_cast<unsigned>(HeadLast.size());
        HeadLast.push_back(X[V]); // placeholder until the first evaluation
      }
  }

  /// True when \p A and \p B share one representation (and are thus
  /// equal). Values without payload identity never do.
  static bool sameRepresentation(const Value &A, const Value &B) {
    if constexpr (solver_detail::HasPayloadIdentity<Value>::value)
      return A.samePayload(B);
    else
      return false;
  }

  /// The one write path into X. Stamps \p V when the stored value
  /// changes; returns whether it did.
  bool assign(unsigned V, Value New) {
    if (sameRepresentation(X[V], New))
      return false;
    X[V] = std::move(New);
    Stamp[V] = ++Clock;
    return true;
  }

  /// A write that is not \p V's own evaluation: X[V] then no longer
  /// holds V's last result.
  void overwrite(unsigned V, const Value &New) {
    if (assign(V, New))
      EvalAt[V] = 0;
  }

  /// Counts one scheduled step of \p V in \p Steps. Returns true when V
  /// must be evaluated; false when no predecessor changed since its last
  /// evaluation, so that result stands.
  bool schedule(unsigned V, uint64_t &Steps) {
    ++Steps;
    ++NodeSteps[V];
    if (uint64_t At = EvalAt[V]) {
      bool Unchanged = true;
      for (unsigned P : Sys.graph().preds(V))
        if (Stamp[P] > At) {
          Unchanged = false;
          break;
        }
      if (Unchanged) {
        ++Stats.ReusedEvaluations;
        return false;
      }
    }
    EvalAt[V] = Clock;
    return true;
  }

  /// One scheduled step of head \p V: its equation's value, evaluated
  /// or reused.
  const Value &headStep(unsigned V, uint64_t &Steps) {
    Value &Last = HeadLast[HeadSlot[V]];
    if (schedule(V, Steps)) {
      Last = Sys.evaluate(V, X);
      if (Sys.equal(Last, X[V]))
        Last = X[V];
    }
    return Last;
  }

  //===--------------------------------------------------------------------===//
  // Warm start: exact replay of stable top-level elements
  //===--------------------------------------------------------------------===//
  //
  // Top-level WTO elements only depend on *earlier* top-level elements
  // (every cycle is inside one component, and the WTO orders the rest
  // topologically), so the values an element stabilizes to are a
  // deterministic function of three inputs: the final values of its
  // external feeder nodes for the current sweep, its non-graph inputs
  // (envelope slot, seeds), and its own start values. When all three
  // are verified equal to what the recorded run saw at the same sweep
  // boundary, copying the recorded values *is* the cold computation —
  // the replay is exact by induction over WTO order and sweeps, not an
  // approximation. Anything unverifiable is solved cold, so a warm run
  // and a cold run produce identical solutions (and identical sweep
  // counts, since replayed elements re-emit their recorded change
  // flags).

  bool nodeInputsUnchanged(unsigned V) const {
    if constexpr (solver_detail::HasExternalInputs<System>::value)
      return Sys.externalInputsUnchanged(V);
    else
      return true;
  }

  /// Fills the node -> top-level-element maps (idempotent; shared by the
  /// warm-start and demand preparations).
  void prepareElements() {
    if (!ElemOf.empty())
      return;
    unsigned N = Sys.numNodes();
    NumElems = static_cast<unsigned>(Order.elements().size());
    ElemOf.assign(N, 0);
    ElemVerts.assign(NumElems, {});
    for (unsigned V = 0; V < N; ++V) {
      ElemOf[V] = Order.topElement(V);
      ElemVerts[ElemOf[V]].push_back(V);
    }
  }

  void prepareWarm() {
    if (!Opts.Memo)
      return;
    Recording = true;
    unsigned N = Sys.numNodes();
    prepareElements();
    // External feeders: nodes outside the element with an edge into it.
    // They live in strictly earlier top-level elements, so their values
    // are final for the current sweep by the time the element runs.
    ElemFeeders.assign(NumElems, {});
    for (unsigned E = 0; E < NumElems; ++E) {
      for (unsigned V : ElemVerts[E])
        for (unsigned U : Sys.graph().preds(V))
          if (ElemOf[U] != E)
            ElemFeeders[E].push_back(U);
      std::sort(ElemFeeders[E].begin(), ElemFeeders[E].end());
      ElemFeeders[E].erase(
          std::unique(ElemFeeders[E].begin(), ElemFeeders[E].end()),
          ElemFeeders[E].end());
    }
    SeedClean.assign(NumElems, 1);
    for (unsigned E = 0; E < NumElems; ++E)
      for (unsigned V : ElemVerts[E])
        if (!nodeInputsUnchanged(V)) {
          SeedClean[E] = 0;
          break;
        }
    const WarmStartMemo<Value> &M = *Opts.Memo;
    WarmReplay = M.Valid && M.Kind == Opts.Kind &&
                 M.Strategy == Opts.Strategy && M.NumNodes == N &&
                 !M.Boundaries.empty() &&
                 M.ElemChanged.size() == M.Boundaries.size() &&
                 M.ElemSteps.size() == M.Boundaries.size() &&
                 M.ElemChanged.front().size() == NumElems &&
                 (M.NodeValid.empty() || M.NodeValid.size() == N) &&
                 (M.ElemReplayable.empty() ||
                  M.ElemReplayable.size() == NumElems);
    // Partial-validity mask of a memo mapped in from the persistent
    // cache: an element containing a placeholder node has untrustworthy
    // boundary values — it must not replay and must never be reported
    // as matched, or a placeholder could satisfy an equality check.
    ElemMembersValid.assign(NumElems, 1);
    if (WarmReplay && !M.NodeValid.empty())
      for (unsigned E = 0; E < NumElems; ++E)
        for (unsigned V : ElemVerts[E])
          if (!M.NodeValid[V]) {
            ElemMembersValid[E] = 0;
            break;
          }
    // Matched[e]: the element's current values equal the recorded
    // snapshot of the boundary last processed. True initially — both
    // runs start from the same initialValue() state — except for
    // elements with placeholder members, whose recorded snapshots are
    // not comparable.
    Matched.assign(NumElems, 1);
    FullyReplayed.assign(NumElems, WarmReplay ? 1 : 0);
    for (unsigned E = 0; E < NumElems; ++E)
      if (!ElemMembersValid[E]) {
        Matched[E] = 0;
        FullyReplayed[E] = 0;
      }
    CurBoundary = 0;
    NewMemo = WarmStartMemo<Value>();
    NewMemo.Kind = Opts.Kind;
    NewMemo.Strategy = Opts.Strategy;
    NewMemo.NumNodes = N;
  }

  void finishWarm() {
    if (!Recording)
      return;
    // A read-only run replays from the memo but must not replace it.
    // (Demand-restricted runs may record — their recording is genuine
    // for every scheduled element and the mask shrinks monotonically
    // along a demand chain — but only into a memo the caller keeps
    // private to the demand run; see Options::MemoReadOnly.)
    if (Opts.MemoReadOnly)
      return;
    NewMemo.Valid = true;
    *Opts.Memo = std::move(NewMemo);
  }

  //===--------------------------------------------------------------------===//
  // Demand-driven scheduling: cone-restricted solves
  //===--------------------------------------------------------------------===//
  //
  // The demand mask is closed under graph predecessors, and a top-level
  // WTO component is a strongly connected set of its cyclic dependency
  // structure: one demanded member node therefore implies every member
  // is demanded (each member reaches the demanded one, so the closure
  // pulls the whole component in). Element-level demand flags are thus
  // exact, every feeder of a demanded element lives in a demanded
  // element, and the restricted iteration reads only values the full
  // schedule would produce identically — the demanded sub-solution is
  // bitwise-equal to the full solve by the same induction that makes
  // warm replay exact. Skipped elements are never evaluated; their
  // values are either the untouched initial values or, when a
  // replayable memo is present, the memo's final boundary (a splice for
  // presentation only — demand callers must not read out-of-cone
  // results, and the analyzer's query layer refuses to answer there).

  void prepareDemand() {
    if (!Opts.DemandNodes)
      return;
    Demand = true;
    unsigned N = Sys.numNodes();
    prepareElements();
    const std::vector<uint8_t> &D = *Opts.DemandNodes;
    ElemDemanded.assign(NumElems, 0);
    for (unsigned V = 0; V < N && V < D.size(); ++V)
      if (D[V])
        ElemDemanded[ElemOf[V]] = 1;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (ElemDemanded[E]) {
        ++Stats.DemandedComponents;
        continue;
      }
      ++Stats.SkippedByDemand;
      if (!FullyReplayed.empty())
        FullyReplayed[E] = 0; // excluded, not replayed
      traceEvent(Trace, TraceEventKind::DemandSkip,
                 Order.elements()[E].Vertex);
      if (WarmReplay) {
        const std::vector<Value> &B = Opts.Memo->Boundaries.back();
        const std::vector<uint8_t> &NV = Opts.Memo->NodeValid;
        for (unsigned V : ElemVerts[E])
          if (NV.empty() || NV[V])
            overwrite(V, B[V]);
      }
    }
  }

  /// Whether top-level element \p E is scheduled (always true on a full
  /// solve).
  bool elemDemanded(unsigned E) const {
    return ElemDemanded.empty() || ElemDemanded[E] != 0;
  }

  /// Whether \p V belongs to a scheduled element (worklist activation
  /// filter; element-exact because demand flags are — see above).
  bool nodeDemanded(unsigned V) const {
    return !Demand || ElemDemanded[ElemOf[V]] != 0;
  }

  void beginSweep() {
    if (!Recording)
      return;
    SweepChangedBuf.assign(NumElems, 0);
    SweepStepsBuf.assign(NumElems, 0);
  }

  void endSweep() {
    if (!Recording)
      return;
    NewMemo.Boundaries.push_back(X);
    NewMemo.ElemChanged.push_back(SweepChangedBuf);
    NewMemo.ElemSteps.push_back(SweepStepsBuf);
    ++CurBoundary;
  }

  /// Whether element \p E of the current sweep can be replayed from the
  /// memo. Checked *before* the element runs: feeder elements have
  /// already been processed this sweep (they precede E in WTO order), so
  /// their Matched flags are current, while Matched[E] still describes the
  /// previous boundary — exactly the element's start state.
  bool canReplay(unsigned E) const {
    if (!WarmReplay || CurBoundary >= Opts.Memo->Boundaries.size())
      return false;
    if (!SeedClean[E] || !ElemMembersValid[E])
      return false;
    if (!Opts.Memo->ElemReplayable.empty() && !Opts.Memo->ElemReplayable[E])
      return false;
    if (CurBoundary > 0 && !Matched[E])
      return false;
    const std::vector<Value> &B = Opts.Memo->Boundaries[CurBoundary];
    const std::vector<uint8_t> &NV = Opts.Memo->NodeValid;
    for (unsigned U : ElemFeeders[E])
      if (!Matched[ElemOf[U]] &&
          ((!NV.empty() && !NV[U]) || !Sys.equal(X[U], B[U])))
        return false;
    return true;
  }

  /// Copies the recorded boundary values over element \p E and re-emits
  /// its recorded change flag and cost. COW values keep this O(1) per
  /// node and preserve payload identity for downstream comparisons.
  void replayElement(unsigned E, bool Descending, bool &Changed) {
    const WarmStartMemo<Value> &M = *Opts.Memo;
    const std::vector<Value> &B = M.Boundaries[CurBoundary];
    for (unsigned V : ElemVerts[E])
      overwrite(V, B[V]);
    Matched[E] = 1;
    bool Flag = M.ElemChanged[CurBoundary][E] != 0;
    uint64_t Steps = M.ElemSteps[CurBoundary][E];
    Changed |= Flag;
    ++Stats.ComponentSkips;
    Stats.SkippedSteps += Steps;
    SweepChangedBuf[E] = Flag;
    SweepStepsBuf[E] = Steps;
    traceEvent(Trace, TraceEventKind::ComponentSkip,
               Order.elements()[E].Vertex, Descending);
  }

  /// Refreshes Matched[E] after the element was solved cold this sweep.
  void updateMatched(unsigned E) {
    FullyReplayed[E] = 0;
    Matched[E] = 0;
    if (!WarmReplay || !ElemMembersValid[E] ||
        CurBoundary >= Opts.Memo->Boundaries.size())
      return;
    const std::vector<Value> &B = Opts.Memo->Boundaries[CurBoundary];
    for (unsigned V : ElemVerts[E])
      if (!Sys.equal(X[V], B[V]))
        return;
    Matched[E] = 1;
  }

  //===--------------------------------------------------------------------===//
  // Ascending phase (recursive strategy)
  //===--------------------------------------------------------------------===//

  void ascendRecursive() {
    if (!Recording) {
      for (unsigned E = 0; E < Order.elements().size(); ++E)
        if (elemDemanded(E))
          ascendElement(Order.elements()[E]);
      return;
    }
    beginSweep();
    bool Ignored = false;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (!elemDemanded(E))
        continue;
      if (canReplay(E)) {
        replayElement(E, /*Descending=*/false, Ignored);
        continue;
      }
      uint64_t Before = Stats.AscendingSteps;
      ascendElement(Order.elements()[E]);
      SweepChangedBuf[E] = 1;
      SweepStepsBuf[E] = Stats.AscendingSteps - Before;
      updateMatched(E);
    }
    endSweep();
  }

  /// Resets every vertex of a component (head and body, recursively) to
  /// its ascending start value.
  void resetComponent(const WtoElement &E) {
    overwrite(E.Vertex, Sys.initialValue(E.Vertex, /*FromTop=*/false));
    for (const WtoElement &Sub : E.Body)
      if (Sub.IsComponent)
        resetComponent(Sub);
      else
        overwrite(Sub.Vertex, Sys.initialValue(Sub.Vertex, /*FromTop=*/false));
  }

  void ascendElement(const WtoElement &E) {
    if (!E.IsComponent) {
      if (schedule(E.Vertex, Stats.AscendingSteps))
        assign(E.Vertex, Sys.evaluate(E.Vertex, X));
      return;
    }
    // Restart *leaf* components from bottom: when an enclosing component
    // iterates, re-widening this head against values from the previous
    // outer iteration mixes unrelated ascents and overshoots on the
    // outer loop's variables (they look unstable here even though they
    // are invariant within this component). A clean local ascent per
    // outer iteration avoids that. Only leaves are restarted: resetting
    // at every nesting level would multiply the work of each level into
    // its parents (exponential in nesting depth, which deeply recursive
    // programs like McCarthy_30 cannot afford), while the leaf loops are
    // where the loss shows up in practice (see the Matrix program of
    // paper §6.5).
    bool IsLeaf = true;
    for (const WtoElement &Sub : E.Body)
      IsLeaf &= !Sub.IsComponent;
    if (IsLeaf)
      resetComponent(E);
    traceEvent(Trace, TraceEventKind::ComponentBegin, E.Vertex,
               /*Descending=*/0);
    // Stabilize: body then head, widening at the head, until the head's
    // equation is satisfied. The body runs first so that equations with
    // their own sources inside the component (e.g. intermittent
    // assertion seeds in the backward system) are picked up even when
    // the head starts out stable.
    for (;;) {
      for (const WtoElement &Sub : E.Body)
        ascendElement(Sub);
      const Value &New = headStep(E.Vertex, Stats.AscendingSteps);
      if (Sys.leq(New, X[E.Vertex]))
        break;
      ++Stats.Widenings;
      traceEvent(Trace, TraceEventKind::Widening, E.Vertex);
      assign(E.Vertex, Sys.widen(X[E.Vertex], New));
    }
    traceEvent(Trace, TraceEventKind::ComponentEnd, E.Vertex,
               /*Descending=*/0);
  }

  //===--------------------------------------------------------------------===//
  // Ascending phase (worklist strategy)
  //===--------------------------------------------------------------------===//

  void ascendWorklist() {
    auto ByPosition = [this](unsigned A, unsigned B) {
      unsigned PA = Order.position(A), PB = Order.position(B);
      if (PA != PB)
        return PA < PB;
      return A < B;
    };
    std::set<unsigned, decltype(ByPosition)> Pending(ByPosition);
    auto Step = [&] {
      unsigned Node = *Pending.begin();
      Pending.erase(Pending.begin());
      // A reused step cannot change X[Node]: the last result is already
      // below it (stored, or widened into it, or found leq and dropped).
      if (Order.isHead(Node)) {
        const Value &New = headStep(Node, Stats.AscendingSteps);
        if (Sys.leq(New, X[Node]))
          return;
        ++Stats.Widenings;
        traceEvent(Trace, TraceEventKind::Widening, Node);
        assign(Node, Sys.widen(X[Node], New));
      } else {
        if (!schedule(Node, Stats.AscendingSteps))
          return;
        Value New = Sys.evaluate(Node, X);
        if (Sys.leq(New, X[Node])) {
          // The result is dropped, so X[Node] only holds it when the two
          // share a representation.
          if (!sameRepresentation(New, X[Node]))
            EvalAt[Node] = 0;
          return;
        }
        assign(Node, std::move(New));
      }
      // Successor activations stay inside the demand cone: an
      // out-of-cone successor is never evaluated, not even when its
      // in-cone predecessor changes.
      for (unsigned Succ : Sys.graph().succs(Node))
        if (nodeDemanded(Succ))
          Pending.insert(Succ);
    };
    if (!Recording) {
      for (unsigned Node = 0; Node < Sys.numNodes(); ++Node)
        if (nodeDemanded(Node))
          Pending.insert(Node);
      while (!Pending.empty())
        Step();
      return;
    }
    // Element-wise drain with the same pop sequence as the all-pending
    // loop above: cross-element dependency edges point forward in WTO
    // order and positions of an element are contiguous, so the set
    // drains each top-level element completely (including re-activations
    // within it) before touching the next, and inserting an element's
    // vertices lazily at its turn changes nothing.
    beginSweep();
    bool Ignored = false;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (!elemDemanded(E))
        continue; // activation is filtered, so nothing can be pending
      if (canReplay(E)) {
        // Nodes of this element re-activated by earlier elements are
        // provably stable (that is what the replay check verified), so
        // evaluating them could neither change a value nor activate a
        // successor; drop them with the element.
        while (!Pending.empty() && ElemOf[*Pending.begin()] == E)
          Pending.erase(Pending.begin());
        replayElement(E, /*Descending=*/false, Ignored);
        continue;
      }
      for (unsigned V : ElemVerts[E])
        Pending.insert(V);
      uint64_t Before = Stats.AscendingSteps;
      while (!Pending.empty() && ElemOf[*Pending.begin()] == E)
        Step();
      SweepChangedBuf[E] = 1;
      SweepStepsBuf[E] = Stats.AscendingSteps - Before;
      updateMatched(E);
    }
    endSweep();
  }

  //===--------------------------------------------------------------------===//
  // Descending phase (shared by Lfp narrowing and Gfp)
  //===--------------------------------------------------------------------===//

  /// One full descending sweep in WTO order, stabilizing components with
  /// narrowing at their heads. Returns true when any value changed.
  bool descendOnce() {
    if (!Recording) {
      bool Changed = false;
      for (unsigned E = 0; E < Order.elements().size(); ++E)
        if (elemDemanded(E))
          descendElement(Order.elements()[E], Changed);
      return Changed;
    }
    beginSweep();
    bool Changed = false;
    for (unsigned E = 0; E < NumElems; ++E) {
      if (!elemDemanded(E))
        continue;
      if (canReplay(E)) {
        replayElement(E, /*Descending=*/true, Changed);
        continue;
      }
      bool ElemChanged = false;
      uint64_t Before = Stats.DescendingSteps;
      descendElement(Order.elements()[E], ElemChanged);
      Changed |= ElemChanged;
      SweepChangedBuf[E] = ElemChanged;
      SweepStepsBuf[E] = Stats.DescendingSteps - Before;
      updateMatched(E);
    }
    endSweep();
    return Changed;
  }

  void descendElement(const WtoElement &E, bool &Changed) {
    if (!E.IsComponent) {
      // An unchanged input set leaves the result at X[E.Vertex]: no
      // change. Otherwise X[E.Vertex] keeps its representation when the
      // new result is equal, so it still holds the result by value.
      if (!schedule(E.Vertex, Stats.DescendingSteps))
        return;
      Value New = Sys.evaluate(E.Vertex, X);
      if (!Sys.equal(New, X[E.Vertex])) {
        assign(E.Vertex, std::move(New));
        Changed = true;
      }
      return;
    }
    // Stabilize the component: iterate while the head *or* its body
    // still changes. Termination: every cycle passes through a head, and
    // heads use narrowing (finite chains); between heads the body is
    // acyclic. The sweep bound is a safety net only.
    traceEvent(Trace, TraceEventKind::ComponentBegin, E.Vertex,
               /*Descending=*/1);
    for (unsigned Sweep = 0; Sweep < MaxComponentSweeps; ++Sweep) {
      const Value &New = headStep(E.Vertex, Stats.DescendingSteps);
      ++Stats.Narrowings;
      traceEvent(Trace, TraceEventKind::Narrowing, E.Vertex);
      Value Narrowed = Sys.narrow(X[E.Vertex], New);
      // A stable head comes back pointer-identical (delta-aware
      // narrow), so this equality check — the convergence test of the
      // whole descending phase — is O(1) on the steady state, and the
      // assignment below is skipped to keep the stored value's
      // identity (and its memoized hash) untouched.
      bool SweepChanged = !Sys.equal(Narrowed, X[E.Vertex]);
      if (SweepChanged)
        assign(E.Vertex, std::move(Narrowed));
      for (const WtoElement &Sub : E.Body)
        descendElement(Sub, SweepChanged);
      Changed |= SweepChanged;
      if (!SweepChanged)
        break;
    }
    traceEvent(Trace, TraceEventKind::ComponentEnd, E.Vertex,
               /*Descending=*/1);
  }

  static constexpr unsigned MaxGfpSweeps = 1000;
  static constexpr unsigned MaxComponentSweeps = 1000;

  const System &Sys;
  Options Opts;
  const Wto &Order;
  TraceRecorder *Trace; ///< null = tracing off
  std::vector<Value> X;
  SolverStats Stats;
  /// Per-node scheduled step counts (see nodeLiveSteps()).
  std::vector<uint64_t> NodeSteps;

  // Change-driven evaluation state (see prepareChangeTracking()).
  uint64_t Clock = 1;
  std::vector<uint64_t> Stamp;  ///< per node: clock of its last change
  std::vector<uint64_t> EvalAt; ///< per node: clock of its last evaluation
  std::vector<unsigned> HeadSlot; ///< head node -> index into HeadLast
  std::vector<Value> HeadLast;    ///< per head: its last equation value

  // Demand-driven scheduling state; empty/false on a full solve.
  bool Demand = false;
  std::vector<uint8_t> ElemDemanded; ///< per top-level element

  // Warm-start state; all empty/false when Options::Memo is null.
  bool Recording = false;  ///< memo present: record this run into it
  bool WarmReplay = false; ///< memo valid: replay stable elements
  unsigned NumElems = 0;
  unsigned CurBoundary = 0; ///< sweep boundary the current sweep targets
  std::vector<unsigned> ElemOf; ///< node -> top-level element index
  std::vector<std::vector<unsigned>> ElemVerts;
  std::vector<std::vector<unsigned>> ElemFeeders;
  std::vector<uint8_t> SeedClean;
  std::vector<uint8_t> ElemMembersValid;
  std::vector<uint8_t> Matched;
  std::vector<uint8_t> FullyReplayed;
  std::vector<uint8_t> SweepChangedBuf;
  std::vector<uint64_t> SweepStepsBuf;
  WarmStartMemo<Value> NewMemo;
};

} // namespace syntox

#endif // SYNTOX_FIXPOINT_SOLVER_H
