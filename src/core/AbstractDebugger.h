//===- core/AbstractDebugger.h - Abstract-debugging engine ------*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract debugger's engine and the value types of its findings:
///  - derived *necessary conditions of correctness* at their origin
///    (paper §2: conditions are back-propagated as far as possible and
///    reported once, e.g. "n <= 100 right after read(n)" rather than a
///    warning at every array access),
///  - possibly-violated invariant assertions,
///  - the abstract memory state at any statement (the paper's
///    click-on-a-statement inspector, Figure 2),
///  - the demand-query specification.
///
/// The engine is built and run only by AnalysisSession
/// (core/AnalysisSession.h); its findings are read through the
/// AnalysisResult/DemandResult a run returns.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_CORE_ABSTRACTDEBUGGER_H
#define SYNTOX_CORE_ABSTRACTDEBUGGER_H

#include "checks/CheckAnalysis.h"
#include "frontend/Ast.h"
#include "semantics/Analyzer.h"
#include "support/Diagnostics.h"
#include "support/Json.h"

#include <memory>
#include <string>
#include <vector>

namespace syntox {

/// A derived necessary condition of correctness: unless the condition
/// holds at the given point, the program will certainly violate its
/// specification later (loop, fail a check, or miss an intermittent
/// assertion).
struct NecessaryCondition {
  SourceLoc Loc;
  std::string Var;       ///< variable the condition constrains
  std::string Condition; ///< e.g. "n in [-oo, 100]" or "b = false"
  std::string PointDesc; ///< description of the control point

  std::string str() const {
    return Loc.str() + ": necessary condition: " + Condition + " (" +
           PointDesc + ")";
  }

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

/// A possibly-violated user invariant assertion.
struct InvariantWarning {
  SourceLoc Loc;
  std::string Message;

  /// Stable JSON rendering (schemas/findings.schema.json).
  json::Value toJson() const;
};

/// One variable binding in a point-state query result.
struct StateBinding {
  std::string Var;
  std::string Value; ///< rendered abstract value, e.g. "[1, 100]"
};

/// The abstract memory state at one control point of one activation
/// instance — the paper's click-on-a-statement inspector, structured.
struct PointState {
  SourceLoc Loc;
  std::string Routine;   ///< routine of the containing instance
  unsigned InstanceId = 0;
  std::string PointDesc; ///< e.g. "before i := i + 1"
  bool Reachable = false;   ///< forward analysis reaches this point
  bool InEnvelope = false;  ///< reachable within the refined invariant
  /// Envelope constraints on the named program variables (analysis
  /// temporaries are omitted); unconstrained variables are absent.
  std::vector<StateBinding> Bindings;
  /// Variables whose store slot is *dead* at this point under
  /// liveness-driven pruning (--no-prune disables it): the analysis
  /// never tracked them here, so they read as top regardless of any
  /// value the unpruned analysis would have shown. JSON: "pruned".
  std::vector<std::string> PrunedVars;

  json::Value toJson() const;
};

/// What a demand-driven analysis is asked about: the abstract state at
/// one source point, or the verdict of one runtime check. The demand
/// cone — the set of control points actually solved — is derived from
/// the spec.
struct DemandSpec {
  enum class Kind { Point, Check };
  Kind K = Kind::Point;
  SourceLoc Loc;        ///< Kind::Point: the queried source location
  unsigned CheckId = 0; ///< Kind::Check: id in the program's check table

  static DemandSpec point(SourceLoc Loc) {
    DemandSpec S;
    S.K = Kind::Point;
    S.Loc = Loc;
    return S;
  }
  static DemandSpec check(unsigned Id) {
    DemandSpec S;
    S.K = Kind::Check;
    S.CheckId = Id;
    return S;
  }
};

/// The analysis engine behind AnalysisSession: one parsed and lowered
/// program, its Analyzer, and the findings derived by the last run.
/// Only the session builds and runs it; callers read the findings
/// through AnalysisResult/DemandResult, which share ownership of the
/// engine and exist only once their run has completed.
class AbstractDebugger {
public:
  ~AbstractDebugger();

  RoutineDecl *program() const { return Program; }
  const Analyzer &analyzer() const { return *An; }

private:
  /// The session owns the run schedule and the persistent-cache
  /// composition (loading warm state into the analyzer before a run,
  /// saving it after); the result types read the derived findings.
  friend class AnalysisSession;
  friend class AnalysisResult;
  friend class DemandResult;

  AbstractDebugger() = default;

  /// Parses, checks, lowers and prepares \p Source. Returns null (with
  /// diagnostics in \p Diags) when the program has frontend errors.
  static std::unique_ptr<AbstractDebugger>
  create(const std::string &Source, DiagnosticsEngine &Diags,
         const AnalysisOptions &Opts);

  /// Runs the full analysis schedule and derives the findings. May be
  /// called again on the same engine: a re-analysis warm-starts from
  /// the previous run's recordings (unless WarmStart is off) and
  /// produces identical results.
  void analyze();

  /// Runs the cone-restricted analysis for \p Spec: the same
  /// refinement-chain schedule as analyze(), restricted per phase to
  /// the backward dependency cone of the query, with out-of-cone
  /// components replayed from warm memos (or the on-disk cache) at zero
  /// live solver steps. Never records back: the chain slots and the
  /// on-disk cache only ever hold full recordings. Throws
  /// std::out_of_range for an unknown check id.
  void analyzeDemand(const DemandSpec &Spec);

  /// Supergraph nodes of every control point whose source location
  /// matches \p Loc (a zero column matches the whole line), over all
  /// activation instances in instance and point order.
  std::vector<unsigned> nodesAt(SourceLoc Loc) const;

  /// The inspector view of supergraph node \p Node.
  PointState pointState(unsigned Node) const;

  /// \p Cone restricts derivation to in-cone nodes (demand runs; null
  /// = all nodes). The cone is predecessor-closed over the forward
  /// dependencies, so every value the frontier tests read is in-cone.
  void deriveConditions(const std::vector<uint8_t> *Cone = nullptr);
  void deriveInvariantWarnings(const std::vector<uint8_t> *Cone = nullptr);

  std::unique_ptr<AstContext> Ctx;
  std::unique_ptr<ProgramCfg> Cfg;
  std::unique_ptr<Analyzer> An;
  std::unique_ptr<CheckAnalysis> Checks; ///< full runs only
  RoutineDecl *Program = nullptr;
  /// Which kind of run this engine completed: the session's reuse gate
  /// never hands a full run a demand engine, nor the reverse.
  bool Analyzed = false;
  bool DemandAnalyzed = false;
  std::vector<NecessaryCondition> Conditions;
  std::vector<InvariantWarning> InvariantWarnings;
};

} // namespace syntox

#endif // SYNTOX_CORE_ABSTRACTDEBUGGER_H
