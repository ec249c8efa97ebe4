//===- perfbench/harness/Layers.h - One request, by layer --*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The closed-loop request (AnalysisSession::create -> run -> toJson)
/// in its two forms: untraced, exactly as a CLI user calls it, and
/// traced, the same work split into layer spans.
///
/// The traced form makes the same three calls inside spans
/// (core.session_create, core.run, core.render), so the request itself
/// runs exactly as untraced. create() and run() are opaque; right after
/// the request the benchmark makes the public calls inside them again on
/// the same source -- Lexer, Parser, Sema, CfgBuilder, the Analyzer
/// constructor (what AbstractDebugger::create does, once per call) and
/// CheckAnalysis -- and supplies their durations as children. The
/// fixpoint child of run() comes from AnalysisStats.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERFBENCH_LAYERS_H
#define SYNTOX_PERFBENCH_LAYERS_H

#include "Bench.h"

#include "cfg/Cfg.h"
#include "core/AnalysisSession.h"
#include "semantics/Analyzer.h"

#include <optional>
#include <string>

namespace perfbench {

/// Work counts of one request, summed into per-layer metrics.
struct RequestCounts {
  uint64_t Tokens = 0;
  uint64_t CfgPoints = 0;
  uint64_t Instances = 0;
  uint64_t Nodes = 0;
  uint64_t Unions = 0, Widenings = 0, Narrowings = 0;
  uint64_t LiveSteps = 0, SkippedSteps = 0;
  uint64_t BytesUsed = 0;
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t Checks = 0, Safe = 0, Unreachable = 0;
  double SolveSeconds = 0;

  void operator+=(const RequestCounts &O);
};

/// Adds the fixpoint and checks counts of one findings document
/// (schemas/findings.schema.json) — the same source of truth for
/// in-process and wire responses.
void countFindings(const syntox::json::Value &Findings, RequestCounts &C);

/// The findings document minus its run-dependent members (stats,
/// metrics): what must be bitwise-equal between any two runs of one
/// source.
syntox::json::Value findingsOnly(const syntox::json::Value &Findings);

/// One finished closed-loop request.
struct Analyzed {
  bool OK = false;
  std::string Error;
  double Seconds = 0;      ///< create -> rendered findings
  std::string Rendered;    ///< the findings JSON text the caller gets
  syntox::json::Value Findings;
  std::optional<syntox::AnalysisResult> Result; ///< for the oracles
};

/// The untraced request.
Analyzed analyzeUntraced(const std::string &Source,
                         const syntox::AnalysisOptions &Opts);

/// The traced request (see the file comment); adds frontend/cfg/
/// semantics counts to \p C.
Analyzed analyzeTraced(const std::string &Source,
                       const syntox::AnalysisOptions &Opts,
                       SpanRecorder &Rec, uint64_t RequestId,
                       RequestCounts &C);

/// A cold engine built the way AbstractDebugger::create builds one, for
/// driving a layer's public functions directly (the persist probe).
struct Engine {
  std::unique_ptr<syntox::AstContext> Ctx;
  std::unique_ptr<syntox::ProgramCfg> Cfg;
  std::unique_ptr<syntox::Analyzer> An;
};
/// Null on a frontend error.
std::unique_ptr<Engine> buildEngine(const std::string &Source,
                                    const syntox::AnalysisOptions &Opts);

/// Adds the per-layer metrics every workload reports (zero where the
/// workload never reaches the layer) from \p Total over \p Requests
/// requests and the summarized spans.
void addLayerMetrics(Report &Rep, const TraceSummary &S,
                     const RequestCounts &Total, uint64_t Requests);

} // namespace perfbench

#endif // SYNTOX_PERFBENCH_LAYERS_H
