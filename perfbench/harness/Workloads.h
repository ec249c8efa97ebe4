//===- perfbench/harness/Workloads.h - The benchmark workloads --*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (README.md says why each exists). Each builds its
/// inputs from the seed alone, sets up several times and reports the
/// median as setup_s, measures for the configured seconds, checks every
/// output against its oracle, and fills a Report with the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_PERFBENCH_WORKLOADS_H
#define SYNTOX_PERFBENCH_WORKLOADS_H

#include "Bench.h"

namespace perfbench {

/// Cold one-shot analyses of a seeded RandomProgramGen corpus: the
/// CLI/CI user. Oracle: concrete interpreter runs.
Report runCorpusOneshot(const WorkloadConfig &W);

/// The paper's heavy programs, cold, in a closed loop. Oracle: the
/// hand-written verdicts and check counts in expected/paper-deep.json
/// (path in WorkloadConfig::Params "expected_file").
Report runPaperDeep(const WorkloadConfig &W);

/// An editor fleet over the serve::Server wire protocol, open loop.
/// Oracle: cold sequential AnalysisSession findings of every source.
Report runServeEdit(const WorkloadConfig &W);

} // namespace perfbench

#endif // SYNTOX_PERFBENCH_WORKLOADS_H
