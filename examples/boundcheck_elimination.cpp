//===- examples/boundcheck_elimination.cpp - Paper §6.5 / Figure 3 --------===//
//
// The second use of Syntox (paper §6.5): prove array accesses statically
// correct so a compiler can drop the bound checks. This example
//  1. classifies every runtime check of BinarySearch, HeapSort,
//     QuickSort and BubbleSort,
//  2. runs each program concretely with and without the checks that the
//     analysis discharged, verifying identical outputs,
//  3. reports the speedup (paper: 30-40% on compiled Pascal).
//
// Build & run:  ./build/examples/boundcheck_elimination
//
//===----------------------------------------------------------------------===//

#include "checks/CheckAnalysis.h"
#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>

using namespace syntox;

namespace {

std::vector<int64_t> makeInputs(const char *Name, Rng &R) {
  std::vector<int64_t> Inputs;
  if (std::string(Name) == "binarysearch") {
    Inputs.push_back(100); // n
    Inputs.push_back(R.range(0, 300)); // key
    int64_t V = 0;
    for (int I = 0; I < 100; ++I)
      Inputs.push_back(V += R.range(0, 5)); // sorted values
    return Inputs;
  }
  Inputs.push_back(100);
  for (int I = 0; I < 100; ++I)
    Inputs.push_back(R.range(-1000, 1000));
  return Inputs;
}

double timeRuns(const Interpreter &I, const std::vector<int64_t> &Inputs,
                bool Checks, int Repeats) {
  Interpreter::Options Opts;
  Opts.Inputs = Inputs;
  Opts.EnableChecks = Checks;
  auto Start = std::chrono::steady_clock::now();
  for (int K = 0; K < Repeats; ++K) {
    Interpreter::Result R = I.run(Opts);
    if (R.St != Interpreter::Status::Ok) {
      std::fprintf(stderr, "unexpected failure: %s\n", R.Error.c_str());
      return -1;
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

int main() {
  std::printf("=== Array bound check elimination (paper 6.5, Figure 3) "
              "===\n\n");
  struct Case {
    const char *Name;
    const char *Source;
  } Cases[] = {
      {"binarysearch", paper::BinarySearchProgram},
      {"heapsort", paper::HeapSortProgram},
      {"bubblesort", paper::BubbleSortProgram},
      {"quicksort", paper::QuickSortProgram},
  };

  Rng R(4242);
  for (const Case &C : Cases) {
    DiagnosticsEngine Diags;
    auto Session = AnalysisSession::create(C.Source, Diags);
    if (!Session) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      continue;
    }
    AnalysisResult Result = Session->run();
    CheckSummary S = Result.checks().summary();
    std::printf("%-14s checks: %2u total, %2u proved safe, %u unreachable, "
                "%u dynamic  %s\n",
                C.Name, S.Total, S.Safe, S.Unreachable,
                S.MayFail + S.MustFail,
                Result.checks().allSafe() ? "[all array accesses proved]"
                                          : "");

    // Concrete timing with and without the (justified) checks.
    Interpreter I(Result.debugger().program());
    std::vector<int64_t> Inputs = makeInputs(C.Name, R);

    // Verify semantic equivalence first.
    Interpreter::Options VerifyOpts;
    VerifyOpts.Inputs = Inputs;
    Interpreter::Result Checked = I.run(VerifyOpts);
    VerifyOpts.EnableChecks = false;
    Interpreter::Result Unchecked = I.run(VerifyOpts);
    if (Checked.Output != Unchecked.Output) {
      std::printf("  output mismatch after elimination!\n");
      continue;
    }

    const int Repeats = 300;
    double With = timeRuns(I, Inputs, /*Checks=*/true, Repeats);
    double Without = timeRuns(I, Inputs, /*Checks=*/false, Repeats);
    if (With > 0 && Without > 0)
      std::printf("  %d runs: %.4fs with checks, %.4fs without -> "
                  "%.1f%% speedup\n",
                  Repeats, With, Without, 100.0 * (With - Without) / With);
  }
  std::printf("\n(paper: a 30-40%% speedup on compiled Pascal; the shape "
              "to compare is\n checked > unchecked with a double-digit "
              "percentage gap)\n");
  return 0;
}
