//===- examples/mccarthy_study.cpp - The paper's §6.5 McCarthy case study -===//
//
// Reproduces the three McCarthy-91 findings of the paper:
//  1. with `invariant(n <= 101)` at the function entry, the analysis
//     proves m = 91 at the end,
//  2. with `intermittent(m = 91)` before the output, the necessary
//     condition n <= 101 appears right after read(n),
//  3. in the buggy generalization (81 replaced by 71), the analysis shows
//     that termination requires n > 100 — i.e. the program loops for
//     every n <= 100; the concrete interpreter confirms it.
//
// Build & run:  ./build/examples/mccarthy_study
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "interp/Interpreter.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <cstdio>
#include <optional>

using namespace syntox;

static std::optional<AnalysisResult>
analyze(const std::string &Source, bool TerminationGoal = false) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(
      Source, Diags, AnalysisOptions().terminationGoal(TerminationGoal));
  if (!Session) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return std::nullopt;
  }
  return Session->run();
}

int main() {
  std::printf("=== McCarthy 91 case study (paper section 6.5) ===\n\n");

  // --- 1. The invariant proves the result ------------------------------
  std::printf("[1] mc with invariant(n <= 101) at the entry:\n");
  if (auto Result = analyze(paper::McCarthyWithInvariant)) {
    for (const PointState &S : Result->mainStates("exit of mccarthy")) {
      std::printf("%s %s:", S.Loc.str().c_str(), S.PointDesc.c_str());
      for (const StateBinding &B : S.Bindings)
        std::printf(" %s=%s", B.Var.c_str(), B.Value.c_str());
      std::printf("\n");
    }
    std::printf("    => the analysis proves m = 91 whenever mc returns\n\n");
  }

  // --- 2. The intermittent assertion back-propagates -------------------
  std::printf("[2] mc with intermittent(m = 91) before writeln:\n");
  std::string WithIntermittent = paper::McCarthyProgram;
  size_t Pos = WithIntermittent.find("writeln(m)");
  WithIntermittent.insert(Pos, "intermittent(m = 91);\n  ");
  if (auto Result = analyze(WithIntermittent)) {
    for (const NecessaryCondition &C : Result->conditions())
      std::printf("    %s\n", C.str().c_str());
    std::printf("    => reaching the output with m = 91 requires"
                " n <= 101 at the read\n\n");
  }

  // --- 3. The buggy generalization -------------------------------------
  std::printf("[3] buggy generalization (n + 71 instead of n + 81):\n");
  if (auto Result = analyze(paper::McCarthyBuggy, /*TerminationGoal=*/true)) {
    for (const NecessaryCondition &C : Result->conditions())
      std::printf("    %s\n", C.str().c_str());
  }

  // Confirm with the concrete interpreter: n = 0 must loop, n = 150 must
  // terminate.
  AstContext Ctx;
  DiagnosticsEngine Diags;
  Lexer L(paper::McCarthyBuggy, Diags);
  Parser P(L.lexAll(), Ctx, Diags);
  RoutineDecl *Prog = P.parseProgram();
  Sema S(Ctx, Diags);
  S.analyze(Prog);
  Interpreter I(Prog);
  for (int64_t N : {0, 50, 100, 101, 150}) {
    Interpreter::Options Opts;
    Opts.Inputs = {N};
    Opts.MaxSteps = 500000;
    Interpreter::Result R = I.run(Opts);
    std::printf("    concrete mc(%lld): %s\n", (long long)N,
                R.St == Interpreter::Status::Ok
                    ? ("terminates, prints " + R.Output).c_str()
                    : "does NOT terminate (loops)");
  }
  std::printf("    => exactly as predicted: loops for n <= 100\n");
  return 0;
}
