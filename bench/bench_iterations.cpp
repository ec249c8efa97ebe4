//===- bench/bench_iterations.cpp - E2: the Figure 2 session statistics ---===//
//
// Regenerates the statistics panel of the Syntox session shown in
// Figure 2 (program McCarthy): per-phase widening/narrowing iteration
// counts, CPU, memory, control points, equations, unions and widenings.
// The paper's screenshot shows (on a DEC 5000/200):
//     *** Forward analysis:        widening (84),  narrowing (56)
//     *** Intermittent assertions: widening (140), narrowing (28)
//     *** [Backward] analysis:     widening (81),  narrowing (28)
//     *** CPU: 0.6 seconds, Memory: 46 Kb, Control points: 32 [source]
//     *** Equations: 448 (2104 unions, 814 widenings)
// Absolute counts depend on the exact equation encoding; the shape to
// compare: a few iterations per equation per phase, unions an order of
// magnitude above the equation count, sub-second CPU.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "frontend/PaperPrograms.h"

#include <cstdio>

using namespace syntox;

static void session(bench::Harness &H, const char *Title,
                    const std::string &Source, bool TerminationGoal) {
  std::printf("---- %s ----\n", Title);
  AnalysisOptions Opts = H.options();
  Opts.TerminationGoal = TerminationGoal;
  auto Result = H.run(Title, Source, Opts);
  if (!Result)
    return;
  std::printf("%s", Result->stats().str().c_str());
  const AnalysisStats &S = Result->stats();
  double StepsPerEquation =
      S.Equations == 0
          ? 0.0
          : static_cast<double>([&] {
              uint64_t Total = 0;
              for (const PhaseStats &P : S.Phases)
                Total += P.WideningSteps + P.NarrowingSteps;
              return Total;
            }()) / S.Equations;
  std::printf("*** Complexity: %.1f evaluations per equation "
              "(paper: ~4 per phase)\n\n",
              StepsPerEquation);
  json::Value Row = json::Value::object();
  Row.set("session", Title);
  Row.set("equations", S.Equations);
  Row.set("unions", S.Unions);
  Row.set("widenings", S.Widenings);
  Row.set("steps_per_equation", StepsPerEquation);
  H.row(std::move(Row));
}

int main(int argc, char **argv) {
  bench::Harness H("iterations", argc, argv);
  std::printf("==== E2: Figure 2 analysis statistics ====\n\n");

  std::string McIntermittent = paper::McCarthyProgram;
  McIntermittent.insert(McIntermittent.find("writeln(m)"),
                        "intermittent(m = 91);\n  ");

  session(H, "McCarthy (plain)", paper::McCarthyProgram, false);
  session(H, "McCarthy with invariant n <= 101", paper::McCarthyWithInvariant,
          false);
  session(H, "McCarthy with intermittent m = 91", McIntermittent, false);
  H.write();
  return 0;
}
