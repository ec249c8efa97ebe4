//===- bench/bench_findings.cpp - E1: the Figure 1 findings table ---------===//
//
// Regenerates the paper's §2/Figure 1 findings: for each example program
// the necessary condition the abstract debugger derives, side by side
// with the condition the paper reports. The "shape" to check: every row
// matches.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "frontend/PaperPrograms.h"

#include <cstdio>
#include <string>

using namespace syntox;

namespace {

struct Row {
  const char *Program;
  const char *Source;
  bool TerminationGoal;
  const char *PaperClaim;
  const char *ExpectedNeedle; ///< substring that must appear in a condition
};

bool runRow(bench::Harness &H, const Row &R) {
  AnalysisOptions Opts = H.options();
  Opts.TerminationGoal = R.TerminationGoal;
  auto Result = H.run(R.Program, R.Source, Opts);
  if (!Result)
    return false;
  std::string Found = "(no condition)";
  bool Match = false;
  for (const NecessaryCondition &C : Result->conditions()) {
    if (C.str().find(R.ExpectedNeedle) != std::string::npos) {
      Found = C.str();
      Match = true;
      break;
    }
  }
  if (!Match && !Result->conditions().empty())
    Found = Result->conditions().front().str();
  std::printf("%-14s paper: %-34s derived: %-48s %s\n", R.Program,
              R.PaperClaim, Found.c_str(), Match ? "MATCH" : "DIFFER");
  json::Value Json = json::Value::object();
  Json.set("program", R.Program);
  Json.set("paper", R.PaperClaim);
  Json.set("derived", Found);
  Json.set("match", Match);
  H.row(std::move(Json));
  return Match;
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("findings", argc, argv);
  std::printf("==== E1: Figure 1 derived necessary conditions ====\n\n");

  std::string McIntermittent = paper::McCarthyProgram;
  McIntermittent.insert(McIntermittent.find("writeln(m)"),
                        "intermittent(m = 91);\n  ");

  const Row Rows[] = {
      {"For(0..n)", paper::ForProgram, false, "n < 0 at (1)",
       "n in [-oo, -1]"},
      {"For(1..n)", paper::ForProgram1ToN, true, "n <= 100 at (1)",
       "n in [-oo, 100]"},
      {"While", paper::WhileProgram, true, "b = false at (2)", "b = false"},
      {"Fact", paper::FactProgram, true, "x >= 0 at (1)", "x in [0, +oo]"},
      {"Select", paper::SelectProgram, true, "n <= 10 at (1)",
       "n in [-oo, 10]"},
      {"Intermittent", paper::IntermittentProgram, false,
       "i < 10 at (1) [to reach i = 10]", "i in [-oo, 9]"},
      {"McCarthy", McIntermittent.c_str(), false,
       "n <= 101 at (1) [for m = 91]", "n in [-oo, 101]"},
      {"McCarthyBuggy", paper::McCarthyBuggy, true,
       "n > 100 at (1) [to terminate]", "n in [101, +oo]"},
  };

  unsigned Matches = 0, Total = 0;
  for (const Row &R : Rows) {
    Matches += runRow(H, R);
    ++Total;
  }
  std::printf("\n%u/%u paper findings reproduced\n", Matches, Total);
  H.write();
  return Matches == Total ? 0 : 1;
}
