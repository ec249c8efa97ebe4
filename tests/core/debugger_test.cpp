//===- tests/core/debugger_test.cpp - Findings of one analysis run --------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"

#include <gtest/gtest.h>

#include <optional>

using namespace syntox;

namespace {

std::optional<AnalysisResult> analyze(const std::string &Source,
                                      AnalysisOptions Opts = {}) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, Opts);
  EXPECT_NE(Session, nullptr) << Diags.str();
  if (!Session)
    return std::nullopt;
  return Session->run();
}

std::optional<AnalysisResult> makeDebugger(const std::string &Source,
                                           bool TerminationGoal = false) {
  return analyze(Source, AnalysisOptions().terminationGoal(TerminationGoal));
}

bool hasCondition(const AnalysisResult &Dbg, const std::string &Needle) {
  for (const NecessaryCondition &C : Dbg.conditions())
    if (C.str().find(Needle) != std::string::npos)
      return true;
  return false;
}

std::string allConditions(const AnalysisResult &Dbg) {
  std::string Out;
  for (const NecessaryCondition &C : Dbg.conditions())
    Out += C.str() + "\n";
  return Out;
}

TEST(AbstractDebuggerTest, CreateRejectsBadSource) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(AnalysisSession::create("program p; begin x := end.", Diags),
            nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(AbstractDebuggerTest, ForProgramReportsNCondition) {
  auto Dbg = makeDebugger(paper::ForProgram);
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(hasCondition(*Dbg, "n in [-oo, -1]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, WhileProgramReportsBCondition) {
  auto Dbg = makeDebugger(paper::WhileProgram, /*TerminationGoal=*/true);
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(hasCondition(*Dbg, "b = false")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, FactProgramReportsXCondition) {
  auto Dbg = makeDebugger(paper::FactProgram, /*TerminationGoal=*/true);
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(hasCondition(*Dbg, "x in [0, +oo]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, SelectProgramReportsNCondition) {
  auto Dbg = makeDebugger(paper::SelectProgram, /*TerminationGoal=*/true);
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(hasCondition(*Dbg, "n in [-oo, 10]")) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, ConditionsAreReportedAtOrigin) {
  // The condition must be reported once near the read, not at each of
  // the downstream uses.
  auto Dbg = makeDebugger(paper::ForProgram);
  ASSERT_TRUE(Dbg);
  unsigned NConditions = 0;
  for (const NecessaryCondition &C : Dbg->conditions())
    NConditions += C.Var == "n";
  EXPECT_EQ(NConditions, 1u) << allConditions(*Dbg);
}

TEST(AbstractDebuggerTest, InvariantWarnings) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin read(i); invariant(i >= 0) end.");
  ASSERT_TRUE(Dbg);
  ASSERT_EQ(Dbg->invariantWarnings().size(), 1u);
  EXPECT_NE(Dbg->invariantWarnings()[0].Message.find("may be violated"),
            std::string::npos);
}

TEST(AbstractDebuggerTest, ProvedInvariantHasNoWarning) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin i := 5; invariant(i = 5) end.");
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(Dbg->invariantWarnings().empty());
}

TEST(AbstractDebuggerTest, AlwaysViolatedInvariant) {
  auto Dbg = makeDebugger("program p; var i : integer;\n"
                          "begin i := 5; invariant(i = 6) end.");
  ASSERT_TRUE(Dbg);
  ASSERT_EQ(Dbg->invariantWarnings().size(), 1u);
  EXPECT_NE(Dbg->invariantWarnings()[0].Message.find("always violated"),
            std::string::npos);
}

TEST(AbstractDebuggerTest, SpecSatisfiabilityVerdict) {
  auto Ok = makeDebugger("program p; var i : integer; begin i := 1 end.");
  EXPECT_TRUE(Ok->someExecutionMaySatisfySpec());
  // The intermittent point is unreachable: no execution can satisfy it.
  auto Bad = makeDebugger("program p; var i : integer;\n"
                          "begin i := 0; if i > 5 then intermittent(true)\n"
                          "end.");
  EXPECT_FALSE(Bad->someExecutionMaySatisfySpec());
}

TEST(AbstractDebuggerTest, MainStatesRendersStores) {
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  // i is dead at the exit: the default liveness pruning stops tracking
  // it there and the inspector flags it as pruned instead of rendering
  // a value.
  auto Dbg = makeDebugger(Source);
  ASSERT_TRUE(Dbg);
  std::vector<PointState> States = Dbg->mainStates("exit");
  ASSERT_FALSE(States.empty());
  bool Pruned = false;
  for (const PointState &S : States) {
    // Filtered query only contains matching points.
    EXPECT_EQ(S.PointDesc.find("while head"), std::string::npos);
    for (const std::string &V : S.PrunedVars)
      Pruned |= V == "i";
  }
  EXPECT_TRUE(Pruned);

  // Unpruned, the exit store renders the loop's final value.
  auto Full = analyze(Source, AnalysisOptions().prune(false));
  ASSERT_TRUE(Full);
  bool Found = false;
  for (const PointState &S : Full->mainStates("exit")) {
    EXPECT_TRUE(S.PrunedVars.empty());
    for (const StateBinding &B : S.Bindings)
      Found |= B.Var == "i" && B.Value == "[100, 100]";
  }
  EXPECT_TRUE(Found);
}

TEST(AbstractDebuggerTest, StatsArePopulated) {
  auto Dbg = makeDebugger(paper::McCarthyProgram);
  ASSERT_TRUE(Dbg);
  const AnalysisStats &S = Dbg->stats();
  EXPECT_GT(S.ControlPoints, 100u); // after unfolding (11 instances)
  EXPECT_GT(S.Unions, 0u);
  EXPECT_GT(S.Widenings, 0u);
  EXPECT_GE(S.Phases.size(), 3u);
  EXPECT_GT(S.CpuSeconds, 0.0);
  std::string Rendered = S.str();
  EXPECT_NE(Rendered.find("Control points"), std::string::npos);
}

TEST(AbstractDebuggerTest, ChecksAccessible) {
  auto Dbg = makeDebugger(paper::BinarySearchProgram);
  ASSERT_TRUE(Dbg);
  EXPECT_TRUE(Dbg->checks().allSafe());
}

TEST(AbstractDebuggerTest, McCarthyInvariantStudy) {
  // m's last read is the writeln at the very end, which evaluates no
  // checks, so m is dead at the exit and pruned by default; disable
  // pruning to inspect the final value the invariant pins.
  auto Dbg = analyze(paper::McCarthyWithInvariant,
                     AnalysisOptions().prune(false));
  ASSERT_TRUE(Dbg);
  // m = 91 is visible in the final state at the exit.
  bool Found = false;
  for (const PointState &S : Dbg->mainStates("exit of mccarthy"))
    for (const StateBinding &B : S.Bindings)
      Found |= B.Var == "m" && B.Value == "[91, 91]";
  EXPECT_TRUE(Found);
}

TEST(AbstractDebuggerTest, RepeatedAnalyzeWarmStartsAndIsIdentical) {
  AnalysisOptions Opts;
  Opts.TerminationGoal = true;
  Opts.BackwardRounds = 3;
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(paper::McCarthyProgram, Diags, Opts);
  ASSERT_NE(Session, nullptr) << Diags.str();

  std::string FirstConditions;
  size_t FirstWarnings = 0;
  json::Value FirstStates = json::Value::array();
  {
    AnalysisResult First = Session->run();
    FirstConditions = allConditions(First);
    FirstWarnings = First.invariantWarnings().size();
    for (const PointState &S : First.mainStates())
      FirstStates.push(S.toJson());
  }

  // With the first result dropped, a second run re-analyzes the same
  // engine and warm-starts from the first run's recordings: the stable
  // bulk of the chain replays (skips > 0) and every published result is
  // unchanged.
  AnalysisResult Second = Session->run();
  EXPECT_EQ(Session->metrics().counterValue("session.engine_reuses"), 1u);
  EXPECT_GT(Second.stats().ComponentSkips, 0u);
  EXPECT_GT(Second.stats().SkippedSteps, 0u);
  EXPECT_EQ(allConditions(Second), FirstConditions);
  EXPECT_EQ(Second.invariantWarnings().size(), FirstWarnings);
  json::Value SecondStates = json::Value::array();
  for (const PointState &S : Second.mainStates())
    SecondStates.push(S.toJson());
  EXPECT_EQ(SecondStates.str(), FirstStates.str());

  // With warm starts off, a repeated run records nothing and skips
  // nothing — it reproduces the cold run exactly.
  Opts.WarmStart = false;
  DiagnosticsEngine ColdDiags;
  auto Cold = AnalysisSession::create(paper::McCarthyProgram, ColdDiags, Opts);
  ASSERT_NE(Cold, nullptr) << ColdDiags.str();
  Cold->run();
  AnalysisResult Again = Cold->run();
  EXPECT_EQ(Cold->metrics().counterValue("session.engine_reuses"), 1u);
  EXPECT_EQ(Again.stats().ComponentSkips, 0u);
  EXPECT_EQ(Again.stats().SkippedSteps, 0u);
  EXPECT_EQ(allConditions(Again), FirstConditions);
}

} // namespace
