//===- tests/core/session_test.cpp - AnalysisSession/Result API tests -----===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace syntox;

namespace {

std::unique_ptr<AnalysisSession> makeSession(const std::string &Source,
                                             AnalysisOptions Opts = {}) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Source, Diags, Opts);
  EXPECT_NE(Session, nullptr) << Diags.str();
  return Session;
}

std::vector<std::string> conditionStrings(
    const std::vector<NecessaryCondition> &Conds) {
  std::vector<std::string> Out;
  for (const NecessaryCondition &C : Conds)
    Out.push_back(C.str());
  return Out;
}

TEST(AnalysisSessionTest, CreateRejectsBadSource) {
  DiagnosticsEngine Diags;
  EXPECT_EQ(AnalysisSession::create("program p; begin x := end.", Diags),
            nullptr);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(AnalysisSessionTest, ResultsSurviveLaterRuns) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult First = Session->run();
  std::vector<std::string> FirstConds = conditionStrings(First.conditions());
  ASSERT_FALSE(FirstConds.empty());

  // A second run with different options must not disturb the first
  // result (it owns a separate frozen engine).
  Session->options().terminationGoal(true);
  AnalysisResult Second = Session->run();
  EXPECT_EQ(conditionStrings(First.conditions()), FirstConds);

  // Results outlive the session.
  Session.reset();
  EXPECT_EQ(conditionStrings(First.conditions()), FirstConds);
  EXPECT_FALSE(conditionStrings(Second.conditions()).empty());
}

TEST(AnalysisSessionTest, StateAtQueriesTheStatementInspector) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult Result = Session->run();
  // Line 6 of the For program is `read(n)`.
  std::vector<PointState> States = Result.stateAt(SourceLoc(6, 0));
  ASSERT_FALSE(States.empty());
  bool SawN = false;
  for (const PointState &S : States) {
    EXPECT_EQ(S.Loc.Line, 6u);
    for (const StateBinding &B : S.Bindings)
      SawN |= B.Var == "n";
  }
  EXPECT_TRUE(SawN);
  // A line with no control point yields no states, not an error.
  EXPECT_TRUE(Result.stateAt(SourceLoc(9999, 0)).empty());
}

TEST(AnalysisSessionTest, StateAtColumnNarrowsTheLine) {
  // Two statements share line 5: a zero column answers for every point
  // on the line, a non-zero column only for the points at that column,
  // and the per-column answers partition the line's answer.
  const char *Src = "program p;\n"
                    "var a, b : integer;\n"
                    "begin\n"
                    "  read(a);\n"
                    "  a := a + 1; b := a + 2;\n"
                    "  writeln(b)\n"
                    "end.\n";
  auto Session = makeSession(Src);
  ASSERT_NE(Session, nullptr);
  AnalysisResult Result = Session->run();
  std::vector<PointState> Line = Result.stateAt(SourceLoc(5, 0));
  ASSERT_FALSE(Line.empty());

  std::vector<uint32_t> Columns;
  for (const PointState &S : Line) {
    EXPECT_EQ(S.Loc.Line, 5u);
    EXPECT_NE(S.Loc.Column, 0u);
    if (std::find(Columns.begin(), Columns.end(), S.Loc.Column) ==
        Columns.end())
      Columns.push_back(S.Loc.Column);
  }
  ASSERT_GE(Columns.size(), 2u) << "both statements have a point";

  size_t Answered = 0;
  for (uint32_t Col : Columns) {
    std::vector<PointState> At = Result.stateAt(SourceLoc(5, Col));
    ASSERT_FALSE(At.empty()) << "column " << Col;
    // The column's answer is the line's answer filtered to that column,
    // in the same order.
    std::vector<std::string> Want, Got;
    for (const PointState &S : Line)
      if (S.Loc.Column == Col)
        Want.push_back(S.toJson().str());
    for (const PointState &S : At)
      Got.push_back(S.toJson().str());
    EXPECT_EQ(Got, Want) << "column " << Col;
    Answered += At.size();
  }
  EXPECT_EQ(Answered, Line.size());

  // A column on the line where no point starts answers nothing.
  uint32_t Unused = 1;
  while (std::find(Columns.begin(), Columns.end(), Unused) != Columns.end())
    ++Unused;
  EXPECT_TRUE(Result.stateAt(SourceLoc(5, Unused)).empty());
}

TEST(AnalysisSessionTest, FindingsJsonRoundTripsAndMatchesSchema) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult Result = Session->run();
  json::Value Doc = Result.toJson();

  // Required top-level keys of schemas/findings.schema.json.
  for (const char *Key : {"domain", "verdict", "conditions",
                          "invariant_warnings", "checks", "stats", "metrics"})
    EXPECT_TRUE(Doc.has(Key)) << Key;
  EXPECT_EQ(Doc.find("domain")->asString(), "interval");
  EXPECT_EQ(Doc.find("verdict")->asString(),
            "some_execution_may_satisfy_spec");
  const json::Value *Conds = Doc.find("conditions");
  ASSERT_TRUE(Conds && Conds->isArray());
  ASSERT_EQ(Conds->size(), Result.conditions().size());
  for (const json::Value &C : Conds->elements()) {
    EXPECT_TRUE(C.find("line") && C.find("line")->isInt());
    EXPECT_TRUE(C.find("condition") && C.find("condition")->isString());
    EXPECT_TRUE(C.find("point") && C.find("point")->isString());
  }
  const json::Value *Checks = Doc.find("checks");
  ASSERT_TRUE(Checks && Checks->find("summary") && Checks->find("results"));
  EXPECT_EQ(Checks->find("summary")->find("total")->asInt(),
            static_cast<int64_t>(Result.checks().summary().Total));
  for (const json::Value &R : Checks->find("results")->elements()) {
    EXPECT_TRUE(R.find("kind") && R.find("kind")->isString());
    EXPECT_TRUE(R.find("verdict") && R.find("verdict")->isString());
  }
  EXPECT_TRUE(Doc.find("stats")->find("phases")->isArray());

  // Writer -> parser round trip is the identity.
  std::optional<json::Value> Back = json::parse(Doc.pretty());
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(*Back == Doc);
}

TEST(AnalysisSessionTest, MetricsAccumulateAcrossRuns) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult First = Session->run();
  const json::Value *C1 = First.metrics().find("counters");
  ASSERT_TRUE(C1 && C1->find("solver.ascending_steps"));
  int64_t Steps1 = C1->find("solver.ascending_steps")->asInt();
  EXPECT_GT(Steps1, 0);

  AnalysisResult Second = Session->run();
  const json::Value *C2 = Second.metrics().find("counters");
  int64_t Steps2 = C2->find("solver.ascending_steps")->asInt();
  EXPECT_EQ(Steps2, 2 * Steps1) << "counters are session totals";
  // The first result's snapshot is frozen.
  EXPECT_EQ(First.metrics().find("counters")
                ->find("solver.ascending_steps")
                ->asInt(),
            Steps1);
}

TEST(AnalysisSessionTest, TraceJsonLinesGolden) {
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Session->flushTrace(Sink);

  const std::set<std::string> Vocabulary{
      "phase_begin", "phase_end",  "component_begin", "component_end",
      "widening",    "narrowing",  "token_unfold",    "cache_hit",
      "cache_miss",  "task_enqueue", "task_run",      "task_complete",
      "store_detach", "component_skip", "demand_skip"};
  std::vector<std::string> PhaseBegins;
  int PhaseDepth = 0;
  uint64_t LastTs = 0;
  std::istringstream In(OS.str());
  std::string Line;
  unsigned NumEvents = 0;
  while (std::getline(In, Line)) {
    ++NumEvents;
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    std::string Ev = V->find("ev")->asString();
    EXPECT_TRUE(Vocabulary.count(Ev)) << Ev;
    // The default mask excludes the detail kinds.
    EXPECT_NE(Ev, "cache_hit");
    EXPECT_NE(Ev, "store_detach");
    uint64_t Ts = static_cast<uint64_t>(V->find("t")->asInt());
    EXPECT_GE(Ts, LastTs);
    LastTs = Ts;
    if (Ev == "phase_begin") {
      ++PhaseDepth;
      PhaseBegins.push_back(V->find("label")->asString());
    } else if (Ev == "phase_end") {
      --PhaseDepth;
    }
    EXPECT_GE(PhaseDepth, 0);
  }
  EXPECT_EQ(PhaseDepth, 0);
  EXPECT_GT(NumEvents, 4u);
  // The §3 schedule begins with the forward lfp phase.
  ASSERT_FALSE(PhaseBegins.empty());
  EXPECT_EQ(PhaseBegins.front(), "Forward analysis");

  // Flushing consumed the events.
  std::ostringstream OS2;
  StreamTraceSink Sink2(OS2, TraceFormat::JsonLines);
  Session->flushTrace(Sink2);
  EXPECT_TRUE(OS2.str().empty());
}

/// K independent heavy loop nests behind a branch tree.
std::string wideProgram(unsigned Leaves) {
  std::string Out = "program gen;\nvar c : integer;\n";
  for (unsigned I = 0; I < Leaves; ++I)
    Out += "  x" + std::to_string(I) + ", y" + std::to_string(I) +
           " : integer;\n";
  Out += "begin\n  read(c);\n";
  for (unsigned I = 0; I < Leaves; ++I) {
    std::string X = "x" + std::to_string(I), Y = "y" + std::to_string(I);
    Out += "  if c = " + std::to_string(I) + " then begin\n";
    Out += "    " + X + " := 0;\n";
    Out += "    while " + X + " < 500 do begin\n";
    Out += "      " + Y + " := 0;\n";
    Out += "      while " + Y + " < 500 do " + Y + " := " + Y + " + 1;\n";
    Out += "      " + X + " := " + X + " + 1\n";
    Out += "    end\n";
    Out += "  end;\n";
  }
  Out += "  c := 0\nend.\n";
  return Out;
}

TEST(AnalysisSessionTest, ChromeTraceSpansBalance) {
  auto Session = makeSession(wideProgram(4), AnalysisOptions());
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  Session->run();

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::Chrome);
  Session->flushTrace(Sink);

  std::string Error;
  std::optional<json::Value> Doc = json::parse(OS.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());

  // Spans balance per thread; every loop nest shows up as a component
  // span.
  std::map<int64_t, int> DepthPerTid;
  unsigned ComponentSpans = 0;
  for (const json::Value &E : Events->elements()) {
    const std::string &Ph = E.find("ph")->asString();
    int64_t Tid = E.find("tid")->asInt();
    const std::string &Kind = E.find("args")->find("kind")->asString();
    if (Ph == "B") {
      ++DepthPerTid[Tid];
      if (Kind == "component_begin")
        ++ComponentSpans;
    } else if (Ph == "E") {
      --DepthPerTid[Tid];
      EXPECT_GE(DepthPerTid[Tid], 0);
    }
  }
  for (const auto &[Tid, Depth] : DepthPerTid)
    EXPECT_EQ(Depth, 0) << "unbalanced spans on tid " << Tid;
  EXPECT_GE(ComponentSpans, 8u) << "two loops per independent nest";
}

/// toJson() minus the stats/metrics counters (which legitimately differ
/// between cold and warm-replayed runs).
json::Value findingsOnly(const AnalysisResult &R) {
  json::Value Doc = R.toJson();
  json::Value Out = json::Value::object();
  for (const auto &KV : Doc.members())
    if (KV.first != "stats" && KV.first != "metrics")
      Out.set(KV.first, KV.second);
  return Out;
}

uint64_t liveSteps(const AnalysisResult &R) {
  uint64_t Live = 0;
  for (const PhaseStats &P : R.stats().Phases)
    Live += P.WideningSteps + P.NarrowingSteps;
  return Live;
}

TEST(AnalysisSessionTest, EngineReuseOnlyWhenUnobserved) {
  // A dropped result frees the engine for warm in-place reuse; a held
  // one pins it and forces the next run onto a fresh engine. Findings
  // are identical either way.
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::McCarthyProgram, Opts);
  ASSERT_NE(Session, nullptr);

  json::Value ColdFindings;
  uint64_t ColdLive = 0;
  {
    AnalysisResult First = Session->run();
    ColdFindings = findingsOnly(First);
    ColdLive = liveSteps(First);
  } // First dropped: nothing can observe the engine anymore
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
  EXPECT_GT(ColdLive, 0u);

  AnalysisResult Warm = Session->run();
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 1u);
  EXPECT_TRUE(findingsOnly(Warm) == ColdFindings);
  // The in-memory warm chain replays every stable component.
  EXPECT_EQ(liveSteps(Warm), 0u);

  // Warm is still alive and shares the engine: this run must not touch
  // it (immutability of published results) and builds a fresh engine.
  AnalysisResult Pinned = Session->run();
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 1u);
  EXPECT_TRUE(findingsOnly(Pinned) == ColdFindings);
  EXPECT_EQ(liveSteps(Pinned), ColdLive);
}

TEST(AnalysisSessionTest, OptionChangeForcesFreshEngine) {
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::ForProgram, Opts);
  ASSERT_NE(Session, nullptr);
  Session->run(); // result dropped immediately
  Session->options().NarrowingPasses += 1;
  AnalysisResult R = Session->run();
  // Changed configuration: the kept engine is not compatible, so no
  // reuse happened and the run paid a cold solve under the new knobs.
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
  EXPECT_GT(liveSteps(R), 0u);
}

TEST(AnalysisSessionTest, TurningPruningOffForcesFreshEngine) {
  // i is dead at the exit: the pruned run flags it, and after
  // prune(false) the session must not recycle the pruned engine.
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(Source, Opts);
  ASSERT_NE(Session, nullptr);
  auto prunedAtExit = [](const AnalysisResult &R) {
    bool Pruned = false;
    for (const PointState &S : R.mainStates("exit"))
      Pruned |= !S.PrunedVars.empty();
    return Pruned;
  };
  EXPECT_TRUE(prunedAtExit(Session->run()));
  Session->options().prune(false);
  AnalysisResult Full = Session->run();
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
  EXPECT_FALSE(prunedAtExit(Full));
}

size_t numInstances(const AnalysisResult &R) {
  return R.analyzer().graph().instances().size();
}

TEST(AnalysisSessionTest, CallerRegistryCountsConstructionOnce) {
  // create() builds the engine into the caller's registry and run()
  // analyzes that same engine: construction is reported once, and the
  // hand-off is not an engine reuse.
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::McCarthyProgram, Opts);
  ASSERT_NE(Session, nullptr);
  AnalysisResult R = Session->run();
  EXPECT_GE(numInstances(R), AdaptiveCacheInstanceThreshold);
  EXPECT_EQ(Metrics.counterValue("interproc.instances"), numInstances(R));
  EXPECT_EQ(Metrics.counterValue("cache.auto_enabled"), 1u);
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
}

TEST(AnalysisSessionTest, AutoEnabledCacheLeavesTheOptionsAsPassed) {
  // McCarthy unfolds past the instance threshold, so the engine turns
  // the unpinned transfer cache on. It decides that locally: the options
  // it reports are the ones the session passed, cache still unpinned.
  auto Session = makeSession(paper::McCarthyProgram);
  ASSERT_NE(Session, nullptr);
  AnalysisResult R = Session->run();
  EXPECT_GE(numInstances(R), AdaptiveCacheInstanceThreshold);
  EXPECT_TRUE(R.analyzer().transferCacheEnabled());
  EXPECT_EQ(R.analyzer().options(), Session->options());
  AnalysisOptions Passed;
  Passed.Telem = Session->options().Telem;
  EXPECT_EQ(R.analyzer().options(), Passed);
  EXPECT_FALSE(R.analyzer().options().TransferCache.has_value());
}

TEST(AnalysisSessionTest, TracingAfterCreateRebuildsAndCountsOnce) {
  // The recorder is captured at engine construction, so enabling it
  // after create() makes the first run build a fresh, traced engine.
  // The engine create() built never ran and reports nothing; the
  // traced one records one token_unfold per activation class.
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(paper::McCarthyProgram, Opts);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing();
  AnalysisResult R = Session->run();
  EXPECT_EQ(Metrics.counterValue("interproc.instances"), numInstances(R));
  EXPECT_EQ(Metrics.counterValue("cache.auto_enabled"), 1u);
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);

  std::ostringstream OS;
  StreamTraceSink Sink(OS, TraceFormat::JsonLines);
  Session->flushTrace(Sink);
  size_t Unfolds = 0;
  std::istringstream In(OS.str());
  std::string Line;
  while (std::getline(In, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    Unfolds += V->find("ev")->asString() == "token_unfold";
  }
  EXPECT_EQ(Unfolds, numInstances(R));
}

TEST(AnalysisSessionTest, PruningOffBeforeFirstRunRebuildsAndCountsOnce) {
  // prune(false) between create() and the first run: the engine
  // create() built prunes, so the run must not analyze it.
  const char *Source = "program p; var i : integer;\n"
                       "begin i := 0; while i < 100 do i := i + 1 end.";
  MetricsRegistry Metrics;
  AnalysisOptions Opts;
  Opts.Telem.Metrics = &Metrics;
  auto Session = makeSession(Source, Opts);
  ASSERT_NE(Session, nullptr);
  Session->options().prune(false);
  AnalysisResult R = Session->run();
  for (const PointState &S : R.mainStates("exit"))
    EXPECT_TRUE(S.PrunedVars.empty());
  EXPECT_EQ(numInstances(R), 1u);
  EXPECT_EQ(Metrics.counterValue("interproc.instances"), 1u);
  EXPECT_EQ(Metrics.counterValue("session.engine_reuses"), 0u);
}

TEST(AnalysisSessionTest, StoreDetachHookClearedWhenAQueryThrows) {
  // Detail tracing routes store detaches through the process-global
  // hook for the duration of a run; a failing query must not leave it
  // pointing at the session's recorder.
  auto Session = makeSession(paper::ForProgram);
  ASSERT_NE(Session, nullptr);
  Session->enableTracing(TraceRecorder::AllEvents);
  EXPECT_THROW(Session->demandCheck(1u << 30), std::out_of_range);
  EXPECT_EQ(trace::StoreDetachHook.load(), nullptr);
  Session->run();
  EXPECT_EQ(trace::StoreDetachHook.load(), nullptr);
}

TEST(AnalysisSessionTest, MemoryFigureIsIndependentOfHeapHistory) {
  // Copy-in/copy-out loops an instance's SharedKeys, which shape the
  // store payloads and hence the memory figure. Ordered by declaration
  // they are a function of the program alone; ordered by address they
  // changed with whatever the process had allocated and freed before.
  using Gen = test::ProgramGenerator;
  AnalysisOptions Opts = AnalysisOptions().prune(false);
  std::string Source = Gen(35).generate(Gen::Family::AliasingHeavy);
  uint64_t FirstBytes = 0;
  {
    auto First = makeSession(Source, Opts);
    ASSERT_NE(First, nullptr);
    FirstBytes = First->run().stats().BytesUsed;
  }
  {
    auto Throwaway =
        makeSession(Gen(36).generate(Gen::Family::AliasingHeavy), Opts);
    ASSERT_NE(Throwaway, nullptr);
    Throwaway->run();
  }
  auto Session = makeSession(Source, Opts);
  ASSERT_NE(Session, nullptr);
  AnalysisResult R = Session->run();
  EXPECT_EQ(R.stats().BytesUsed, FirstBytes);

  bool SawRoots = false;
  for (const Instance &I : R.analyzer().graph().instances()) {
    // The ancestors' variables come first, in declaration (= store
    // slot) order...
    size_t NumAncestorVars = 0;
    for (const RoutineDecl *A = I.R->parent(); A; A = A->parent())
      NumAncestorVars += A->ownedVars().size();
    ASSERT_GE(I.SharedKeys.size(), NumAncestorVars);
    for (size_t K = 1; K < NumAncestorVars; ++K)
      EXPECT_LT(I.SharedKeys[K - 1]->storeSlot(),
                I.SharedKeys[K]->storeSlot());
    // ...then the token roots that are not among them, in token order.
    auto AncestorEnd = I.SharedKeys.begin() + NumAncestorVars;
    std::vector<const VarDecl *> Roots;
    for (const VarDecl *Root : I.Tok.Roots)
      if (std::find(I.SharedKeys.begin(), AncestorEnd, Root) == AncestorEnd &&
          std::find(Roots.begin(), Roots.end(), Root) == Roots.end())
        Roots.push_back(Root);
    EXPECT_EQ(std::vector<const VarDecl *>(AncestorEnd, I.SharedKeys.end()),
              Roots);
    SawRoots |= !I.Tok.Roots.empty();
  }
  EXPECT_TRUE(SawRoots);
}

} // namespace
