//===- tests/core/demand_query_test.cpp - Demand-driven query battery -----===//
//
// The demand-driven query engine must be *invisible* in every answer it
// gives: a cone-restricted solve answers exactly what a full refinement
// chain would, while performing zero live evaluations outside the cone.
// This battery pins both halves:
//  - cone computation unit tests on hand-built dependency digraphs
//    (chains, diamonds, cycles, token-unfolded call graphs),
//  - a 200-seed differential: demand answers bitwise-equal to the full
//    solve across all three iteration strategies and all three warm
//    states (cold, warm, cache-loaded), with per-node step audits
//    proving the out-of-cone zero-work guarantee,
//  - the session/result API contracts: a demand query after a full run
//    answers from a fresh engine, out-of-cone queries are refused with
//    std::out_of_range, never answered from unspecified state.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisSession.h"
#include "frontend/PaperPrograms.h"
#include "persist/WarmCache.h"

#include "../common/AnalysisTestUtil.h"
#include "../common/RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

using namespace syntox;
using namespace syntox::test;

namespace {

IterationStrategy strategyFor(uint64_t Seed) {
  return Seed % 2 ? IterationStrategy::Worklist
                  : IterationStrategy::Recursive;
}

/// Every cone must be closed under graph predecessors: that closure is
/// the contract FixpointSolver::Options::DemandNodes relies on.
void expectPredClosed(const Digraph &G, const std::vector<uint8_t> &Cone) {
  for (unsigned V = 0; V < G.numNodes(); ++V) {
    if (!Cone[V])
      continue;
    for (unsigned P : G.preds(V))
      EXPECT_TRUE(Cone[P]) << "cone not closed: " << P << " feeds " << V;
  }
}

unsigned count(const std::vector<uint8_t> &Mask) {
  unsigned N = 0;
  for (uint8_t B : Mask)
    N += B != 0;
  return N;
}

//===----------------------------------------------------------------------===//
// Cone computation on hand-built dependency digraphs
//===----------------------------------------------------------------------===//

TEST(DependencyConeTest, ChainRootsAndInteriors) {
  Digraph G(4); // 0 -> 1 -> 2 -> 3
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);

  std::vector<uint8_t> Tail = Analyzer::dependencyCone(G, {3});
  EXPECT_EQ(count(Tail), 4u); // the far end demands the whole chain

  std::vector<uint8_t> Mid = Analyzer::dependencyCone(G, {1});
  EXPECT_EQ(count(Mid), 2u);
  EXPECT_TRUE(Mid[0] && Mid[1]);
  EXPECT_FALSE(Mid[2] || Mid[3]); // downstream of the query is not pulled

  std::vector<uint8_t> Root = Analyzer::dependencyCone(G, {0});
  EXPECT_EQ(count(Root), 1u);
  EXPECT_TRUE(Root[0]);
  expectPredClosed(G, Tail);
  expectPredClosed(G, Mid);
  expectPredClosed(G, Root);
}

TEST(DependencyConeTest, DiamondPullsBothArms) {
  Digraph G(4); // 0 -> {1, 2} -> 3
  G.addEdge(0, 1);
  G.addEdge(0, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);

  std::vector<uint8_t> Join = Analyzer::dependencyCone(G, {3});
  EXPECT_EQ(count(Join), 4u); // both arms feed the join

  std::vector<uint8_t> Arm = Analyzer::dependencyCone(G, {1});
  EXPECT_TRUE(Arm[0] && Arm[1]);
  EXPECT_FALSE(Arm[2] || Arm[3]); // the other arm stays out
  expectPredClosed(G, Join);
  expectPredClosed(G, Arm);
}

TEST(DependencyConeTest, CyclePullsWholeComponent) {
  Digraph G(5); // 0 -> (1 -> 2 -> 3 -> 1) -> 4
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 3);
  G.addEdge(3, 1);
  G.addEdge(3, 4);

  // Querying any member of the cycle pulls the whole SCC plus its
  // feeders — the property that makes element-level demand flags exact.
  std::vector<uint8_t> C = Analyzer::dependencyCone(G, {2});
  EXPECT_TRUE(C[0] && C[1] && C[2] && C[3]);
  EXPECT_FALSE(C[4]);
  expectPredClosed(G, C);

  std::vector<uint8_t> After = Analyzer::dependencyCone(G, {4});
  EXPECT_EQ(count(After), 5u);
}

TEST(DependencyConeTest, DisconnectedRootsStayApart) {
  Digraph G(4); // 0 -> 1   2 -> 3  (two independent chains)
  G.addEdge(0, 1);
  G.addEdge(2, 3);

  std::vector<uint8_t> A = Analyzer::dependencyCone(G, {1});
  EXPECT_TRUE(A[0] && A[1]);
  EXPECT_FALSE(A[2] || A[3]);

  std::vector<uint8_t> Both = Analyzer::dependencyCone(G, {1, 3});
  EXPECT_EQ(count(Both), 4u);

  std::vector<uint8_t> None = Analyzer::dependencyCone(G, {});
  EXPECT_EQ(count(None), 0u);
}

TEST(DependencyConeTest, TokenUnfoldedCallGraphCones) {
  // A program with a procedure called from two sites: token unfolding
  // gives one callee instance per call chain, and the forward
  // dependency graph threads call/return links between them. The cone
  // primitive must respect those cross-instance edges.
  const char *Src = R"pas(
program calls;
var a, b : integer;

procedure bump(var x : integer);
begin
  x := x + 1
end;

begin
  a := 0;
  b := 10;
  bump(a);
  bump(b)
end.
)pas";
  AnalyzedProgram P = analyzeProgram(Src);
  ASSERT_NE(P.An, nullptr);
  const SuperGraph &G = P.An->graph();
  ASSERT_GE(G.instances().size(), 3u) << "expected two unfolded callees";

  const Digraph &Fwd = P.An->forwardOrder().Dep;
  // The whole-program cone from the main exit covers the entry...
  std::vector<uint8_t> Exit =
      Analyzer::dependencyCone(Fwd, {G.mainExit()});
  EXPECT_TRUE(Exit[G.mainEntry()]);
  expectPredClosed(Fwd, Exit);

  // ...while the cone of a point *inside the first callee instance*
  // must contain that instance's entry but nothing from the second
  // call's instance (it executes later and cannot feed the first).
  const Instance &First = G.instances()[1];
  const Instance &Second = G.instances()[2];
  std::vector<uint8_t> Callee = Analyzer::dependencyCone(
      Fwd, {G.node(First, First.Cfg->numPoints() - 1)});
  expectPredClosed(Fwd, Callee);
  EXPECT_TRUE(Callee[G.node(First, 0)]);
  bool AnySecond = false;
  for (unsigned Pt = 0; Pt < Second.Cfg->numPoints(); ++Pt)
    AnySecond |= Callee[G.node(Second, Pt)] != 0;
  EXPECT_FALSE(AnySecond)
      << "cone of the first call leaked into the second call's instance";

  // Backward dependencies are the reverse: the cone of the *entry* in
  // the backward graph is the forward-reachable set.
  const Digraph &Bwd = P.An->backwardOrder().Dep;
  std::vector<uint8_t> Entry =
      Analyzer::dependencyCone(Bwd, {G.mainEntry()});
  expectPredClosed(Bwd, Entry);
  EXPECT_TRUE(Entry[G.mainExit()]);
}

//===----------------------------------------------------------------------===//
// The 200-seed demand-vs-full differential battery
//===----------------------------------------------------------------------===//

TEST(DemandQueryTest, TwoHundredSeedsDemandEqualsFull) {
  // 200 random assertion-bearing programs; strategies cycle per seed,
  // warm states (cold / warm / cache-loaded) cycle independently. For
  // each, a single-node demand query must agree bitwise with the full
  // solve at every in-cone node, and the per-phase audit must show
  // zero live evaluations at every out-of-cone node.
  uint64_t TotalSkipped = 0, TotalDemanded = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ProgramGenerator Gen(Seed * 9973 + 17, /*WithAssertions=*/true);
    std::string Source = Gen.generate();
    SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
    IterationStrategy S = strategyFor(Seed);
    unsigned Mode = (Seed / 3) % 3; // 0 cold, 1 warm, 2 cache-loaded
    AnalysisOptions Opts =
        withOptions()
            .strategy(S)
            .backwardRounds(2);

    AnalyzedProgram P = analyzeProgram(Source, Opts);
    ASSERT_NE(P.An, nullptr);
    const StoreOps &Ops = P.An->storeOps();
    unsigned N = P.An->graph().numNodes();
    std::vector<unsigned> Query{static_cast<unsigned>((Seed * 131) % N)};

    // Same AST/CFG so StoreOps::equal compares the stores key-by-key.
    Analyzer Demand(*P.Cfg, P.FE.Program, Opts);
    namespace fs = std::filesystem;
    fs::path Dir;
    if (Mode == 1) {
      Demand.run(); // warm: a prior full run recorded every chain slot
    } else if (Mode == 2) {
      Dir = fs::temp_directory_path() /
            ("syntox_demand_test_" + std::to_string(Seed));
      fs::create_directories(Dir);
      ASSERT_TRUE(persist::saveWarmCache(Dir.string(), *P.An));
      persist::CacheLoadResult R =
          persist::loadWarmCache(Dir.string(), Demand);
      EXPECT_TRUE(R.Loaded) << R.FallbackReason;
    }
    Demand.runDemand(Query);
    if (!Dir.empty())
      fs::remove_all(Dir);

    const std::vector<uint8_t> &Mask = Demand.demandMask();
    ASSERT_EQ(Mask.size(), N);
    EXPECT_TRUE(Mask[Query[0]]) << "query node must be answerable";

    // Bitwise agreement at every answerable node, for both the pure
    // forward invariant and the refined envelope.
    for (unsigned Node = 0; Node < N; ++Node) {
      if (!Mask[Node])
        continue;
      EXPECT_TRUE(Ops.equal(Demand.forwardAt(Node), P.An->forwardAt(Node)))
          << "forward differs at node " << Node;
      EXPECT_TRUE(
          Ops.equal(Demand.envelopeAt(Node), P.An->envelopeAt(Node)))
          << "envelope differs at node " << Node;
    }

    // The zero-work guarantee, per phase and per node: nothing outside
    // a phase's cone was ever live-evaluated by that phase's solver.
    ASSERT_FALSE(Demand.demandAudit().empty());
    for (const Analyzer::DemandPhaseAudit &A : Demand.demandAudit()) {
      ASSERT_EQ(A.Mask.size(), N);
      ASSERT_EQ(A.NodeLiveSteps.size(), N);
      for (unsigned Node = 0; Node < N; ++Node) {
        if (!A.Mask[Node]) {
          EXPECT_EQ(A.NodeLiveSteps[Node], 0u)
              << "phase " << A.Phase << " live-evaluated out-of-cone node "
              << Node;
        }
      }
    }

    // Warm demand after an identical full run replays the whole cone:
    // zero live evaluations anywhere, the splice-everything extreme.
    if (Mode == 1) {
      uint64_t Live = 0;
      for (const Analyzer::DemandPhaseAudit &A : Demand.demandAudit())
        for (uint64_t Steps : A.NodeLiveSteps)
          Live += Steps;
      EXPECT_EQ(Live, 0u)
          << "warm demand run should replay every in-cone component";
    }

    TotalDemanded += Demand.stats().DemandedComponents;
    TotalSkipped += Demand.stats().SkippedByDemand;
  }
  // The battery as a whole must exercise both sides of the cone
  // boundary (individual seeds may demand everything).
  EXPECT_GT(TotalDemanded, 0u);
  EXPECT_GT(TotalSkipped, 0u);
}

TEST(DemandQueryTest, EditSequenceDemandStable) {
  // Edit sequences: each step mutates one literal of its predecessor.
  // The demand answer at the intermittent assertion must match the
  // full solve at every step of the sequence.
  for (uint64_t Seed : {3u, 11u, 42u}) {
    ProgramGenerator Gen(Seed * 7919, /*WithAssertions=*/true);
    for (const std::string &Source : Gen.editSequence(3)) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + "\n" + Source);
      size_t Pos = Source.find("intermittent(");
      ASSERT_NE(Pos, std::string::npos);
      uint32_t Line = 1 + static_cast<uint32_t>(
                              std::count(Source.begin(), Source.end(), '\n') -
                              std::count(Source.begin() + Pos, Source.end(),
                                         '\n'));
      SourceLoc Loc(Line, 0);

      DiagnosticsEngine Diags;
      auto Session = AnalysisSession::create(
          Source, Diags, withOptions().strategy(strategyFor(Seed)));
      ASSERT_NE(Session, nullptr) << Diags.str();
      AnalysisResult Full = Session->run();
      DemandResult Partial = Session->demandStateAt(Loc);
      EXPECT_TRUE(Partial.covers(Loc));

      std::vector<PointState> Want = Full.stateAt(Loc);
      const std::vector<PointState> &Got = Partial.states();
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I < Want.size(); ++I)
        EXPECT_TRUE(Got[I].toJson() == Want[I].toJson())
            << "state differs at " << Want[I].PointDesc;
    }
  }
}

//===----------------------------------------------------------------------===//
// Check queries
//===----------------------------------------------------------------------===//

TEST(DemandQueryTest, DemandCheckMatchesFullClassification) {
  // The paper's For program: one array-bound check whose full-table
  // classification the demand query must reproduce exactly.
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(paper::ForProgram, Diags);
  ASSERT_NE(Session, nullptr) << Diags.str();
  AnalysisResult Full = Session->run();
  ASSERT_FALSE(Full.checks().results().empty());
  const ValueDomain &D = Full.analyzer().storeOps().domain();

  for (const CheckResult &Want : Full.checks().results()) {
    DemandResult R = Session->demandCheck(Want.Info->Id);
    ASSERT_NE(R.check(), nullptr);
    EXPECT_EQ(R.check()->Verdict, Want.Verdict);
    EXPECT_EQ(R.check()->str(D), Want.str(D));
    EXPECT_TRUE(R.states().empty());
    // A check query solves a strict subset: the check's cone plus
    // nothing downstream of it.
    EXPECT_GT(R.stats().DemandedComponents, 0u);
  }

  EXPECT_THROW(Session->demandCheck(12345), std::out_of_range);
}

//===----------------------------------------------------------------------===//
// API contracts: run-kind composition and out-of-cone behavior
//===----------------------------------------------------------------------===//

TEST(DemandApiCompatTest, FullThenDemandUsesAFreshEngine) {
  // A demand run would overwrite an analyzed engine's published
  // results, so a demand query after a full run never recycles that
  // engine — not even once the full result is dropped — and answers
  // exactly what the full result did.
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(paper::ForProgram, Diags);
  ASSERT_NE(Session, nullptr) << Diags.str();
  // Line 6 of the For program is `read(n)`.
  const SourceLoc Loc(6, 0);
  std::vector<std::string> Full;
  {
    AnalysisResult R = Session->run();
    for (const PointState &S : R.stateAt(Loc))
      Full.push_back(S.toJson().str());
  }
  ASSERT_FALSE(Full.empty());
  uint64_t Reuses =
      Session->metrics().counterValue("session.engine_reuses");

  DemandResult D = Session->demandStateAt(Loc);
  EXPECT_EQ(Session->metrics().counterValue("session.engine_reuses"),
            Reuses);
  std::vector<std::string> Demand;
  for (const PointState &S : D.states())
    Demand.push_back(S.toJson().str());
  EXPECT_EQ(Demand, Full);
}

TEST(DemandApiCompatTest, DemandThenFullUsesAFreshEngine) {
  // A demand engine's warm chain only ever held a cone-restricted
  // replay, so a full run after a demand query never recycles that
  // engine — not even once the demand result is dropped. The full run
  // publishes exactly what a session that never asked a demand query
  // does, and agrees with the demand answer on the queried point.
  const SourceLoc Loc(6, 0); // `read(n)` in the For program
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(paper::ForProgram, Diags);
  ASSERT_NE(Session, nullptr) << Diags.str();
  std::vector<std::string> Demand;
  {
    DemandResult D = Session->demandStateAt(Loc);
    for (const PointState &S : D.states())
      Demand.push_back(S.toJson().str());
  }
  ASSERT_FALSE(Demand.empty());
  uint64_t Reuses =
      Session->metrics().counterValue("session.engine_reuses");

  AnalysisResult Full = Session->run();
  EXPECT_EQ(Session->metrics().counterValue("session.engine_reuses"),
            Reuses);
  std::vector<std::string> FullStates;
  for (const PointState &S : Full.stateAt(Loc))
    FullStates.push_back(S.toJson().str());
  EXPECT_EQ(FullStates, Demand);

  DiagnosticsEngine FreshDiags;
  auto Fresh = AnalysisSession::create(paper::ForProgram, FreshDiags);
  ASSERT_NE(Fresh, nullptr) << FreshDiags.str();
  AnalysisResult Cold = Fresh->run();
  EXPECT_EQ(Full.toJson().find("conditions")->str(),
            Cold.toJson().find("conditions")->str());
  EXPECT_EQ(Full.toJson().find("checks")->str(),
            Cold.toJson().find("checks")->str());
  json::Value FullMain = json::Value::array(), ColdMain = json::Value::array();
  for (const PointState &S : Full.mainStates())
    FullMain.push(S.toJson());
  for (const PointState &S : Cold.mainStates())
    ColdMain.push(S.toJson());
  EXPECT_EQ(FullMain.str(), ColdMain.str());
}

TEST(DemandApiCompatTest, OutOfConeQueriesAreRefused) {
  const char *Src = R"pas(
program straight;
var a, b : integer;
begin
  a := 1;
  b := a + 1;
  writeln(a, b)
end.
)pas";
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(Src, Diags);
  ASSERT_NE(Session, nullptr) << Diags.str();

  // The cone of line 5 (a := 1) excludes everything downstream: the
  // point after line 6's assignment is outside, and querying it must
  // refuse instead of reading the unspecified out-of-cone stores.
  DemandResult R = Session->demandStateAt(SourceLoc(5, 0));
  EXPECT_FALSE(R.states().empty());
  EXPECT_TRUE(R.covers(SourceLoc(5, 0)));
  EXPECT_FALSE(R.covers(SourceLoc(6, 0)));
  EXPECT_THROW(R.stateAt(SourceLoc(6, 0)), std::out_of_range);
  EXPECT_NO_THROW(R.stateAt(SourceLoc(5, 0)));
  // A location matching no control point at all answers empty, exactly
  // like the full-solve stateAt contract.
  EXPECT_TRUE(R.covers(SourceLoc(99, 0)));
  EXPECT_TRUE(R.stateAt(SourceLoc(99, 0)).empty());

  // A full-solve answer for the same point matches the demand answer.
  AnalysisResult Full = Session->run();
  std::vector<PointState> Want = Full.stateAt(SourceLoc(5, 0));
  ASSERT_EQ(R.states().size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_TRUE(R.states()[I].toJson() == Want[I].toJson());
}

TEST(DemandApiCompatTest, DemandResultJsonShape) {
  DiagnosticsEngine Diags;
  auto Session = AnalysisSession::create(paper::ForProgram, Diags);
  ASSERT_NE(Session, nullptr) << Diags.str();
  DemandResult R = Session->demandStateAt(SourceLoc(5, 0));
  json::Value Doc = R.toJson();
  EXPECT_NE(Doc.find("query"), nullptr);
  EXPECT_NE(Doc.find("states"), nullptr);
  EXPECT_NE(Doc.find("conditions"), nullptr);
  EXPECT_NE(Doc.find("invariant_warnings"), nullptr);
  EXPECT_NE(Doc.find("stats"), nullptr);
  EXPECT_NE(Doc.find("metrics"), nullptr);
  EXPECT_EQ(Doc.find("check"), nullptr);
  // The cone accounting is part of the stats document.
  ASSERT_NE(Doc.find("stats"), nullptr);
  EXPECT_NE(Doc.find("stats")->find("demanded_components"), nullptr);
  EXPECT_NE(Doc.find("stats")->find("skipped_by_demand"), nullptr);
}

} // namespace
