//===- tests/semantics/transfer_cache_test.cpp - Memoization properties ---===//
//
// The transfer cache keys on (edge, direction, store hash) and confirms
// hits with full store equality, so its correctness rests on two
// properties checked here: semantically equal stores hash equal (or the
// cache would only lose hits — but the representation-independence of
// the hash is what makes the hit rate useful), and the cache itself
// never fabricates results across edges, directions or distinct stores.
// End to end, the cache is purely memoizing: whole analyses come out
// bit-identical with it on or off.
//
//===----------------------------------------------------------------------===//

#include "frontend/PaperPrograms.h"
#include "semantics/Transfer.h"

#include "../common/AnalysisTestUtil.h"

#include <gtest/gtest.h>

using namespace syntox;
using namespace syntox::test;

namespace {

/// A tiny program whose declarations give us real VarDecls to build
/// stores around.
class TransferCacheTest : public ::testing::Test {
protected:
  TransferCacheTest()
      : A(analyzeProgram("program p; var x, y : integer; b : boolean;\n"
                         "begin x := 1; y := 2; b := true end.")),
        Ops(A.An->storeOps()), X(A.var("", "x")), Y(A.var("", "y")),
        B(A.var("", "b")) {}

  AnalyzedProgram A;
  const StoreOps &Ops;
  const VarDecl *X, *Y, *B;
};

TEST_F(TransferCacheTest, EqualStoresHashEqual) {
  // Same bindings, built in different orders.
  AbstractStore S1 = AbstractStore::top();
  Ops.assign(S1, X, AbsValue(Interval(1, 5)));
  Ops.assign(S1, Y, AbsValue(Interval(-3, 3)));
  AbstractStore S2 = AbstractStore::top();
  Ops.assign(S2, Y, AbsValue(Interval(-3, 3)));
  Ops.assign(S2, X, AbsValue(Interval(1, 5)));
  ASSERT_TRUE(Ops.equal(S1, S2));
  EXPECT_EQ(Ops.hash(S1), Ops.hash(S2));
}

TEST_F(TransferCacheTest, ExplicitTopEntryHashesLikeMissingEntry) {
  // Widening and joins can leave explicit entries at top; a missing key
  // means top by convention. Both representations are semantically equal
  // and must hash equal, or phase-crossing hits would be lost.
  AbstractStore S1 = AbstractStore::top();
  Ops.assign(S1, X, AbsValue(Interval(0, 10)));
  AbstractStore S2 = S1;
  S2.set(Y, AbsValue(Ops.domain().top()));
  S2.set(B, AbsValue(BoolLattice::top()));
  ASSERT_TRUE(Ops.equal(S1, S2));
  EXPECT_EQ(Ops.hash(S1), Ops.hash(S2));
}

TEST_F(TransferCacheTest, WideningThatChangesTheStoreChangesTheHash) {
  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(0, 5)));
  AbstractStore Next = AbstractStore::top();
  Ops.assign(Next, X, AbsValue(Interval(0, 6)));
  AbstractStore W = Ops.widen(S, Next);
  ASSERT_FALSE(Ops.equal(S, W)); // x jumped to [0, +oo)
  EXPECT_NE(Ops.hash(S), Ops.hash(W));
}

TEST_F(TransferCacheTest, NarrowingThatChangesTheStoreChangesTheHash) {
  AbstractStore W = AbstractStore::top();
  Ops.assign(W, X, AbsValue(Interval(0, INT64_MAX)));
  AbstractStore Refined = AbstractStore::top();
  Ops.assign(Refined, X, AbsValue(Interval(0, 100)));
  AbstractStore N = Ops.narrow(W, Refined);
  ASSERT_FALSE(Ops.equal(W, N));
  EXPECT_NE(Ops.hash(W), Ops.hash(N));
}

TEST_F(TransferCacheTest, BottomHashIsCanonical) {
  AbstractStore B1 = AbstractStore::bottom();
  AbstractStore B2 = AbstractStore::top();
  Ops.assign(B2, X, AbsValue(Interval::bottom())); // assign canonicalizes
  ASSERT_TRUE(Ops.equal(B1, B2));
  EXPECT_EQ(Ops.hash(B1), Ops.hash(B2));
  EXPECT_NE(Ops.hash(B1), Ops.hash(AbstractStore::top()));
}

//===----------------------------------------------------------------------===//
// Direct cache behavior, driven through a Nop transfer (identity).
//===----------------------------------------------------------------------===//

TEST_F(TransferCacheTest, HitsAndMissesAreKeyedOnEdgeDirectionAndStore) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();

  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(2, 9)));

  // First evaluation computes, second reuses.
  AbstractStore R1 = *Cache.fwd(Xfer, /*EdgeId=*/0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hits(), 0u);
  AbstractStore R2 = *Cache.fwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_TRUE(Ops.equal(R1, R2));

  // A semantically equal store with a different representation hits too.
  AbstractStore SWithTop = S;
  SWithTop.set(Y, AbsValue(Ops.domain().top()));
  Cache.fwd(Xfer, 0, Nop, SWithTop, F);
  EXPECT_EQ(Cache.hits(), 2u);

  // Another edge, or the backward direction, is a separate key.
  Cache.fwd(Xfer, 1, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 2u);
  Cache.bwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 3u);

  // Another store on the same edge is a miss as well.
  AbstractStore T = AbstractStore::top();
  Ops.assign(T, X, AbsValue(Interval(2, 10)));
  Cache.fwd(Xfer, 0, Nop, T, F);
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(Cache.size(), 4u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
  Cache.fwd(Xfer, 0, Nop, S, F);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST_F(TransferCacheTest, EntryCapStopsInsertionNotCorrectness) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  // A tiny cache: at most 64 entries.
  TransferCache Cache(Ops, /*MaxEntries=*/64);
  FrameMap F;
  Action Nop = Action::nop();
  for (int I = 0; I < 500; ++I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, I)));
    AbstractStore R = *Cache.fwd(Xfer, 0, Nop, S, F);
    EXPECT_TRUE(Ops.equal(R, S)); // Nop is the identity
  }
  // It filled up and then stayed bounded.
  EXPECT_EQ(Cache.size(), 64u);
  EXPECT_EQ(Cache.misses(), 500u);
}

TEST_F(TransferCacheTest, EntriesStoredBeforeTheCapKeepHitting) {
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops, /*MaxEntries=*/8);
  FrameMap F;
  Action Nop = Action::nop();
  auto StoreFor = [&](int I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, I + 1)));
    return S;
  };
  for (int I = 0; I < 20; ++I)
    Cache.fwd(Xfer, 0, Nop, StoreFor(I), F);
  EXPECT_EQ(Cache.size(), 8u);
  EXPECT_EQ(Cache.misses(), 20u);
  // The first eight stores were memoized; everything after was computed
  // into the overflow slot and forgotten.
  for (int I = 0; I < 8; ++I)
    Cache.fwd(Xfer, 0, Nop, StoreFor(I), F);
  EXPECT_EQ(Cache.hits(), 8u);
  for (int I = 8; I < 20; ++I)
    Cache.fwd(Xfer, 0, Nop, StoreFor(I), F);
  EXPECT_EQ(Cache.misses(), 32u);
  EXPECT_EQ(Cache.size(), 8u);
}

TEST_F(TransferCacheTest, OverflowResultIsTheTransferOfItsOwnInput) {
  // On a full cache the result lives in one overflow slot that the next
  // overflowing lookup reuses; each returned pointee must still be the
  // transfer of the store it was asked about.
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops, /*MaxEntries=*/1);
  FrameMap F;
  Action Nop = Action::nop();
  AbstractStore First = AbstractStore::top();
  Ops.assign(First, X, AbsValue(Interval(0, 0)));
  Cache.fwd(Xfer, 0, Nop, First, F);
  for (int I = 1; I < 6; ++I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, 2 * I)));
    const AbstractStore *R = Cache.fwd(Xfer, 0, Nop, S, F);
    EXPECT_TRUE(Ops.equal(*R, S)) << "overflow lookup " << I;
    // The resident entry is unaffected by the overflow traffic.
    const AbstractStore *Resident = Cache.fwd(Xfer, 0, Nop, First, F);
    EXPECT_TRUE(Ops.equal(*Resident, First));
  }
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.hits(), 5u);
  EXPECT_EQ(Cache.misses(), 6u);
}

TEST_F(TransferCacheTest, ResultPointersSurviveLaterInsertions) {
  // Results are owned on the heap, so a pointer handed out for one entry
  // stays valid while thousands of later entries grow the buckets.
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();
  AbstractStore S = AbstractStore::top();
  Ops.assign(S, X, AbsValue(Interval(-3, 3)));
  const AbstractStore *Early = Cache.fwd(Xfer, 7, Nop, S, F);
  for (int I = 0; I < 4000; ++I) {
    AbstractStore T = AbstractStore::top();
    Ops.assign(T, Y, AbsValue(Interval(I, I)));
    Cache.fwd(Xfer, static_cast<unsigned>(I % 5), Nop, T, F);
  }
  EXPECT_EQ(Cache.size(), 4001u);
  EXPECT_TRUE(Ops.equal(*Early, S));
  // And a re-lookup returns that very entry.
  EXPECT_EQ(Cache.fwd(Xfer, 7, Nop, S, F), Early);
}

TEST_F(TransferCacheTest, ManyDistinctEntriesAllHitOnReplay) {
  // Far more entries than buckets: every bucket chain has to confirm by
  // full equality, and a replay of the same lookups must hit every time.
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  Action Nop = Action::nop();
  const int N = 20000;
  auto Lookup = [&](int I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, I + 2)));
    return Cache.fwd(Xfer, static_cast<unsigned>(I % 3), Nop, S, F);
  };
  for (int I = 0; I < N; ++I)
    Lookup(I);
  EXPECT_EQ(Cache.size(), static_cast<size_t>(N));
  EXPECT_EQ(Cache.misses(), static_cast<uint64_t>(N));
  for (int I = 0; I < N; ++I) {
    const AbstractStore *R = Lookup(I);
    ASSERT_TRUE(Ops.equal(*R, [&] {
      AbstractStore S = AbstractStore::top();
      Ops.assign(S, X, AbsValue(Interval(I, I + 2)));
      return S;
    }()));
  }
  EXPECT_EQ(Cache.hits(), static_cast<uint64_t>(N));
  EXPECT_EQ(Cache.misses(), static_cast<uint64_t>(N));
}

TEST_F(TransferCacheTest, CachedTransfersEqualDirectTransfersOnEveryEdge) {
  // Through the program's real actions (assignments, not just Nop), in
  // both directions: a cold lookup, a warm lookup and the uncached
  // transfer all agree.
  ExprSemantics Exprs(Ops);
  Transfer Xfer(Ops, Exprs, *A.Cfg);
  TransferCache Cache(Ops);
  FrameMap F;
  const RoutineCfg *Cfg = A.Cfg->cfgFor(A.routine(""));
  ASSERT_NE(Cfg, nullptr);
  std::vector<AbstractStore> Stores;
  Stores.push_back(AbstractStore::top());
  for (int I = -2; I < 3; ++I) {
    AbstractStore S = AbstractStore::top();
    Ops.assign(S, X, AbsValue(Interval(I, I + 4)));
    Ops.assign(S, Y, AbsValue(Interval(2 * I, 2)));
    Stores.push_back(S);
  }
  unsigned EdgeId = 0;
  for (const CfgEdge &E : Cfg->edges()) {
    for (const AbstractStore &S : Stores) {
      AbstractStore WantFwd = Xfer.fwd(E.Act, S, F);
      AbstractStore WantBwd = Xfer.bwd(E.Act, S, F);
      for (int Round = 0; Round < 2; ++Round) {
        EXPECT_TRUE(Ops.equal(*Cache.fwd(Xfer, EdgeId, E.Act, S, F), WantFwd))
            << "fwd edge " << EdgeId << " round " << Round;
        EXPECT_TRUE(Ops.equal(*Cache.bwd(Xfer, EdgeId, E.Act, S, F), WantBwd))
            << "bwd edge " << EdgeId << " round " << Round;
      }
    }
    ++EdgeId;
  }
  ASSERT_GT(EdgeId, 0u);
  EXPECT_EQ(Cache.hits(), Cache.misses());
}

//===----------------------------------------------------------------------===//
// Whole analyses with the cache on and off.
//===----------------------------------------------------------------------===//

TEST_F(TransferCacheTest, CacheDoesNotChangeResultsOnPaperPrograms) {
  for (const char *Source :
       {paper::ForProgram, paper::ForProgram1ToN, paper::WhileProgram,
        paper::FactProgram, paper::SelectProgram, paper::IntermittentProgram,
        paper::McCarthyProgram, paper::McCarthyBuggy,
        paper::BinarySearchProgram}) {
    SCOPED_TRACE(Source);
    auto Base = analyzeProgram(Source, withOptions().transferCache(false));
    auto Cached = reanalyze(Base, withOptions().transferCache(true));
    const StoreOps &BaseOps = Base.An->storeOps();
    ASSERT_EQ(Base.An->graph().numNodes(), Cached->graph().numNodes());
    for (unsigned Node = 0; Node < Base.An->graph().numNodes(); ++Node) {
      EXPECT_TRUE(BaseOps.equal(Base.An->forwardAt(Node),
                                Cached->forwardAt(Node)))
          << "forward invariant differs at node " << Node;
      EXPECT_TRUE(BaseOps.equal(Base.An->envelopeAt(Node),
                                Cached->envelopeAt(Node)))
          << "envelope differs at node " << Node;
    }
  }
}

TEST_F(TransferCacheTest, CacheHitsAccumulateAcrossPhases) {
  // Later phases of the refinement chain revisit edges with stores
  // already seen by earlier phases, so a multi-phase analysis must
  // actually reuse cached transfers.
  auto M = analyzeProgram(paper::McCarthyProgram,
                          withOptions().transferCache(true));
  EXPECT_GT(M.An->stats().CacheHits, 0u);
  EXPECT_GT(M.An->stats().CacheMisses, 0u);
}

} // namespace
