//===- bench/bench_demand.cpp - E-demand: demand-driven queries -----------===//
//
// Measures demand-driven queries (AnalysisSession::demandStateAt /
// demandCheck) against a cold full solve of the same program. Each
// family carries a runtime check / assertion at the far end of its
// chain, and each row is one query:
//
//   loopChain(K)   K sequential counting loops ending in a division
//                  check + assertion. point:front / point:mid queries
//                  demand only the chain prefix; the check:far query is
//                  the honest worst case of a purely sequential
//                  program — everything upstream is in the cone, so
//                  only the post-check tail is skipped (strict subset,
//                  but no meaningful step reduction).
//   dispatchChain(K) a K-arm if/else-if dispatch where every arm holds
//                  one counting loop and the far-end (last) arm ends in
//                  the division check + assertion. The check's cone
//                  holds the dispatch spine plus the one arm that can
//                  reach it: the single far-end assertion query skips
//                  the other K-1 loop bodies entirely.
//   mcCarthy(30)   the paper's McCarthy_30 tower. point:front (after
//                  read) demands nothing of the 30 unfolded instances;
//                  point:result (after m := mc(n)) pulls them all.
//
// Every demand row must satisfy the solved-cone ⊂ all-components claim:
// demanded_components > 0 and skipped_components > 0 (the schedule was
// a strict, non-empty subset). scripts/check.sh enforces that plus the
// >= 2x live-step reductions on loopChain point:front and the
// dispatchChain far-end assertion query.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "frontend/PaperPrograms.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

using namespace syntox;

namespace {

/// K sequential counting loops (the bench_complexity chain family) with
/// a division check and an invariant assertion appended at the far end.
std::string loopChain(unsigned K) {
  std::string Out = "program gen;\nvar\n";
  for (unsigned I = 0; I < K; ++I)
    Out += "  v" + std::to_string(I) + " : integer;\n";
  Out += "begin\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string V = "v" + std::to_string(I);
    Out += "  " + V + " := 0;\n";
    Out += "  while " + V + " < 100 do " + V + " := " + V + " + 1;\n";
  }
  Out += "  v0 := v0 div v1;\n";
  Out += "  assert(v0 >= 0)\nend.\n";
  return Out;
}

/// A K-arm if/else-if dispatch on an input selector; each arm is one
/// counting loop, and the far-end (last) arm ends in the division
/// check + assertion the benchmark queries.
std::string dispatchChain(unsigned K) {
  std::string Out = "program gen;\nvar\n  s : integer;\n";
  for (unsigned I = 0; I < K; ++I)
    Out += "  v" + std::to_string(I) + " : integer;\n";
  Out += "begin\n  read(s);\n";
  for (unsigned I = 0; I < K; ++I) {
    std::string V = "v" + std::to_string(I);
    Out += I == 0 ? "  if s = 0 then begin\n"
          : I + 1 < K
              ? "  end else if s = " + std::to_string(I) + " then begin\n"
              : "  end else begin\n";
    Out += "    " + V + " := 0;\n";
    Out += "    while " + V + " < 100 do " + V + " := " + V + " + 1;\n";
    if (I + 1 == K) {
      Out += "    " + V + " := " + V + " div s;\n";
      Out += "    assert(" + V + " >= 0)\n";
    }
  }
  Out += "  end\nend.\n";
  return Out;
}

/// 1-based line of the first source line containing \p Needle (0 when
/// absent) — keeps the query locations robust against reformatting.
uint32_t lineOf(const std::string &Source, const std::string &Needle) {
  size_t Hit = Source.find(Needle);
  if (Hit == std::string::npos)
    return 0;
  uint32_t Line = 1;
  for (size_t I = 0; I < Hit; ++I)
    if (Source[I] == '\n')
      ++Line;
  return Line;
}

struct RunNumbers {
  uint64_t LiveEvals = 0; ///< widening + narrowing steps actually run
  uint64_t Demanded = 0;  ///< components scheduled under the cone
  uint64_t Skipped = 0;   ///< components excluded by the cone
  double Seconds = 0;
};

RunNumbers numbersOf(const AnalysisStats &S, double Seconds) {
  RunNumbers N;
  N.Seconds = Seconds;
  N.Demanded = S.DemandedComponents;
  N.Skipped = S.SkippedByDemand;
  for (const PhaseStats &P : S.Phases)
    N.LiveEvals += P.WideningSteps + P.NarrowingSteps;
  return N;
}

/// One demand query against a fresh session; records the per-phase
/// breakdown under \p Label like Harness::run does for full solves.
/// A non-empty \p CacheDir is the IDE scenario: a full solve already
/// populated the on-disk cache, and the query replays its cone from it
/// (the session layer loads it before the cone-restricted solve).
RunNumbers demandRun(bench::Harness &H, const std::string &Label,
                     const std::string &Source, const DemandSpec &Spec,
                     const std::string &CacheDir = std::string()) {
  AnalysisOptions Opts = H.options();
  Opts.CacheDir = CacheDir;
  double Seconds = 0;
  auto R = H.demand(Label, Source, Spec, Opts, &Seconds);
  if (!R)
    return RunNumbers();
  return numbersOf(R->stats(), Seconds);
}

/// The id of the single runtime check (the far-end division) of the
/// program \p Cold analyzed.
unsigned farCheckId(const AnalysisResult &Cold) {
  const std::vector<CheckInfo> &Table = Cold.analyzer().checkTable();
  if (Table.empty()) {
    std::printf("no runtime check found\n");
    std::exit(1);
  }
  return Table.back().Id;
}

void reportRow(bench::Harness &H, const char *Family, unsigned K,
               const std::string &Query, const RunNumbers &Cold,
               const RunNumbers &Q, const RunNumbers &Warm) {
  std::printf("  %-14s %12llu %12llu %10llu %10llu %10llu\n", Query.c_str(),
              (unsigned long long)Cold.LiveEvals,
              (unsigned long long)Q.LiveEvals,
              (unsigned long long)Warm.LiveEvals,
              (unsigned long long)Q.Demanded, (unsigned long long)Q.Skipped);
  json::Value Row = json::Value::object();
  Row.set("family", Family);
  Row.set("k", K);
  Row.set("query", Query);
  Row.set("cold_evals", Cold.LiveEvals);
  Row.set("demand_evals", Q.LiveEvals);
  Row.set("warm_demand_evals", Warm.LiveEvals);
  Row.set("demanded_components", Q.Demanded);
  Row.set("skipped_components", Q.Skipped);
  Row.set("cold_seconds", Cold.Seconds);
  Row.set("demand_seconds", Q.Seconds);
  Row.set("warm_demand_seconds", Warm.Seconds);
  H.row(std::move(Row));
}

void header(const char *Family, unsigned K) {
  std::printf("%s(%u):\n", Family, K);
  std::printf("  %-14s %12s %12s %10s %10s %10s\n", "query", "cold evals",
              "cold query", "warm query", "demanded", "skipped");
}

/// A fresh per-family cache directory; the family's full solve seeds it
/// and the warm query rows replay from it.
std::string cacheDirFor(const char *Family) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("syntox_bench_demand_" + std::string(Family));
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  return Dir.string();
}

void dropCacheDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("demand", argc, argv);
  std::printf("==== E-demand: demand-driven queries vs full solves ====\n\n");
  H.setField("note",
             json::Value("every demand row must schedule a strict non-empty "
                         "subset of components: demanded > 0 and skipped > 0"));

  {
    const unsigned K = 160;
    std::string Source = loopChain(K);
    std::string Cache = cacheDirFor("loopChain");
    AnalysisOptions ColdOpts = H.options();
    ColdOpts.CacheDir = Cache; // seed the warm rows' on-disk cache
    double Seconds = 0;
    auto Cold = H.run("loopChain/cold", Source, ColdOpts, &Seconds);
    RunNumbers ColdN = numbersOf(Cold->stats(), Seconds);
    header("loopChain", K);
    DemandSpec Front =
        DemandSpec::point(SourceLoc(lineOf(Source, "v0 := 0;"), 0));
    reportRow(H, "loopChain", K, "point:front", ColdN,
              demandRun(H, "loopChain/point:front", Source, Front),
              demandRun(H, "loopChain/point:front/warm", Source, Front,
                        Cache));
    DemandSpec Mid = DemandSpec::point(
        SourceLoc(lineOf(Source, "v" + std::to_string(K / 2) + " := 0;"), 0));
    reportRow(H, "loopChain", K, "point:mid", ColdN,
              demandRun(H, "loopChain/point:mid", Source, Mid),
              demandRun(H, "loopChain/point:mid/warm", Source, Mid, Cache));
    DemandSpec Far = DemandSpec::check(farCheckId(*Cold));
    reportRow(H, "loopChain", K, "check:far", ColdN,
              demandRun(H, "loopChain/check:far", Source, Far),
              demandRun(H, "loopChain/check:far/warm", Source, Far, Cache));
    dropCacheDir(Cache);
    std::printf("  (sequential chain: a cold far-end query's cone is the "
                "whole upstream chain\n  — only the post-check tail is "
                "skipped; the warm rows replay the cone from\n  the cache "
                "a prior full solve left on disk)\n\n");
  }

  {
    const unsigned K = 160;
    std::string Source = dispatchChain(K);
    std::string Cache = cacheDirFor("dispatchChain");
    AnalysisOptions ColdOpts = H.options();
    ColdOpts.CacheDir = Cache;
    double Seconds = 0;
    auto Cold = H.run("dispatchChain/cold", Source, ColdOpts, &Seconds);
    RunNumbers ColdN = numbersOf(Cold->stats(), Seconds);
    header("dispatchChain", K);
    DemandSpec Far = DemandSpec::check(farCheckId(*Cold));
    reportRow(H, "dispatchChain", K, "check:far", ColdN,
              demandRun(H, "dispatchChain/check:far", Source, Far),
              demandRun(H, "dispatchChain/check:far/warm", Source, Far,
                        Cache));
    dropCacheDir(Cache);
    std::printf("  (the far-end assertion's cone is the dispatch spine plus "
                "one arm: the\n  other %u loop bodies never run)\n\n", K - 1);
  }

  {
    std::string Source = paper::mcCarthyK(30);
    std::string Cache = cacheDirFor("mcCarthy");
    AnalysisOptions ColdOpts = H.options();
    ColdOpts.CacheDir = Cache;
    double Seconds = 0;
    auto Cold = H.run("mcCarthy/cold", Source, ColdOpts, &Seconds);
    RunNumbers ColdN = numbersOf(Cold->stats(), Seconds);
    header("mcCarthy", 30);
    DemandSpec Front =
        DemandSpec::point(SourceLoc(lineOf(Source, "read(n);"), 0));
    reportRow(H, "mcCarthy", 30, "point:front", ColdN,
              demandRun(H, "mcCarthy/point:front", Source, Front),
              demandRun(H, "mcCarthy/point:front/warm", Source, Front,
                        Cache));
    DemandSpec Result =
        DemandSpec::point(SourceLoc(lineOf(Source, "m := mc(n);"), 0));
    reportRow(H, "mcCarthy", 30, "point:result", ColdN,
              demandRun(H, "mcCarthy/point:result", Source, Result),
              demandRun(H, "mcCarthy/point:result/warm", Source, Result,
                        Cache));
    dropCacheDir(Cache);
    std::printf("  (point:front precedes the recursion: all 30 unfolded "
                "instances are\n  outside the cone)\n\n");
  }

  H.write();
  return 0;
}
