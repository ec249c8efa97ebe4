//===- bench/bench_boundcheck.cpp - E3: Figure 3 check elimination --------===//
//
// The Figure 3 / §6.5 experiment: prove array accesses safe, then measure
// the runtime cost of the discharged checks with google-benchmark. The
// paper reports a 30-40% speedup for compiled Pascal; in our interpreter
// the dispatch overhead dilutes the ratio, so the shape to check is a
// consistently positive gap on check-dense programs, together with a
// near-100% static elimination rate for BinarySearch/HeapSort/BubbleSort
// and a partial rate for QuickSort.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "frontend/PaperPrograms.h"
#include "interp/Interpreter.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

using namespace syntox;

namespace {

bench::Harness *Harness = nullptr;

struct Workload {
  std::optional<AnalysisResult> Result;
  std::vector<int64_t> Inputs;
};

Workload &workload(const char *Name, const char *Source) {
  static std::map<std::string, Workload> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  Workload W;
  W.Result = Harness->run(Name, Source, Harness->options());
  Rng R(7);
  if (std::string(Name) == "BinarySearch") {
    W.Inputs.push_back(100);
    W.Inputs.push_back(150);
    int64_t V = 0;
    for (int I = 0; I < 100; ++I)
      W.Inputs.push_back(V += R.range(0, 5));
  } else if (std::string(Name) == "Matrix") {
    for (int I = 0; I < 200; ++I)
      W.Inputs.push_back(R.range(-20, 20));
  } else {
    W.Inputs.push_back(100);
    for (int I = 0; I < 100; ++I)
      W.Inputs.push_back(R.range(-1000, 1000));
  }
  return Cache.emplace(Name, std::move(W)).first->second;
}

void runInterp(benchmark::State &State, const char *Name,
               const char *Source, bool Checks) {
  Workload &W = workload(Name, Source);
  Interpreter I(W.Result->debugger().program());
  Interpreter::Options Opts;
  Opts.Inputs = W.Inputs;
  Opts.EnableChecks = Checks;
  for (auto _ : State) {
    Interpreter::Result R = I.run(Opts);
    if (R.St != Interpreter::Status::Ok)
      State.SkipWithError("run failed");
    benchmark::DoNotOptimize(R.Output.data());
  }
}

#define BOUNDCHECK_BENCH(NAME, SOURCE)                                        \
  void NAME##Checked(benchmark::State &S) {                                   \
    runInterp(S, #NAME, SOURCE, true);                                        \
  }                                                                           \
  BENCHMARK(NAME##Checked);                                                   \
  void NAME##Unchecked(benchmark::State &S) {                                 \
    runInterp(S, #NAME, SOURCE, false);                                       \
  }                                                                           \
  BENCHMARK(NAME##Unchecked);

BOUNDCHECK_BENCH(BinarySearch, paper::BinarySearchProgram)
BOUNDCHECK_BENCH(HeapSort, paper::HeapSortProgram)
BOUNDCHECK_BENCH(BubbleSort, paper::BubbleSortProgram)
BOUNDCHECK_BENCH(QuickSort, paper::QuickSortProgram)
BOUNDCHECK_BENCH(Matrix, paper::MatrixProgram)
BOUNDCHECK_BENCH(Shuttle, paper::ShuttleProgram)
BOUNDCHECK_BENCH(StrideSearch, paper::StrideSearchProgram)
BOUNDCHECK_BENCH(StrideSort, paper::StrideSortProgram)

void printStaticTable() {
  std::printf("==== E3: static check elimination (paper 6.5/Figure 3) "
              "====\n\n");
  struct Row {
    const char *Name;
    const char *Source;
    const char *PaperClaim;
  } Rows[] = {
      {"BinarySearch", paper::BinarySearchProgram, "every access safe"},
      {"HeapSort", paper::HeapSortProgram, "every access safe"},
      {"BubbleSort", paper::BubbleSortProgram, "(extra program)"},
      {"QuickSort", paper::QuickSortProgram, "all but one or two"},
      {"Matrix", paper::MatrixProgram, "every access safe (Markstein)"},
      {"Shuttle", paper::ShuttleProgram, "every access safe (Markstein)"},
      {"StrideSearch", paper::StrideSearchProgram,
       "(stride variant: product-only)"},
      {"StrideSort", paper::StrideSortProgram,
       "(stride variant: product-only)"},
  };
  const DomainKind Domains[] = {DomainKind::Interval,
                                DomainKind::Congruence,
                                DomainKind::Product};
  for (const Row &R : Rows) {
    Workload &W = workload(R.Name, R.Source);
    Interpreter I(W.Result->debugger().program());
    Interpreter::Options Opts;
    Opts.Inputs = W.Inputs;
    Interpreter::Result Run = I.run(Opts);
    for (DomainKind DK : Domains) {
      // The interval column reuses the already-analyzed workload; the
      // other domains re-analyze the same program under --domain=...
      CheckSummary S;
      bool AllSafe = false;
      if (DK == DomainKind::Interval) {
        S = W.Result->checks().summary();
        AllSafe = W.Result->checks().allSafe();
      } else {
        AnalysisOptions DOpts = Harness->options();
        DOpts.Domain = DK;
        auto Result = Harness->run(
            std::string(R.Name) + "/" + domainKindName(DK), R.Source,
            DOpts);
        if (!Result)
          continue;
        S = Result->checks().summary();
        AllSafe = Result->checks().allSafe();
      }
      std::printf("%-14s %-10s %2u/%2u sites eliminable (%.0f%%), all "
                  "array accesses proved: %-3s dynamic checks removed "
                  "per run: %llu | paper: %s\n",
                  R.Name, domainKindName(DK), S.Safe + S.Unreachable,
                  S.Total, 100.0 * S.eliminationRatio(),
                  AllSafe ? "yes" : "no",
                  (unsigned long long)Run.ChecksExecuted, R.PaperClaim);
      json::Value Json = S.toJson();
      Json.set("program", R.Name);
      Json.set("domain", domainKindName(DK));
      Json.set("all_safe", AllSafe);
      Json.set("dynamic_checks_per_run", Run.ChecksExecuted);
      Harness->row(std::move(Json));
    }
  }
  std::printf("\n(Interpreter dispatch dilutes the wall-clock gap below "
              "the paper's 30-40%%\n on compiled Pascal; compare the "
              "Checked vs Unchecked pairs below and the\n dynamic check "
              "counts above. The Stride* rows are the domain ablation:\n"
              " their exit-value accesses straddle a bound under "
              "intervals and are only\n discharged by the interval x "
              "congruence reduced product.)\n\n");
}

} // namespace

int main(int argc, char **argv) {
  bench::Harness H("boundcheck", argc, argv);
  Harness = &H;
  // Hand the arguments the shared parser did not consume on to
  // google-benchmark (argv[0] plus the leftovers).
  std::vector<char *> BenchArgv{argv[0]};
  std::vector<std::string> Rest = H.args();
  for (std::string &Arg : Rest)
    BenchArgv.push_back(Arg.data());
  int BenchArgc = static_cast<int>(BenchArgv.size());
  printStaticTable();
  benchmark::Initialize(&BenchArgc, BenchArgv.data());
  benchmark::RunSpecifiedBenchmarks();
  H.write();
  return 0;
}
