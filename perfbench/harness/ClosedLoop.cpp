//===- perfbench/harness/ClosedLoop.cpp - corpus-oneshot, paper-deep ------===//
//
// Both closed-loop workloads: one client analyzes one program at a time,
// cold, through AnalysisSession (create -> run -> toJson) with default
// options and no disk cache, and sends the next only after the previous
// one's findings are rendered. The workloads differ in their inputs and
// oracles only.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "checks/CheckAnalysis.h"
#include "frontend/Lexer.h"
#include "frontend/PaperPrograms.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "interp/Interpreter.h"
#include "semantics/Analyzer.h"
#include "support/Rng.h"

#include "RandomProgramGen.h"

#include <fstream>
#include <functional>
#include <sstream>

using namespace syntox;

namespace perfbench {
namespace {

/// One input program and what its oracle expects.
struct Program {
  std::string Name;
  std::string Source;
  /// corpus-oneshot: the bounded concrete run computed in setup.
  Interpreter::Status Concrete = Interpreter::Status::Ok;
  std::vector<int64_t> ExitValues; ///< v0..v4 printed at the end
  SourceLoc ErrorLoc;              ///< where a RuntimeError happened
  /// paper-deep: the expected verdict and check counts.
  json::Value Expected;
};

using Oracle =
    std::function<void(const Program &, const Analyzed &, Report &)>;

/// Independent per-index sub-seed, so program I does not depend on how
/// many random draws programs 0..I-1 made.
uint64_t subSeed(uint64_t Seed, uint64_t I) {
  uint64_t Z = Seed * 0x9e3779b97f4a7c15ULL + (I + 1) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Shared closed loop. Untraced: W.Seconds of untraced requests. Traced:
/// W.Seconds of pairs, each a traced and an untraced request of the same
/// program in alternating order; the untraced halves are the baseline of
/// trace.coverage_frac and trace.overhead_frac.
Report runClosedLoop(const WorkloadConfig &W,
                     const std::function<std::vector<Program>()> &Setup,
                     const Oracle &Check) {
  Report Rep;
  std::vector<double> SetupSeconds;
  std::vector<Program> Programs;
  const size_t Warmup = static_cast<size_t>(W.num("warmup_programs"));
  AnalysisOptions Opts; // the CLI defaults; no disk cache
  auto SetUp = [&] {
    Clock::time_point T0 = Clock::now();
    Programs = Setup();
    // Let allocator and caches settle before anything is timed.
    for (size_t P = 0; P < Programs.size() && P < Warmup; ++P)
      if (!analyzeUntraced(Programs[P].Source, Opts).OK)
        throw std::runtime_error(Programs[P].Name + ": warm-up failed");
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
  };
  SetUp();
  if (Programs.empty())
    throw std::runtime_error(W.Name + ": setup produced no programs");

  const double LimitMs = W.num("latency_limit_ms");

  // Visit order: a fresh seeded permutation of the programs per pass.
  Rng OrderRng(subSeed(W.Seed, ~0ULL));
  std::vector<size_t> Order;
  size_t Pos = 0;
  auto Next = [&] {
    if (Pos == Order.size()) {
      Order.resize(Programs.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[OrderRng.below(I)]);
      Pos = 0;
    }
    return Order[Pos++];
  };

  std::vector<std::string> First(Programs.size());
  uint64_t Eliminated = 0, TotalChecks = 0, Distinct = 0;
  SpanRecorder Rec;
  RequestCounts Counts;
  std::vector<double> LatencyMs;
  double BusySeconds = 0;
  // Throughput per one-second window of the untraced loop, kept in the
  // provenance: it shows the bursts of host noise a run went through.
  std::vector<double> WindowRates;
  double WindowBusy = 0;
  uint64_t WindowDone = 0;
  Clock::time_point WindowStart = Clock::now();
  uint64_t WithinLimit = 0;

  auto Request = [&](size_t I, bool Traced) {
    const Program &P = Programs[I];
    Analyzed A = Traced ? analyzeTraced(P.Source, Opts, Rec,
                                        Rep.Attempted, Counts)
                        : analyzeUntraced(P.Source, Opts);
    ++Rep.Attempted;
    if (!Traced) {
      LatencyMs.push_back(1000.0 * A.Seconds);
      BusySeconds += A.Seconds;
      WindowBusy += A.Seconds;
      ++WindowDone;
      if (secondsBetween(WindowStart, Clock::now()) >= 1.0) {
        WindowRates.push_back(WindowDone / WindowBusy);
        WindowBusy = 0;
        WindowDone = 0;
        WindowStart = Clock::now();
      }
    }
    if (!A.OK) {
      Rep.fail(P.Name + ": " + A.Error);
      return;
    }
    uint64_t FailedBefore = Rep.Failed;
    Check(P, A, Rep);
    // Determinism: every analysis of a program renders the findings
    // its first analysis rendered.
    std::string Stable = findingsOnly(A.Findings).str();
    if (First[I].empty()) {
      First[I] = std::move(Stable);
      ++Distinct;
      RequestCounts C;
      countFindings(A.Findings, C);
      Eliminated += C.Safe + C.Unreachable;
      TotalChecks += C.Checks;
    } else if (First[I] != Stable) {
      Rep.fail(P.Name + ": findings differ from its first analysis");
    }
    if (!Traced && Rep.Failed == FailedBefore &&
        1000.0 * A.Seconds <= LimitMs)
      ++WithinLimit;
  };
  auto Measure = [&](double Seconds, bool Traced) {
    Clock::time_point Start = Clock::now();
    for (uint64_t K = 0; secondsBetween(Start, Clock::now()) < Seconds; ++K) {
      size_t I = Next();
      Request(I, Traced && K % 2 == 0);
      if (Traced)
        Request(I, K % 2 != 0);
    }
  };

  if (!W.Trace) {
    // The set-up is repeated between equal slices of the run, so that its
    // median samples the host across the run, not only at its start.
    const unsigned Repeats =
        std::max(1u, static_cast<unsigned>(W.num("setup_repeats")));
    for (unsigned I = 0; I < Repeats; ++I) {
      if (I)
        SetUp();
      Measure(W.Seconds / Repeats, false);
    }
    uint64_t N = LatencyMs.size();
    Rep.add("setup_s", median(SetupSeconds), "s");
    // Every analysis of the run over the time spent in them: on a shared
    // host this spreads less from run to run than the median or an upper
    // percentile of the window rates.
    const double Rate = BusySeconds > 0 ? N / BusySeconds : 0.0;
    Rep.add("programs_per_s", Rate, "1/s");
    json::Value Ws = json::Value::array();
    for (double R : WindowRates)
      Ws.push(R);
    Rep.Detail.set("window_rates", std::move(Ws));
    Rep.add("latency_p50_ms", percentile(LatencyMs, 0.50), "ms");
    Rep.add("latency_p99_ms", percentile(LatencyMs, 0.99), "ms");
    // A closed loop offers exactly the load it sustains: its sustained
    // rate is the rate of answers that met the latency limit.
    Rep.add("sustained_rps",
            N ? Rate * WithinLimit / N : 0.0, "1/s");
    Rep.add("slo_met_frac", N ? static_cast<double>(WithinLimit) / N : 0.0,
            "frac");
    Rep.add("checks_eliminated_frac",
            TotalChecks ? static_cast<double>(Eliminated) / TotalChecks : 1.0,
            "frac");
  } else {
    Measure(W.Seconds, true);
    double UntracedMean =
        LatencyMs.empty() ? 0.0 : BusySeconds / LatencyMs.size();
    TraceSummary S = summarize(Rec);
    addLayerMetrics(Rep, S, Counts, S.Requests);
    addTraceMetrics(Rep, S, UntracedMean);
    Rep.Detail.set("spans", static_cast<uint64_t>(Rec.spans().size()));
    Rep.Detail.set("traced_requests", S.Requests);
    if (const json::Value *Dir = W.Params.find("trace_out"))
      Rec.writeJsonLines(Dir->asString());
  }
  Rep.Detail.set("distinct_programs_analyzed", Distinct);
  Rep.Detail.set("corpus_programs", static_cast<uint64_t>(Programs.size()));
  Rep.Detail.set("checks_total", TotalChecks);
  Rep.Detail.set("latency_samples", static_cast<uint64_t>(LatencyMs.size()));
  json::Value Setups = json::Value::array();
  for (double S : SetupSeconds)
    Setups.push(S);
  Rep.Detail.set("setup_seconds", std::move(Setups));
  return Rep;
}

//===-- corpus-oneshot -----------------------------------------------------===//

/// Parses \p P.Source and records its bounded concrete run.
void runConcrete(Program &P, uint64_t MaxSteps) {
  DiagnosticsEngine Diags;
  AstContext Ctx;
  Lexer Lex(P.Source, Diags);
  Parser Parse(Lex.lexAll(), Ctx, Diags);
  RoutineDecl *Prog = Parse.parseProgram();
  Sema S(Ctx, Diags);
  if (!Prog || Diags.hasErrors() || !S.analyze(Prog))
    throw std::runtime_error(P.Name + ": generated program does not parse");
  Interpreter Interp(Prog);
  Interpreter::Options Opts;
  Opts.MaxSteps = MaxSteps;
  Interpreter::Result R = Interp.run(Opts);
  P.Concrete = R.St;
  P.ErrorLoc = R.ErrorLoc;
  if (R.St == Interpreter::Status::Ok) {
    std::istringstream Values(R.Output);
    int64_t V = 0;
    while (Values >> V)
      P.ExitValues.push_back(V);
  }
}

/// Soundness against the concrete run: the values a successful run
/// prints at the end lie in the forward invariant at the main exit, and
/// no check the run failed is classified safe or unreachable.
void concreteOracle(const Program &P, const Analyzed &A, Report &Rep) {
  const AbstractDebugger &Dbg = A.Result->debugger();
  const Analyzer &An = Dbg.analyzer();
  if (P.Concrete == Interpreter::Status::Ok) {
    const AbstractStore &Exit = An.forwardAt(An.graph().mainExit());
    for (size_t I = 0; I < P.ExitValues.size(); ++I) {
      std::string Name = "v" + std::to_string(I);
      const VarDecl *Var = nullptr;
      for (const VarDecl *V : Dbg.program()->ownedVars())
        if (V->name() == Name)
          Var = V;
      if (!Var) {
        Rep.fail(P.Name + ": no variable " + Name);
        return;
      }
      AbsValue Abs = An.storeOps().get(Exit, Var);
      if (!Abs.isInt() || !Abs.asInt().contains(P.ExitValues[I])) {
        Rep.fail(P.Name + ": concrete " + Name + " = " +
                 std::to_string(P.ExitValues[I]) +
                 " outside the forward invariant at exit");
        return;
      }
    }
  } else if (P.Concrete == Interpreter::Status::RuntimeError) {
    for (const CheckResult &C : A.Result->checks().results())
      if (C.Info->Loc == P.ErrorLoc &&
          (C.Verdict == CheckVerdict::Safe ||
           C.Verdict == CheckVerdict::Unreachable)) {
        Rep.fail(P.Name + ": check " + std::to_string(C.Info->Id) +
                 " fails concretely but is classified " +
                 checkVerdictKey(C.Verdict));
        return;
      }
  }
}

//===-- paper-deep ---------------------------------------------------------===//

/// K sequential counting loops over distinct variables (the
/// bench_complexity loop chain).
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
  Out += "  v0 := 0\nend.\n";
  return Out;
}

json::Value readJsonFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Error;
  std::optional<json::Value> V = json::parse(SS.str(), &Error);
  if (!V)
    throw std::runtime_error(Path + ": " + Error);
  return std::move(*V);
}

/// The verdict and every check count equal the hand-written
/// expectation.
void expectedOracle(const Program &P, const Analyzed &A, Report &Rep) {
  const json::Value &F = A.Findings;
  std::string Verdict = F.find("verdict")->asString();
  if (Verdict != P.Expected.find("verdict")->asString()) {
    Rep.fail(P.Name + ": verdict " + Verdict);
    return;
  }
  const json::Value &Sum = *F.find("checks")->find("summary");
  for (const char *Key : {"total", "safe", "unreachable", "must_fail",
                          "may_fail"}) {
    int64_t Got = Sum.find(Key)->asInt();
    int64_t Want = P.Expected.find(Key)->asInt();
    if (Got != Want) {
      Rep.fail(P.Name + ": " + Key + " " + std::to_string(Got) +
               ", expected " + std::to_string(Want));
      return;
    }
  }
}

} // namespace

Report runCorpusOneshot(const WorkloadConfig &W) {
  const unsigned Size = static_cast<unsigned>(W.num("corpus_programs"));
  const uint64_t MaxSteps = static_cast<uint64_t>(W.num("concrete_max_steps"));
  auto Setup = [&] {
    static const test::ProgramGenerator::Family Families[] = {
        test::ProgramGenerator::Family::Plain,
        test::ProgramGenerator::Family::GotoHeavy,
        test::ProgramGenerator::Family::DeepUnfolding,
        test::ProgramGenerator::Family::AliasingHeavy,
    };
    std::vector<Program> Ps(Size);
    for (unsigned I = 0; I < Size; ++I) {
      uint64_t S = subSeed(W.Seed, I);
      auto F = Families[S % 4];
      test::ProgramGenerator G(S, /*WithAssertions=*/true);
      Ps[I].Name = std::string(test::ProgramGenerator::familyName(F)) + "-" +
                   std::to_string(I);
      Ps[I].Source = G.generate(F);
      runConcrete(Ps[I], MaxSteps);
    }
    return Ps;
  };
  return runClosedLoop(W, Setup, concreteOracle);
}

Report runPaperDeep(const WorkloadConfig &W) {
  auto Setup = [&] {
    json::Value Expected =
        readJsonFile(W.Params.find("expected_file")->asString());
    std::vector<Program> Ps;
    auto Add = [&](std::string Name, std::string Source) {
      const json::Value *E = Expected.find(Name);
      if (!E)
        throw std::runtime_error("no expected findings for " + Name);
      Program P;
      P.Name = std::move(Name);
      P.Source = std::move(Source);
      P.Expected = *E;
      Ps.push_back(std::move(P));
    };
    for (double K : W.nums("mccarthy_k"))
      Add("mccarthy-" + std::to_string(static_cast<unsigned>(K)),
          paper::mcCarthyK(static_cast<unsigned>(K)));
    for (double K : W.nums("loop_chains"))
      Add("loopchain-" + std::to_string(static_cast<unsigned>(K)),
          loopChain(static_cast<unsigned>(K)));
    Add("binarysearch", paper::BinarySearchProgram);
    Add("quicksort", paper::QuickSortProgram);
    Add("heapsort", paper::HeapSortProgram);
    Add("ackermann", paper::AckermannProgram);
    return Ps;
  };
  return runClosedLoop(W, Setup, expectedOracle);
}

} // namespace perfbench
