//===- perfbench/harness/Layers.cpp - One analysis request, by layer ------===//

#include "Layers.h"

#include "cfg/CfgBuilder.h"
#include "checks/CheckAnalysis.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "semantics/Analyzer.h"

using namespace syntox;

namespace perfbench {

void RequestCounts::operator+=(const RequestCounts &O) {
  Tokens += O.Tokens;
  CfgPoints += O.CfgPoints;
  Instances += O.Instances;
  Nodes += O.Nodes;
  Unions += O.Unions;
  Widenings += O.Widenings;
  Narrowings += O.Narrowings;
  LiveSteps += O.LiveSteps;
  SkippedSteps += O.SkippedSteps;
  BytesUsed += O.BytesUsed;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  Checks += O.Checks;
  Safe += O.Safe;
  Unreachable += O.Unreachable;
  SolveSeconds += O.SolveSeconds;
}

static uint64_t intAt(const json::Value &V, const char *Key) {
  const json::Value *M = V.find(Key);
  return M && M->isNumber() ? static_cast<uint64_t>(M->asInt()) : 0;
}

void countFindings(const json::Value &Findings, RequestCounts &C) {
  if (const json::Value *S = Findings.find("stats")) {
    C.Unions += intAt(*S, "unions");
    C.Widenings += intAt(*S, "widenings");
    C.Narrowings += intAt(*S, "narrowings");
    C.SkippedSteps += intAt(*S, "skipped_steps");
    C.BytesUsed += intAt(*S, "bytes_used");
    C.CacheHits += intAt(*S, "cache_hits");
    C.CacheMisses += intAt(*S, "cache_misses");
    if (const json::Value *Cpu = S->find("cpu_seconds"))
      C.SolveSeconds += Cpu->asDouble();
    if (const json::Value *Ps = S->find("phases"))
      for (const json::Value &P : Ps->elements())
        C.LiveSteps += intAt(P, "widening_steps") + intAt(P, "narrowing_steps");
  }
  if (const json::Value *Ch = Findings.find("checks"))
    if (const json::Value *Sum = Ch->find("summary")) {
      C.Checks += intAt(*Sum, "total");
      C.Safe += intAt(*Sum, "safe");
      C.Unreachable += intAt(*Sum, "unreachable");
    }
}

json::Value findingsOnly(const json::Value &Findings) {
  json::Value V = json::Value::object();
  for (const auto &KV : Findings.members())
    if (KV.first != "stats" && KV.first != "metrics")
      V.set(KV.first, KV.second);
  return V;
}

Analyzed analyzeUntraced(const std::string &Source,
                         const AnalysisOptions &Opts) {
  Analyzed A;
  Clock::time_point T0 = Clock::now();
  DiagnosticsEngine Diags;
  std::unique_ptr<AnalysisSession> S =
      AnalysisSession::create(Source, Diags, Opts);
  if (!S) {
    A.Error = "frontend error: " + Diags.str();
    return A;
  }
  AnalysisResult R = S->run();
  json::Value F = R.toJson();
  A.Rendered = F.str();
  A.Seconds = secondsBetween(T0, Clock::now());
  A.OK = true;
  A.Findings = std::move(F);
  A.Result.emplace(std::move(R));
  return A;
}

namespace {

/// Durations of one engine build, in the order AbstractDebugger::create
/// performs them.
struct BuildTimes {
  double Lex = 0, Parse = 0, Sema = 0, Cfg = 0, Engine = 0;
};

/// AbstractDebugger::create's public calls, each in its own span when
/// \p Rec is set.
std::unique_ptr<Engine> buildEngineTimed(const std::string &Source,
                                         const AnalysisOptions &Opts,
                                         SpanRecorder *Rec, uint64_t Id,
                                         BuildTimes &T, RequestCounts &C,
                                         std::string &Error) {
  auto Timed = [&](const char *Name, double &Seconds, auto &&Work) {
    ScopedSpan S(Rec, Name, Id);
    Clock::time_point T0 = Clock::now();
    Work();
    Seconds = secondsBetween(T0, Clock::now());
  };
  DiagnosticsEngine Diags;
  auto E = std::make_unique<Engine>();
  E->Ctx = std::make_unique<AstContext>();
  std::vector<Token> Toks;
  Timed("frontend.lex", T.Lex, [&] {
    Lexer Lex(Source, Diags);
    Toks = Lex.lexAll();
  });
  C.Tokens += Toks.size();
  RoutineDecl *Program = nullptr;
  Timed("frontend.parse", T.Parse, [&] {
    Parser P(std::move(Toks), *E->Ctx, Diags);
    Program = P.parseProgram();
  });
  bool SemaOk = false;
  if (Program && !Diags.hasErrors())
    Timed("frontend.sema", T.Sema, [&] {
      Sema Se(*E->Ctx, Diags);
      SemaOk = Se.analyze(Program);
    });
  if (!SemaOk) {
    Error = "frontend error: " + Diags.str();
    return nullptr;
  }
  Timed("cfg.build", T.Cfg, [&] {
    CfgBuilder B(*E->Ctx, Diags);
    E->Cfg = B.build(Program);
  });
  if (Diags.hasErrors()) {
    Error = "cfg error: " + Diags.str();
    return nullptr;
  }
  C.CfgPoints += E->Cfg->totalPoints();
  Timed("semantics.engine", T.Engine, [&] {
    E->An = std::make_unique<Analyzer>(*E->Cfg, Program, Opts);
  });
  C.Instances += E->An->graph().instances().size();
  C.Nodes += E->An->graph().numNodes();
  return E;
}

} // namespace

std::unique_ptr<Engine> buildEngine(const std::string &Source,
                                    const AnalysisOptions &Opts) {
  BuildTimes T;
  RequestCounts C;
  std::string Error;
  return buildEngineTimed(Source, Opts, nullptr, 0, T, C, Error);
}

Analyzed analyzeTraced(const std::string &Source, const AnalysisOptions &Opts,
                       SpanRecorder &Rec, uint64_t Id, RequestCounts &C) {
  Analyzed A;
  int Root = Rec.open("request", Id);
  int Create = Rec.open("core.session_create", Id);
  DiagnosticsEngine Diags;
  std::unique_ptr<AnalysisSession> Session =
      AnalysisSession::create(Source, Diags, Opts);
  Rec.close(Create);
  if (!Session) {
    Rec.close(Root);
    A.Error = "frontend error: " + Diags.str();
    return A;
  }
  int Run = Rec.open("core.run", Id);
  AnalysisResult R = Session->run();
  Rec.close(Run);
  json::Value F;
  {
    ScopedSpan Render(&Rec, "core.render", Id);
    F = R.toJson();
    A.Rendered = F.str();
  }
  Rec.close(Root);
  A.Seconds = Rec.duration(Root);

  // The shadow: the public calls inside create() and run() again, on the
  // same source, after the request so that it ran exactly as untraced.
  BuildTimes Build;
  std::string Error;
  buildEngineTimed(Source, Opts, nullptr, Id, Build, C, Error);
  double ChecksSeconds = 0;
  {
    Clock::time_point T0 = Clock::now();
    CheckAnalysis Again(R.analyzer());
    ChecksSeconds = secondsBetween(T0, Clock::now());
  }

  // Both opaque calls build the engine the way the shadow did; run()
  // then solves (AnalysisStats) and classifies the checks. What the
  // supplied children miss stays unexplained: coverage does not count it.
  for (int Parent : {Create, Run}) {
    Rec.markUnexplained(Parent);
    double At = Rec.spans()[Parent].Start;
    auto Supply = [&](const char *Name, double Seconds) {
      int I = Rec.supply(Name, Parent, At, Seconds);
      At = Rec.spans()[I].End;
    };
    Supply("frontend.lex", Build.Lex);
    Supply("frontend.parse", Build.Parse);
    Supply("frontend.sema", Build.Sema);
    Supply("cfg.build", Build.Cfg);
    Supply("semantics.engine", Build.Engine);
    if (Parent == Run) {
      Supply("fixpoint.solve", R.stats().CpuSeconds);
      Supply("checks.classify", ChecksSeconds);
    }
  }

  countFindings(F, C);
  A.OK = true;
  A.Findings = std::move(F);
  A.Result.emplace(std::move(R));
  return A;
}

namespace {

double frac(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

} // namespace

void addLayerMetrics(Report &Rep, const TraceSummary &S,
                     const RequestCounts &T, uint64_t Requests) {
  double N = Requests ? static_cast<double>(Requests) : 1.0;
  auto MsPer = [&](const char *Name) {
    auto It = S.TotalByName.find(Name);
    return It == S.TotalByName.end() ? 0.0 : 1000.0 * It->second / N;
  };
  double FrontendSeconds = 0;
  for (const char *Name : {"frontend.lex", "frontend.parse", "frontend.sema"})
    if (auto It = S.TotalByName.find(Name); It != S.TotalByName.end())
      FrontendSeconds += It->second;

  Rep.add("frontend.lex_ms", MsPer("frontend.lex"), "ms");
  Rep.add("frontend.parse_ms", MsPer("frontend.parse"), "ms");
  Rep.add("frontend.sema_ms", MsPer("frontend.sema"), "ms");
  Rep.add("frontend.tokens", T.Tokens / N, "count");
  Rep.add("frontend.tokens_per_s", frac(T.Tokens * 2.0, FrontendSeconds),
          "1/s");
  Rep.add("cfg.build_ms", MsPer("cfg.build"), "ms");
  Rep.add("cfg.points", T.CfgPoints / N, "count");
  Rep.add("semantics.engine_ms", MsPer("semantics.engine"), "ms");
  Rep.add("semantics.instances", T.Instances / N, "count");
  Rep.add("semantics.nodes", T.Nodes / N, "count");
  Rep.add("semantics.transfer_cache_hit_frac",
          frac(T.CacheHits, T.CacheHits + T.CacheMisses), "frac");
  Rep.add("core.session_create_ms", MsPer("core.session_create"), "ms");
  Rep.add("core.render_ms", MsPer("core.render"), "ms");
  Rep.add("fixpoint.solve_ms", 1000.0 * T.SolveSeconds / N, "ms");
  Rep.add("fixpoint.unions", T.Unions / N, "count");
  Rep.add("fixpoint.widenings", T.Widenings / N, "count");
  Rep.add("fixpoint.narrowings", T.Narrowings / N, "count");
  Rep.add("fixpoint.replayed_frac",
          frac(T.SkippedSteps, T.SkippedSteps + T.LiveSteps), "frac");
  Rep.add("fixpoint.bytes_used", T.BytesUsed / N, "bytes");
  Rep.add("checks.classify_ms", MsPer("checks.classify"), "ms");
  Rep.add("checks.count", T.Checks / N, "count");
}

} // namespace perfbench
