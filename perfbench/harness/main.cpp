//===- perfbench/harness/main.cpp - Repository benchmark harness ----------===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           --config workloads.json --expected-dir DIR --out-dir DIR
//           [--revision REV]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The line before it carries the run's provenance. Exits 1
// when any output fails its oracle, 2 on a usage or setup error, and 3
// (without measuring) from a sanitizer or unoptimized build.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using syntox::json::Value;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A workload that
/// never reaches a layer reports it as zero.
const MetricSpec PerLayer[] = {
    {"frontend.lex_ms", "ms"},
    {"frontend.parse_ms", "ms"},
    {"frontend.sema_ms", "ms"},
    {"frontend.tokens", "count"},
    {"frontend.tokens_per_s", "1/s"},
    {"cfg.build_ms", "ms"},
    {"cfg.points", "count"},
    {"semantics.engine_ms", "ms"},
    {"semantics.instances", "count"},
    {"semantics.nodes", "count"},
    {"semantics.transfer_cache_hit_frac", "frac"},
    {"core.session_create_ms", "ms"},
    {"core.render_ms", "ms"},
    {"core.engine_reuses", "count"},
    {"fixpoint.solve_ms", "ms"},
    {"fixpoint.unions", "count"},
    {"fixpoint.widenings", "count"},
    {"fixpoint.narrowings", "count"},
    {"fixpoint.replayed_frac", "frac"},
    {"fixpoint.bytes_used", "bytes"},
    {"checks.classify_ms", "ms"},
    {"checks.count", "count"},
    {"persist.load_ms", "ms"},
    {"persist.save_ms", "ms"},
    {"persist.saves_per_request", "count"},
    {"persist.restored_frac", "frac"},
    {"persist.fallbacks", "count"},
    {"persist.cache_bytes", "bytes"},
    {"persist.gc_ms", "ms"},
    {"serve.queue_ms", "ms"},
    {"serve.run_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"serve.session_hit_frac", "frac"},
    {"loadgen.lag_p99_ms", "ms"},
    {"trace.coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"frontend.self_frac", "frac"},
    {"cfg.self_frac", "frac"},
    {"semantics.self_frac", "frac"},
    {"fixpoint.self_frac", "frac"},
    {"checks.self_frac", "frac"},
    {"core.self_frac", "frac"},
    {"persist.self_frac", "frac"},
    {"serve.self_frac", "frac"},
    {"failed_frac", "frac"},
};

/// CPU time of the whole host, from /proc/stat: {steal, total} in ticks.
std::pair<double, double> hostCpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  double Field = 0, Total = 0, Steal = 0;
  Stat >> Cpu;
  for (int I = 0; I < 8 && Stat >> Field; ++I) {
    Total += Field;
    if (I == 7)
      Steal = Field;
  }
  return {Steal, Total};
}

/// Numbers from a sanitizer or unoptimized build say nothing about the
/// analyzer users run; refuse them.
const char *buildRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimized build";
#else
  std::string Type = PERFBENCH_BUILD_TYPE;
  if (Type != "Release" && Type != "RelWithDebInfo")
    return "build type is neither Release nor RelWithDebInfo";
  return nullptr;
#endif
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string jsonString(const std::string &S) { return Value(S).str(); }

/// Folds \p Part into \p Rep: its requests and failures, and those of its
/// metrics whose names start with one of \p Prefixes, in place of any
/// that \p Rep has under the same name.
void mergeLayers(Report &Rep, Report Part,
                 std::initializer_list<const char *> Prefixes) {
  Rep.Attempted += Part.Attempted;
  Rep.Failed += Part.Failed;
  for (std::string &M : Part.Mismatches)
    if (Rep.Mismatches.size() < 20)
      Rep.Mismatches.push_back(std::move(M));
  for (Metric &M : Part.Metrics)
    for (const char *P : Prefixes)
      if (M.Name.rfind(P, 0) == 0) {
        std::erase_if(Rep.Metrics,
                      [&](const Metric &Old) { return Old.Name == M.Name; });
        Rep.Metrics.push_back(std::move(M));
        break;
      }
  Rep.Detail.set("serve_edit", std::move(Part.Detail));
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --config FILE --expected-dir DIR "
               "--out-dir DIR [--revision REV]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Key = argv[I];
    if (Key.rfind("--", 0) != 0)
      return usage(("unexpected argument " + Key).c_str());
    Args[Key.substr(2)] = argv[I + 1];
  }
  if (argc % 2 == 0)
    return usage("every flag takes a value");
  for (const char *Required : {"workload", "seed", "seconds", "trace",
                               "config", "expected-dir", "out-dir"})
    if (!Args.count(Required))
      return usage((std::string("missing --") + Required).c_str());

  if (const char *Why = buildRefusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", Why);
    return 3;
  }

  WorkloadConfig W;
  // serve-edit is not one of the benchmark's workloads (README.md: its
  // latency tail is unsteady on a shared host), so corpus-oneshot's traced
  // run gives a share of its time to serve-edit's traced phase and takes
  // the serve, persist and load-generator layers from it.
  std::optional<WorkloadConfig> Serve;
  try {
    W.Name = Args["workload"];
    W.Seed = std::stoull(Args["seed"]);
    W.Seconds = std::stod(Args["seconds"]);
    W.Trace = Args["trace"] == "1";
    if (!(W.Seconds > 0) || (Args["trace"] != "0" && Args["trace"] != "1"))
      return usage("--seconds must be positive and --trace 0 or 1");
    std::string Error;
    std::optional<Value> Config =
        syntox::json::parse(readFile(Args["config"]), &Error);
    if (!Config)
      throw std::runtime_error(Args["config"] + ": " + Error);
    const Value *Params = Config->find(W.Name);
    if (!Params || !Params->isObject())
      return usage(("unknown workload " + W.Name).c_str());
    W.Params = *Params;
    if (W.Trace && W.Params.find("traced_serve_share")) {
      const Value *ServeParams = Config->find("serve-edit");
      if (!ServeParams || !ServeParams->isObject())
        throw std::runtime_error("workloads.json: no serve-edit workload");
      Serve = W;
      Serve->Name = "serve-edit";
      Serve->Params = *ServeParams;
      Serve->Seconds = W.Seconds * W.num("traced_serve_share");
    }
  } catch (const std::exception &E) {
    return usage(E.what());
  }

  std::string Stem = Args["out-dir"] + "/" + W.Name + "-seed" +
                     std::to_string(W.Seed) + "-trace" + Args["trace"];
  W.Params.set("expected_file", Args["expected-dir"] + "/" + W.Name + ".json");
  W.Params.set("trace_out", Stem + ".spans.jsonl");
  W.Params.set("scratch_dir", Stem + ".scratch");
  if (Serve) {
    Serve->Params.set("trace_out", Stem + ".serve.spans.jsonl");
    Serve->Params.set("scratch_dir", Stem + ".serve.scratch");
  }

  Report Rep;
  std::pair<double, double> Cpu0 = hostCpuTicks();
  try {
    if (W.Name == "corpus-oneshot") {
      WorkloadConfig Loop = W;
      if (Serve)
        Loop.Seconds -= Serve->Seconds;
      Rep = runCorpusOneshot(Loop);
      if (Serve)
        mergeLayers(Rep, runServeEdit(*Serve),
                    {"serve.", "persist.", "loadgen."});
    } else if (W.Name == "paper-deep")
      Rep = runPaperDeep(W);
    else if (W.Name == "serve-edit")
      Rep = runServeEdit(W);
    else
      return usage(("unknown workload " + W.Name).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s: %s\n", W.Name.c_str(), E.what());
    return 2;
  }

  double FailedFrac =
      Rep.Attempted ? static_cast<double>(Rep.Failed) / Rep.Attempted : 1.0;
  std::vector<Metric> Out;
  if (!W.Trace) {
    Out = Rep.Metrics;
    Out.push_back({"ok_frac", 1.0 - FailedFrac, "frac"});
    Out.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  } else {
    Rep.add("failed_frac", FailedFrac, "frac");
    for (const MetricSpec &S : PerLayer) {
      Metric M{S.Name, 0.0, S.Unit};
      for (const Metric &Got : Rep.Metrics)
        if (Got.Name == S.Name)
          M.Value = Got.Value;
      Out.push_back(M);
    }
  }

  bool Finite = true;
  std::string Metrics = "{";
  for (size_t I = 0; I < Out.size(); ++I) {
    Finite &= std::isfinite(Out[I].Value);
    Metrics += (I ? ", " : "") + jsonString(Out[I].Name) +
               ": {\"value\": " + number(Out[I].Value) +
               ", \"unit\": " + jsonString(Out[I].Unit) + "}";
  }
  Metrics += "}";
  bool Correct = Rep.Failed == 0 && Rep.Attempted > 0 && Finite;

  for (const std::string &M : Rep.Mismatches)
    std::printf("MISMATCH %s\n", M.c_str());

  Value Prov = Value::object();
  Prov.set("workload", W.Name);
  Prov.set("seed", W.Seed);
  Prov.set("seconds", W.Seconds);
  Prov.set("trace", W.Trace);
  Prov.set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  Prov.set("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  Prov.set("compiler", std::string(PERFBENCH_CXX_ID) + " (" + __VERSION__ + ")");
  Prov.set("build_type", PERFBENCH_BUILD_TYPE);
  Prov.set("revision", Args.count("revision") ? Args["revision"] : "unknown");
  // The share of this machine's CPU time its hypervisor gave to other
  // guests during the run: the host noise every figure above carries.
  std::pair<double, double> Cpu1 = hostCpuTicks();
  Prov.set("host_steal_frac", Cpu1.second > Cpu0.second
                                  ? (Cpu1.first - Cpu0.first) /
                                        (Cpu1.second - Cpu0.second)
                                  : 0.0);
  Prov.set("detail", Rep.Detail);

  std::string Result = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(Rep.Attempted) +
                       ", \"failed\": " + std::to_string(Rep.Failed) +
                       ", \"metrics\": " + Metrics + "}";
  if (std::ofstream File{Stem + ".json"})
    File << "{\"provenance\": " << Prov.str() << ", \"result\": " << Result
         << "}\n";
  std::printf("provenance %s\n%s\n", Prov.str().c_str(), Result.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
