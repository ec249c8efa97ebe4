//===- perfbench/harness/ServeEdit.cpp - The serve-edit workload ----------===//
//
// An editor fleet talking to an in-process serve::Server over a
// socketpair, in the exact JSON-lines bytes a syntox_serve client sends.
// Open loop: requests go out on a fixed schedule whether or not earlier
// ones were answered, and each is timed from when it was due. One
// client thread plus the server's worker slots stay within nproc.
//
// Traffic: every document is first opened cold, then each request picks
// a document and either resubmits it unchanged or applies one keystroke
// (ProgramGenerator::mutate) first. Requests carry the document's
// cache_key shard, and the server has a cache cap, so its collector
// scans the cache tree after every save.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "persist/CacheGc.h"
#include "persist/WarmCache.h"
#include "serve/Server.h"
#include "support/Rng.h"

#include "RandomProgramGen.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <optional>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace syntox;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// One scheduled request of the stream.
struct Request {
  unsigned Doc = 0;
  unsigned Source = 0; ///< index into Inputs::Sources
};

struct Inputs {
  std::vector<std::string> Sources; ///< distinct sources, in stream order
  /// Cold findings of each source: those the opens and the main stream
  /// send are computed in setup; the ladder's, after the ladder.
  std::vector<std::optional<json::Value>> Expected;
  std::vector<Request> Stream;
  unsigned Documents = 0;
};

/// The in-process daemon behind its wire.
class Daemon {
public:
  Daemon(const serve::ServerConfig &Cfg) : Srv(Cfg) {
    int Fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      throw std::runtime_error("socketpair failed");
    Fd = Fds[0];
    ServerFd = Fds[1];
    Thread = std::thread([this] {
      Srv.serve(ServerFd, ServerFd);
      ::shutdown(ServerFd, SHUT_WR); // lets the client's drain see EOF
    });
  }
  ~Daemon() {
    ::shutdown(Fd, SHUT_WR); // end of input: the server drains and returns
    // Read to EOF so a server blocked on a response write can finish.
    char Buf[4096];
    while (::read(Fd, Buf, sizeof(Buf)) > 0) {
    }
    Thread.join();
    ::close(ServerFd);
    ::close(Fd);
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  serve::Server &server() { return Srv; }
  int fd() const { return Fd; }

private:
  serve::Server Srv;
  int Fd = -1;
  int ServerFd = -1;
  std::thread Thread;
};

uint64_t treeBytes(const fs::path &Dir) {
  uint64_t Total = 0;
  std::error_code EC;
  for (fs::recursive_directory_iterator It(Dir, EC), End; !EC && It != End;
       It.increment(EC))
    if (It->is_regular_file(EC))
      Total += It->file_size(EC);
  return Total;
}

/// The oracle: a cold sequential session on every source that the stream
/// sends in [From, To) and that has no reference yet.
void computeReferences(Inputs &In, size_t From, size_t To) {
  for (size_t K = From; K < To && K < In.Stream.size(); ++K) {
    std::optional<json::Value> &E = In.Expected[In.Stream[K].Source];
    if (E)
      continue;
    Analyzed A = analyzeUntraced(In.Sources[In.Stream[K].Source],
                                 AnalysisOptions());
    if (!A.OK)
      throw std::runtime_error("reference analysis failed: " + A.Error);
    E = findingsOnly(A.Findings);
  }
}

/// \p Requests requests of stream, with the references of the first
/// \p Referenced computed.
Inputs makeInputs(const WorkloadConfig &W, size_t Requests,
                  size_t Referenced) {
  static const test::ProgramGenerator::Family Families[] = {
      test::ProgramGenerator::Family::Plain,
      test::ProgramGenerator::Family::GotoHeavy,
      test::ProgramGenerator::Family::DeepUnfolding,
      test::ProgramGenerator::Family::AliasingHeavy,
  };
  Inputs In;
  In.Documents = static_cast<unsigned>(W.num("documents"));
  const double EditFrac = W.num("edit_frac");
  Rng R(W.Seed * 0x9e3779b97f4a7c15ULL + 7);
  test::ProgramGenerator Editor(W.Seed + 0x51ed);
  std::vector<unsigned> Current(In.Documents);
  for (unsigned D = 0; D < In.Documents; ++D) {
    test::ProgramGenerator G(R.next(), /*WithAssertions=*/true);
    In.Sources.push_back(G.generate(Families[D % 4]));
    Current[D] = D;
    In.Stream.push_back({D, D});
  }
  while (In.Stream.size() < Requests) {
    unsigned D = static_cast<unsigned>(R.below(In.Documents));
    if (R.below(1000) < EditFrac * 1000) {
      In.Sources.push_back(Editor.mutate(In.Sources[Current[D]]));
      Current[D] = static_cast<unsigned>(In.Sources.size() - 1);
    }
    In.Stream.push_back({D, Current[D]});
  }
  In.Expected.resize(In.Sources.size());
  computeReferences(In, 0, Referenced);
  return In;
}

/// How long before a request is due the client stops sleeping and spins.
constexpr double SpinSeconds = 0.001;

/// What happened to one sent request.
struct Outcome {
  double Due = 0, Sent = 0, Read = -1; ///< seconds since the phase epoch
  bool Ok = false;                     ///< status ok and oracle-equal
  double QueueMs = 0, RunMs = 0;
  RequestCounts Counts;
  std::string Response; ///< the raw line, checked after the phase
};

/// The id of a response line without parsing it (the envelope renders
/// "id" as a decimal string); N when absent.
size_t responseId(const std::string &Line, size_t N) {
  size_t At = Line.find("\"id\":\"");
  if (At == std::string::npos)
    return N;
  size_t Id = 0, Digits = 0;
  for (At += 6; At < Line.size() && std::isdigit(static_cast<unsigned char>(Line[At]));
       ++At, ++Digits)
    Id = Id * 10 + static_cast<size_t>(Line[At] - '0');
  return Digits && Digits < 10 ? Id : N;
}

/// Checks one response against the cold reference of its source.
void checkResponse(Outcome &O, size_t Id, const json::Value &Expected,
                   Report &Rep) {
  std::optional<json::Value> V = json::parse(O.Response);
  O.Response.clear();
  if (!V) {
    Rep.fail("request " + std::to_string(Id) + ": unparseable response");
    return;
  }
  if (const json::Value *Timing = V->find("timing")) {
    O.QueueMs = Timing->find("queue_ms")->asDouble();
    O.RunMs = Timing->find("run_ms")->asDouble();
  }
  const json::Value *Status = V->find("status");
  const json::Value *F = V->find("findings");
  if (!Status || Status->asString() != "ok" || !F) {
    const json::Value *E = V->find("error");
    Rep.fail("request " + std::to_string(Id) + ": status " +
             (Status ? Status->asString() : "?") +
             (E ? ": " + E->asString() : ""));
    return;
  }
  if (!(findingsOnly(*F) == Expected)) {
    Rep.fail("request " + std::to_string(Id) +
             ": findings differ from a cold sequential session");
    return;
  }
  countFindings(*F, O.Counts);
  O.Ok = true;
}

/// Sends the next Rate * Seconds requests of the stream at \p Rate per
/// second and reads every response (or gives up \p DrainSeconds after
/// the last send). During the phase the client only writes and
/// timestamps; responses are checked afterwards, so the client's own
/// work delays neither sends nor reads. Returns one Outcome per request,
/// in send order.
std::vector<Outcome> runPhase(Daemon &Dmn, Inputs &In, size_t &Next,
                              double Rate, double Seconds, double DrainSeconds,
                              Report &Rep, size_t &OutstandingAtLastSend) {
  size_t N = static_cast<size_t>(std::llround(Rate * Seconds));
  N = std::min(N, In.Stream.size() - Next);
  std::vector<Outcome> Out(N);
  std::vector<std::string> Lines(N);
  for (size_t K = 0; K < N; ++K) {
    const Request &Q = In.Stream[Next + K];
    json::Value Line = json::Value::object();
    Line.set("protocol_version", 1);
    Line.set("id", std::to_string(K));
    Line.set("kind", "analyze");
    Line.set("source", In.Sources[Q.Source]);
    Line.set("cache_key", "doc-" + std::to_string(Q.Doc));
    Lines[K] = Line.str() + "\n";
    Out[K].Due = K / Rate;
  }

  Clock::time_point Epoch = Clock::now();
  auto Now = [&] { return secondsBetween(Epoch, Clock::now()); };
  std::string Buffer;
  size_t Sent = 0, Received = 0;
  double GiveUp = 0;
  while (Received < N) {
    double T = Now();
    while (Sent < N && Out[Sent].Due <= T) {
      const std::string &Bytes = Lines[Sent];
      Out[Sent].Sent = Now();
      for (size_t Off = 0; Off < Bytes.size();) {
        ssize_t W = ::write(Dmn.fd(), Bytes.data() + Off, Bytes.size() - Off);
        if (W <= 0)
          throw std::runtime_error("write to the server failed");
        Off += static_cast<size_t>(W);
      }
      if (++Sent == N) {
        OutstandingAtLastSend = N - Received;
        GiveUp = Now() + DrainSeconds;
      }
      T = Now();
    }
    if (Sent == N && T > GiveUp)
      break;
    // Until the last send the client sleeps (or reads) until shortly
    // before the next request is due and spins the rest: a thread woken
    // late would show as latency the server never caused, and a client
    // that spins throughout takes a core from the server's threads.
    double Wait = Sent < N ? std::max(0.0, Out[Sent].Due - T - SpinSeconds)
                           : std::clamp(GiveUp - T, 0.0, 0.05);
    struct timespec TS;
    TS.tv_sec = 0;
    TS.tv_nsec = static_cast<long>(Wait * 1e9);
    struct pollfd P = {Dmn.fd(), POLLIN, 0};
    int Ready = ::ppoll(&P, 1, &TS, nullptr);
    if (Ready < 0 && errno != EINTR)
      throw std::runtime_error("poll on the server socket failed");
    if (Ready <= 0)
      continue;
    char Chunk[65536];
    ssize_t Got = ::read(Dmn.fd(), Chunk, sizeof(Chunk));
    if (Got <= 0)
      throw std::runtime_error("the server closed the connection");
    double ReadAt = Now();
    Buffer.append(Chunk, static_cast<size_t>(Got));
    size_t Begin = 0;
    for (size_t Nl; (Nl = Buffer.find('\n', Begin)) != std::string::npos;
         Begin = Nl + 1) {
      std::string Line = Buffer.substr(Begin, Nl - Begin);
      size_t Id = responseId(Line, N);
      if (Id >= N || Out[Id].Read >= 0) {
        Rep.fail("unknown or repeated response line");
        continue;
      }
      Out[Id].Read = ReadAt;
      Out[Id].Response = std::move(Line);
      ++Received;
    }
    Buffer.erase(0, Begin);
  }

  computeReferences(In, Next, Next + N);
  for (size_t K = 0; K < N; ++K) {
    if (Out[K].Read < 0)
      Rep.fail("request " + std::to_string(K) +
               ": no response within the drain time");
    else
      checkResponse(Out[K], K, *In.Expected[In.Stream[Next + K].Source], Rep);
  }
  Rep.Attempted += N;
  Next += N;
  return Out;
}

std::vector<double> latenciesMs(const std::vector<Outcome> &Out,
                                double Missing) {
  std::vector<double> L;
  for (const Outcome &O : Out)
    L.push_back(O.Read < 0 ? Missing : 1000.0 * (O.Read - O.Due));
  return L;
}

/// The median, over consecutive windows of at least \p WindowRequests
/// requests, of each window's p99. A stall of the host delays the
/// handful of requests in flight during it; whether that handful is a
/// whole phase's slowest 1% swings the phase's p99 from run to run, while
/// it moves one window's only. A server that cannot keep up moves all.
double windowedP99(const std::vector<double> &Ms, size_t WindowRequests) {
  size_t Windows =
      std::max<size_t>(1, Ms.size() / std::max<size_t>(1, WindowRequests));
  std::vector<double> P99s;
  for (size_t W = 0; W < Windows; ++W)
    P99s.push_back(percentile(
        std::vector<double>(Ms.begin() + W * Ms.size() / Windows,
                            Ms.begin() + (W + 1) * Ms.size() / Windows),
        0.99));
  return median(P99s);
}

/// Answered-ok requests per second of the phase: from the first due
/// time to the last response read.
double achievedRate(const std::vector<Outcome> &Out) {
  uint64_t Ok = 0;
  double Last = 0;
  for (const Outcome &O : Out) {
    Ok += O.Ok;
    Last = std::max(Last, O.Read);
  }
  return Last > 0 ? Ok / Last : 0.0;
}

/// Server counters, for deltas over a phase.
struct ServerCounters {
  uint64_t Hits, Misses, Saved, Restored, Invalidated, Fallbacks, Reuses,
      GcRemoved;
  static ServerCounters of(MetricsRegistry &M) {
    return {M.counterValue("serve.session_hits"),
            M.counterValue("serve.session_misses"),
            M.counterValue("persist.saved"),
            M.counterValue("persist.restored_nodes"),
            M.counterValue("persist.invalidated_nodes"),
            M.counterValue("persist.fallback"),
            M.counterValue("session.engine_reuses"),
            M.counterValue("serve.gc_files_removed")};
  }
};

/// Times the persist layer's public load and save on the workload's
/// own documents: save after a cold run, then load into the engine of
/// the next keystroke. The server does both inside opaque requests.
void persistProbe(const Inputs &In, const fs::path &Dir, unsigned Docs,
                  test::ProgramGenerator &Editor, double &LoadMs,
                  double &SaveMs) {
  std::vector<double> Loads, Saves;
  AnalysisOptions Opts;
  for (unsigned D = 0; D < Docs && D < In.Documents; ++D) {
    std::string Shard = (Dir / ("probe-" + std::to_string(D))).string();
    std::unique_ptr<Engine> Old = buildEngine(In.Sources[D], Opts);
    std::unique_ptr<Engine> New =
        buildEngine(Editor.mutate(In.Sources[D]), Opts);
    if (!Old || !New)
      continue;
    Old->An->run();
    Clock::time_point T0 = Clock::now();
    persist::saveWarmCache(Shard, *Old->An);
    Clock::time_point T1 = Clock::now();
    persist::loadWarmCache(Shard, *New->An);
    Clock::time_point T2 = Clock::now();
    Saves.push_back(1000.0 * secondsBetween(T0, T1));
    Loads.push_back(1000.0 * secondsBetween(T1, T2));
  }
  LoadMs = mean(Loads);
  SaveMs = mean(Saves);
}

} // namespace

Report runServeEdit(const WorkloadConfig &W) {
  Report Rep;
  // The client's sleeps end when asked, not up to 50 us later.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const double MainRate = W.num("main_rate_rps");
  const double LimitMs = W.num("latency_limit_ms");
  const double Drain = W.num("drain_seconds");
  const std::vector<double> Ladder = W.nums("ladder_rps");
  const size_t Tries = static_cast<size_t>(W.num("rung_tries"));
  const size_t WindowRequests =
      static_cast<size_t>(W.num("p99_window_requests"));
  const double MainSeconds =
      W.Trace ? W.Seconds / 2 : W.Seconds * W.num("main_share");
  const double RungSeconds =
      (W.Seconds - MainSeconds) / std::max<size_t>(1, Ladder.size());

  // Every document is opened cold first, at the main rate, before the
  // measured stream starts. Setup computes the references of the opens
  // and of the main stream; the ladder's are computed after each rung
  // for the requests it sent, since where the ladder stops is not known
  // in advance.
  const size_t Opens = static_cast<size_t>(W.num("documents"));
  const size_t MainRequests =
      static_cast<size_t>(std::llround(MainRate * MainSeconds));
  const size_t Referenced = Opens + (W.Trace ? 2 : 1) * MainRequests;
  size_t Needed = Referenced;
  if (!W.Trace)
    for (double R : Ladder)
      Needed += Tries * static_cast<size_t>(std::llround(R * RungSeconds));

  fs::path Scratch = W.Params.find("scratch_dir")->asString();
  serve::ServerConfig Cfg;
  Cfg.TotalThreads = static_cast<unsigned>(W.num("server_threads"));
  Cfg.SessionCapacity = static_cast<unsigned>(W.num("session_capacity"));
  Cfg.CacheMaxBytes = static_cast<uint64_t>(W.num("cache_max_bytes"));
  Cfg.CacheDir = (Scratch / "cache").string();

  std::vector<double> SetupSeconds;
  Inputs In;
  std::unique_ptr<Daemon> Dmn;
  for (unsigned I = 0, N = static_cast<unsigned>(W.num("setup_repeats"));
       I < N; ++I) {
    Dmn.reset();
    std::error_code EC;
    fs::remove_all(Scratch, EC);
    Clock::time_point T0 = Clock::now();
    In = makeInputs(W, Needed, Referenced);
    fs::create_directories(Cfg.CacheDir);
    Dmn = std::make_unique<Daemon>(Cfg);
    SetupSeconds.push_back(secondsBetween(T0, Clock::now()));
  }

  MetricsRegistry &M = Dmn->server().metrics();
  size_t Next = 0;
  size_t Outstanding = 0;
  std::vector<Outcome> Open = runPhase(*Dmn, In, Next, MainRate,
                                       Opens / MainRate, Drain, Rep,
                                       Outstanding);
  Rep.Detail.set("cold_open_p50_ms", percentile(latenciesMs(Open, 0.0), 0.5));
  if (!W.Trace) {
    std::vector<Outcome> Main =
        runPhase(*Dmn, In, Next, MainRate, MainSeconds, Drain, Rep,
                 Outstanding);
    double MissingMs = 1000.0 * (MainSeconds + Drain);
    std::vector<double> L = latenciesMs(Main, MissingMs);
    uint64_t Within = 0;
    for (size_t K = 0; K < Main.size(); ++K)
      Within += Main[K].Ok && L[K] <= LimitMs;
    // A rate holds when every answer is ok and correct, the p99 (as
    // reported: the median of its windows') meets the limit, and no more
    // requests were queued at the last send than the limit lets drain.
    auto Holds = [&](const std::vector<Outcome> &Out,
                     const std::vector<double> &Ms, double Rate,
                     size_t Queued) {
      bool AllOk = true;
      for (const Outcome &O : Out)
        AllOk &= O.Ok;
      return AllOk && windowedP99(Ms, WindowRequests) <= LimitMs &&
             Queued <= std::max(2.0, Rate * LimitMs / 1000.0);
    };
    // The main rate is the ladder's first rung; above it, ascending fixed
    // rates, each drained before the next. sustained_rps is the highest
    // rung that holds; the ladder stops at the first that does not. A
    // rung gets Tries tries before it counts as failed: a stall of the
    // host at its end queues enough requests to fail a two-second rung,
    // while a rate the server cannot sustain fails every try.
    double Sustained = Holds(Main, L, MainRate, Outstanding) ? MainRate : 0;
    json::Value Rungs = json::Value::array();
    bool Held = Sustained > 0;
    for (size_t R = 0, Tried = 0; Held && R < Ladder.size();) {
      const double Rate = Ladder[R];
      size_t Queued = 0;
      std::vector<Outcome> Rung =
          runPhase(*Dmn, In, Next, Rate, RungSeconds, Drain, Rep, Queued);
      std::vector<double> RL =
          latenciesMs(Rung, 1000.0 * (RungSeconds + Drain));
      double P99 = windowedP99(RL, WindowRequests);
      Held = Holds(Rung, RL, Rate, Queued);
      ++Tried;
      json::Value Row = json::Value::object();
      Row.set("rps", Rate);
      Row.set("requests", static_cast<uint64_t>(Rung.size()));
      Row.set("achieved_rps", achievedRate(Rung));
      Row.set("p50_ms", percentile(RL, 0.5));
      Row.set("p99_ms", P99);
      Row.set("queued_at_last_send", static_cast<uint64_t>(Queued));
      Row.set("holds", Held);
      Rungs.push(std::move(Row));
      if (Held) {
        Sustained = Rate;
        ++R;
        Tried = 0;
      } else if (Tried < Tries) {
        Held = true; // another try
      }
    }
    Rep.Detail.set("ladder", std::move(Rungs));
    // The slowest main-phase requests and where their time went.
    std::vector<size_t> ByLatency(Main.size());
    for (size_t K = 0; K < ByLatency.size(); ++K)
      ByLatency[K] = K;
    std::sort(ByLatency.begin(), ByLatency.end(),
              [&](size_t A, size_t B) { return L[A] > L[B]; });
    json::Value Slowest = json::Value::array();
    for (size_t K = 0; K < std::min<size_t>(12, ByLatency.size()); ++K) {
      const Outcome &O = Main[ByLatency[K]];
      json::Value Row = json::Value::object();
      Row.set("request", static_cast<uint64_t>(ByLatency[K]));
      Row.set("latency_ms", L[ByLatency[K]]);
      Row.set("lag_ms", 1000.0 * (O.Sent - O.Due));
      Row.set("queue_ms", O.QueueMs);
      Row.set("run_ms", O.RunMs);
      Row.set("solve_ms", 1000.0 * O.Counts.SolveSeconds);
      Slowest.push(std::move(Row));
    }
    Rep.Detail.set("slowest_main_requests", std::move(Slowest));
    Rep.Detail.set("main_requests", static_cast<uint64_t>(Main.size()));
    Rep.Detail.set("cache_bytes", treeBytes(Cfg.CacheDir));
    Rep.Detail.set("gc_files_removed", ServerCounters::of(M).GcRemoved);

    Rep.add("setup_s", median(SetupSeconds), "s");
    Rep.add("programs_per_s", achievedRate(Main), "1/s");
    Rep.add("latency_p50_ms", percentile(L, 0.50), "ms");
    Rep.Detail.set("phase_p99_ms", percentile(L, 0.99));
    Rep.add("latency_p99_ms", windowedP99(L, WindowRequests), "ms");
    Rep.add("sustained_rps", Sustained, "1/s");
    Rep.add("slo_met_frac",
            Main.empty() ? 0.0 : static_cast<double>(Within) / Main.size(),
            "frac");
    RequestCounts C;
    for (const Outcome &O : Main)
      C += O.Counts;
    Rep.add("checks_eliminated_frac",
            C.Checks ? static_cast<double>(C.Safe + C.Unreachable) / C.Checks
                     : 1.0,
            "frac");
  } else {
    std::vector<Outcome> Base = runPhase(*Dmn, In, Next, MainRate, MainSeconds,
                                         Drain, Rep, Outstanding);
    ServerCounters Before = ServerCounters::of(M);
    std::vector<Outcome> Traced = runPhase(*Dmn, In, Next, MainRate,
                                           MainSeconds, Drain, Rep,
                                           Outstanding);
    ServerCounters After = ServerCounters::of(M);

    // Every ok request ends with a collection of the whole cache tree
    // after its save (after run_ms, inside the wire residual); time the
    // collector on the tree the phase left, with the server idle.
    std::vector<double> Gcs;
    for (int I = 0; I < 16; ++I) {
      Clock::time_point T0 = Clock::now();
      persist::gcCacheDir(Cfg.CacheDir, Cfg.CacheMaxBytes);
      Gcs.push_back(secondsBetween(T0, Clock::now()));
    }
    const double GcSeconds = median(Gcs);

    // Client-side spans of each traced request, laid from what the
    // response says about the server's share of its time.
    SpanRecorder Rec;
    RequestCounts Counts;
    std::vector<double> Lag;
    double Wire = 0, Queue = 0, Run = 0;
    uint64_t Answered = 0;
    for (size_t K = 0; K < Traced.size(); ++K) {
      const Outcome &O = Traced[K];
      Lag.push_back(1000.0 * (O.Sent - O.Due));
      if (O.Read < 0)
        continue;
      ++Answered;
      Counts += O.Counts;
      double Server = (O.QueueMs + O.RunMs) / 1000.0;
      Wire += O.Read - O.Sent - Server;
      Queue += O.QueueMs;
      Run += O.RunMs;
      int Root = Rec.record("request", K, O.Due, O.Read);
      int Lagged = Rec.supply("loadgen.lag", Root, O.Due, O.Sent - O.Due);
      double At = Rec.spans()[Lagged].End;
      int Q = Rec.supply("serve.queue", Root, At, O.QueueMs / 1000.0);
      At = Rec.spans()[Q].End;
      int R = Rec.supply("serve.run", Root, At, O.RunMs / 1000.0);
      Rec.supply("fixpoint.solve", R, Rec.spans()[R].Start,
                 O.Counts.SolveSeconds);
      At = Rec.spans()[R].End;
      // The rest of the round trip is inferred, not measured, apart from
      // the collection every save is followed by.
      int Wire = Rec.supply("serve.wire", Root, At, O.Read - At);
      Rec.markUnexplained(Wire);
      Rec.supply("persist.gc", Wire, At, GcSeconds);
    }
    TraceSummary S = summarize(Rec);
    double N = Answered ? static_cast<double>(Answered) : 1.0;
    addLayerMetrics(Rep, S, Counts, Answered);
    std::vector<double> BaseL = latenciesMs(Base, 0.0);
    addTraceMetrics(Rep, S, mean(BaseL) / 1000.0);

    uint64_t Requests = Traced.size();
    double PerReq = Requests ? 1.0 / Requests : 0.0;
    Rep.add("serve.queue_ms", Queue / N, "ms");
    Rep.add("serve.run_ms", Run / N, "ms");
    Rep.add("serve.wire_ms", 1000.0 * Wire / N, "ms");
    uint64_t Hits = After.Hits - Before.Hits;
    uint64_t Lookups = Hits + After.Misses - Before.Misses;
    Rep.add("serve.session_hit_frac", Lookups ? double(Hits) / Lookups : 0.0,
            "frac");
    Rep.add("core.engine_reuses", (After.Reuses - Before.Reuses) * PerReq,
            "count");
    Rep.add("persist.saves_per_request", (After.Saved - Before.Saved) * PerReq,
            "count");
    uint64_t Restored = After.Restored - Before.Restored;
    uint64_t Invalid = After.Invalidated - Before.Invalidated;
    Rep.add("persist.restored_frac",
            Restored + Invalid ? double(Restored) / (Restored + Invalid) : 0.0,
            "frac");
    Rep.add("persist.fallbacks", (After.Fallbacks - Before.Fallbacks) * PerReq,
            "count");
    Rep.add("persist.cache_bytes", static_cast<double>(treeBytes(Cfg.CacheDir)),
            "bytes");
    Rep.add("persist.gc_ms", 1000.0 * GcSeconds, "ms");
    Rep.add("loadgen.lag_p99_ms", percentile(Lag, 0.99), "ms");

    double LoadMs = 0, SaveMs = 0;
    test::ProgramGenerator Editor(W.Seed + 0x9e0b);
    persistProbe(In, Scratch / "probe",
                 static_cast<unsigned>(W.num("persist_probe_documents")),
                 Editor, LoadMs, SaveMs);
    Rep.add("persist.load_ms", LoadMs, "ms");
    Rep.add("persist.save_ms", SaveMs, "ms");
    Rep.Detail.set("traced_requests", Requests);
    if (const json::Value *Out = W.Params.find("trace_out"))
      Rec.writeJsonLines(Out->asString());
  }
  Rep.Detail.set("distinct_sources", static_cast<uint64_t>(In.Sources.size()));
  Rep.Detail.set("peak_live_threads",
                 static_cast<uint64_t>(Dmn->server().peakLiveThreads()));
  json::Value Setups = json::Value::array();
  for (double S : SetupSeconds)
    Setups.push(S);
  Rep.Detail.set("setup_seconds", std::move(Setups));
  Dmn.reset();
  std::error_code EC;
  fs::remove_all(Scratch, EC);
  return Rep;
}

} // namespace perfbench
