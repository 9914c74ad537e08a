//===- perfbench/src/DaemonPhase.cpp - Open-loop broptd traffic -----------===//
//
// An in-process broptd (InProcessService: real socket, real framing)
// serving an open loop of independent tenants.  Arrivals follow a seeded
// Poisson schedule at one fixed offered rate, under half of what the
// daemon sustains; each request is timed from when it was due, so a stall
// also charges the requests queued behind it.
//
// The mix and the tenant count are those of bench/bench_service.cpp (64
// clients; per 8 requests, 5 execute, 1 compile, 1 profile_merge or
// profile_export, 1 stats), changed in two ways only: executes are split
// between the fused and the adaptive engine instead of fused and decoded,
// and compiles train on fresh seeded inputs, so each is a cold two-pass
// compile (an artifact-cache miss).  Executes run warm artifacts on
// full-size test inputs.  One client thread sends and receives and the
// daemon runs two workers: within four cores, with one left for the
// daemon's connection readers, whose share otherwise showed up as tail
// latency.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/Client.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <poll.h>
#include <random>
#include <unistd.h>
#include <unordered_map>

using namespace bropt;

namespace perfbench {

namespace {

/// Offered load (requests per second) and the p99 latency limit that
/// goodput counts against.
constexpr double OfferedRate = 400;
constexpr double LatencyLimitMs = 50;
constexpr unsigned TenantCount = 64;
constexpr unsigned DaemonWorkers = 2;
/// Executes per engine and utility before the window opens, so adaptive
/// tier-up and drift recompiles happen in set-up.
constexpr unsigned WarmRounds = 4;
/// How long responses may trail the last send before they count as lost.
constexpr double DrainSeconds = 30;

struct Planned {
  double DueMs;
  RequestKind Kind;
  uint8_t Mode; ///< execute: Interpreter::Mode
  unsigned Tenant;
  size_t Util;
  size_t Fresh; ///< compile: index into FreshInputs
};

class DaemonPhase : public Phase {
public:
  ~DaemonPhase() override { stop(); }
  void setup(RunContext &Ctx, double Seconds) override;
  void measure(RunContext &Ctx, double Seconds) override;
  void report(RunContext &Ctx) override;

private:
  void stop() {
    Tenants.clear();
    Daemon.reset();
  }
  bool ready() const {
    return Daemon && Daemon->ok() && Tenants.size() == TenantCount;
  }
  void statsNow(RunContext &Ctx, ServiceStats &S);
  /// A failed request: counted, and past any latency limit.
  void fail(RunContext &Ctx, const std::string &What);
  ServiceRequest build(const RunContext &Ctx, const Planned &P) const;
  bool check(const Planned &P, const ServiceResponse &R,
             std::string &What) const;

  std::unique_ptr<InProcessService> Daemon;
  std::vector<std::unique_ptr<ServiceClient>> Tenants;
  std::vector<CompileSpec> Warm;
  std::vector<std::string> Keys, Profiles;
  std::vector<Reference> Refs;
  std::vector<std::string> FreshInputs;
  std::vector<Planned> Plan;
  double TotalMs = 0; ///< the schedule's length

  // Measurement state carried across slices.
  struct InFlight {
    size_t Index;
    Clock::time_point Due, Sent;
  };
  std::unordered_map<uint64_t, InFlight> Pending;
  std::vector<pollfd> Fds; ///< per tenant; fd -1 once the connection died
  ServiceStats Before;
  double PlanMs = 0; ///< schedule time where the next slice starts
  size_t Next = 0;
  uint64_t NextSeq = 1, WithinLimit = 0;
  double WindowSeconds = 0;
  std::vector<double> Latency, Lag;
  std::map<RequestKind, std::vector<double>> ServiceMs;
};

ServiceRequest DaemonPhase::build(const RunContext &Ctx,
                                  const Planned &P) const {
  ServiceRequest Q;
  Q.Kind = P.Kind;
  switch (P.Kind) {
  case RequestKind::Execute:
    Q.Spec = Warm[P.Util];
    Q.Input = Ctx.Suite[P.Util].Test;
    Q.Mode = P.Mode;
    break;
  case RequestKind::Compile:
    Q.Spec.Source = std::string(Ctx.Suite[P.Util].Source);
    Q.Spec.TrainingInputs = {FreshInputs[P.Fresh]};
    break;
  case RequestKind::ProfileMerge:
    Q.ProgramKey = Keys[P.Util];
    Q.ProfileData = Profiles[P.Util];
    break;
  case RequestKind::ProfileExport:
    Q.ProgramKey = Keys[P.Util];
    break;
  default:
    break;
  }
  return Q;
}

bool DaemonPhase::check(const Planned &P, const ServiceResponse &R,
                        std::string &What) const {
  What = std::string(requestKindName(P.Kind)) + " request: ";
  if (!R.ok()) {
    What += std::string(responseStatusName(R.Status)) + " " + R.Error;
    return false;
  }
  if (P.Kind == RequestKind::Execute) {
    RunResult Run;
    Run.Trapped = R.Trapped;
    Run.Output = R.Output;
    Run.ExitValue = R.ExitValue;
    What += "output differs from the tree walker on the baseline";
    return matches(Run, Refs[P.Util]);
  }
  if (P.Kind == RequestKind::ProfileExport) {
    What += "empty profile";
    return !R.ProfileData.empty();
  }
  return true;
}

void DaemonPhase::setup(RunContext &Ctx, double Seconds) {
  stop();
  TotalMs = Seconds * 1000;
  Pending.clear();
  Fds.clear();
  Before = ServiceStats();
  PlanMs = 0;
  Next = 0;
  NextSeq = 1;
  WithinLimit = 0;
  WindowSeconds = 0;
  Latency.clear();
  Lag.clear();
  ServiceMs.clear();
  const size_t N = Ctx.Suite.size();
  Refs.clear();
  for (const Utility &U : Ctx.Suite)
    Refs.push_back(referenceRun(Ctx, U.Source, U.Test));

  // A short relative path: socket paths are limited to ~100 bytes.
  static unsigned Instance = 0;
  std::filesystem::create_directories(".bench_run");
  ServiceOptions Options;
  Options.SocketPath = ".bench_run/broptd-" + std::to_string(::getpid()) +
                       "-" + std::to_string(Instance++) + ".sock";
  Options.Threads = DaemonWorkers;
  Daemon = std::make_unique<InProcessService>(Options);
  if (!Daemon->ok()) {
    Ctx.Ops.fail("daemon start: " + Daemon->error());
    return;
  }
  for (unsigned T = 0; T < TenantCount; ++T) {
    std::string Error;
    std::unique_ptr<ServiceClient> C = Daemon->connect(&Error);
    if (!C) {
      Ctx.Ops.fail("tenant connect: " + Error);
      return;
    }
    Tenants.push_back(std::move(C));
  }

  // Warm artifacts: each utility compiled on its training input, then run
  // WarmRounds times per engine the mix uses.  Profiles for merges come
  // from pass 1.
  Warm.assign(N, CompileSpec());
  Keys.assign(N, "");
  Profiles.assign(N, "");
  for (size_t I = 0; I < N; ++I) {
    const Utility &U = Ctx.Suite[I];
    Warm[I].Source = std::string(U.Source);
    Warm[I].TrainingInputs = {U.Train};
    Keys[I] = programKeyFor(Warm[I]);
    Pass1Result Pass1 = runPass1(U.Source, U.Train, CompileOptions());
    if (!Pass1.ok()) {
      Ctx.Ops.fail("pass 1 of " + U.Name + ": " + Pass1.Error);
      continue;
    }
    Profiles[I] = Pass1.Profile.serializeBinary();
    for (unsigned Round = 0; Round < WarmRounds; ++Round)
      for (uint8_t Mode : {uint8_t(Interpreter::Mode::Fused),
                           uint8_t(Interpreter::Mode::Adaptive)}) {
        Planned P{0, RequestKind::Execute, Mode, 0, I, 0};
        ServiceResponse R;
        std::string Error, What;
        bool Ok = Tenants[Round % TenantCount]->roundTrip(build(Ctx, P), R,
                                                          &Error) &&
                  check(P, R, What);
        Ctx.Ops.add(Ok, "warm-up " + U.Name + ": " + Error + What);
      }
  }

  // The arrival schedule and the inputs its compiles train on: exactly
  // OfferedRate * Seconds arrivals, uniform order statistics over the
  // window (a Poisson process conditioned on its count), so goodput does
  // not vary with how many arrivals a seed happens to draw.
  std::mt19937_64 Rng(Ctx.Seed * 0x9e3779b97f4a7c15ull + 17);
  std::uniform_real_distribution<double> When(0, Seconds * 1000);
  std::uniform_int_distribution<unsigned> Tenant(0, TenantCount - 1);
  std::vector<double> Dues(static_cast<size_t>(OfferedRate * Seconds));
  for (double &Due : Dues)
    Due = When(Rng);
  std::sort(Dues.begin(), Dues.end());
  // bench_service's mix in exact shares (sixteenths), shuffled: 5 fused
  // and 5 adaptive execute, 2 compile, 1 profile_merge, 1 profile_export,
  // 2 stats.
  struct Share {
    unsigned Sixteenths;
    RequestKind Kind;
    Interpreter::Mode Mode;
  };
  const Share Mix[] = {
      {5, RequestKind::Execute, Interpreter::Mode::Fused},
      {5, RequestKind::Execute, Interpreter::Mode::Adaptive},
      {2, RequestKind::Compile, Interpreter::Mode::Fused},
      {1, RequestKind::ProfileMerge, Interpreter::Mode::Fused},
      {1, RequestKind::ProfileExport, Interpreter::Mode::Fused},
      {2, RequestKind::Stats, Interpreter::Mode::Fused}};
  // Each kind cycles through the utilities, so every seed asks for the
  // same work and only the order and timing vary.
  Plan.clear();
  for (const Share &S : Mix)
    for (size_t I = 0; I < Dues.size() * S.Sixteenths / 16; ++I)
      Plan.push_back(
          Planned{0, S.Kind, uint8_t(S.Mode), Tenant(Rng), I % N, 0});
  Plan.resize(Dues.size(), Planned{0, RequestKind::Stats, 0, 0, 0, 0});
  std::shuffle(Plan.begin(), Plan.end(), Rng);
  FreshInputs.clear();
  for (size_t I = 0; I < Plan.size(); ++I) {
    Plan[I].DueMs = Dues[I];
    if (Plan[I].Kind == RequestKind::Compile) {
      Plan[I].Fresh = FreshInputs.size();
      FreshInputs.push_back(
          freshTraining(Plan[I].Util, Ctx.Seed, FreshInputs.size()));
    }
  }
}

void DaemonPhase::statsNow(RunContext &Ctx, ServiceStats &S) {
  ServiceRequest Q;
  Q.Kind = RequestKind::Stats;
  ServiceResponse R;
  std::string Error;
  bool Ok = Tenants[0]->roundTrip(Q, R, &Error) && R.ok();
  Ctx.Ops.add(Ok, "stats request: " + Error + R.Error);
  S = R.Stats;
}

void DaemonPhase::measure(RunContext &Ctx, double Seconds) {
  if (!ready())
    return; // set-up already recorded the failure
  if (Fds.empty()) {
    statsNow(Ctx, Before);
    for (const auto &T : Tenants)
      Fds.push_back(pollfd{T->fd(), POLLIN, 0});
  }
  // This slice serves the arrivals due in [SliceBegin, SliceEnd) of the
  // schedule, shifted to start now; the last slice serves all the rest.
  const double SliceBegin = PlanMs;
  PlanMs += Seconds * 1000;
  const double SliceEnd = PlanMs >= TotalMs - 1 ? INFINITY : PlanMs;
  const Clock::time_point Start = Clock::now();
  auto dueAt = [&](size_t I) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           Plan[I].DueMs - SliceBegin));
  };
  auto dueNow = [&] {
    return Next < Plan.size() && Plan[Next].DueMs < SliceEnd;
  };
  const Clock::time_point DrainDeadline = deadlineIn(Seconds + DrainSeconds);
  Clock::time_point LastDone = Start;
  while (dueNow() || !Pending.empty()) {
    Clock::time_point Now = Clock::now();
    if (dueNow() && dueAt(Next) <= Now) {
      const Planned &P = Plan[Next];
      ServiceRequest Q = build(Ctx, P);
      Q.Seq = NextSeq++;
      Lag.push_back(msBetween(dueAt(Next), Now));
      std::string Error;
      if (Fds[P.Tenant].fd >= 0 && Tenants[P.Tenant]->send(Q, &Error))
        Pending[Q.Seq] = InFlight{Next, dueAt(Next), Now};
      else
        fail(Ctx, "send: " + Error);
      ++Next;
      continue;
    }
    if (Now >= DrainDeadline)
      break;
    Clock::time_point Wake = dueNow() ? dueAt(Next) : DrainDeadline;
    auto Wait =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Wake - Now);
    timespec Timeout{static_cast<time_t>(Wait.count() / 1000000000),
                     static_cast<long>(Wait.count() % 1000000000)};
    if (::ppoll(Fds.data(), Fds.size(), &Timeout, nullptr) <= 0)
      continue;
    for (size_t T = 0; T < Fds.size(); ++T) {
      if (Fds[T].fd < 0 || !(Fds[T].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ServiceResponse R;
      std::string Error;
      bool Received = Tenants[T]->receive(R, &Error);
      Clock::time_point Done = Clock::now();
      LastDone = Done;
      if (!Received) {
        // A dead connection loses everything still pending on it.
        fail(Ctx, "receive: " + Error);
        Fds[T].fd = -1;
        for (auto It = Pending.begin(); It != Pending.end();)
          if (Plan[It->second.Index].Tenant == T) {
            fail(Ctx, "request lost with its connection");
            It = Pending.erase(It);
          } else {
            ++It;
          }
        continue;
      }
      auto It = Pending.find(R.Seq);
      if (It == Pending.end()) {
        fail(Ctx, "response to an unknown request");
        continue;
      }
      const Planned &P = Plan[It->second.Index];
      double Ms = msBetween(It->second.Due, Done);
      std::string What;
      bool Ok = check(P, R, What);
      Ctx.Ops.add(Ok, What);
      Latency.push_back(Ok ? Ms : DrainSeconds * 1000);
      if (Ok && Ms <= LatencyLimitMs)
        ++WithinLimit;
      ServiceMs[P.Kind].push_back(msBetween(It->second.Sent, Done));
      Pending.erase(It);
    }
  }
  for (size_t I = 0; I < Pending.size(); ++I)
    fail(Ctx, "no response within the drain deadline");
  Pending.clear();
  WindowSeconds += msBetween(Start, LastDone) / 1000;
}

void DaemonPhase::fail(RunContext &Ctx, const std::string &What) {
  Ctx.Ops.fail(What);
  Latency.push_back(DrainSeconds * 1000);
}

void DaemonPhase::report(RunContext &Ctx) {
  ServiceStats After = Before;
  if (ready() && !Fds.empty())
    statsNow(Ctx, After);
  stop();

  // Per second of the measured windows: the schedule plus the drain of
  // each slice's last responses.
  Ctx.EndToEnd.set("goodput_rps",
                   WindowSeconds > 0 ? double(WithinLimit) / WindowSeconds
                                     : 0,
                   "1/s");

  Metrics &L = Ctx.Layers;
  // Latency is reported per layer: when the hypervisor steals time from
  // the guest, queues build behind the two workers, and the median moved
  // fourfold between runs (README.md, Noise), beyond any bound a gate
  // could use.  goodput_rps carries the latency limit end to end.
  L.set("req_ms_p50", percentile(Latency, 50), "ms");
  L.set("req_ms_p99", percentile(Latency, 99), "ms");
  L.set("service.requests", double(Plan.size()), "count");
  L.set("gen.lag_ms_p99", percentile(Lag, 99), "ms");
  L.set("service.execute_ms_p50", median(ServiceMs[RequestKind::Execute]),
        "ms");
  L.set("service.compile_ms_p50", median(ServiceMs[RequestKind::Compile]),
        "ms");
  L.set("service.profile_merge_ms_p50",
        median(ServiceMs[RequestKind::ProfileMerge]), "ms");
  L.set("service.profile_export_ms_p50",
        median(ServiceMs[RequestKind::ProfileExport]), "ms");
  uint64_t Accepted = After.RequestsAccepted - Before.RequestsAccepted;
  L.set("service.queue_wait_us_mean",
        Accepted ? double(After.QueueWaitMicrosTotal -
                          Before.QueueWaitMicrosTotal) /
                       double(Accepted)
                 : 0,
        "us");
  L.set("service.queue_wait_us_max", double(After.QueueWaitMicrosMax), "us");
  L.set("service.queue_high_water", double(After.QueueHighWaterSeen),
        "count");
  uint64_t Hits = After.CompileHits - Before.CompileHits;
  uint64_t Misses = After.CompileMisses - Before.CompileMisses;
  L.set("service.compile_hits", double(Hits), "count");
  L.set("service.compile_misses", double(Misses), "count");
  L.set("service.hit_ratio",
        Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  L.set("service.rejected",
        double(After.RequestsRejected - Before.RequestsRejected), "count");
  L.set("service.protocol_errors",
        double(After.ProtocolErrors - Before.ProtocolErrors), "count");
  L.set("service.merge_conflicts",
        double(After.ProfileMergeConflicts - Before.ProfileMergeConflicts),
        "count");
  L.set("service.warm_starts", double(After.WarmStarts - Before.WarmStarts),
        "count");
  L.set("service.learned_exports",
        double(After.LearnedExports - Before.LearnedExports), "count");
}

} // namespace

std::unique_ptr<Phase> makeDaemonPhase() {
  return std::make_unique<DaemonPhase>();
}

} // namespace perfbench
