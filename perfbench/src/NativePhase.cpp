//===- perfbench/src/NativePhase.cpp - Base vs reordered on silicon -------===//
//
// The paper's claim on real hardware.  Set-up compiles the baseline
// (compileBaseline) and reordered (compileWithReordering, Set I) builds
// of all 17 utilities and turns both into machine code through
// NativeRunner; the measurement runs them natively, single-threaded,
// paired and interleaved (base and reordered back to back, alternating
// which goes first), on the seeded test input repeated so each run lasts
// milliseconds.  Per program the ratio is fastest base / fastest
// reordered run: on a host shared with other work, a run's time is its
// own cost plus whatever interference it met, so the fastest of many runs
// is the steady estimate of its cost (README.md, Noise).
// exec.native_iqr_pct states the spread of the per-round ratios.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/NativeRunner.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

using namespace bropt;

namespace perfbench {

namespace {

/// Test-input repetitions per native run (each run then lasts 1-4 ms).
constexpr unsigned Repeat = 4;
/// Set-up threads; each owns a NativeRunner, whose compiles serialize.
constexpr unsigned SetupThreads = 4;

struct Program {
  std::string Input;
  Reference Ref;
  std::shared_ptr<const NativeProgram> Base, Reordered;
};

class NativePhase : public Phase {
public:
  void setup(RunContext &Ctx, double) override;
  void measure(RunContext &Ctx, double Seconds) override;
  void report(RunContext &Ctx) override;

private:
  bool runChecked(RunContext &Ctx, const NativeProgram &P, const Program &Prog,
                  const std::string &What, double &Ms);

  std::vector<std::unique_ptr<NativeRunner>> Runners;
  std::vector<Program> Programs;
  /// Per program: run times of each build, and base / reordered per round.
  std::vector<std::vector<double>> BaseMs, ReorderedMs, Ratios;
  unsigned Rounds = 0;
};

void NativePhase::setup(RunContext &Ctx, double) {
  const size_t N = Ctx.Suite.size();
  Programs.assign(N, Program());
  BaseMs.assign(N, {});
  ReorderedMs.assign(N, {});
  Ratios.assign(N, {});
  Rounds = 0;
  Runners.clear();
  for (unsigned W = 0; W < SetupThreads; ++W)
    Runners.push_back(std::make_unique<NativeRunner>());
  unsigned Copies = Ctx.Small ? 1 : Repeat;

  auto Work = [&](unsigned W) {
    // Utility I always builds on runner I % SetupThreads, so a reordered
    // build whose C text equals its baseline's is a cache hit.
    for (size_t I = W; I < N; I += SetupThreads) {
      const Utility &U = Ctx.Suite[I];
      Program &P = Programs[I];
      for (unsigned C = 0; C < Copies; ++C)
        P.Input += U.Test;
      P.Ref = referenceRun(Ctx, U.Source, P.Input);
      CompileOptions Options;
      CompileResult Base = compileBaseline(U.Source, Options);
      CompileResult Reordered =
          compileWithReordering(U.Source, U.Train, Options);
      if (!Base.ok() || !Reordered.ok()) {
        Ctx.Ops.fail("compile " + U.Name + ": " + Base.Error +
                     Reordered.Error);
        continue;
      }
      std::string Error;
      {
        ScopedSpan S(Ctx.Trace, "codegen.prepare");
        P.Base = Runners[W]->prepare(*Base.M, &Error);
      }
      {
        ScopedSpan S(Ctx.Trace, "codegen.prepare");
        P.Reordered = Runners[W]->prepare(*Reordered.M, &Error);
      }
      if (!P.Base || !P.Reordered)
        Ctx.Ops.fail("native build of " + U.Name + ": " + Error);
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < SetupThreads; ++W)
    Threads.emplace_back(Work, W);
  for (std::thread &T : Threads)
    T.join();
}

bool NativePhase::runChecked(RunContext &Ctx, const NativeProgram &P,
                             const Program &Prog, const std::string &What,
                             double &Ms) {
  Clock::time_point Start = Clock::now();
  RunResult R = P.run(Prog.Input);
  Ms = msBetween(Start, Clock::now());
  bool Ok = matches(R, Prog.Ref);
  Ctx.Ops.add(Ok, "native run of " + What +
                      " differs from the tree walker on the baseline");
  return Ok;
}

void NativePhase::measure(RunContext &Ctx, double Seconds) {
  const size_t N = Programs.size();
  Clock::time_point Deadline = deadlineIn(Seconds);
  do {
    for (size_t I = 0; I < N; ++I) {
      const Program &P = Programs[I];
      if (!P.Base || !P.Reordered)
        continue;
      const std::string &Name = Ctx.Suite[I].Name;
      double B = 0, R = 0;
      bool Ok;
      if (Rounds % 2 == 0)
        Ok = runChecked(Ctx, *P.Base, P, Name + " (base)", B) &
             runChecked(Ctx, *P.Reordered, P, Name + " (reordered)", R);
      else
        Ok = runChecked(Ctx, *P.Reordered, P, Name + " (reordered)", R) &
             runChecked(Ctx, *P.Base, P, Name + " (base)", B);
      if (!Ok)
        continue;
      BaseMs[I].push_back(B);
      ReorderedMs[I].push_back(R);
      Ratios[I].push_back(B / R);
    }
    ++Rounds;
  } while (Clock::now() < Deadline);
}

void NativePhase::report(RunContext &Ctx) {
  const size_t N = Programs.size();
  double SuiteMs = 0, BaseSuiteMs = 0, LogSum = 0, Worst = 0;
  std::vector<double> Iqr;
  size_t Measured = 0;
  for (size_t I = 0; I < N; ++I) {
    if (ReorderedMs[I].empty())
      continue;
    double B = percentile(BaseMs[I], 0), R = percentile(ReorderedMs[I], 0);
    double Ratio = B / R;
    SuiteMs += R;
    BaseSuiteMs += B;
    LogSum += std::log(Ratio);
    Worst = Measured == 0 ? Ratio : std::min(Worst, Ratio);
    ++Measured;
    Iqr.push_back((percentile(Ratios[I], 75) - percentile(Ratios[I], 25)) /
                  median(Ratios[I]) * 100);
    Ctx.Layers.set("exec.native_ratio." + Ctx.Suite[I].Name, Ratio, "ratio");
  }
  Metrics &E = Ctx.EndToEnd;
  E.set("native_suite_ms", SuiteMs, "ms");
  E.set("native_speedup", Measured ? std::exp(LogSum / Measured) : 0, "ratio");
  E.set("native_worst_ratio", Worst, "ratio");

  Metrics &L = Ctx.Layers;
  L.set("exec.native_base_ms", BaseSuiteMs, "ms");
  L.set("exec.native_iqr_pct", median(Iqr), "%");
  L.set("exec.native_rounds", Rounds, "count");
  uint64_t Builds = 0, Hits = 0;
  for (const auto &R : Runners) {
    NativeRunnerStats S = R->stats();
    Builds += S.Compiles;
    Hits += S.CacheHits;
  }
  L.set("codegen.cc_builds", double(Builds), "count");
  L.set("codegen.cache_hits", double(Hits), "count");
  L.set("codegen.cc_ms_p50", median(Ctx.Trace.durationsMs("codegen.prepare")),
        "ms");
}

} // namespace

std::unique_ptr<Phase> makeNativePhase() {
  return std::make_unique<NativePhase>();
}

} // namespace perfbench
