//===- perfbench/src/CompilePhase.cpp - Serial compile loop ---------------===//
//
// A closed loop, one compile at a time, of compileWithReordering + emitC
// over the 17 utilities under five configurations: Sets I-IV and
// misprediction-aware Set IV.  Almost all the work is in the compiler
// layers and in the interpreted training and edge-measurement runs; no
// native code runs.
//
// Traced runs replay the same compile from its public steps (runPass1,
// profile serialize/deserialize, compileWithProfile, applyMeasuredLayout)
// so each gets a span, and hold the replay to byte-identical emitC text.
// The front end (compileSource) gets its span from a separate call made
// before the compile is timed: runPass1 and compileWithProfile run it
// themselves, so the replay itself calls it no more often than
// compileWithReordering does.
//
// The loop cycles through the 85 compiles and carries on from one slice
// to the next where it stopped, so the slices take the time they are
// given and each compile's samples spread over the whole run.  Each
// compile's latency is the fastest of its samples, so interference from
// other work on the host does not leak into the percentiles over the 85
// compiles.
//
// After the loop, the first pass's modules run once on the test inputs
// under the fused engine with a fresh paper predictor: the deterministic
// code-quality counts, and the output check against the tree walker.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/CEmitter.h"
#include "cost/MachineModel.h"
#include "exec/ExecBackend.h"
#include "lang/Lowering.h"
#include "predict/Zoo.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace bropt;

namespace perfbench {

namespace {

struct Config {
  const char *Name;
  CompileOptions Options;
};

std::vector<Config> configurations() {
  std::vector<Config> Configs;
  const char *Names[] = {"set1", "set2", "set3", "set4"};
  const SwitchHeuristicSet Sets[] = {
      SwitchHeuristicSet::SetI, SwitchHeuristicSet::SetII,
      SwitchHeuristicSet::SetIII, SwitchHeuristicSet::SetIV};
  for (size_t I = 0; I < 4; ++I) {
    CompileOptions O;
    O.HeuristicSet = Sets[I];
    Configs.push_back({Names[I], O});
  }
  CompileOptions Aware;
  Aware.HeuristicSet = SwitchHeuristicSet::SetIV;
  Aware.Predictor = "paper";
  Configs.push_back({"set4_aware", Aware});
  return Configs;
}

/// The front end alone, under its own span.
void traceFrontEnd(Tracer &T, const Utility &U, std::string &Error) {
  ScopedSpan S(T, "lang.compile_source");
  std::string FrontEndError;
  if (!compileSource(U.Source, &FrontEndError))
    Error = "front end: " + FrontEndError;
}

/// The compile as compileWithReordering performs it, one public step at a
/// time, each under its own span.
CompileResult replayCompile(Tracer &T, const Utility &U,
                            const CompileOptions &Options,
                            std::string &Error) {
  Pass1Result Pass1;
  {
    ScopedSpan S(T, "driver.pass1");
    Pass1 = runPass1(U.Source, U.Train, Options);
  }
  CompileResult R;
  if (!Pass1.ok()) {
    R.Error = Pass1.Error;
    return R;
  }
  std::string Text;
  {
    ScopedSpan S(T, "profile.serialize");
    Text = Pass1.Profile.serializeText();
  }
  T.note("profile.text_kb", static_cast<double>(Text.size()) / 1024.0);
  ProfileDB Profile;
  {
    ScopedSpan S(T, "profile.deserialize");
    if (!Profile.deserialize(Text, &Error)) {
      R.Error = "profile round trip: " + Error;
      return R;
    }
  }
  {
    ScopedSpan S(T, "driver.pass2");
    R = compileWithProfile(U.Source, Profile, Options);
  }
  {
    ScopedSpan S(T, "driver.layout");
    applyMeasuredLayout(R, {U.Train}, Profile, Options);
  }
  return R;
}

class CompilePhase : public Phase {
public:
  void setup(RunContext &Ctx, double) override {
    Configs = configurations();
    Refs.clear();
    for (const Utility &U : Ctx.Suite)
      Refs.push_back(referenceRun(Ctx, U.Source, U.Test));
    const size_t Items = Configs.size() * Ctx.Suite.size();
    Hashes.assign(Items, 0);
    Modules.clear();
    Modules.resize(Items);
    Fastest.assign(Items, 0);
    Samples = 0;
    TracedMs = UntracedMs = 0;
    Reorder = ReorderStats();
    Switches = SwitchLoweringStats();
    Pass = 0;
    Next = 0;
  }

  void measure(RunContext &Ctx, double Seconds) override;
  void report(RunContext &Ctx) override;

private:
  /// Times the next compile in the cycle over all of them.
  void step(RunContext &Ctx);

  std::vector<Config> Configs;
  std::vector<Reference> Refs;
  /// Per compile (configuration-major): first pass's emitC hash and
  /// module, and the fastest latency over all passes.
  std::vector<uint64_t> Hashes;
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<double> Fastest;
  size_t Samples = 0;
  double TracedMs = 0, UntracedMs = 0;
  ReorderStats Reorder;
  SwitchLoweringStats Switches;
  /// Passes completed over all compiles, and the next compile to time.
  unsigned Pass = 0;
  size_t Next = 0;
};

void CompilePhase::measure(RunContext &Ctx, double Seconds) {
  Clock::time_point Deadline = deadlineIn(Seconds);
  do
    step(Ctx);
  while (Clock::now() < Deadline);
}

void CompilePhase::step(RunContext &Ctx) {
  Tracer &T = Ctx.Trace;
  const size_t N = Ctx.Suite.size();
  const size_t Item = Next, C = Item / N, I = Item % N;
  const unsigned ItemPass = Pass;
  if (++Next == Configs.size() * N) {
    Next = 0;
    ++Pass;
  }
  const Utility &U = Ctx.Suite[I];
  const CompileOptions &Options = Configs[C].Options;
  std::string What = U.Name + "/" + Configs[C].Name;
  std::string Error, Text;
  if (T.enabled())
    traceFrontEnd(T, U, Error);
  CompileResult R;
  Clock::time_point Start = Clock::now();
  if (T.enabled())
    R = replayCompile(T, U, Options, Error);
  else
    R = compileWithReordering(U.Source, U.Train, Options);
  if (R.ok() && Error.empty()) {
    ScopedSpan S(T, "codegen.emit");
    Text = emitC(*R.M);
  }
  double Ms = msBetween(Start, Clock::now());
  Fastest[Item] = ItemPass == 0 ? Ms : std::min(Fastest[Item], Ms);
  ++Samples;
  if (!R.ok() || !Error.empty()) {
    Ctx.Ops.fail("compile " + What + ": " + R.Error + Error);
    return;
  }
  T.note("codegen.emit_kb", static_cast<double>(Text.size()) / 1024.0);
  uint64_t Hash = fnv1a(Text);
  if (ItemPass > 0) {
    Ctx.Ops.add(Hash == Hashes[Item],
                "compile " + What + " is not deterministic");
    return;
  }
  if (T.enabled()) {
    // The replayed steps must be exactly the compile they stand for.
    Clock::time_point RefStart = Clock::now();
    CompileResult Ref = compileWithReordering(U.Source, U.Train, Options);
    std::string RefText = Ref.ok() ? emitC(*Ref.M) : std::string();
    UntracedMs += msBetween(RefStart, Clock::now());
    TracedMs += Ms;
    Ctx.Ops.add(Ref.ok() && RefText == Text,
                "traced replay of " + What +
                    " emitted C that differs from "
                    "compileWithReordering");
  } else {
    Ctx.Ops.ok();
  }
  Hashes[Item] = Hash;
  Reorder.Detected += R.Stats.Detected;
  Reorder.Reordered += R.Stats.Reordered;
  Reorder.OptimalTrees += R.Stats.OptimalTrees;
  Reorder.ChainModelCost += R.Stats.ChainModelCost;
  Reorder.ChosenModelCost += R.Stats.ChosenModelCost;
  Switches.JumpTables += R.SwitchStats.JumpTables;
  Switches.BinarySearches += R.SwitchStats.BinarySearches;
  Switches.LinearSearches += R.SwitchStats.LinearSearches;
  Modules[Item] = std::move(R.M);
}

void CompilePhase::report(RunContext &Ctx) {
  // Every compile needs a latency and a module, however short the slices.
  while (Pass == 0)
    step(Ctx);
  Tracer &T = Ctx.Trace;
  const size_t N = Ctx.Suite.size();

  // Code quality of the reordered builds on the test inputs.
  const MachineModel Ultra = MachineModel::sparcUltraLike();
  uint64_t Insts = 0, Mispredicts = 0, Cycles = 0, Static = 0;
  for (size_t C = 0; C < Configs.size(); ++C) {
    uint64_t ConfigInsts = 0, ConfigMispredicts = 0;
    for (size_t I = 0; I < N; ++I) {
      const Module *M = Modules[C * N + I].get();
      if (!M)
        continue; // the compile already counted as failed
      std::unique_ptr<Predictor> P = makePredictor("paper");
      ExecRequest Req;
      Req.Input = Ctx.Suite[I].Test;
      Req.AttachedPredictor = P.get();
      RunResult R = executeModule(*M, Interpreter::Mode::Fused, Req);
      Ctx.Ops.add(matches(R, Refs[I]),
                  "output of " + Ctx.Suite[I].Name + "/" + Configs[C].Name +
                      " differs from the tree walker on the baseline");
      ConfigInsts += R.Counts.TotalInsts;
      ConfigMispredicts += R.Prediction.Mispredictions;
      Cycles += computeCycles(Ultra, R.Counts, R.Prediction.Mispredictions);
      Static += M->codeSize();
    }
    Insts += ConfigInsts;
    Mispredicts += ConfigMispredicts;
    std::string Name = Configs[C].Name;
    Ctx.Layers.set("sim.dyn_insts." + Name, double(ConfigInsts), "count");
    Ctx.Layers.set("predict.mispredictions." + Name, double(ConfigMispredicts),
                   "count");
  }

  Metrics &E = Ctx.EndToEnd;
  E.set("compile_ms_p50", percentile(Fastest, 50), "ms");
  E.set("compile_ms_p90", percentile(Fastest, 90), "ms");
  E.set("dyn_insts", double(Insts), "count");
  E.set("mispredictions", double(Mispredicts), "count");
  E.set("ultra_cycles", double(Cycles), "cycles");
  E.set("static_insts", double(Static), "count");

  Metrics &L = Ctx.Layers;
  L.set("driver.compile_samples", double(Samples), "count");
  L.set("core.sequences_detected", Reorder.Detected, "count");
  L.set("core.sequences_reordered", Reorder.Reordered, "count");
  L.set("opt.jump_tables", Switches.JumpTables, "count");
  L.set("opt.binary_searches", Switches.BinarySearches, "count");
  L.set("opt.linear_searches", Switches.LinearSearches, "count");
  L.set("cost.optimal_trees", Reorder.OptimalTrees, "count");
  L.set("cost.chain_model_cost", Reorder.ChainModelCost, "cycles");
  L.set("cost.chosen_model_cost", Reorder.ChosenModelCost, "cycles");
  const char *Spans[] = {"lang.compile_source", "driver.pass1",
                         "driver.pass2",        "driver.layout",
                         "profile.serialize",   "profile.deserialize",
                         "codegen.emit"};
  for (const char *Name : Spans)
    L.set(std::string(Name) + "_ms", median(T.durationsMs(Name)), "ms");
  L.set("profile.text_kb", median(T.notes("profile.text_kb")), "KiB");
  L.set("codegen.emit_kb", median(T.notes("codegen.emit_kb")), "KiB");
  L.set("trace.overhead_pct",
        UntracedMs > 0 ? (TracedMs / UntracedMs - 1) * 100 : 0, "%");
}

} // namespace

std::unique_ptr<Phase> makeCompilePhase() {
  return std::make_unique<CompilePhase>();
}

} // namespace perfbench
