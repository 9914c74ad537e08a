//===- perfbench/src/Common.cpp - Shared benchmark infrastructure ---------===//

#include "Common.h"

#include "exec/ExecBackend.h"
#include "workloads/Inputs.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>

using namespace bropt;

namespace perfbench {

namespace {

/// Standard text size of workloads/Workloads.cpp.
constexpr size_t TextSize = 40000;

/// The generator of each utility's training and test stream, in the
/// paper's Table 3 order (as workloads/Workloads.cpp pairs them).
struct Generators {
  const char *Name;
  std::string (*Train)(unsigned);
  std::string (*Test)(unsigned);
};

std::string prose(unsigned S) { return proseText(S, TextSize); }
std::string csrc(unsigned S) { return cSourceText(S, TextSize); }
std::string roff(unsigned S) { return roffText(S, TextSize); }

const Generators Table[] = {
    {"awk", [](unsigned S) { return tabularText(S, 2500, 4); },
     [](unsigned S) { return tabularText(S, 2500, 4); }},
    {"cb", csrc, csrc},
    {"cpp", csrc, csrc},
    {"ctags", csrc, csrc},
    {"deroff", roff, roff},
    {"grep", prose, prose},
    {"hyphen", prose, [](unsigned S) { return wordList(S, 5000); }},
    {"join", [](unsigned S) { return tabularText(S, 3000, 3); },
     [](unsigned S) { return tabularText(S, 3000, 3); }},
    {"lex", csrc, csrc},
    {"nroff", roff, roff},
    {"pr", prose, prose},
    {"ptx", prose, prose},
    {"sdiff", prose, prose},
    {"sed", prose, prose},
    {"sort", [](unsigned S) { return wordList(S, 6000); },
     [](unsigned S) { return wordList(S, 6000); }},
    {"wc", prose, prose},
    {"yacc", csrc, csrc},
};

/// splitmix64: decorrelates the per-utility, per-stream generator seeds.
unsigned streamSeed(unsigned Seed, size_t Index, uint64_t Stream) {
  uint64_t X = (uint64_t(Seed) << 32) ^ (uint64_t(Index) << 24) ^ Stream;
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return static_cast<unsigned>(X ^ (X >> 31));
}

} // namespace

std::vector<Utility> makeSuite(unsigned Seed) {
  const std::vector<Workload> &Programs = standardWorkloads();
  std::vector<Utility> Suite;
  for (size_t I = 0; I < std::size(Table); ++I) {
    const Workload *W = findWorkload(Table[I].Name);
    if (!W || Programs.size() != std::size(Table))
      return {}; // the analogue set changed; the caller reports it
    Suite.push_back(Utility{W->Name, W->Source,
                            Table[I].Train(streamSeed(Seed, I, 0)),
                            Table[I].Test(streamSeed(Seed, I, 1))});
  }
  return Suite;
}

std::string freshTraining(size_t Index, unsigned Seed, uint64_t Draw) {
  return Table[Index].Train(streamSeed(Seed, Index, 2 + Draw));
}

bool matches(const RunResult &R, const Reference &Ref) {
  return !R.Trapped && R.Output == Ref.Output && R.ExitValue == Ref.ExitValue;
}

void Tally::add(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Attempted;
  if (!Ok) {
    // Only the first few failures are printed; the count carries the rest.
    if (Failed < 20)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
    ++Failed;
  }
}

uint64_t Tally::attempted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Attempted;
}

uint64_t Tally::failed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Failed;
}

uint32_t Tracer::begin(const char *Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(Span{Name, Clock::now(), {}});
  return static_cast<uint32_t>(Spans.size());
}

void Tracer::end(uint32_t Id) {
  Clock::time_point Now = Clock::now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id - 1].End = Now;
}

void Tracer::note(const char *Name, double Value) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Notes[Name].push_back(Value);
}

std::vector<double> Tracer::durationsMs(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Out.push_back(msBetween(S.Start, S.End));
  return Out;
}

std::vector<double> Tracer::notes(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Notes.find(Name);
  return It == Notes.end() ? std::vector<double>{} : It->second;
}

void Metrics::set(const std::string &Name, double Value, const char *Unit) {
  Values[Name] = {Value, Unit};
}

Reference referenceRun(RunContext &Ctx, std::string_view Source,
                       std::string_view Input) {
  CompileOptions Options;
  CompileResult Base = compileBaseline(Source, Options);
  if (!Base.ok()) {
    Ctx.Ops.fail("baseline compile: " + Base.Error);
    return {};
  }
  ExecRequest Req;
  Req.Input = Input;
  RunResult R = executeModule(*Base.M, Interpreter::Mode::Tree, Req);
  if (R.Trapped) {
    Ctx.Ops.fail("reference run trapped: " + R.TrapReason);
    return {};
  }
  return Reference{std::move(R.Output), R.ExitValue};
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  double Frac = Rank - static_cast<double>(Lo);
  if (Frac == 0 || Lo + 1 == V.size())
    return V[Lo];
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

uint64_t fnv1a(std::string_view Data, uint64_t H) {
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace perfbench
