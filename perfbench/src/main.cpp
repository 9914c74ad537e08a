//===- perfbench/src/main.cpp - The benchmark entry point -----------------===//
//
// Usage:
//   perfbench --workload native-suite|compile-suite|daemon-mix --seed N
//             --seconds S --trace 0|1 [--source-digest HEX] [--small]
//
// Every run measures all three phases (native, compile, daemon), so each
// workload reports every metric: the workload's own phase is set up
// several times (setup_s is the median) and measured for --seconds; the
// other two are short fixed-size audits.  The measurements interleave in
// slices.  The last stdout line is
// the result object; the line before it is the host fingerprint.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/NativeRunner.h"
#include "support/PerfCounters.h"

#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

namespace {

/// Set-up repeats until both bounds are met (or MaxSetups): setup_s is the
/// median, so short set-ups take more repeats to steady it.
constexpr unsigned MinSetups = 3, MaxSetups = 15;
constexpr double MinSetupSeconds = 2;
/// Measurement seconds of the phases a workload does not centre on.
constexpr double NativeAuditSeconds = 5;
constexpr double CompileAuditSeconds = 12;
constexpr double DaemonAuditSeconds = 4;
/// Slices each phase's measurement is cut into: the host's speed drifts
/// over seconds, so every phase samples the whole run in short stretches,
/// and the fastest sample of a compile or a native run comes from one of
/// many moments rather than from one long stretch that may all be slow.
constexpr unsigned Slices = 16;

struct Args {
  std::string Workload;
  unsigned Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string SourceDigest = "unknown";
  bool Small = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "native-suite|compile-suite|daemon-mix --seed N --seconds S "
               "--trace 0|1 [--source-digest HEX] [--small]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--small") {
      A.Small = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      unsigned long S = std::strtoul(Value.c_str(), &End, 10);
      if (*End || Value.empty() || S > 0xffffffffUL)
        usage("bad --seed");
      A.Seed = static_cast<unsigned>(S);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(A.Seconds > 0 && A.Seconds <= 600))
        usage("bad --seconds");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("bad --trace");
      A.Trace = Value == "1";
    } else if (Flag == "--source-digest") {
      A.SourceDigest = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (A.Workload != "native-suite" && A.Workload != "compile-suite" &&
      A.Workload != "daemon-mix")
    usage("unknown --workload");
  if (!HaveSeed || A.Seconds <= 0 || A.Trace < 0)
    usage("--seed, --seconds and --trace are required");
  return A;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

std::string cpuModel() {
  unsigned Regs[12] = {};
  for (unsigned I = 0; I < 3; ++I)
    if (!__get_cpuid(0x80000002 + I, &Regs[I * 4], &Regs[I * 4 + 1],
                     &Regs[I * 4 + 2], &Regs[I * 4 + 3]))
      return "unknown";
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string S = Brand;
  size_t First = S.find_first_not_of(' ');
  return First == std::string::npos ? "unknown" : S.substr(First);
}

std::string firstLineOf(const std::string &Command) {
  std::string Line;
  if (FILE *P = ::popen((Command + " 2>/dev/null").c_str(), "r")) {
    char Buf[256];
    if (std::fgets(Buf, sizeof Buf, P))
      Line = Buf;
    while (std::fgets(Buf, sizeof Buf, P)) {
    }
    ::pclose(P);
  }
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  return Line;
}

/// The host fingerprint printed with every result.
std::string fingerprint(const Args &A, const RunContext &Ctx) {
  bropt::NativeRunner Runner;
  bropt::PerfCounters Perf;
  uint64_t Inputs = fnv1a("");
  for (const Utility &U : Ctx.Suite)
    Inputs = fnv1a(U.Test, fnv1a(U.Train, Inputs));
  char Digest[17];
  std::snprintf(Digest, sizeof Digest, "%016llx",
                static_cast<unsigned long long>(Inputs));
  std::string Out = "{\"host\": {";
  Out += "\"cpu\": " + jsonString(cpuModel());
  Out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  Out += ", \"cc\": " + jsonString(Runner.compilerCommand());
  Out += ", \"cc_version\": " +
         jsonString(firstLineOf(Runner.compilerCommand() + " --version"));
  Out += ", \"perf_event\": " +
         jsonString(Perf.available() ? "available"
                                     : Perf.unavailableReason());
  Out += ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE);
  Out += ", \"source_digest\": " + jsonString(A.SourceDigest);
  Out += "}, \"workload\": " + jsonString(A.Workload);
  Out += ", \"seed\": " + std::to_string(A.Seed);
  Out += ", \"inputs_digest\": \"" + std::string(Digest) + "\"}";
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  RunContext Ctx(A.Trace == 1);
  Ctx.Seed = A.Seed;
  Ctx.Small = A.Small;

  std::unique_ptr<Phase> Native = makeNativePhase();
  std::unique_ptr<Phase> Compile = makeCompilePhase();
  std::unique_ptr<Phase> Daemon = makeDaemonPhase();
  Phase *Primary = A.Workload == "native-suite"    ? Native.get()
                   : A.Workload == "compile-suite" ? Compile.get()
                                                   : Daemon.get();

  // Set-up of the workload's own phase, inputs included, several times.
  std::vector<double> SetupSeconds;
  double SetupTotal = 0;
  while (SetupSeconds.empty() ||
         (!A.Small && SetupSeconds.size() < MaxSetups &&
          (SetupSeconds.size() < MinSetups || SetupTotal < MinSetupSeconds))) {
    Clock::time_point Start = Clock::now();
    Ctx.Suite = makeSuite(A.Seed);
    if (Ctx.Suite.empty()) {
      std::fprintf(stderr, "perfbench: the utility analogues changed\n");
      return 1;
    }
    Primary->setup(Ctx, A.Seconds);
    SetupSeconds.push_back(msBetween(Start, Clock::now()) / 1000);
    SetupTotal += SetupSeconds.back();
  }

  // The other two phases, then every phase measured in interleaved slices.
  std::vector<std::pair<Phase *, double>> Measured = {{Primary, A.Seconds}};
  double Audit = A.Small ? 0.5 : 1.0;
  for (Phase *P : {Native.get(), Compile.get(), Daemon.get()}) {
    if (P == Primary)
      continue;
    double Seconds = Audit * (P == Native.get()   ? NativeAuditSeconds
                              : P == Daemon.get() ? DaemonAuditSeconds
                                                  : CompileAuditSeconds);
    P->setup(Ctx, Seconds);
    Measured.push_back({P, Seconds});
  }
  for (unsigned S = 0; S < Slices; ++S)
    for (auto &[P, Seconds] : Measured)
      P->measure(Ctx, Seconds / Slices);
  for (auto &[P, Seconds] : Measured)
    P->report(Ctx);

  uint64_t Attempted = Ctx.Ops.attempted(), Failed = Ctx.Ops.failed();
  double ErrorRate = Attempted ? double(Failed) / double(Attempted) : 1;
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  Ctx.EndToEnd.set("setup_s", median(SetupSeconds), "s");
  Ctx.EndToEnd.set("success_rate", 1 - ErrorRate, "ratio");
  Ctx.EndToEnd.set("peak_rss_mb", double(Usage.ru_maxrss) / 1024.0, "MiB");
  Ctx.Layers.set("error_rate", ErrorRate, "ratio");

  const Metrics &Out = A.Trace == 1 ? Ctx.Layers : Ctx.EndToEnd;
  for (const auto &[Name, V] : Out.all())
    std::fprintf(stderr, "  %-34s %16.6g %s\n", Name.c_str(), V.first,
                 V.second.c_str());
  std::printf("%s\n", fingerprint(A, Ctx).c_str());
  std::string Line = "{\"correct\": ";
  Line += Failed == 0 ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, V] : Out.all()) {
    char Num[64];
    std::snprintf(Num, sizeof Num, "%.17g", V.first);
    Line += std::string(First ? "" : ", ") + jsonString(Name) +
            ": {\"value\": " + Num + ", \"unit\": " + jsonString(V.second) +
            "}";
    First = false;
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
