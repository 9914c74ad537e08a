//===- perfbench/src/Common.h - Shared benchmark infrastructure -----------===//
//
// Seeded inputs for the 17 utility analogues, reference outputs, the
// failure tally, the span tracer and the metric sink every phase of the
// benchmark shares.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Driver.h"
#include "sim/Interpreter.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One utility analogue with this run's seeded inputs.  Sources are the
/// fixed Mini-C programs of workloads/Workloads.cpp; only inputs vary
/// with the seed.
struct Utility {
  std::string Name;
  std::string_view Source;
  std::string Train; ///< training stream
  std::string Test;  ///< test stream (distinct seed)
};

/// The 17 analogues with inputs drawn from the workloads/Inputs.h
/// generators at the sizes workloads/Workloads.cpp uses, training and
/// test streams seeded independently from \p Seed.
std::vector<Utility> makeSuite(unsigned Seed);

/// A fresh training input for utility \p Index (same generator and size as
/// its training stream, seeded by \p Seed and \p Draw).
std::string freshTraining(size_t Index, unsigned Seed, uint64_t Draw);

/// Observable behaviour of the tree walker on the baseline module.
struct Reference {
  std::string Output;
  int64_t ExitValue = 0;
};

/// True when \p R did not trap and matches \p Ref exactly.
bool matches(const bropt::RunResult &R, const Reference &Ref);

/// Failed / attempted operations across every phase of a run.
class Tally {
public:
  void ok() { add(true, ""); }
  void fail(const std::string &What) { add(false, What); }
  void add(bool Ok, const std::string &What);
  uint64_t attempted() const;
  uint64_t failed() const;

private:
  mutable std::mutex Mutex;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// In-memory span recorder: name, start and end, kept until the run ends.
/// Disabled tracers record nothing (the end-to-end runs).
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  uint32_t begin(const char *Name);
  void end(uint32_t Id);
  /// A value observed at a span boundary (a size or a count).
  void note(const char *Name, double Value);

  /// Durations (ms) of every span named \p Name, and noted values.
  std::vector<double> durationsMs(const std::string &Name) const;
  std::vector<double> notes(const std::string &Name) const;

private:
  struct Span {
    const char *Name;
    Clock::time_point Start, End;
  };
  bool Enabled;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  std::map<std::string, std::vector<double>> Notes;
};

/// Records a span for the lifetime of the object.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name)
      : T(T), Id(T.enabled() ? T.begin(Name) : 0) {}
  ~ScopedSpan() {
    if (Id)
      T.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

/// Metric name -> (value, unit).
class Metrics {
public:
  void set(const std::string &Name, double Value, const char *Unit);
  const std::map<std::string, std::pair<double, std::string>> &all() const {
    return Values;
  }

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

/// State one benchmark run shares across its phases.
struct RunContext {
  unsigned Seed = 0;
  bool Small = false; ///< the self-test's reduced sizes
  std::vector<Utility> Suite;
  Tally Ops;
  Tracer Trace;
  Metrics EndToEnd; ///< printed with --trace 0
  Metrics Layers;   ///< printed with --trace 1
  explicit RunContext(bool Traced) : Trace(Traced) {}
};

/// Baseline compile + tree-walker run of \p Source on \p Input: the oracle
/// every output of the benchmark is checked against.  A failed baseline is
/// recorded in \p Ctx.Ops and yields an empty reference.
Reference referenceRun(RunContext &Ctx, std::string_view Source,
                       std::string_view Input);

/// Percentile \p P in [0, 100] by linear interpolation; 0 when empty.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

/// FNV-1a over \p Data.
uint64_t fnv1a(std::string_view Data, uint64_t H = 1469598103934665603ull);

/// Clock::time_point \p Seconds from now.
inline Clock::time_point deadlineIn(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

/// One benchmark phase.  setup() may run several times (the benchmark
/// reports the median set-up time) and is told the total measurement
/// time.  measure() then runs in slices that together take that time,
/// interleaved with the other phases' slices so that every phase samples
/// the whole run rather than one stretch of it; a phase with a natural
/// unit of work completes the unit in progress.  report() records the
/// metrics of all slices.
class Phase {
public:
  virtual ~Phase() = default;
  virtual void setup(RunContext &Ctx, double Seconds) = 0;
  virtual void measure(RunContext &Ctx, double Seconds) = 0;
  virtual void report(RunContext &Ctx) = 0;
};

std::unique_ptr<Phase> makeNativePhase();
std::unique_ptr<Phase> makeCompilePhase();
std::unique_ptr<Phase> makeDaemonPhase();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
