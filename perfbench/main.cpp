//===- perfbench/main.cpp - Eval-grid benchmark ----------------------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//                  [--scratch dir]
//
// Runs one workload (see grid.h and README.md) and prints a summary, a
// host line, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when every output check passed, 1 when one failed, 2 on bad
// arguments, and 3 when the binary is a sanitizer or unoptimized build.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace enerj;
using namespace enerj::harness;

namespace perfbench {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  double Upper = Values[Mid];
  if (Values.size() % 2)
    return Upper;
  double Lower = *std::max_element(Values.begin(), Values.begin() + Mid);
  return 0.5 * (Lower + Upper);
}

namespace {

/// The process's peak resident set so far (VmHWM), in MiB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

} // namespace

void checkGrid(const GridRun &Run, const RunConfig &Config,
               std::string &RefJson, RunOutcome &Out) {
  std::string Error;
  if (RefJson.empty()) {
    Error = checkCells(Run.Result);
    if (Error.empty() && !Run.Journals.empty())
      Error = checkReplay(Run, Config.Options.KernelDir);
    RefJson = Run.Json;
  } else if (Run.Json != RefJson) {
    Error = "eval JSON differs between runs of the same grid";
  }
  if (!Run.Journals.empty())
    std::filesystem::remove_all(Config.JournalDir);

  Out.Attempted += Run.Trials.size();
  if (!Error.empty()) {
    Out.Errors.push_back(std::string(Config.Workload->Name) + ": " + Error);
    Out.Failed += Run.Trials.size();
    return;
  }
  for (const TrialResult &T : Run.Trials) {
    if (T.Outcome == resilience::TrialOutcome::Aborted)
      ++Out.Failed;
    resilience::OutcomeCounts One;
    One.add(T.Outcome);
    Out.Accepted += One.accepted();
  }
}

RunOutcome runEndToEnd(const RunConfig &Config) {
  RunOutcome Out;

  // Grids run at 1 or N threads until the run's time is up, N-thread
  // grids whenever they have had less than two thirds of the run so far:
  // the 1-thread estimate below needs fewer grids to settle.
  // Peak RSS is read after the first grid, which runs on one thread in a
  // fresh process: later peaks also hold the worker threads' cached stacks
  // and arenas, which vary with which worker ran which trial.
  // Interp set-up takes microseconds, so every grid is followed by a batch
  // of extra set-ups; spreading them over the run keeps their median
  // steady under bursts of load from elsewhere.
  //
  // On a shared host the same grid runs up to ~1.8x slower for stretches
  // of 10-60 s, so a median over whole grids moves with the host's load
  // rather than with the program. The wall times are therefore best-case
  // estimates. A grid is its set-up, its trial phase and a tail
  // (aggregation, rendering, journal writing), one after another, so each
  // wall time sums the fastest time each part took over the run. At 1
  // thread the trials also run one after another, so each trial counts
  // with its own fastest time: it needs only one quiet moment among its
  // repeats. At N threads the trials overlap, so the trial phase is timed
  // whole. Set-up and tail are the same work at either thread count.
  std::vector<double> Setup, Tail, WallT1, WallTN, TrialsTN;
  std::vector<double> BestTrial;
  double SpentT1 = 0.0, SpentTN = 0.0;
  double PeakRss = 0.0;
  std::string RefJson;
  double Qos = 0.0, Energy = 0.0, Effective = 0.0;
  Clock::time_point Start = Clock::now();
  do {
    unsigned Threads = SpentTN < 2 * SpentT1 ? Config.Threads : 1;
    GridRunSpec Spec;
    Spec.FirstSeed = Config.FirstSeed;
    Spec.Threads = Threads;
    Spec.JournalDir = Config.JournalDir;
    Spec.ObserveTrials = Threads == 1;
    GridRun Run = runGrid(Config.Options, Spec);
    Setup.push_back(Run.SetupSec);
    if (Threads == 1) {
      SpentT1 += Run.WallSec;
      WallT1.push_back(Run.WallSec);
      std::vector<double> Durations = trialDurations(Run);
      BestTrial.resize(Durations.size(),
                       std::numeric_limits<double>::infinity());
      for (size_t I = 0; I < Durations.size(); ++I)
        BestTrial[I] = std::min(BestTrial[I], Durations[I]);
    } else {
      SpentTN += Run.WallSec;
      WallTN.push_back(Run.WallSec);
      TrialsTN.push_back(Run.TrialsSec);
    }
    Tail.push_back(Run.WallSec - Run.SetupSec - Run.TrialsSec);
    if (RefJson.empty()) {
      PeakRss = peakRssMb();
      // Grid means of the cell means; deterministic per (commit, seed).
      for (const EvalCell &Cell : Run.Result.Cells) {
        Qos += Cell.Qos.Mean;
        Energy += Cell.EnergyFactor.Mean;
        Effective += Cell.EffectiveEnergy.Mean;
      }
      double Cells = static_cast<double>(Run.Result.Cells.size());
      Qos /= Cells;
      Energy /= Cells;
      Effective /= Cells;
    }
    checkGrid(Run, Config, RefJson, Out);
    for (int Extra = 0; Run.SetupSec < 1e-3 && Extra < 200; ++Extra) {
      Clock::time_point SetupStart = Clock::now();
      GridPlan Plan;
      planGrid(Config.Options, apps::allApplications(), Config.FirstSeed,
               Plan);
      Setup.push_back(secondsSince(SetupStart));
    }
  } while (secondsSince(Start) < Config.Seconds || WallTN.empty());

  if (std::string Error = checkParity(Config.Options, Config.Threads,
                                      Config.JournalDir);
      !Error.empty())
    Out.Errors.push_back(std::string(Config.Workload->Name) + ": " + Error);

  double AcceptedShare =
      Out.Attempted ? static_cast<double>(Out.Accepted) / Out.Attempted : 0.0;
  auto Fastest = [](const std::vector<double> &Values) {
    return *std::min_element(Values.begin(), Values.end());
  };
  double BestT1 = Fastest(Setup) + Fastest(Tail);
  for (double Best : BestTrial)
    BestT1 += Best;
  Out.Metrics = {
      {"setup_s", median(Setup), "s"},
      {"wall_s_t1", BestT1, "s"},
      {"wall_s_tN", Fastest(Setup) + Fastest(TrialsTN) + Fastest(Tail), "s"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"accepted_share", AcceptedShare, "ratio"},
      {"qos_error", Qos, "ratio"},
      {"energy_factor", Energy, "ratio"},
      {"effective_energy", Effective, "ratio"},
  };
  Out.Notes = {
      "setup_s: median of " + std::to_string(Setup.size()) + " set-ups",
      "wall_s_t1: fastest set-up + fastest time of each of " +
          std::to_string(BestTrial.size()) + " trials over " +
          std::to_string(WallT1.size()) +
          " grids + fastest tail (median whole grid " +
          std::to_string(median(WallT1)) + " s)",
      "wall_s_tN: fastest set-up + fastest trial phase of " +
          std::to_string(WallTN.size()) + " grids at " +
          std::to_string(Config.Threads) +
          " threads + fastest tail (median whole grid " +
          std::to_string(median(WallTN)) + " s)",
      "set-up and tail: fastest of " + std::to_string(Setup.size()) +
          " set-ups and " + std::to_string(Tail.size()) +
          " tails at either thread count",
      "peak_rss_mb: the fresh process's peak through its first grid "
      "(1 thread)",
  };
  return Out;
}

} // namespace perfbench

using namespace perfbench;

namespace {

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

/// Why this binary must not report timings, or null.
const char *timingRefusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
    return "Debug build";
  return nullptr;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "interp_grid|compiled_grid|recovery_grid [--seed n] "
               "[--seconds s] [--trace 0|1] [--scratch dir]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, Scratch = ".bench_build/perfbench-scratch";
  unsigned long long Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      WorkloadName = Value;
    } else if (Flag == "--seed") {
      Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End || Value[0] == '-')
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(Seconds > 0.0 && Seconds <= 600.0))
        return usage("--seconds takes a duration in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Trace = Value == "1";
    } else if (Flag == "--scratch") {
      Scratch = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  const WorkloadSpec *Workload = findWorkload(WorkloadName);
  if (!Workload)
    return usage(("unknown workload '" + WorkloadName + "'").c_str());
  if (const char *Refusal = timingRefusal()) {
    std::fprintf(stderr, "perfbench: refusing to report timings from a %s\n",
                 Refusal);
    return 3;
  }

  RunConfig Config;
  Config.Workload = Workload;
  Config.Threads = std::min(availableCpus(), 4u);
  // Seed n runs workload seeds [n*S + 1, n*S + S]; seed 0 is the CLI grid.
  Config.FirstSeed =
      1 + (Seed % (1ULL << 32)) * static_cast<uint64_t>(Workload->Seeds);
  Config.JournalDir = Scratch + "/journals";
  Config.Seconds = Seconds;

  RunOutcome Out;
  try {
    Config.Options = evalOptions(*Workload);
    Out = Trace ? runTraced(Config) : runEndToEnd(Config);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    std::filesystem::remove_all(Scratch);
    return 1;
  }
  std::filesystem::remove_all(Scratch);

  for (const Metric &M : Out.Metrics)
    std::printf("%-34s %14.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  for (const std::string &Note : Out.Notes)
    std::printf("# %s\n", Note.c_str());
  for (const std::string &Error : Out.Errors)
    std::printf("# CHECK FAILED: %s\n", Error.c_str());
  std::printf("# host: nproc=%u threads=%u cpu=\"%s\" compiler=\"%s\" "
              "build=%s workload=%s seeds=%llu..%llu\n",
              availableCpus(), Config.Threads, cpuModel().c_str(), __VERSION__,
              PERFBENCH_BUILD_TYPE, Workload->Name,
              static_cast<unsigned long long>(Config.FirstSeed),
              static_cast<unsigned long long>(Config.FirstSeed +
                                              Workload->Seeds - 1));

  std::string Json = "{\"correct\": ";
  Json += Out.Errors.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", Out.Metrics[I].Value);
    Json += (I ? ", \"" : "\"") + Out.Metrics[I].Name +
            "\": {\"value\": " + Value + ", \"unit\": \"" +
            Out.Metrics[I].Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Out.Errors.empty() ? 0 : 1;
}
