//===- perfbench/grid.h - The benchmark's eval grids -----------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each an evaluation grid that `fenerj_tool eval`
/// runs with the workload's flags. The benchmark's seed picks the window
/// of workload seeds: seed n runs workload seeds [n*S + 1, n*S + S], so
/// seed 0 is exactly the CLI's grid (seeds 1..S). A grid is set up (kernels
/// lowered, trial list built), run through harness::TrialRunner, and
/// aggregated into a harness::EvalResult cell by cell in the same order
/// as harness::runEval, so its eval JSON renders byte for byte like the
/// CLI's; checkParity() proves that on every run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GRID_H
#define PERFBENCH_GRID_H

#include "trace.h"

#include "exec/compiled.h"
#include "harness/eval.h"

#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  const char *Name;
  enerj::harness::ExecMode Exec;
  int Seeds;     ///< Workload seeds per cell (the CLI's --seeds).
  bool Recovery; ///< Power trace, checkpoints, SLO policy and journals.
};

/// The workload called \p Name, or null.
const WorkloadSpec *findWorkload(const std::string &Name);

/// The options `fenerj_tool eval` builds from the workload's flags.
enerj::harness::EvalOptions evalOptions(const WorkloadSpec &W);

/// A grid ready to run: its lowered kernels (compiled mode) and trials.
struct GridPlan {
  std::optional<enerj::exec::ProgramCache> Kernels;
  std::vector<enerj::harness::Trial> Trials;
};

/// Setup: everything harness::runEval does before the first trial can
/// run, for workload seeds starting at \p FirstSeed.
void planGrid(const enerj::harness::EvalOptions &Options,
              const std::vector<const enerj::apps::Application *> &Apps,
              uint64_t FirstSeed, GridPlan &Plan);

/// One grid run. Times are seconds; DoneAt holds the completion time of
/// every trial, in completion order, relative to the start of the trials,
/// and DoneBy the worker thread that ran it.
struct GridRun {
  enerj::harness::EvalResult Result;
  std::vector<enerj::harness::TrialResult> Trials;
  std::string Json;
  double SetupSec = 0.0, TrialsSec = 0.0, WallSec = 0.0;
  std::vector<double> DoneAt;
  std::vector<std::thread::id> DoneBy;
  std::vector<std::string> Journals; ///< Files written, when journaling.
  uint64_t JournalBytes = 0;
};

/// What a grid run needs beyond its options.
struct GridRunSpec {
  uint64_t FirstSeed = 1;
  unsigned Threads = 1;
  std::string JournalDir;    ///< Where journals go when Options.Journal.
  bool ObserveTrials = false; ///< Fill GridRun::DoneAt and DoneBy.
  /// Applications to run instead of the registry's (the traced run's
  /// span-recording wrappers); must match the options' apps by name.
  const std::vector<const enerj::apps::Application *> *Apps = nullptr;
  SpanLog *Log = nullptr; ///< Spans for setup, aggregation, rendering.
};

/// Sets up, runs, aggregates and renders one grid, then writes its
/// journals when the options arm the flight recorder.
GridRun runGrid(const enerj::harness::EvalOptions &Options,
                const GridRunSpec &Spec);

/// Durations of a 1-thread grid's trials in trial order, from the
/// completion times runGrid observed (Spec.ObserveTrials).
std::vector<double> trialDurations(const GridRun &Run);

/// Folds per-trial results into cells exactly as harness::runEval does.
enerj::harness::EvalResult
aggregate(const enerj::harness::EvalOptions &Options,
          const std::vector<const enerj::apps::Application *> &Apps,
          uint64_t FirstSeed, const std::vector<enerj::harness::Trial> &Trials,
          const std::vector<enerj::harness::TrialResult> &Results);

/// Checks a grid's cells: outcomes sum to the seed count, QoS lies in
/// [0, 1], and under power survived + powerFailed equals the seed count.
/// Returns an empty string, or what failed.
std::string checkCells(const enerj::harness::EvalResult &Result);

/// Runs a one-seed grid through harness::runEval and through runGrid and
/// compares their eval JSON. Returns an empty string, or what differed.
std::string checkParity(const enerj::harness::EvalOptions &Options,
                        unsigned Threads, const std::string &JournalDir);

/// Replays the first journal of \p Run through obs::replayJournal.
/// Returns an empty string, or why it did not match.
std::string checkReplay(const GridRun &Run, const std::string &KernelDir);

} // namespace perfbench

#endif // PERFBENCH_GRID_H
