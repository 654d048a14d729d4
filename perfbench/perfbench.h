//===- perfbench/perfbench.h - The benchmark's two modes -------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untraced run measures the end-to-end metrics of one workload; the
/// traced run measures the per-layer metrics. Both check every grid they
/// run and report failed checks instead of throwing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include "grid.h"

#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  const WorkloadSpec *Workload = nullptr;
  enerj::harness::EvalOptions Options;
  uint64_t FirstSeed = 1;
  unsigned Threads = 1; ///< N, the multi-threaded run's pool size.
  std::string JournalDir;
  double Seconds = 10.0;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunOutcome {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0; ///< Trials run.
  uint64_t Failed = 0;    ///< Aborted trials, plus every trial of a grid
                          ///< that failed its output check.
  uint64_t Accepted = 0;  ///< Ok/retried/degraded trials of checked grids.
  std::vector<std::string> Errors; ///< Failed output checks.
  std::vector<std::string> Notes;  ///< Sample counts, for the summary.
};

/// Median of \p Values (0 for none).
double median(std::vector<double> Values);

/// Counts one grid's trials into \p Out and checks its output. The first
/// grid of a run (empty \p RefJson) must pass checkCells and, when it
/// wrote journals, checkReplay; it then becomes the reference every later
/// grid must render byte for byte. Removes the grid's journals.
void checkGrid(const GridRun &Run, const RunConfig &Config,
               std::string &RefJson, RunOutcome &Out);

/// End-to-end metrics, tracing off.
RunOutcome runEndToEnd(const RunConfig &Config);

/// Per-layer metrics from spans around the benchmark's calls into each
/// layer, plus the tracing overhead.
RunOutcome runTraced(const RunConfig &Config);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
