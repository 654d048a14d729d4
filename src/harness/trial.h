//===- harness/trial.h - Parallel evaluation trial runner -------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement unit of the Section 6 evaluation: one *trial* runs one
/// application once under one FaultConfig for one workload seed and
/// records the QoS error, the operation/storage statistics, and the
/// priced energy report. Every figure and table harness is a set of
/// trials plus a per-cell aggregation.
///
/// TrialRunner fans a trial list out over a fixed-size pool of
/// std::threads. The hot path is lock-free: workers claim trial indices
/// from a single atomic counter and write results into preallocated,
/// disjoint slots. Each trial constructs its own Simulator (installed
/// thread-locally via SimulatorScope — the "one per thread" contract),
/// and its fault stream is seeded purely from (config seed, workload
/// seed) through support/rng's mixSeed, so the result of a trial depends
/// only on the trial's identity. Consequently the runner's output is
/// bitwise identical for any thread count and any scheduling — the
/// determinism suite pins this for all nine apps at all three levels.
///
/// Every trial, on either engine and with or without a policy, runs
/// through one attempt loop. An attempt executes the application once —
/// interpreted on a Simulator, or as the trial's compiled kernel on a
/// FastMachine — and reports its statistics, clock, power accounting,
/// telemetry and QoS error in one record. The loop prices and sums the
/// energy, classifies the outcome and records the timeline markers.
/// Without an active policy it stops after one attempt. Under an active
/// resilience::ResiliencePolicy a trial becomes a recovery process:
/// attempts that miss the QoS SLO, fail the output sanity check, or trip
/// the op-budget watchdog are re-executed with retry fault streams keyed
/// by mixSeed(config seed, attempt) — then mixSeed(·, workload seed) —
/// and, when retries are exhausted, stepped down the deterministic
/// degradation ladder. Every attempt is charged to EffectiveEnergyFactor,
/// so re-execution honestly shrinks the claimed savings. Because the
/// retry seeds are pure functions of the trial identity and the attempt
/// number, the whole recovery process stays bitwise deterministic at any
/// thread count.
///
/// The runner is fault tolerant. An exception inside an attempt ends
/// that attempt as aborted with its partial statistics; one that escapes
/// the loop (say, from the precise reference run) becomes a failed trial
/// (TrialOutcome::Aborted). A throwing application never tears down the
/// pool.
///
//===----------------------------------------------------------------------===//

#ifndef ENERJ_HARNESS_TRIAL_H
#define ENERJ_HARNESS_TRIAL_H

#include "apps/app.h"
#include "energy/model.h"
#include "env/power.h"
#include "fault/config.h"
#include "obs/telemetry.h"
#include "resilience/policy.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace enerj {

namespace exec {
struct CompiledKernel;
class ProgramCache;
} // namespace exec

namespace harness {

/// One (application, configuration, workload seed) measurement.
struct Trial {
  const apps::Application *App = nullptr;
  FaultConfig Config;
  uint64_t WorkloadSeed = 1;
  /// What telemetry to collect (default: none — the zero-cost path,
  /// byte-identical to the pre-telemetry harness). Collection never
  /// perturbs the measured run; only ForceRegionPrecise does, by design.
  obs::TelemetryRequest Obs{};
  /// Non-null selects the compiled execution path: the trial runs this
  /// verified ISA kernel on the batched-fault FastMachine instead of
  /// interpreting the application. The kernel must belong to the
  /// trial's (app, level) cell and outlive the run.
  const exec::CompiledKernel *Kernel = nullptr;
  /// Non-null arms the intermittent-supply environment: every attempt is
  /// metered against the trace, losses are charged (checkpoint/restore/
  /// re-execution) into EffectiveEnergyFactor, and an attempt the supply
  /// never lets complete becomes TrialOutcome::PowerFailed. Null keeps
  /// the always-on behavior, byte for byte.
  const env::PowerEnv *Power = nullptr;
  /// Program store for the compiled recovery loop: a policy walking the
  /// ladder on the compiled path fetches each rung's kernel from here.
  /// Required when a policy with Degrade is armed on a compiled trial.
  exec::ProgramCache *Kernels = nullptr;
};

/// Everything one trial measures. Stats/Energy/QosError describe the
/// *recorded* run: the first accepted attempt under a policy, or the
/// last attempt when every permitted attempt failed.
struct TrialResult {
  /// QoS error against the precise run of the same workload. An aborted
  /// or insane (non-finite / out-of-bound) attempt scores 1.
  double QosError = 0.0;
  /// Operation and storage statistics of the recorded approximate run
  /// (partial up to the abort point for aborted attempts).
  RunStats Stats;
  /// The statistics priced at the recorded attempt's config (Server).
  EnergyReport Energy;

  /// How the trial concluded (Ok, Aborted or PowerFailed when no policy
  /// is active).
  resilience::TrialOutcome Outcome = resilience::TrialOutcome::Ok;
  /// Executions charged, >= 1 (1 = no re-execution).
  int Attempts = 1;
  /// Level of the recorded run — lower than the trial's configured level
  /// when the degradation ladder was walked.
  ApproxLevel FinalLevel = ApproxLevel::None;
  /// Energy factor with re-execution charged: the sum of every attempt's
  /// TotalFactor (== Energy.TotalFactor for a single-attempt trial).
  double EffectiveEnergyFactor = 1.0;
  /// Message of the contained exception, when one was caught.
  std::string Error;

  /// The engine's logical clock when the recorded attempt ended
  /// (MemoryLedger::now(): one tick per dynamic op / DRAM access), with
  /// or without telemetry. 0 only when no attempt ran.
  uint64_t ClockCycles = 0;
  /// Per-site metrics of the *recorded* attempt (parallel to Stats).
  /// Empty unless the trial's TelemetryRequest asked for metrics.
  obs::MetricsRegistry Metrics;
  /// Structured events across *all* attempts — the recovery timeline,
  /// including the rejected attempts that Stats/Metrics do not cover —
  /// with harness markers (attempt begin/end, retry, degrade, abort)
  /// interleaved. Empty unless tracing was requested. Region ids refer
  /// to Metrics.
  std::vector<obs::TrialTraceEvent> Trace;
  /// Events shed by the per-attempt ring buffers, summed.
  uint64_t TraceDropped = 0;

  /// Power-environment accounting summed over *all* attempts (losses,
  /// checkpoints, re-executed ops, off ticks); Survived reflects the
  /// recorded attempt. All-zero / true when no environment was armed.
  env::PowerStats Power;
};

/// Runs trial lists over a fixed-size thread pool.
class TrialRunner {
public:
  /// \p Threads worker threads; 0 means hardware_concurrency() (at
  /// least 1). A single-thread runner executes inline without spawning.
  explicit TrialRunner(unsigned Threads = 0);

  unsigned threads() const { return Threads; }

  /// Runs one trial on the calling thread with no policy: one attempt,
  /// no SLO or sanity check, under the trial's own op budget. Never
  /// throws; exceptions become an Aborted result.
  static TrialResult runOne(const Trial &T);

  /// Runs one trial under \p Policy: the SLO / sanity / watchdog checks
  /// plus the retry-and-degrade recovery loop described in the header.
  /// A disabled policy reduces to runOne(T), byte for byte. Never throws.
  static TrialResult runOne(const Trial &T,
                            const resilience::ResiliencePolicy &Policy);

  /// Runs all trials, returning results in trial order. The output is a
  /// pure function of the trial list — thread count and scheduling do
  /// not affect it. Exceptions escaping a trial are contained and
  /// reported as TrialOutcome::Aborted; they never kill the process.
  std::vector<TrialResult> run(const std::vector<Trial> &Trials) const;

  /// Same, with every trial executed under \p Policy.
  std::vector<TrialResult>
  run(const std::vector<Trial> &Trials,
      const resilience::ResiliencePolicy &Policy) const;

  /// Completion observer: called once per finished trial with the number
  /// of trials completed so far and that trial's result. Calls are
  /// serialized (never concurrent) but arrive in *completion* order, not
  /// trial order — an observer that only counts and tallies outcomes sees
  /// a deterministic multiset either way. The observer has no way to
  /// influence results; the returned vector stays a pure function of the
  /// trial list.
  using ProgressFn = std::function<void(size_t Done, const TrialResult &Last)>;

  /// Same, notifying \p Progress (when non-null) after every trial.
  std::vector<TrialResult>
  run(const std::vector<Trial> &Trials,
      const resilience::ResiliencePolicy &Policy,
      const ProgressFn &Progress) const;

private:
  unsigned Threads;
};

} // namespace harness
} // namespace enerj

#endif // ENERJ_HARNESS_TRIAL_H
