//===- harness/trial.cpp - Parallel evaluation trial runner ---------------===//

#include "harness/trial.h"

#include "exec/compiled.h"
#include "runtime/simulator.h"
#include "support/rng.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

using namespace enerj;
using namespace enerj::harness;
using resilience::ResiliencePolicy;
using resilience::TrialOutcome;

TrialRunner::TrialRunner(unsigned Threads) : Threads(Threads) {
  if (this->Threads == 0) {
    this->Threads = std::thread::hardware_concurrency();
    if (this->Threads == 0)
      this->Threads = 1;
  }
}

namespace {

/// What one execution of a trial measured, on either engine. The attempt
/// loop reads nothing else, so everything engine-specific stays inside
/// the two functions that fill this record.
struct Attempt {
  RunStats Stats;           ///< Partial up to the abort point.
  uint64_t EndCycle = 0;    ///< The engine clock when the attempt ended.
  bool Aborted = false;     ///< Contained exception, watchdog or ISA trap.
  std::string Error;        ///< Its message.
  env::PowerStats Power;    ///< Environment accounting (all-zero if off).
  bool PowerFailed = false; ///< The supply never let the attempt finish.
  std::array<uint64_t, env::NumPowerOpClasses> PowerMix{};
  obs::MetricsRegistry Metrics;
  std::vector<obs::TraceEvent> Trace;
  uint64_t TraceDropped = 0;
  double QosError = 1.0; ///< Against the precise run; meaningless if failed.
  bool Sane = true;      ///< The output passed the policy's sanity check.

  bool failed() const { return Aborted || PowerFailed || !Sane; }
};

/// Folds one attempt's power accounting into the trial total: the event
/// counters sum across attempts, Survived reflects the latest (recorded)
/// attempt.
void accumulatePower(env::PowerStats &Total, const env::PowerStats &A) {
  Total.Losses += A.Losses;
  Total.Checkpoints += A.Checkpoints;
  Total.ReExecutedOps += A.ReExecutedOps;
  Total.LiveOps += A.LiveOps;
  Total.OffTicks += A.OffTicks;
  Total.LiveUnits += A.LiveUnits;
  Total.ChargedUnits += A.ChargedUnits;
  Total.Survived = A.Survived;
}

/// The trace event of one power-meter event.
obs::TraceEvent powerEvent(env::PowerEventKind Kind, uint64_t At) {
  obs::TraceEventKind EventKind =
      Kind == env::PowerEventKind::Loss ? obs::TraceEventKind::PowerLoss
      : Kind == env::PowerEventKind::Checkpoint
          ? obs::TraceEventKind::Checkpoint
          : obs::TraceEventKind::Restore;
  return {At, At, EventKind, obs::OpKind::PreciseInt, 0};
}

void harvestPower(Attempt &A, const std::optional<env::PowerMeter> &Meter) {
  if (!Meter)
    return;
  A.Power = Meter->stats();
  A.PowerFailed = Meter->failed();
  A.PowerMix = Meter->opMix();
}

/// The interpreter engine: the application on a fresh Simulator. The app
/// runs inside a try block *while the simulator is still in scope*, so a
/// watchdog abort (or any in-trial exception) still yields the partial
/// statistics up to the abort point — aborted work is real work and is
/// charged. Scores against \p Reference and, under an enabled policy,
/// checks output sanity.
Attempt runInterpAttempt(const Trial &T, const FaultConfig &Config,
                         const apps::AppOutput &Reference,
                         const ResiliencePolicy &Policy) {
  FaultConfig RunConfig = Config;
  RunConfig.Seed = mixSeed(Config.Seed, T.WorkloadSeed);
  Simulator Sim(RunConfig);
  std::optional<obs::Telemetry> Tel;
  if (T.Obs.enabled()) {
    Tel.emplace(T.Obs);
    Sim.attachTelemetry(&*Tel);
  }
  std::optional<env::PowerMeter> Meter;
  if (T.Power) {
    Meter.emplace(*T.Power, RunConfig);
    if (Tel && T.Obs.Trace)
      Meter->Events = [&Tel](env::PowerEventKind Kind, uint64_t At) {
        Tel->Trace.push(powerEvent(Kind, At));
      };
    Sim.attachPowerMeter(&*Meter);
  }
  Attempt A;
  apps::AppOutput Output;
  {
    SimulatorScope Scope(Sim);
    try {
      Output = T.App->run(T.WorkloadSeed);
    } catch (const std::exception &E) {
      A.Aborted = true;
      A.Error = E.what();
    }
  }
  A.Stats = Sim.stats();
  A.EndCycle = Sim.now();
  if (Tel) {
    Tel->Metrics.setRegionStorage(Sim.ledger().snapshotTagged());
    if (T.Obs.Trace) {
      A.Trace = Tel->Trace.drain();
      A.TraceDropped = Tel->Trace.dropped();
    }
    A.Metrics = std::move(Tel->Metrics);
  }
  harvestPower(A, Meter);
  A.Sane = !Policy.Enabled ||
           resilience::outputSane(Output.Numeric, Policy.OutputAbsBound);
  if (!A.failed())
    A.QosError = T.App->qosError(Reference, Output);
  return A;
}

/// The compiled engine: \p Kernel on a FastMachine with batched fault
/// injection. QoS comes from the kernel's baked-in precise reference,
/// which also stands in for the sanity check.
Attempt runCompiledAttempt(const exec::CompiledKernel &Kernel, const Trial &T,
                           const FaultConfig &Config) {
  Attempt A;
  std::optional<env::PowerMeter> Meter;
  if (T.Power) {
    Meter.emplace(*T.Power, Config);
    if (T.Obs.Trace)
      Meter->Events = [&A](env::PowerEventKind Kind, uint64_t At) {
        A.Trace.push_back(powerEvent(Kind, At));
      };
  }
  exec::CompiledTrialResult R = exec::runCompiledTrial(
      Kernel, Config, T.WorkloadSeed, T.Obs.Metrics, BlockMode::Batched,
      Meter ? &*Meter : nullptr, Config.OpBudgetOps);
  A.Stats = R.Stats;
  A.EndCycle = R.Cycles;
  A.Aborted = R.Trapped;
  A.Error = std::move(R.Error);
  A.Metrics = std::move(R.Metrics);
  A.QosError = R.QosError;
  harvestPower(A, Meter);
  return A;
}

/// A harness marker on the trial timeline.
obs::TrialTraceEvent marker(int AttemptIndex, uint64_t At, uint64_t Arg,
                            obs::TraceEventKind Kind) {
  return {AttemptIndex, {At, Arg, Kind, obs::OpKind::PreciseInt, 0}};
}

/// Appends one attempt's trace to the trial-level timeline, bracketed by
/// harness markers. Region ids are used as-is: every attempt of a trial
/// interns regions in execution order over the same code, so ids agree
/// across attempts (an aborted attempt's table is a prefix).
void collectAttemptTrace(TrialResult &Result, const Attempt &A,
                         int AttemptIndex, ApproxLevel Level,
                         bool Accepted) {
  Result.Trace.push_back(marker(AttemptIndex, 0, static_cast<uint64_t>(Level),
                                obs::TraceEventKind::AttemptBegin));
  for (const obs::TraceEvent &E : A.Trace)
    Result.Trace.push_back({AttemptIndex, E});
  if (A.Aborted)
    Result.Trace.push_back(marker(AttemptIndex, A.EndCycle, A.EndCycle,
                                  obs::TraceEventKind::Abort));
  Result.Trace.push_back(marker(AttemptIndex, A.EndCycle, Accepted ? 1 : 0,
                                obs::TraceEventKind::AttemptEnd));
  Result.TraceDropped += A.TraceDropped;
}

/// Advances \p Config one ladder rung after a failed retry round, or
/// returns false to end the recovery process. Always-on policies walk the
/// classic degradation ladder (toward None: better QoS at more energy).
/// With a power environment armed the ladder inverts into the survival
/// direction: only a power-failed round escalates — toward Aggressive,
/// where cheaper approximate ops fit the supply — and rungs the forecast
/// prices as still unsustainable for the failed attempt's op mix are
/// skipped. The last rung is always attempted: the forecast is a
/// heuristic, the meter is the truth.
bool advanceLadder(const Trial &T, const ResiliencePolicy &Policy,
                   const std::array<uint64_t, env::NumPowerOpClasses> &Mix,
                   FaultConfig &Config, TrialResult &Result, int Attempts) {
  if (!Policy.Enabled || !Policy.Degrade)
    return false;
  if (T.Power) {
    if (Result.Outcome != TrialOutcome::PowerFailed ||
        Config.Level == ApproxLevel::Aggressive)
      return false;
    FaultConfig Next = resilience::escalateConfig(Config);
    while (Next.Level != ApproxLevel::Aggressive &&
           !env::PowerMeter::forecastSustainable(*T.Power, Next, Mix))
      Next = resilience::escalateConfig(Next);
    Config = Next;
  } else {
    if (Config.Level == ApproxLevel::None)
      return false;
    Config = resilience::degradeConfig(Config);
  }
  if (T.Obs.Trace)
    Result.Trace.push_back(marker(Attempts, 0,
                                  static_cast<uint64_t>(Config.Level),
                                  obs::TraceEventKind::Degrade));
  return true;
}

/// The one attempt loop. Each ladder rung gets 1 + MaxRetries attempts;
/// retry streams are keyed by mixSeed(config seed, retry), and each
/// engine then folds in the workload seed, so attempt 0 keeps the
/// trial's own stream. Every attempt is charged to the effective energy.
/// Without an enabled policy this is one attempt with no SLO, sanity
/// check or ladder, under the trial's own op budget.
TrialResult runAttempts(const Trial &T, const ResiliencePolicy &Policy) {
  FaultConfig Config = T.Config;
  if (Policy.Enabled)
    Config.OpBudgetOps = Policy.OpBudget;
  const int MaxRetries = Policy.Enabled ? Policy.MaxRetries : 0;
  // The interpreter scores against one precise run per trial.
  apps::AppOutput Reference;
  if (!T.Kernel)
    Reference = apps::runPrecise(*T.App, T.WorkloadSeed);

  TrialResult Result;
  Result.FinalLevel = Config.Level;
  int LadderSteps = 0;
  int Attempts = 0;
  double EnergySum = 0.0;
  std::array<uint64_t, env::NumPowerOpClasses> LastMix{};
  for (;;) {
    // A compiled trial runs each rung's own kernel, from the cache.
    const exec::CompiledKernel *Kernel = T.Kernel;
    if (Kernel && Kernel->Level != Config.Level) {
      if (!T.Kernels)
        break; // No program for this rung: keep the last attempt's verdict.
      Kernel = &T.Kernels->get(Kernel->AppName, Config.Level);
    }
    for (int Retry = 0; Retry <= MaxRetries; ++Retry) {
      FaultConfig AttemptConfig = Config;
      if (Retry > 0) {
        AttemptConfig.Seed = mixSeed(Config.Seed, static_cast<uint64_t>(Retry));
        if (T.Obs.Trace)
          Result.Trace.push_back(marker(Attempts, 0,
                                        static_cast<uint64_t>(Retry),
                                        obs::TraceEventKind::Retry));
      }
      Attempt A =
          Kernel ? runCompiledAttempt(*Kernel, T, AttemptConfig)
                 : runInterpAttempt(T, AttemptConfig, Reference, Policy);
      ++Attempts;
      Result.Stats = A.Stats;
      Result.Energy = computeEnergy(A.Stats, AttemptConfig);
      Result.FinalLevel = AttemptConfig.Level;
      Result.Error = A.Error;
      Result.ClockCycles = A.EndCycle;
      EnergySum += Result.Energy.TotalFactor * A.Power.overheadRatio();
      accumulatePower(Result.Power, A.Power);
      LastMix = A.PowerMix;
      Result.QosError = A.failed() ? 1.0 : A.QosError;
      bool Accepted =
          !A.failed() && (!Policy.Enabled || Result.QosError <= Policy.Slo);
      if (T.Obs.Trace)
        collectAttemptTrace(Result, A, Attempts - 1, AttemptConfig.Level,
                            Accepted);
      if (T.Obs.enabled()) {
        // The recorded attempt's registry replaces the previous one
        // (parallel to Stats). Earlier attempts' region names are
        // re-interned in id order so their trace events keep resolving —
        // within a trial, every attempt interns regions in the same
        // execution order, so each name lands back on its old id.
        obs::MetricsRegistry Prev = std::move(Result.Metrics);
        Result.Metrics = std::move(A.Metrics);
        for (uint32_t R = 0; R < Prev.regionCount(); ++R)
          Result.Metrics.internRegion(Prev.regionName(R));
      }
      if (Accepted) {
        Result.Outcome = LadderSteps > 0 ? TrialOutcome::Degraded
                         : Attempts > 1  ? TrialOutcome::Retried
                                         : TrialOutcome::Ok;
        Result.Attempts = Attempts;
        Result.EffectiveEnergyFactor = EnergySum;
        return Result;
      }
      Result.Outcome = A.PowerFailed ? TrialOutcome::PowerFailed
                       : A.Aborted   ? TrialOutcome::Aborted
                                     : TrialOutcome::SloViolated;
    }
    if (!advanceLadder(T, Policy, LastMix, Config, Result, Attempts))
      break;
    ++LadderSteps;
  }
  // Every permitted attempt failed; Result holds the last attempt.
  Result.Attempts = std::max(Attempts, 1);
  Result.EffectiveEnergyFactor = EnergySum;
  return Result;
}

} // namespace

TrialResult TrialRunner::runOne(const Trial &T) {
  return runOne(T, ResiliencePolicy{});
}

TrialResult TrialRunner::runOne(const Trial &T,
                                const ResiliencePolicy &Policy) {
  // Containment at the trial boundary: what escapes the attempt loop (a
  // throwing precise reference, a kernel that fails to lower, a non-std
  // exception) becomes a failed result instead of std::terminate tearing
  // down the pool.
  std::string Error;
  try {
    return runAttempts(T, Policy);
  } catch (const std::exception &E) {
    Error = E.what();
  } catch (...) {
    Error = "unknown exception escaped the trial";
  }
  TrialResult Failed;
  Failed.QosError = 1.0;
  Failed.Outcome = TrialOutcome::Aborted;
  Failed.FinalLevel = T.Config.Level;
  Failed.EffectiveEnergyFactor = 0.0;
  Failed.Error = std::move(Error);
  return Failed;
}

std::vector<TrialResult> TrialRunner::run(
    const std::vector<Trial> &Trials) const {
  return run(Trials, ResiliencePolicy{});
}

std::vector<TrialResult> TrialRunner::run(
    const std::vector<Trial> &Trials, const ResiliencePolicy &Policy) const {
  return run(Trials, Policy, ProgressFn());
}

std::vector<TrialResult> TrialRunner::run(const std::vector<Trial> &Trials,
                                          const ResiliencePolicy &Policy,
                                          const ProgressFn &Progress) const {
  std::vector<TrialResult> Results(Trials.size());
  // Lock-free work queue: one atomic ticket counter; each worker owns the
  // disjoint result slots of the trials it claims, so no further
  // synchronization is needed until join. Progress notification is the
  // one exception: a mutex serializes observer calls and the Done count,
  // keeping the hot path untouched when no observer is attached.
  std::atomic<size_t> Next{0};
  std::mutex ProgressMutex;
  size_t Done = 0;
  auto Worker = [&Trials, &Results, &Next, &Policy, &Progress,
                 &ProgressMutex, &Done]() {
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Trials.size())
        return;
      Results[I] = runOne(Trials[I], Policy);
      if (Progress) {
        std::lock_guard<std::mutex> Lock(ProgressMutex);
        Progress(++Done, Results[I]);
      }
    }
  };

  size_t Workers = std::min<size_t>(Threads, Trials.size());
  if (Workers <= 1) {
    Worker(); // Inline: a single worker needs no thread.
    return Results;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (size_t W = 0; W < Workers; ++W)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return Results;
}
