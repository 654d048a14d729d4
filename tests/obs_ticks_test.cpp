//===- tests/obs_ticks_test.cpp - Simulator op-ticking coverage audit -----===//
//
// The telemetry layer's coverage contract, cross-checked for every
// application: each dynamic operation the simulator counts into
// RunStats is recorded at exactly one registry site, every
// clock-advancing operation is a ticking site, and therefore the
// merged registry reconciles exactly with both the ledger clock and
// the operation statistics. Also pins the zero-perturbation contract:
// an instrumented run is bitwise identical to an uninstrumented one,
// including a run that throws part way through.
//
//===----------------------------------------------------------------------===//

#include "harness/trial.h"
#include "obs/metrics.h"
#include "runtime/simulator.h"

#include <cstring>
#include <gtest/gtest.h>
#include <stdexcept>

using namespace enerj;
using namespace enerj::harness;

namespace {

uint64_t bitsOf(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

/// Sum of site counts of one op kind across all regions.
uint64_t kindTotal(const obs::MetricsRegistry &M, obs::OpKind Kind) {
  uint64_t Sum = 0;
  for (size_t I = 0; I < M.siteCount(); ++I)
    if (M.siteKey(I).Kind == Kind)
      Sum += M.site(I).Count;
  return Sum;
}

/// Counts 1000 precise ops under a simulator, then throws; the precise
/// reference run (no simulator) completes normally.
class ThrowAfterWorkApp : public apps::Application {
public:
  const char *name() const override { return "throw-after-work"; }
  const char *description() const override { return "test double"; }
  const char *qosMetricName() const override { return "none"; }
  apps::AnnotationStats annotations() const override { return {}; }
  apps::AppOutput run(uint64_t) const override {
    if (Simulator *Sim = Simulator::current()) {
      for (int I = 0; I < 1000; ++I)
        Sim->countPreciseInt();
      throw std::runtime_error("deliberate failure after work");
    }
    return {{1.0}, {}, {}};
  }
  double qosError(const apps::AppOutput &,
                  const apps::AppOutput &) const override {
    return 0.0;
  }
};

} // namespace

TEST(ObsTickAudit, RegistryReconcilesWithLedgerAndStatsForEveryApp) {
  // Budget-less instrumented runs: the attempt runs to completion, so
  // the registry must cover every ledger tick — a new simulator op
  // path that forgets telemetry shows up here as a tick deficit.
  for (const apps::Application *App : apps::allApplications()) {
    SCOPED_TRACE(App->name());
    Trial T;
    T.App = App;
    T.Config = FaultConfig::preset(ApproxLevel::Medium);
    T.WorkloadSeed = 1;
    T.Obs.Metrics = true;
    TrialResult R = TrialRunner::runOne(T);

    EXPECT_GT(R.ClockCycles, 0u);
    EXPECT_EQ(R.ClockCycles, R.Metrics.totalTicks());

    // The four arithmetic kinds must agree with RunStats op for op.
    EXPECT_EQ(kindTotal(R.Metrics, obs::OpKind::PreciseInt),
              R.Stats.Ops.PreciseInt);
    EXPECT_EQ(kindTotal(R.Metrics, obs::OpKind::ApproxInt),
              R.Stats.Ops.ApproxInt);
    EXPECT_EQ(kindTotal(R.Metrics, obs::OpKind::PreciseFp),
              R.Stats.Ops.PreciseFp);
    EXPECT_EQ(kindTotal(R.Metrics, obs::OpKind::ApproxFp),
              R.Stats.Ops.ApproxFp);

    // Ticks = arithmetic ops + DRAM accesses; SRAM traffic is the
    // remainder of totalOps. Both identities catch double-counting.
    uint64_t Arithmetic = R.Stats.Ops.PreciseInt + R.Stats.Ops.ApproxInt +
                          R.Stats.Ops.PreciseFp + R.Stats.Ops.ApproxFp;
    uint64_t Dram = kindTotal(R.Metrics, obs::OpKind::DramLoad) +
                    kindTotal(R.Metrics, obs::OpKind::DramStore);
    EXPECT_EQ(R.Metrics.totalTicks(), Arithmetic + Dram);
    uint64_t Sram = kindTotal(R.Metrics, obs::OpKind::SramRead) +
                    kindTotal(R.Metrics, obs::OpKind::SramWrite);
    EXPECT_EQ(R.Metrics.totalOps(), Arithmetic + Dram + Sram);
  }
}

TEST(ObsTickAudit, ObservationNeverPerturbsTheMeasuredRun) {
  // The whole point of XOR-based fault detection: with telemetry on,
  // the fault stream, the QoS error, and every statistic are bitwise
  // what they are with telemetry off — for every app, at the most
  // aggressive level, where any stray RNG draw would diverge fastest.
  for (const apps::Application *App : apps::allApplications()) {
    SCOPED_TRACE(App->name());
    Trial Plain;
    Plain.App = App;
    Plain.Config = FaultConfig::preset(ApproxLevel::Aggressive);
    Plain.WorkloadSeed = 2;

    Trial Instrumented = Plain;
    Instrumented.Obs.Metrics = true;
    Instrumented.Obs.Trace = true;

    TrialResult Off = TrialRunner::runOne(Plain);
    TrialResult On = TrialRunner::runOne(Instrumented);

    EXPECT_EQ(bitsOf(Off.QosError), bitsOf(On.QosError));
    EXPECT_EQ(Off.Stats.Ops.PreciseInt, On.Stats.Ops.PreciseInt);
    EXPECT_EQ(Off.Stats.Ops.ApproxInt, On.Stats.Ops.ApproxInt);
    EXPECT_EQ(Off.Stats.Ops.PreciseFp, On.Stats.Ops.PreciseFp);
    EXPECT_EQ(Off.Stats.Ops.ApproxFp, On.Stats.Ops.ApproxFp);
    EXPECT_EQ(Off.Stats.Ops.TimingErrors, On.Stats.Ops.TimingErrors);
    EXPECT_EQ(bitsOf(Off.Stats.Storage.SramApprox),
              bitsOf(On.Stats.Storage.SramApprox));
    EXPECT_EQ(bitsOf(Off.Stats.Storage.DramApprox),
              bitsOf(On.Stats.Storage.DramApprox));
    EXPECT_EQ(bitsOf(Off.Energy.TotalFactor),
              bitsOf(On.Energy.TotalFactor));
    // Both paths read the clock; only the telemetry is optional.
    EXPECT_EQ(Off.ClockCycles, On.ClockCycles);
    // The zero-cost path really collected nothing.
    EXPECT_EQ(Off.Metrics.totalOps(), 0u);
    EXPECT_TRUE(Off.Trace.empty());
  }
}

TEST(ObsTickAudit, ThrowingTrialRecordsTheSameWithAndWithoutTelemetry) {
  // A trial that throws mid-run keeps its partial statistics and energy
  // whether or not telemetry is on: observation never changes what the
  // harness records, even for an aborted attempt.
  ThrowAfterWorkApp App;
  Trial Plain;
  Plain.App = &App;
  Plain.Config = FaultConfig::preset(ApproxLevel::Medium);
  Trial Instrumented = Plain;
  Instrumented.Obs.Metrics = true;

  std::vector<TrialResult> Results =
      TrialRunner(1).run({Plain, Instrumented});
  ASSERT_EQ(Results.size(), 2u);
  const TrialResult &Off = Results[0];
  const TrialResult &On = Results[1];

  EXPECT_EQ(Off.Outcome, resilience::TrialOutcome::Aborted);
  EXPECT_EQ(Off.Outcome, On.Outcome);
  EXPECT_EQ(Off.Error, "deliberate failure after work");
  EXPECT_EQ(Off.Error, On.Error);
  EXPECT_EQ(Off.Stats.Ops.PreciseInt, 1000u);
  EXPECT_EQ(Off.Stats.Ops.PreciseInt, On.Stats.Ops.PreciseInt);
  EXPECT_EQ(Off.Stats.Ops.ApproxInt, On.Stats.Ops.ApproxInt);
  EXPECT_EQ(Off.Stats.Ops.PreciseFp, On.Stats.Ops.PreciseFp);
  EXPECT_EQ(Off.Stats.Ops.ApproxFp, On.Stats.Ops.ApproxFp);
  EXPECT_GT(Off.EffectiveEnergyFactor, 0.0);
  EXPECT_EQ(bitsOf(Off.EffectiveEnergyFactor),
            bitsOf(On.EffectiveEnergyFactor));
  EXPECT_EQ(Off.ClockCycles, 1000u);
  EXPECT_EQ(Off.ClockCycles, On.ClockCycles);
}

TEST(ObsTickAudit, RegionStorageSumsToTheGlobalSnapshot) {
  // The tagged per-region storage snapshot must partition the global
  // one: summing the tagged rows reproduces Stats.Storage.
  Trial T;
  T.App = apps::findApplication("lu");
  ASSERT_NE(T.App, nullptr);
  T.Config = FaultConfig::preset(ApproxLevel::Medium);
  T.WorkloadSeed = 1;
  T.Obs.Metrics = true;
  TrialResult R = TrialRunner::runOne(T);

  StorageStats Tagged;
  for (const StorageStats &S : R.Metrics.regionStorage())
    Tagged += S;
  EXPECT_EQ(bitsOf(Tagged.SramPrecise), bitsOf(R.Stats.Storage.SramPrecise));
  EXPECT_EQ(bitsOf(Tagged.SramApprox), bitsOf(R.Stats.Storage.SramApprox));
  EXPECT_EQ(bitsOf(Tagged.DramPrecise), bitsOf(R.Stats.Storage.DramPrecise));
  EXPECT_EQ(bitsOf(Tagged.DramApprox), bitsOf(R.Stats.Storage.DramApprox));
}
