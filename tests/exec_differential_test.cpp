//===- tests/exec_differential_test.cpp - Compiled vs interpreter gate ----===//
//
// The compiled evaluation path's end-to-end contract, differentially
// pinned against the authoritative paths:
//
//  * machine layer — on every (app, level) kernel binary at level None,
//    exec::FastMachine's final state is *bitwise* identical to
//    isa::Machine's: trap behavior, instruction count, both register
//    files, the full memory image, and every operation/storage counter.
//    Under approximation the two consume randomness in different orders
//    (block-drawn sparse sampling vs per-op draws), so the gate there is
//    statistical, exactly like the optimizer's (opt_differential_test):
//    the FastMachine trials' mean r1+f1 must lie within the classic
//    machine trials' 95% CI band, per kernel, at Medium and Aggressive;
//  * batched-vs-scalar — a FastMachine in Batched mode is bitwise
//    identical to one in Scalar reference mode on the same trial (the
//    block layer's contract, composed through a whole execution);
//  * harness layer — a compiled runEval grid at level None agrees with
//    the interpreter grid bit for bit on the fields the two paths share
//    (QoS, energy factors, outcomes, retries), and the compiled grid's
//    JSON is byte-identical across thread counts {1, 4, hardware};
//  * cache layer — the ProgramCache compiles one kernel per (app,
//    level) cell and never serves one cell another cell's entry.
//
//===----------------------------------------------------------------------===//

#include "exec/compiled.h"
#include "exec/machine.h"
#include "harness/eval.h"
#include "harness/stats.h"
#include "isa/machine.h"
#include "support/rng.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <thread>

using namespace enerj;
using namespace enerj::harness;

namespace {

const char *KernelDir = ENERJ_FEJ_DIR "/isa";

uint64_t bitsOf(double Value) {
  uint64_t Bits;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

exec::ProgramCache &cache() {
  static exec::ProgramCache Cache(KernelDir);
  return Cache;
}

/// Full machine state after a run, for bitwise comparison.
struct State {
  bool Trapped = false;
  std::string TrapMessage;
  uint64_t Executed = 0;
  std::vector<int64_t> IntRegs;
  std::vector<uint64_t> FpBits;
  std::vector<uint64_t> MemBits;
  RunStats Stats;
};

State runClassic(const isa::IsaProgram &P, const FaultConfig &Config) {
  isa::Machine M(P, Config);
  isa::MachineResult R = M.run();
  State S;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Executed = R.InstructionsExecuted;
  for (unsigned I = 0; I < isa::NumIntRegs; ++I)
    S.IntRegs.push_back(M.intReg(I));
  for (unsigned I = 0; I < isa::NumFpRegs; ++I)
    S.FpBits.push_back(bitsOf(M.fpReg(I)));
  for (uint64_t A = 0; A < P.memoryWords(); ++A)
    S.MemBits.push_back(M.memBits(A));
  S.Stats = M.stats();
  return S;
}

State runFast(const isa::IsaProgram &P, const FaultConfig &Config,
              BlockMode Mode = BlockMode::Batched) {
  exec::FastMachine M(P, Config, Mode);
  exec::FastResult R = M.run();
  State S;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Executed = R.InstructionsExecuted;
  for (unsigned I = 0; I < isa::NumIntRegs; ++I)
    S.IntRegs.push_back(M.intReg(I));
  for (unsigned I = 0; I < isa::NumFpRegs; ++I)
    S.FpBits.push_back(bitsOf(M.fpReg(I)));
  for (uint64_t A = 0; A < P.memoryWords(); ++A)
    S.MemBits.push_back(M.memBits(A));
  S.Stats = M.stats();
  return S;
}

void expectStateEqual(const State &A, const State &B) {
  EXPECT_EQ(A.Trapped, B.Trapped) << A.TrapMessage << " / " << B.TrapMessage;
  EXPECT_EQ(A.TrapMessage, B.TrapMessage);
  EXPECT_EQ(A.Executed, B.Executed);
  EXPECT_EQ(A.IntRegs, B.IntRegs);
  EXPECT_EQ(A.FpBits, B.FpBits);
  EXPECT_EQ(A.MemBits, B.MemBits);
  EXPECT_EQ(A.Stats.Ops.PreciseInt, B.Stats.Ops.PreciseInt);
  EXPECT_EQ(A.Stats.Ops.ApproxInt, B.Stats.Ops.ApproxInt);
  EXPECT_EQ(A.Stats.Ops.PreciseFp, B.Stats.Ops.PreciseFp);
  EXPECT_EQ(A.Stats.Ops.ApproxFp, B.Stats.Ops.ApproxFp);
  EXPECT_EQ(A.Stats.Ops.TimingErrors, B.Stats.Ops.TimingErrors);
  EXPECT_EQ(bitsOf(A.Stats.Storage.SramPrecise),
            bitsOf(B.Stats.Storage.SramPrecise));
  EXPECT_EQ(bitsOf(A.Stats.Storage.SramApprox),
            bitsOf(B.Stats.Storage.SramApprox));
  EXPECT_EQ(bitsOf(A.Stats.Storage.DramPrecise),
            bitsOf(B.Stats.Storage.DramPrecise));
  EXPECT_EQ(bitsOf(A.Stats.Storage.DramApprox),
            bitsOf(B.Stats.Storage.DramApprox));
}

} // namespace

TEST(ExecDifferential, AllNineKernelsCompileForEveryLevel) {
  for (const apps::Application *App : apps::allApplications())
    for (ApproxLevel Level :
         {ApproxLevel::None, ApproxLevel::Mild, ApproxLevel::Medium,
          ApproxLevel::Aggressive}) {
      SCOPED_TRACE(App->name());
      const exec::CompiledKernel &K = cache().get(App->name(), Level);
      EXPECT_EQ(K.AppName, App->name());
      EXPECT_EQ(K.Level, Level);
      EXPECT_FALSE(K.Binary.Instructions.empty());
    }
  EXPECT_EQ(cache().size(), 9u * 4u);
}

TEST(ExecDifferential, CacheNeverCrossesCells) {
  // Distinct cells get distinct entries; repeated lookups get the same
  // entry (address identity — the trial lists point into the cache).
  const exec::CompiledKernel &A =
      cache().get("fft", ApproxLevel::Medium);
  const exec::CompiledKernel &B =
      cache().get("fft", ApproxLevel::Aggressive);
  const exec::CompiledKernel &C =
      cache().get("sor", ApproxLevel::Medium);
  EXPECT_NE(&A, &B);
  EXPECT_NE(&A, &C);
  EXPECT_EQ(&A, &cache().get("fft", ApproxLevel::Medium));
  EXPECT_EQ(A.AppName, "fft");
  EXPECT_EQ(C.AppName, "sor");
  EXPECT_THROW(cache().get("no-such-app", ApproxLevel::None),
               std::runtime_error);
}

TEST(ExecDifferential, FastMachineBitwiseMatchesClassicAtLevelNone) {
  // Level None consumes no randomness on either machine, so the entire
  // architected state must agree bit for bit on every kernel.
  FaultConfig None = FaultConfig::preset(ApproxLevel::None);
  for (const apps::Application *App : apps::allApplications()) {
    SCOPED_TRACE(App->name());
    const exec::CompiledKernel &K = cache().get(App->name(),
                                                ApproxLevel::None);
    State Classic = runClassic(K.Binary, None);
    State Fast = runFast(K.Binary, None);
    EXPECT_FALSE(Classic.Trapped) << Classic.TrapMessage;
    expectStateEqual(Classic, Fast);
  }
}

TEST(ExecDifferential, BatchedMatchesScalarThroughWholeExecutions) {
  // The block layer's bitwise contract composed through full runs: the
  // batched fast machine and the scalar-reference fast machine agree on
  // every bit of final state, per kernel, per level, per seed.
  for (const apps::Application *App : apps::allApplications())
    for (ApproxLevel Level : {ApproxLevel::Medium, ApproxLevel::Aggressive})
      for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
        SCOPED_TRACE(std::string(App->name()) + "/" +
                     approxLevelName(Level) + "/seed " +
                     std::to_string(Seed));
        const exec::CompiledKernel &K = cache().get(App->name(), Level);
        FaultConfig Config = FaultConfig::preset(Level);
        Config.Seed = mixSeed(Config.Seed, Seed);
        State Batched = runFast(K.Binary, Config, BlockMode::Batched);
        State Scalar = runFast(K.Binary, Config, BlockMode::Scalar);
        expectStateEqual(Batched, Scalar);
      }
}

TEST(ExecDifferential, ApproximateQosWithinInterpreterConfidenceInterval) {
  // Under approximation the fast machine's draw order differs from the
  // classic machine's by design, so the gate is statistical (the same
  // scheme opt_differential_test uses): per kernel and level, the fast
  // machine's mean r1+f1 over 20 seeds must lie within the classic
  // machine runs' 95% CI band.
  for (const apps::Application *App : apps::allApplications())
    for (ApproxLevel Level : {ApproxLevel::Medium, ApproxLevel::Aggressive}) {
      SCOPED_TRACE(std::string(App->name()) + "/" + approxLevelName(Level));
      const exec::CompiledKernel &K = cache().get(App->name(), Level);

      auto Sample = [&K, Level](bool Fast,
                                uint64_t Seed) -> std::optional<double> {
        FaultConfig Config = FaultConfig::preset(Level);
        Config.Seed = mixSeed(Config.Seed, Seed);
        State S = Fast ? runFast(K.Binary, Config)
                       : runClassic(K.Binary, Config);
        if (S.Trapped)
          return std::nullopt;
        double FpPart;
        std::memcpy(&FpPart, &S.FpBits[1], sizeof(FpPart));
        if (!std::isfinite(FpPart))
          FpPart = 0.0; // NaN/inf trials carry no usable magnitude.
        return static_cast<double>(S.IntRegs[1]) + FpPart;
      };

      std::vector<double> Classic, Fast;
      for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
        if (auto V = Sample(false, Seed))
          Classic.push_back(*V);
        if (auto V = Sample(true, Seed))
          Fast.push_back(*V);
      }
      if (Classic.size() < 5 || Fast.size() < 5)
        continue; // Too trap-happy at this level to compare.
      TrialStats ClassicStats = TrialStats::over(Classic);
      TrialStats FastStats = TrialStats::over(Fast);
      double Scale = std::max({std::fabs(ClassicStats.Mean), 1.0});
      double Band =
          ClassicStats.Ci95Half + FastStats.Ci95Half + 1e-9 * Scale;
      EXPECT_LE(std::fabs(FastStats.Mean - ClassicStats.Mean), Band)
          << "classic mean " << ClassicStats.Mean << " +/- "
          << ClassicStats.Ci95Half << ", fast mean " << FastStats.Mean;
    }
}

TEST(ExecDifferential, CompiledGridMatchesInterpreterAtLevelNone) {
  // The harness-level claim: at level None both paths run exactly and
  // save nothing, so the shared JSON fields of every cell — QoS stats,
  // energy factors, effective energy, outcomes, retries — agree bit for
  // bit across the full nine-app grid. (The op/storage columns describe
  // different programs — the ISA kernel vs the C++ app — and are
  // intentionally excluded.)
  EvalOptions Interp;
  Interp.Levels = {ApproxLevel::None};
  Interp.Seeds = 2;
  EvalResult InterpGrid = runEval(Interp);

  EvalOptions Compiled = Interp;
  Compiled.Exec = ExecMode::Compiled;
  Compiled.KernelDir = KernelDir;
  EvalResult CompiledGrid = runEval(Compiled);

  ASSERT_EQ(InterpGrid.Cells.size(), CompiledGrid.Cells.size());
  for (size_t I = 0; I < InterpGrid.Cells.size(); ++I) {
    const EvalCell &A = InterpGrid.Cells[I];
    const EvalCell &B = CompiledGrid.Cells[I];
    SCOPED_TRACE(A.App->name());
    auto ExpectStatsEqual = [](const TrialStats &X, const TrialStats &Y) {
      EXPECT_EQ(X.Count, Y.Count);
      EXPECT_EQ(bitsOf(X.Mean), bitsOf(Y.Mean));
      EXPECT_EQ(bitsOf(X.Stddev), bitsOf(Y.Stddev));
      EXPECT_EQ(bitsOf(X.Min), bitsOf(Y.Min));
      EXPECT_EQ(bitsOf(X.Max), bitsOf(Y.Max));
      EXPECT_EQ(bitsOf(X.Ci95Half), bitsOf(Y.Ci95Half));
    };
    ExpectStatsEqual(A.Qos, B.Qos);
    ExpectStatsEqual(A.EnergyFactor, B.EnergyFactor);
    ExpectStatsEqual(A.EffectiveEnergy, B.EffectiveEnergy);
    EXPECT_EQ(A.Outcomes.Ok, B.Outcomes.Ok);
    EXPECT_EQ(A.Outcomes.Aborted, B.Outcomes.Aborted);
    EXPECT_EQ(A.Retries, B.Retries);
  }
}

TEST(ExecDifferential, PolicyArmedCompiledMatchesInterpreterAtLevelNone) {
  // PR 8 lifted the compiled+policy restriction; the recovery loop on
  // the compiled path must agree with the interpreter loop wherever
  // agreement is exact. At level None both paths are precise: attempt 0
  // is accepted everywhere, so the shared cell fields — QoS, energy
  // factors, effective energy (exactly one attempt charged), outcomes,
  // and retries — agree bit for bit across the nine-app grid.
  EvalOptions Interp;
  Interp.Levels = {ApproxLevel::None};
  Interp.Seeds = 2;
  Interp.Policy.Enabled = true;
  Interp.Policy.Slo = 0.1;
  Interp.Policy.MaxRetries = 2;
  EvalResult InterpGrid = runEval(Interp);

  EvalOptions Compiled = Interp;
  Compiled.Exec = ExecMode::Compiled;
  Compiled.KernelDir = KernelDir;
  EvalResult CompiledGrid = runEval(Compiled);

  ASSERT_EQ(InterpGrid.Cells.size(), CompiledGrid.Cells.size());
  for (size_t I = 0; I < InterpGrid.Cells.size(); ++I) {
    const EvalCell &A = InterpGrid.Cells[I];
    const EvalCell &B = CompiledGrid.Cells[I];
    SCOPED_TRACE(A.App->name());
    EXPECT_EQ(bitsOf(A.Qos.Mean), bitsOf(B.Qos.Mean));
    EXPECT_EQ(bitsOf(A.EnergyFactor.Mean), bitsOf(B.EnergyFactor.Mean));
    EXPECT_EQ(bitsOf(A.EffectiveEnergy.Mean),
              bitsOf(B.EffectiveEnergy.Mean));
    EXPECT_EQ(A.Outcomes.Ok, B.Outcomes.Ok);
    EXPECT_EQ(A.Outcomes.Ok, 2u); // Precise: everything accepted as-is.
    EXPECT_EQ(A.Outcomes.SloViolated, B.Outcomes.SloViolated);
    EXPECT_EQ(A.Outcomes.Retried, B.Outcomes.Retried);
    EXPECT_EQ(A.Outcomes.Degraded, B.Outcomes.Degraded);
    EXPECT_EQ(A.Retries, B.Retries);
    EXPECT_EQ(A.Retries, 0u);
  }
}

TEST(ExecDifferential, AcceptAllPolicyLeavesTheCompiledMeasurementAlone) {
  // Attempt 0 of the compiled recovery loop runs with the unmixed trial
  // seed by construction, so a policy loose enough to accept every
  // attempt (SLO = 1 bounds QosError from above) must leave every
  // measured figure bitwise at the no-policy value, with exactly one
  // attempt charged.
  EvalOptions Plain;
  Plain.Levels = {ApproxLevel::Medium, ApproxLevel::Aggressive};
  Plain.Seeds = 2;
  Plain.Exec = ExecMode::Compiled;
  Plain.KernelDir = KernelDir;
  EvalResult PlainGrid = runEval(Plain);

  EvalOptions Loose = Plain;
  Loose.Policy.Enabled = true;
  Loose.Policy.Slo = 1.0;
  Loose.Policy.MaxRetries = 2;
  EvalResult LooseGrid = runEval(Loose);

  ASSERT_EQ(PlainGrid.Cells.size(), LooseGrid.Cells.size());
  for (size_t I = 0; I < PlainGrid.Cells.size(); ++I) {
    const EvalCell &A = PlainGrid.Cells[I];
    const EvalCell &B = LooseGrid.Cells[I];
    SCOPED_TRACE(std::string(A.App->name()) + "/" +
                 approxLevelName(A.Level));
    EXPECT_EQ(bitsOf(A.Qos.Mean), bitsOf(B.Qos.Mean));
    EXPECT_EQ(bitsOf(A.Qos.Stddev), bitsOf(B.Qos.Stddev));
    EXPECT_EQ(bitsOf(A.EnergyFactor.Mean), bitsOf(B.EnergyFactor.Mean));
    EXPECT_EQ(bitsOf(A.EffectiveEnergy.Mean),
              bitsOf(B.EffectiveEnergy.Mean));
    EXPECT_EQ(B.Retries, 0u);
  }
}

TEST(ExecDifferential, RecoveryLoopEnforcesTheSameContractOnBothPaths) {
  // Under approximation the two paths execute different artifacts (the
  // ISA kernel vs the C++ application), so their accepted-QoS values
  // are not directly comparable distributions. What must agree is the
  // recovery *contract*, checked per cell on both paths at Medium:
  //
  //  * with degradation on, the ladder bottoms out at level None (which
  //    is exact), so every trial is eventually accepted and the
  //    recorded mean sits at or under the SLO;
  //  * recovery never worsens a trial — a rejected attempt is only ever
  //    replaced by one at or under the SLO, so the policy-armed mean is
  //    sample-wise bounded by the no-policy mean of the same path.
  auto Grid = [](ExecMode Exec, bool Policy) {
    EvalOptions Options;
    Options.Levels = {ApproxLevel::Medium};
    Options.Seeds = 20;
    Options.Exec = Exec;
    if (Exec == ExecMode::Compiled)
      Options.KernelDir = KernelDir;
    if (Policy) {
      Options.Policy.Enabled = true;
      Options.Policy.Slo = 0.1;
      Options.Policy.MaxRetries = 1;
    }
    return runEval(Options);
  };

  for (ExecMode Exec : {ExecMode::Interp, ExecMode::Compiled}) {
    EvalResult Plain = Grid(Exec, false);
    EvalResult Recovered = Grid(Exec, true);
    ASSERT_EQ(Plain.Cells.size(), Recovered.Cells.size());
    for (size_t I = 0; I < Plain.Cells.size(); ++I) {
      const EvalCell &A = Plain.Cells[I];
      const EvalCell &B = Recovered.Cells[I];
      SCOPED_TRACE(std::string(Exec == ExecMode::Interp ? "interp/"
                                                        : "compiled/") +
                   A.App->name());
      EXPECT_EQ(B.Outcomes.Aborted, 0u);
      EXPECT_EQ(B.Outcomes.SloViolated, 0u);
      EXPECT_LE(B.Qos.Mean, 0.1 + 1e-12);
      EXPECT_LE(B.Qos.Mean, A.Qos.Mean + 1e-12)
          << "plain mean " << A.Qos.Mean << ", recovered mean "
          << B.Qos.Mean;
      // A cell whose plain mean already beat the SLO should mostly be
      // accepted as-is; one that did not must show interventions.
      if (A.Qos.Min > 0.1) {
        EXPECT_GT(B.Outcomes.Retried + B.Outcomes.Degraded, 0u);
      }
    }
  }
}

TEST(ExecDifferential, CompiledGridJsonIdenticalAcrossThreadCounts) {
  // Determinism contract, full grid at all three levels: the compiled
  // path's rendered JSON is byte-identical at 1, 4, and hardware
  // threads.
  auto Render = [](unsigned Threads) {
    EvalOptions Options;
    Options.Seeds = 2;
    Options.Threads = Threads;
    Options.Exec = ExecMode::Compiled;
    Options.EchoExecMode = true;
    Options.KernelDir = KernelDir;
    return renderEvalJson(runEval(Options));
  };
  std::string OneThread = Render(1);
  EXPECT_EQ(OneThread, Render(4));
  unsigned Hardware = std::thread::hardware_concurrency();
  if (Hardware == 0)
    Hardware = 1;
  EXPECT_EQ(OneThread, Render(Hardware));
  EXPECT_NE(OneThread.find("\"execMode\":\"compiled\""), std::string::npos);
  EXPECT_NE(OneThread.find("\"version\":4"), std::string::npos);
}

TEST(ExecDifferential, CompiledMetricsSumExactly) {
  // eval --metrics on the compiled path: per-site counts keyed by the
  // kernel's ISA regions must reproduce the trial's own operation
  // counters exactly — the "--metrics still sums" contract.
  const exec::CompiledKernel &K =
      cache().get("montecarlo", ApproxLevel::Medium);
  exec::CompiledTrialResult R =
      exec::runCompiledTrial(K, FaultConfig::preset(ApproxLevel::Medium),
                             1, /*CollectMetrics=*/true);
  ASSERT_FALSE(R.Trapped) << R.Error;

  // Per-kind site sums reproduce the trial's own operation counters
  // exactly — nothing dropped, nothing double-counted.
  auto KindCount = [&R](obs::OpKind Kind) {
    uint64_t N = 0;
    for (size_t S = 0; S < R.Metrics.siteCount(); ++S)
      if (R.Metrics.siteKey(S).Kind == Kind)
        N += R.Metrics.site(S).Count;
    return N;
  };
  EXPECT_EQ(KindCount(obs::OpKind::PreciseInt), R.Stats.Ops.PreciseInt);
  EXPECT_EQ(KindCount(obs::OpKind::ApproxInt), R.Stats.Ops.ApproxInt);
  EXPECT_EQ(KindCount(obs::OpKind::PreciseFp), R.Stats.Ops.PreciseFp);
  EXPECT_EQ(KindCount(obs::OpKind::ApproxFp), R.Stats.Ops.ApproxFp);
  EXPECT_GT(R.Metrics.totalOps(), 0u);
  // Moves and jumps tick the clock but are not counted operations, so
  // the ticking-site sum is bounded by the ledger clock (the validator's
  // ticks <= ops invariant holds by construction).
  EXPECT_LE(R.Metrics.totalTicks(), R.Cycles);
  EXPECT_LE(R.Metrics.totalTicks(), R.Metrics.totalOps());
  // Sites land in the kernel's regions, nowhere else.
  for (size_t S = 0; S < R.Metrics.siteCount(); ++S) {
    const std::string &Region =
        R.Metrics.regionName(R.Metrics.siteKey(S).Region);
    EXPECT_TRUE(Region == "montecarlo" || Region == "montecarlo/approx")
        << Region;
  }
}
