//===- tests/power_survival_test.cpp - Survival under intermittent supply -===//
//
// The headline numbers of the power environment, pinned exactly: the
// full nine-app, three-level evaluation grid runs through
// harness::runEval under a brownout and a harvesting supply, each once
// without checkpointing and once with periodic:2000. The grid is a pure
// function of its options, so for every (trace, checkpoint, level) the
// survival count, the loss / checkpoint / re-execution counters and the
// energy means must reproduce exactly.
//
// On top of the pinned table, the physics that must hold whatever the
// numbers are:
//
//  * checkpointing never lowers survival and, whenever the bare run lost
//    power, strictly cuts the re-executed ops;
//  * effective energy >= plain energy in every cell (re-execution is
//    charged, never refunded).
//
//===----------------------------------------------------------------------===//

#include "harness/eval.h"

#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <vector>

using namespace enerj;
using namespace enerj::harness;

namespace {

constexpr int Seeds = 2;

/// One (trace, checkpoint, level) row: the grid's cells at that level,
/// folded. Counters are summed over the nine apps' seeds; the energy
/// figures are the mean of the cells' means.
struct Row {
  const char *Trace;
  const char *Checkpoint;
  ApproxLevel Level;
  uint64_t Survived;
  uint64_t Losses;
  uint64_t Checkpoints;
  uint64_t ReExecutedOps;
  double EnergyMean;
  double EffectiveEnergyMean;
};

const char *const Traces[] = {"brownout", "harvest"};
const char *const CheckpointSpecs[] = {"none", "periodic:2000"};

/// Runs the full grid under every (trace, checkpoint) and folds it into
/// rows in (trace, checkpoint, evalLevels()) order. Computed once.
const std::vector<Row> &measuredRows() {
  static const std::vector<Row> Rows = [] {
    std::vector<Row> Out;
    for (const char *Trace : Traces)
      for (const char *Checkpoint : CheckpointSpecs) {
        EvalOptions Options;
        Options.Seeds = Seeds;
        Options.PowerArmed = true;
        Options.Power.Trace = *env::PowerTraceSpec::preset(Trace, nullptr);
        Options.Power.Checkpoint =
            *env::CheckpointPolicy::parse(Checkpoint, nullptr);
        EvalResult Result = runEval(Options);
        for (ApproxLevel Level : Result.Levels) {
          Row R{Trace, Checkpoint, Level, 0, 0, 0, 0, 0.0, 0.0};
          double EnergySum = 0.0, EffectiveSum = 0.0;
          int Cells = 0;
          for (const EvalCell &Cell : Result.Cells) {
            if (Cell.Level != Level)
              continue;
            R.Survived += Cell.PowerSurvived;
            R.Losses += Cell.PowerLosses;
            R.Checkpoints += Cell.PowerCheckpoints;
            R.ReExecutedOps += Cell.PowerReExecutedOps;
            EnergySum += Cell.EnergyFactor.Mean;
            EffectiveSum += Cell.EffectiveEnergy.Mean;
            ++Cells;
          }
          R.EnergyMean = EnergySum / Cells;
          R.EffectiveEnergyMean = EffectiveSum / Cells;
          Out.push_back(R);
        }
      }
    return Out;
  }();
  return Rows;
}

const Row &rowFor(const char *Trace, const char *Checkpoint,
                  ApproxLevel Level) {
  for (const Row &R : measuredRows())
    if (std::string(R.Trace) == Trace &&
        std::string(R.Checkpoint) == Checkpoint && R.Level == Level)
      return R;
  ADD_FAILURE() << "no row for " << Trace << "/" << Checkpoint;
  return measuredRows().front();
}

std::string where(const Row &R) {
  return std::string(R.Trace) + "/" + R.Checkpoint + "/" +
         approxLevelName(R.Level);
}

/// The pinned grid, in measuredRows() order.
const Row Expected[] = {
    {"brownout", "none", ApproxLevel::Mild, 12, 1542, 0, 65404251,
     0.82800352350240825, 15.89045950522658},
    {"brownout", "none", ApproxLevel::Medium, 12, 1542, 0, 65796111,
     0.76315808637309546, 14.826425978831489},
    {"brownout", "none", ApproxLevel::Aggressive, 12, 1542, 0, 65872004,
     0.73737438476656214, 14.410569899868603},
    {"brownout", "periodic:2000", ApproxLevel::Mild, 18, 50, 1727, 26420,
     0.82800352350240825, 0.85586671513220569},
    {"brownout", "periodic:2000", ApproxLevel::Medium, 18, 50, 1727, 35464,
     0.76315808637309546, 0.79249038675766748},
    {"brownout", "periodic:2000", ApproxLevel::Aggressive, 18, 50, 1702,
     38441, 0.73737438476656214, 0.76647433734809811},
    {"harvest", "none", ApproxLevel::Mild, 16, 1091, 0, 14601784,
     0.82800352350240825, 2.8617545014253398},
    {"harvest", "none", ApproxLevel::Medium, 16, 1037, 0, 16591327,
     0.76315808637309546, 2.7281857622571235},
    {"harvest", "none", ApproxLevel::Aggressive, 16, 926, 0, 15393073,
     0.73737438476656214, 2.4950838190780282},
    {"harvest", "periodic:2000", ApproxLevel::Mild, 18, 443, 1727, 347011,
     0.82800352350240825, 1.0206987036441688},
    {"harvest", "periodic:2000", ApproxLevel::Medium, 18, 356, 1727, 381863,
     0.76315808637309546, 0.9342542812480471},
    {"harvest", "periodic:2000", ApproxLevel::Aggressive, 18, 348, 1702,
     296920, 0.73737438476656214, 0.89958420647728821},
};

} // namespace

TEST(PowerSurvival, GridMatchesThePinnedTable) {
  const std::vector<Row> &Rows = measuredRows();
  ASSERT_EQ(Rows.size(), std::size(Expected));
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &Got = Rows[I];
    const Row &Want = Expected[I];
    SCOPED_TRACE(where(Want));
    ASSERT_EQ(where(Got), where(Want));
    EXPECT_EQ(Got.Survived, Want.Survived);
    EXPECT_EQ(Got.Losses, Want.Losses);
    EXPECT_EQ(Got.Checkpoints, Want.Checkpoints);
    EXPECT_EQ(Got.ReExecutedOps, Want.ReExecutedOps);
    EXPECT_DOUBLE_EQ(Got.EnergyMean, Want.EnergyMean);
    EXPECT_DOUBLE_EQ(Got.EffectiveEnergyMean, Want.EffectiveEnergyMean);
  }
}

TEST(PowerSurvival, CheckpointingNeverLowersSurvivalAndCutsReExecution) {
  for (const char *Trace : Traces)
    for (ApproxLevel Level :
         {ApproxLevel::Mild, ApproxLevel::Medium, ApproxLevel::Aggressive}) {
      const Row &Bare = rowFor(Trace, "none", Level);
      const Row &Checkpointed = rowFor(Trace, "periodic:2000", Level);
      SCOPED_TRACE(where(Checkpointed));
      EXPECT_GE(Checkpointed.Survived, Bare.Survived);
      if (Bare.Losses > 0) {
        EXPECT_LT(Checkpointed.ReExecutedOps, Bare.ReExecutedOps);
      }
    }
}

TEST(PowerSurvival, EffectiveEnergyNeverBelowPlainEnergy) {
  for (const Row &R : measuredRows()) {
    SCOPED_TRACE(where(R));
    EXPECT_GE(R.EffectiveEnergyMean, R.EnergyMean);
  }
}
