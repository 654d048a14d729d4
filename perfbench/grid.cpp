//===- perfbench/grid.cpp - The benchmark's eval grids --------------------===//

#include "grid.h"

#include "obs/journal.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace enerj;
using namespace enerj::harness;

namespace perfbench {

const WorkloadSpec *findWorkload(const std::string &Name) {
  static const WorkloadSpec Workloads[] = {
      {"interp_grid", ExecMode::Interp, 3, false},
      {"compiled_grid", ExecMode::Compiled, 20, false},
      {"recovery_grid", ExecMode::Interp, 2, true},
  };
  for (const WorkloadSpec &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

EvalOptions evalOptions(const WorkloadSpec &W) {
  // --seeds S --exec-mode <mode>, plus for recovery_grid:
  // --power-trace brownout --checkpoint periodic:2000 --slo 0.05
  // --max-retries 2 --journal-dir <dir>.
  EvalOptions Options;
  Options.Seeds = W.Seeds;
  Options.Exec = W.Exec;
  Options.EchoExecMode = true;
  Options.KernelDir = PERFBENCH_KERNEL_DIR;
  if (W.Recovery) {
    std::string Error;
    std::optional<env::PowerTraceSpec> Trace =
        env::PowerTraceSpec::preset("brownout", &Error);
    std::optional<env::CheckpointPolicy> Checkpoint =
        env::CheckpointPolicy::parse("periodic:2000", &Error);
    if (!Trace || !Checkpoint)
      throw std::runtime_error("recovery_grid power environment: " + Error);
    Options.Power.Trace = std::move(*Trace);
    Options.Power.Checkpoint = std::move(*Checkpoint);
    Options.PowerArmed = true;
    Options.Policy.Enabled = true;
    Options.Policy.Slo = 0.05;
    Options.Policy.MaxRetries = 2;
    Options.Journal = true;
  }
  return Options;
}

void planGrid(const EvalOptions &Options,
              const std::vector<const apps::Application *> &Apps,
              uint64_t FirstSeed, GridPlan &Plan) {
  if (Options.Exec == ExecMode::Compiled)
    Plan.Kernels.emplace(Options.KernelDir);
  Plan.Trials.reserve(Apps.size() * evalLevels().size() * Options.Seeds);
  for (const apps::Application *App : Apps)
    for (ApproxLevel Level : evalLevels()) {
      FaultConfig Config = FaultConfig::preset(Level);
      const exec::CompiledKernel *Kernel =
          Plan.Kernels ? &Plan.Kernels->get(App->name(), Level) : nullptr;
      for (int S = 0; S < Options.Seeds; ++S) {
        Trial T;
        T.App = App;
        T.Config = Config;
        T.WorkloadSeed = FirstSeed + static_cast<uint64_t>(S);
        T.Obs.Metrics = Options.Metrics;
        T.Obs.Trace = Options.Journal;
        T.Kernel = Kernel;
        T.Kernels = Plan.Kernels ? &*Plan.Kernels : nullptr;
        T.Power = Options.PowerArmed ? &Options.Power : nullptr;
        Plan.Trials.push_back(std::move(T));
      }
    }
}

GridRun runGrid(const EvalOptions &Options, const GridRunSpec &Spec) {
  const std::vector<const apps::Application *> &Apps =
      Spec.Apps ? *Spec.Apps : apps::allApplications();
  GridRun Run;
  Clock::time_point Start = Clock::now();
  GridPlan Plan;
  {
    SpanScope Span(Spec.Log, "harness.setup");
    planGrid(Options, Apps, Spec.FirstSeed, Plan);
  }
  const std::vector<Trial> &Trials = Plan.Trials;
  Run.SetupSec = secondsSince(Start);

  Clock::time_point TrialsStart = Clock::now();
  TrialRunner::ProgressFn Observe;
  if (Spec.ObserveTrials) {
    Run.DoneAt.reserve(Trials.size());
    Run.DoneBy.reserve(Trials.size());
    // Called on the worker that ran the trial, serialized by the runner.
    Observe = [&Run, TrialsStart](size_t, const TrialResult &) {
      Run.DoneAt.push_back(secondsSince(TrialsStart));
      Run.DoneBy.push_back(std::this_thread::get_id());
    };
  }
  {
    SpanScope Span(Spec.Log, "harness.run");
    Run.Trials = TrialRunner(Spec.Threads).run(Trials, Options.Policy, Observe);
  }
  Run.TrialsSec = secondsSince(TrialsStart);

  {
    SpanScope Span(Spec.Log, "harness.aggregate");
    Run.Result = aggregate(Options, Apps, Spec.FirstSeed, Trials, Run.Trials);
  }
  {
    SpanScope Span(Spec.Log, "harness.render");
    Run.Json = renderEvalJson(Run.Result);
  }
  if (Options.Journal) {
    SpanScope Span(Spec.Log, "obs.journal_write");
    std::filesystem::create_directories(Spec.JournalDir);
    std::string Error;
    Run.Journals = obs::writeJournals(Run.Result, Spec.JournalDir, &Error);
    if (!Error.empty())
      throw std::runtime_error("writing journals: " + Error);
  }
  Run.WallSec = secondsSince(Start);
  for (const std::string &Path : Run.Journals)
    Run.JournalBytes += std::filesystem::file_size(Path);
  return Run;
}

std::vector<double> trialDurations(const GridRun &Run) {
  std::vector<double> Durations;
  double Previous = 0.0;
  for (double Done : Run.DoneAt) {
    Durations.push_back(Done - Previous);
    Previous = Done;
  }
  return Durations;
}

EvalResult aggregate(const EvalOptions &Options,
                     const std::vector<const apps::Application *> &Apps,
                     uint64_t FirstSeed, const std::vector<Trial> &Trials,
                     const std::vector<TrialResult> &Results) {
  EvalResult Result;
  Result.Apps = Apps;
  Result.Levels = evalLevels();
  Result.Seeds = Options.Seeds;
  Result.Policy = Options.Policy;
  Result.MetricsCollected = Options.Metrics;
  Result.Exec = Options.Exec;
  Result.EchoExecMode = Options.EchoExecMode;
  Result.Power = Options.Power;
  Result.PowerArmed = Options.PowerArmed;

  size_t Index = 0;
  for (const apps::Application *App : Result.Apps)
    for (ApproxLevel Level : Result.Levels) {
      EvalCell Cell;
      Cell.App = App;
      Cell.Level = Level;
      std::vector<double> Qos, Energy, Effective;
      for (int S = 0; S < Result.Seeds; ++S, ++Index) {
        const TrialResult &T = Results[Index];
        bool Sampled = Options.JournalOkSampleEvery > 0 &&
                       S % Options.JournalOkSampleEvery == 0;
        if (Options.Journal &&
            (T.Outcome != resilience::TrialOutcome::Ok || Sampled)) {
          TrialRecord Record;
          Record.AppName = App->name();
          Record.Level = Level;
          Record.WorkloadSeed = FirstSeed + static_cast<uint64_t>(S);
          Record.Config = Trials[Index].Config;
          Record.Obs = Trials[Index].Obs;
          Record.Result = T;
          Result.Journaled.push_back(std::move(Record));
        }
        Qos.push_back(T.QosError);
        Energy.push_back(T.Energy.TotalFactor);
        Effective.push_back(T.EffectiveEnergyFactor);
        Cell.Outcomes.add(T.Outcome);
        Cell.Retries += static_cast<uint64_t>(T.Attempts - 1);
        if (Options.Metrics)
          Cell.Metrics.merge(T.Metrics);
        if (Result.PowerArmed) {
          Cell.PowerLosses += T.Power.Losses;
          Cell.PowerCheckpoints += T.Power.Checkpoints;
          Cell.PowerReExecutedOps += T.Power.ReExecutedOps;
          if (T.Outcome != resilience::TrialOutcome::PowerFailed)
            ++Cell.PowerSurvived;
        }
        if (S == 0)
          Cell.Seed1 = T;
      }
      Cell.Qos = TrialStats::over(Qos);
      Cell.EnergyFactor = TrialStats::over(Energy);
      Cell.EffectiveEnergy = TrialStats::over(Effective);
      Result.Cells.push_back(std::move(Cell));
    }
  return Result;
}

std::string checkCells(const EvalResult &Result) {
  uint64_t Seeds = static_cast<uint64_t>(Result.Seeds);
  for (const EvalCell &Cell : Result.Cells) {
    std::string Where = std::string(Cell.App->name()) + "/" +
                        approxLevelName(Cell.Level) + ": ";
    if (Cell.Outcomes.total() != Seeds)
      return Where + "outcomes do not sum to the seed count";
    if (!(Cell.Qos.Min >= 0.0 && Cell.Qos.Max <= 1.0))
      return Where + "QoS error outside [0, 1]";
    if (Result.PowerArmed &&
        Cell.PowerSurvived + Cell.Outcomes.PowerFailed != Seeds)
      return Where + "survived + powerFailed differs from the seed count";
  }
  return "";
}

std::string checkParity(const EvalOptions &Options, unsigned Threads,
                        const std::string &JournalDir) {
  EvalOptions One = Options;
  One.Seeds = 1;
  One.Threads = Threads;
  EvalResult Expected = runEval(One);
  GridRunSpec Spec;
  Spec.Threads = Threads;
  Spec.JournalDir = JournalDir;
  GridRun Got = runGrid(One, Spec);
  std::filesystem::remove_all(JournalDir);
  if (Got.Json != renderEvalJson(Expected))
    return "eval JSON differs from harness::runEval's";
  if (Got.Result.Journaled.size() != Expected.Journaled.size())
    return "journal selection differs from harness::runEval's";
  return "";
}

std::string checkReplay(const GridRun &Run, const std::string &KernelDir) {
  if (Run.Journals.empty())
    return "no journal was written";
  std::ifstream In(Run.Journals.front());
  std::ostringstream Text;
  Text << In.rdbuf();
  obs::Journal J;
  std::string Error;
  if (!obs::parseJournalJson(Text.str(), &J, &Error))
    return "journal does not parse: " + Error;
  obs::ReplayResult Replay = obs::replayJournal(J, KernelDir);
  if (!Replay.Match)
    return "journal replay digest mismatch: recorded " +
           Replay.RecordedJson + ", replayed " + Replay.ReplayedJson;
  return "";
}

} // namespace perfbench
