//===- perfbench/layers.cpp - The traced per-layer run --------------------===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// One traced pass runs the workload's grid four ways: untraced at 1 thread
// (trial durations from TrialRunner completion callbacks), traced at 1
// thread (spans around every layer call), untraced at N threads (pool
// busy share and straggler tail), and, on recovery_grid, with the flight
// recorder disarmed. Microbenchmarks of single layers follow. Passes
// repeat until the run's time is up; each metric is the median over
// passes, except the trial-time percentiles, which pool the trials of
// every pass. Every grid is output-checked like the untraced run's, and the
// traced grid must render the untraced grid's eval JSON byte for byte.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include "analysis/isa_flow.h"
#include "analysis/opt/pipeline.h"
#include "energy/model.h"
#include "fault/block.h"
#include "fault/rates.h"
#include "fenerj/codegen.h"
#include "fenerj/diag.h"
#include "fenerj/typecheck.h"
#include "isa/assembler.h"
#include "isa/verifier.h"
#include "runtime/simulator.h"
#include "support/rng.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

using namespace enerj;
using namespace enerj::harness;

namespace perfbench {
namespace {

/// Every per-layer metric the traced run reports, with its unit. A metric
/// a workload does not exercise reads 0.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"bench.wall_t1_ms", "ms"},
    {"bench.traced_wall_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"self_ms.harness", "ms"},
    {"self_ms.exec", "ms"},
    {"self_ms.fenerj", "ms"},
    {"self_ms.isa", "ms"},
    {"self_ms.analysis", "ms"},
    {"self_ms.runtime", "ms"},
    {"self_ms.apps", "ms"},
    {"self_ms.qos", "ms"},
    {"self_ms.energy", "ms"},
    {"self_ms.obs", "ms"},
    {"exec.lower_ms", "ms"},
    {"exec.lowerings", "count"},
    {"exec.distinct_binaries", "count"},
    {"fenerj.compile_ms", "ms"},
    {"fenerj.codegen_ms", "ms"},
    {"isa.assemble_ms", "ms"},
    {"isa.verify_ms", "ms"},
    {"analysis.flow_ms", "ms"},
    {"analysis.opt_ms", "ms"},
    {"analysis.opt_rewrites", "count"},
    {"exec.trial_us", "us"},
    {"exec.ops_per_trial", "count"},
    {"exec.ns_per_op", "ns"},
    {"fault.stream_init_us.batched", "us"},
    {"fault.stream_init_us.scalar", "us"},
    {"qos.score_us", "us"},
    {"energy.price_us", "us"},
    {"runtime.approx_run_ms", "ms"},
    {"runtime.ops_per_trial", "count"},
    {"runtime.ns_per_op", "ns"},
    {"runtime.op_ns.precise_int", "ns"},
    {"runtime.op_ns.precise_fp", "ns"},
    {"runtime.op_ns.approx_int", "ns"},
    {"runtime.op_ns.approx_fp", "ns"},
    {"runtime.op_ns.sram_read", "ns"},
    {"runtime.op_ns.sram_write", "ns"},
    {"runtime.op_ns.dram_load", "ns"},
    {"runtime.op_ns.dram_store", "ns"},
    {"runtime.op_count.precise_int", "count"},
    {"runtime.op_count.precise_fp", "count"},
    {"runtime.op_count.approx_int", "count"},
    {"runtime.op_count.approx_fp", "count"},
    {"runtime.op_count.sram_read", "count"},
    {"runtime.op_count.sram_write", "count"},
    {"runtime.op_count.dram_load", "count"},
    {"runtime.op_count.dram_store", "count"},
    {"apps.reference_ms", "ms"},
    {"apps.reference_share", "ratio"},
    {"harness.trial_ms.p50", "ms"},
    {"harness.trial_ms.p95", "ms"},
    {"harness.pool_busy", "ratio"},
    {"harness.straggler_s", "s"},
    {"harness.aggregate_ms", "ms"},
    {"harness.render_ms", "ms"},
    {"resilience.attempts_per_trial", "count"},
    {"resilience.first_attempt_share", "ratio"},
    {"env.losses", "count"},
    {"env.checkpoints", "count"},
    {"env.reexec_ops", "count"},
    {"env.energy_overhead", "ratio"},
    {"obs.journals", "count"},
    {"obs.journal_bytes", "bytes"},
    {"obs.journal_write_ms", "ms"},
    {"obs.capture_share", "ratio"},
};

/// The layers spans are recorded for; fault, resilience and env run only
/// inside them.
const char *const SpannedLayers[] = {"harness", "exec", "fenerj", "isa",
                                     "analysis", "runtime", "apps", "qos",
                                     "energy", "obs"};

using PassMetrics = std::map<std::string, double>;

/// Forwards to a registry application with a span around each call: a run
/// with no simulator installed is the precise reference (apps layer), a
/// run under a simulator is the approximate run (runtime layer), and
/// qosError is the QoS score (qos layer). Approximate runs also add the
/// simulator's logical clock (one tick per dynamic op) to ApproxOps.
class TracedApp final : public apps::Application {
public:
  TracedApp(const apps::Application &Inner, SpanLog &Log, uint64_t &ApproxOps)
      : Inner(Inner), Log(Log), ApproxOps(ApproxOps) {}

  const char *name() const override { return Inner.name(); }
  const char *description() const override { return Inner.description(); }
  const char *qosMetricName() const override { return Inner.qosMetricName(); }
  apps::AnnotationStats annotations() const override {
    return Inner.annotations();
  }

  apps::AppOutput run(uint64_t WorkloadSeed) const override {
    Simulator *Sim = Simulator::current();
    if (!Sim) {
      SpanScope Span(&Log, "apps.reference");
      return Inner.run(WorkloadSeed);
    }
    // Declared before the span, so the count is taken after it closes,
    // on the watchdog's abort path too.
    struct CountOps {
      Simulator &Sim;
      uint64_t &Ops;
      ~CountOps() { Ops += Sim.now(); }
    } Count{*Sim, ApproxOps};
    SpanScope Span(&Log, "runtime.approx_run");
    return Inner.run(WorkloadSeed);
  }

  double qosError(const apps::AppOutput &Precise,
                  const apps::AppOutput &Degraded) const override {
    SpanScope Span(&Log, "qos.score");
    return Inner.qosError(Precise, Degraded);
  }

private:
  const apps::Application &Inner;
  SpanLog &Log;
  uint64_t &ApproxOps;
};

/// What the traced lowering measured beyond its spans.
struct LoweringStats {
  size_t DistinctBinaries = 0;
  unsigned Rewrites = 0;
  uint64_t TrialOps = 0; ///< Logical-clock ticks over all compiled trials.
};

/// exec::ProgramCache's lowering of one (app, level) cell, stage by stage,
/// each stage call spanned inside one exec.lower span.
std::unique_ptr<exec::CompiledKernel>
lowerTraced(const std::string &KernelDir, const std::string &AppName,
            ApproxLevel Level, SpanLog &Log, unsigned &Rewrites) {
  SpanScope Lower(&Log, "exec.lower");
  std::string Path = KernelDir + "/" + AppName + ".fej";
  std::ifstream In(Path);
  std::ostringstream Source;
  Source << In.rdbuf();
  auto Fail = [&Path](const std::string &Stage) {
    return std::runtime_error("traced lowering of " + Path + " failed at " +
                              Stage);
  };

  fenerj::DiagnosticEngine Diags;
  fenerj::ClassTable Table;
  std::optional<fenerj::Program> Prog;
  {
    SpanScope Span(&Log, "fenerj.compile");
    Prog = fenerj::compile(Source.str(), Table, Diags);
  }
  if (!In.good() || !Prog)
    throw Fail("fenerj::compile");
  fenerj::CodegenResult Code;
  {
    SpanScope Span(&Log, "fenerj.codegen");
    Code = fenerj::compileToIsa(*Prog);
  }
  if (!Code.Ok)
    throw Fail("fenerj::compileToIsa");
  std::vector<std::string> Errors;
  std::optional<isa::IsaProgram> Binary;
  {
    SpanScope Span(&Log, "isa.assemble");
    Binary = isa::assemble(Code.Assembly, Errors);
  }
  if (!Binary)
    throw Fail("isa::assemble");
  bool Verified = false;
  {
    SpanScope Span(&Log, "isa.verify");
    Verified = isa::verify(*Binary).empty();
  }
  if (!Verified)
    throw Fail("isa::verify");
  {
    SpanScope Span(&Log, "analysis.flow");
    Verified = analysis::verifyFlow(*Binary).ok();
  }
  if (!Verified)
    throw Fail("analysis::verifyFlow");
  analysis::opt::OptReport Report;
  {
    SpanScope Span(&Log, "analysis.opt");
    analysis::opt::OptOptions Options;
    Options.EnergyLevel = Level;
    Report = analysis::opt::optimizeProgram(*Binary, Options);
  }
  if (!Report.Ok)
    throw Fail("analysis::opt::optimizeProgram");
  Rewrites += Report.totalRewritten();

  auto Kernel = std::make_unique<exec::CompiledKernel>();
  Kernel->AppName = AppName;
  Kernel->Level = Level;
  Kernel->Binary = std::move(*Binary);
  exec::FastMachine Reference(Kernel->Binary,
                              FaultConfig::preset(ApproxLevel::None));
  if (Reference.run().Trapped)
    throw Fail("the precise reference run");
  Kernel->RefInt = Reference.intReg(1);
  Kernel->RefFp = Reference.fpReg(1);
  return Kernel;
}

/// The compiled grid with every layer call spanned: the lowering of
/// exec::ProgramCache and the harness's compiled trial path, called in the
/// same order (the harness has no hook inside a compiled trial).
GridRun tracedCompiledGrid(const RunConfig &Config, SpanLog &Log,
                           LoweringStats &Stats) {
  const EvalOptions &Options = Config.Options;
  GridRun Run;
  std::vector<std::unique_ptr<exec::CompiledKernel>> Kernels;
  std::vector<Trial> Trials;
  {
    SpanScope Span(&Log, "harness.setup");
    for (const apps::Application *App : apps::allApplications())
      for (ApproxLevel Level : evalLevels()) {
        Kernels.push_back(lowerTraced(Options.KernelDir, App->name(), Level,
                                      Log, Stats.Rewrites));
        for (int S = 0; S < Options.Seeds; ++S) {
          Trial T;
          T.App = App;
          T.Config = FaultConfig::preset(Level);
          T.WorkloadSeed = Config.FirstSeed + static_cast<uint64_t>(S);
          T.Kernel = Kernels.back().get();
          Trials.push_back(std::move(T));
        }
      }
  }
  Run.Trials.resize(Trials.size());
  {
    SpanScope Span(&Log, "harness.run");
    for (size_t I = 0; I < Trials.size(); ++I) {
      const Trial &T = Trials[I];
      exec::CompiledTrialResult R;
      {
        SpanScope TrialSpan(&Log, "exec.trial");
        R = exec::runCompiledTrial(*T.Kernel, T.Config, T.WorkloadSeed);
      }
      TrialResult &Result = Run.Trials[I];
      Result.FinalLevel = T.Config.Level;
      Result.QosError = R.QosError;
      Result.Stats = R.Stats;
      {
        SpanScope Price(&Log, "energy.price");
        Result.Energy = computeEnergy(R.Stats, T.Config);
      }
      Result.EffectiveEnergyFactor = Result.Energy.TotalFactor;
      Result.ClockCycles = R.Cycles;
      if (R.Trapped) {
        Result.Outcome = resilience::TrialOutcome::Aborted;
        Result.Error = R.Error;
      }
      Stats.TrialOps += R.Cycles;
    }
  }
  {
    SpanScope Span(&Log, "harness.aggregate");
    Run.Result = aggregate(Options, apps::allApplications(), Config.FirstSeed,
                           Trials, Run.Trials);
  }
  {
    SpanScope Span(&Log, "harness.render");
    Run.Json = renderEvalJson(Run.Result);
  }
  std::set<std::string> Binaries;
  for (const auto &Kernel : Kernels)
    Binaries.insert(isa::disassemble(Kernel->Binary));
  Stats.DistinctBinaries = Binaries.size();
  return Run;
}

/// Nearest-rank percentile of \p Values (0 for none).
double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Values.size()));
  return Values[Rank ? Rank - 1 : 0];
}

/// Median nanoseconds per call of \p Op over five batches of \p Calls.
template <typename Fn> double nsPerCall(int Calls, Fn &&Op) {
  std::vector<double> Ns;
  for (int Batch = 0; Batch < 5; ++Batch) {
    Clock::time_point Start = Clock::now();
    for (int I = 0; I < Calls; ++I)
      Op(I);
    Ns.push_back(secondsSince(Start) * 1e9 / Calls);
  }
  return median(Ns);
}

volatile double Sink = 0.0;

/// Simulator cost per op class at Medium on one thread, through the entry
/// points the enerj:: types route every operation through, with the op
/// count the simulator recorded (SRAM accesses are not ops: the loop's).
void opCosts(PassMetrics &M) {
  constexpr int Calls = 40000;
  constexpr uint64_t Total = 5 * Calls;
  Simulator Sim(FaultConfig::preset(ApproxLevel::Medium));
  SimulatorScope Scope(Sim);
  int32_t Int = 1;
  double Fp = 1.0;
  std::vector<double> Dram(1024, 1.0);
  std::vector<uint64_t> LastAccess(1024, 0);
  auto Measure = [&M](const char *Class, double Ns, uint64_t Count) {
    M[std::string("runtime.op_ns.") + Class] = Ns;
    M[std::string("runtime.op_count.") + Class] = static_cast<double>(Count);
  };

  OperationStats Before = Sim.stats().Ops;
  double Ns = nsPerCall(Calls, [&](int) { Sim.countPreciseInt(); });
  Measure("precise_int", Ns, Sim.stats().Ops.PreciseInt - Before.PreciseInt);
  Ns = nsPerCall(Calls, [&](int) { Sim.countPreciseFp(); });
  Measure("precise_fp", Ns, Sim.stats().Ops.PreciseFp - Before.PreciseFp);
  Ns = nsPerCall(Calls, [&](int) {
    Int = Sim.intResult(static_cast<int32_t>(static_cast<uint32_t>(Int) + 3u));
  });
  Measure("approx_int", Ns, Sim.stats().Ops.ApproxInt - Before.ApproxInt);
  Ns = nsPerCall(Calls, [&](int) {
    Fp = Sim.fpResult(Sim.narrowOperand(Fp) + Sim.narrowOperand(0.5));
  });
  Measure("approx_fp", Ns, Sim.stats().Ops.ApproxFp - Before.ApproxFp);
  Ns = nsPerCall(Calls, [&](int) { Fp = Sim.sramRead(Fp); });
  Measure("sram_read", Ns, Total);
  Ns = nsPerCall(Calls, [&](int) { Fp = Sim.sramWrite(Fp); });
  Measure("sram_write", Ns, Total);
  uint64_t Ticks = Sim.now();
  Ns = nsPerCall(Calls, [&](int I) {
    size_t K = (static_cast<size_t>(I) * 7) & 1023;
    Dram[K] = Sim.dramAccess(Dram[K], LastAccess[K]);
    LastAccess[K] = Sim.now();
  });
  Measure("dram_load", Ns, Sim.now() - Ticks);
  Ticks = Sim.now();
  Ns = nsPerCall(Calls, [&](int) { Sim.dramStore(); });
  Measure("dram_store", Ns, Sim.now() - Ticks);
  Sink = Sink + Int + Fp + Dram[0];
}

/// Construction cost of one SRAM-read upset stream at Medium, per mode.
void streamInitCosts(PassMetrics &M) {
  double P = FaultRates::of(FaultConfig::preset(ApproxLevel::Medium))
                 .SramReadUpsetPerBit;
  for (BlockMode Mode : {BlockMode::Batched, BlockMode::Scalar}) {
    double Ns = nsPerCall(2000, [&](int I) {
      UpsetStream Stream(P, mixSeed(0x5EED, static_cast<uint64_t>(I)), Mode);
      Sink = Sink + static_cast<double>(Stream.nextFaultIndex());
    });
    M[Mode == BlockMode::Batched ? "fault.stream_init_us.batched"
                                 : "fault.stream_init_us.scalar"] = Ns / 1e3;
  }
}

/// computeEnergy per call, over the stats of a grid's recorded runs.
double priceUs(const std::vector<TrialResult> &Trials) {
  std::vector<FaultConfig> Configs;
  for (const TrialResult &T : Trials)
    Configs.push_back(FaultConfig::preset(T.FinalLevel));
  int Rounds = static_cast<int>(20000 / Trials.size()) + 1;
  double Ns = nsPerCall(Rounds, [&](int) {
    for (size_t I = 0; I < Trials.size(); ++I)
      Sink = Sink + computeEnergy(Trials[I].Stats, Configs[I]).TotalFactor;
  });
  return Ns / 1e3 / static_cast<double>(Trials.size());
}

/// The workload's grid at 1 thread with every layer call spanned under
/// one harness.grid root span.
GridRun tracedGrid(const RunConfig &Config, SpanLog &Log,
                   LoweringStats &Lowering, uint64_t &ApproxOps) {
  SpanScope Root(&Log, "harness.grid");
  if (Config.Options.Exec == ExecMode::Compiled)
    return tracedCompiledGrid(Config, Log, Lowering);
  std::vector<std::unique_ptr<TracedApp>> Owned;
  std::vector<const apps::Application *> Apps;
  for (const apps::Application *App : apps::allApplications()) {
    Owned.push_back(std::make_unique<TracedApp>(*App, Log, ApproxOps));
    Apps.push_back(Owned.back().get());
  }
  GridRunSpec Spec;
  Spec.FirstSeed = Config.FirstSeed;
  Spec.JournalDir = Config.JournalDir;
  Spec.Apps = &Apps;
  Spec.Log = &Log;
  return runGrid(Config.Options, Spec);
}

void tracedPass(const RunConfig &Config, bool TracedFirst,
                std::string &RefJson, RunOutcome &Out, PassMetrics &M,
                std::vector<double> &TrialDurations) {
  const bool Compiled = Config.Options.Exec == ExecMode::Compiled;
  auto Spec = [&Config](unsigned Threads) {
    GridRunSpec S;
    S.FirstSeed = Config.FirstSeed;
    S.Threads = Threads;
    S.JournalDir = Config.JournalDir;
    S.ObserveTrials = true;
    return S;
  };

  // The two 1-thread grids: untraced, the base for trace overhead and
  // trial durations, and traced. Which runs first alternates by pass, so
  // neither always inherits the other's warm caches.
  GridRun U1, T1;
  SpanLog Log;
  LoweringStats Lowering;
  uint64_t ApproxOps = 0;
  for (int Step = 0; Step < 2; ++Step) {
    if ((Step == 0) == TracedFirst) {
      T1 = tracedGrid(Config, Log, Lowering, ApproxOps);
      checkGrid(T1, Config, RefJson, Out);
    } else {
      U1 = runGrid(Config.Options, Spec(1));
      M["obs.journals"] = static_cast<double>(U1.Journals.size());
      M["obs.journal_bytes"] = static_cast<double>(U1.JournalBytes);
      checkGrid(U1, Config, RefJson, Out);
    }
  }
  std::vector<double> Durations = trialDurations(U1);
  TrialDurations.insert(TrialDurations.end(), Durations.begin(),
                        Durations.end());
  M["bench.wall_t1_ms"] = U1.WallSec * 1e3;
  double Trials = static_cast<double>(U1.Trials.size());
  double Attempts = 0, FirstAttempt = 0, Live = 0, Charged = 0;
  for (const TrialResult &T : U1.Trials) {
    Attempts += T.Attempts;
    FirstAttempt += T.Attempts == 1 && T.Outcome == resilience::TrialOutcome::Ok;
    M["env.losses"] += static_cast<double>(T.Power.Losses);
    M["env.checkpoints"] += static_cast<double>(T.Power.Checkpoints);
    M["env.reexec_ops"] += static_cast<double>(T.Power.ReExecutedOps);
    Live += T.Power.LiveUnits;
    Charged += T.Power.ChargedUnits;
  }
  M["resilience.attempts_per_trial"] = Attempts / Trials;
  M["resilience.first_attempt_share"] = FirstAttempt / Trials;
  M["env.energy_overhead"] = Live > 0.0 ? Charged / Live : 0.0;

  const std::map<std::string, SpanLog::Totals> Spans = Log.totals();
  auto Span = [&Spans](const char *Name) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? SpanLog::Totals() : It->second;
  };
  auto MeanMs = [&Span](const char *Name) {
    SpanLog::Totals T = Span(Name);
    return T.Count ? T.TotalMs / static_cast<double>(T.Count) : 0.0;
  };
  double TracedMs = Span("harness.grid").TotalMs;
  M["bench.traced_wall_ms"] = TracedMs;
  M["bench.trace_overhead"] = TracedMs / (U1.WallSec * 1e3);
  for (const char *Layer : SpannedLayers)
    M[std::string("self_ms.") + Layer] = 0.0;
  for (const auto &[Name, T] : Spans)
    M["self_ms." + Name.substr(0, Name.find('.'))] += T.SelfMs;

  M["harness.aggregate_ms"] = Span("harness.aggregate").TotalMs;
  M["harness.render_ms"] = Span("harness.render").TotalMs;
  M["obs.journal_write_ms"] = Span("obs.journal_write").TotalMs;
  M["apps.reference_ms"] = MeanMs("apps.reference");
  double RunMs = Span("harness.run").TotalMs;
  M["apps.reference_share"] =
      RunMs > 0.0 ? Span("apps.reference").TotalMs / RunMs : 0.0;
  M["qos.score_us"] = MeanMs("qos.score") * 1e3;
  SpanLog::Totals Approx = Span("runtime.approx_run");
  M["runtime.approx_run_ms"] = MeanMs("runtime.approx_run");
  if (Approx.Count) {
    M["runtime.ops_per_trial"] =
        static_cast<double>(ApproxOps) / static_cast<double>(Approx.Count);
    M["runtime.ns_per_op"] = Approx.TotalMs * 1e6 / ApproxOps;
  }
  if (Compiled) {
    M["exec.lower_ms"] = MeanMs("exec.lower");
    M["exec.lowerings"] = static_cast<double>(Span("exec.lower").Count);
    M["exec.distinct_binaries"] =
        static_cast<double>(Lowering.DistinctBinaries);
    M["fenerj.compile_ms"] = MeanMs("fenerj.compile");
    M["fenerj.codegen_ms"] = MeanMs("fenerj.codegen");
    M["isa.assemble_ms"] = MeanMs("isa.assemble");
    M["isa.verify_ms"] = MeanMs("isa.verify");
    M["analysis.flow_ms"] = MeanMs("analysis.flow");
    M["analysis.opt_ms"] = MeanMs("analysis.opt");
    M["analysis.opt_rewrites"] = Lowering.Rewrites;
    M["exec.trial_us"] = MeanMs("exec.trial") * 1e3;
    M["exec.ops_per_trial"] = static_cast<double>(Lowering.TrialOps) / Trials;
    M["exec.ns_per_op"] = Span("exec.trial").TotalMs * 1e6 /
                          static_cast<double>(Lowering.TrialOps);
  }

  // Untraced, N threads. Workers claim the next trial as soon as one
  // ends, so each is busy from the start until its last completion: the
  // pool's busy share is the mean of those times over the trial phase,
  // and its straggler tail runs from the first worker going idle.
  GridRun UN = runGrid(Config.Options, Spec(Config.Threads));
  checkGrid(UN, Config, RefJson, Out);
  std::map<std::thread::id, double> LastDone;
  for (size_t I = 0; I < UN.DoneAt.size(); ++I)
    LastDone[UN.DoneBy[I]] = UN.DoneAt[I];
  double Busy = 0.0, FirstIdle = UN.TrialsSec;
  for (const auto &[Worker, Last] : LastDone) {
    Busy += Last;
    FirstIdle = std::min(FirstIdle, Last);
  }
  M["harness.pool_busy"] = Busy / (Config.Threads * UN.TrialsSec);
  M["harness.straggler_s"] = UN.TrialsSec - FirstIdle;

  if (Config.Options.Journal) {
    EvalOptions Disarmed = Config.Options;
    Disarmed.Journal = false;
    GridRun D1 = runGrid(Disarmed, Spec(1));
    checkGrid(D1, Config, RefJson, Out);
    M["obs.capture_share"] = U1.TrialsSec / D1.TrialsSec;
  }

  if (Compiled)
    streamInitCosts(M);
  else
    opCosts(M);
  M["energy.price_us"] = priceUs(U1.Trials);
}

} // namespace

RunOutcome runTraced(const RunConfig &Config) {
  RunOutcome Out;
  if (std::string Error = checkParity(Config.Options, Config.Threads,
                                      Config.JournalDir);
      !Error.empty())
    Out.Errors.push_back(std::string(Config.Workload->Name) + ": " + Error);

  std::map<std::string, std::vector<double>> Samples;
  std::vector<double> TrialDurations;
  std::string RefJson;
  int Passes = 0;
  Clock::time_point Start = Clock::now();
  do {
    PassMetrics M;
    tracedPass(Config, Passes % 2 == 1, RefJson, Out, M, TrialDurations);
    for (const auto &[Name, Value] : M)
      Samples[Name].push_back(Value);
    ++Passes;
  } while (secondsSince(Start) < Config.Seconds);

  // Trial-time percentiles pool every pass's 1-thread trials, so that ten
  // or more lie beyond p95 even on the 54- and 81-trial grids.
  Samples["harness.trial_ms.p50"] = {percentile(TrialDurations, 0.50) * 1e3};
  Samples["harness.trial_ms.p95"] = {percentile(TrialDurations, 0.95) * 1e3};
  for (const auto &[Name, Unit] : LayerMetrics) {
    Out.Metrics.push_back({Name, median(Samples[Name]), Unit});
    Samples.erase(Name);
  }
  if (!Samples.empty())
    throw std::logic_error("metric '" + Samples.begin()->first +
                           "' is missing from the per-layer table");
  Out.Notes = {"per-layer metrics: median of " + std::to_string(Passes) +
               " traced passes; 1-thread layer times, N = " +
               std::to_string(Config.Threads) + " for the pool metrics"};
  return Out;
}

} // namespace perfbench
