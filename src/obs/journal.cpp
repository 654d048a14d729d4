//===- obs/journal.cpp - Trial flight recorder with replay ----------------===//

#include "obs/journal.h"

#include "exec/compiled.h"
#include "obs/json_mini.h"
#include "support/rng.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <stdexcept>

using namespace enerj;
using namespace enerj::obs;
using namespace enerj::obs::json;

namespace {

// --- Name -> enum (the renderers' tables, inverted by search; every
// --- table is tiny and parsing is far from any hot path).

bool levelFromName(const std::string &Name, ApproxLevel *Out) {
  for (ApproxLevel L : {ApproxLevel::None, ApproxLevel::Mild,
                        ApproxLevel::Medium, ApproxLevel::Aggressive})
    if (Name == approxLevelName(L)) {
      *Out = L;
      return true;
    }
  return false;
}

bool modeFromName(const std::string &Name, ErrorMode *Out) {
  for (ErrorMode M : {ErrorMode::RandomValue, ErrorMode::SingleBitFlip,
                      ErrorMode::LastValue})
    if (Name == errorModeName(M)) {
      *Out = M;
      return true;
    }
  return false;
}

bool outcomeFromName(const std::string &Name,
                     resilience::TrialOutcome *Out) {
  using resilience::TrialOutcome;
  for (TrialOutcome O :
       {TrialOutcome::Ok, TrialOutcome::SloViolated, TrialOutcome::Aborted,
        TrialOutcome::Retried, TrialOutcome::Degraded,
        TrialOutcome::PowerFailed})
    if (Name == resilience::trialOutcomeName(O)) {
      *Out = O;
      return true;
    }
  return false;
}

bool eventKindFromName(const std::string &Name, TraceEventKind *Out) {
  for (TraceEventKind K :
       {TraceEventKind::RegionEnter, TraceEventKind::RegionExit,
        TraceEventKind::Fault, TraceEventKind::AttemptBegin,
        TraceEventKind::AttemptEnd, TraceEventKind::Retry,
        TraceEventKind::Degrade, TraceEventKind::Abort,
        TraceEventKind::PowerLoss, TraceEventKind::Checkpoint,
        TraceEventKind::Restore})
    if (Name == traceEventKindName(K)) {
      *Out = K;
      return true;
    }
  return false;
}

bool opKindFromName(const std::string &Name, OpKind *Out) {
  for (unsigned K = 0; K < NumOpKinds; ++K)
    if (Name == opKindName(static_cast<OpKind>(K))) {
      *Out = static_cast<OpKind>(K);
      return true;
    }
  return false;
}

bool execModeFromName(const std::string &Name, harness::ExecMode *Out) {
  for (harness::ExecMode M :
       {harness::ExecMode::Interp, harness::ExecMode::Compiled})
    if (Name == harness::execModeName(M)) {
      *Out = M;
      return true;
    }
  return false;
}

// --- Parse helpers: required members with the right JSON type, so a
// --- truncated or hand-mangled journal fails loudly instead of
// --- replaying a different trial.

struct ParseFail {
  std::string Message;
};

const Value &member(const Value &Obj, const char *Key, Value::Kind Kind) {
  const Value *V = Obj.find(Key);
  if (!V)
    throw ParseFail{std::string("missing key \"") + Key + "\""};
  if (V->K != Kind)
    throw ParseFail{std::string("key \"") + Key + "\" has the wrong type"};
  return *V;
}

double numberOf(const Value &Obj, const char *Key) {
  return member(Obj, Key, Value::Kind::Number).asDouble();
}
uint64_t u64Of(const Value &Obj, const char *Key) {
  return member(Obj, Key, Value::Kind::Number).asU64();
}
int64_t i64Of(const Value &Obj, const char *Key) {
  return member(Obj, Key, Value::Kind::Number).asI64();
}
bool boolOf(const Value &Obj, const char *Key) {
  return member(Obj, Key, Value::Kind::Bool).B;
}
const std::string &stringOf(const Value &Obj, const char *Key) {
  return member(Obj, Key, Value::Kind::String).Text;
}

/// Rebuilt execution context for one journal: the owned provenance
/// (power environment, compiled program cache) plus the Trial that
/// points into it.
struct ReplayContext {
  std::optional<env::PowerEnv> Power;
  std::optional<exec::ProgramCache> Kernels;
  harness::Trial T;
};

/// Populates \p Ctx in place: the Trial points into the context's owned
/// provenance (and ProgramCache is immovable besides).
void buildTrial(const Journal &J, const std::string &KernelDir,
                ReplayContext &Ctx) {
  Ctx.T.Config = J.Config;
  Ctx.T.WorkloadSeed = J.WorkloadSeed;
  Ctx.T.Obs = J.Obs;

  if (J.Exec == harness::ExecMode::Compiled) {
    if (KernelDir.empty())
      throw std::runtime_error(
          "compiled journal needs a kernel directory to replay");
    Ctx.Kernels.emplace(KernelDir);
    Ctx.T.Kernel = &Ctx.Kernels->get(J.App, J.Config.Level);
    Ctx.T.Kernels = &*Ctx.Kernels;
  } else {
    Ctx.T.App = apps::findApplication(J.App);
    if (!Ctx.T.App)
      throw std::runtime_error("journal names unknown application '" +
                               J.App + "'");
  }

  if (J.PowerArmed) {
    // The recorded name is the full preset spec text, or a trace file
    // path — the same file-first resolution the eval CLI applies.
    std::string Error;
    std::optional<env::PowerTraceSpec> Trace;
    if (std::ifstream(J.PowerTrace).good())
      Trace = env::PowerTraceSpec::fromFile(J.PowerTrace, &Error);
    else
      Trace = env::PowerTraceSpec::preset(J.PowerTrace, &Error);
    if (!Trace)
      throw std::runtime_error("journal power trace '" + J.PowerTrace +
                               "' did not reconstruct: " + Error);
    std::optional<env::CheckpointPolicy> Checkpoint =
        env::CheckpointPolicy::parse(J.Checkpoint, &Error);
    if (!Checkpoint)
      throw std::runtime_error("journal checkpoint policy '" + J.Checkpoint +
                               "' did not reconstruct: " + Error);
    Ctx.Power.emplace();
    Ctx.Power->Trace = *Trace;
    Ctx.Power->Checkpoint = *Checkpoint;
    Ctx.T.Power = &*Ctx.Power;
  }
}

} // namespace

JournalDigest enerj::obs::digestOf(const harness::TrialResult &Result) {
  JournalDigest D;
  D.Qos = Result.QosError;
  D.Energy = Result.Energy.TotalFactor;
  D.EffectiveEnergy = Result.EffectiveEnergyFactor;
  D.Outcome = Result.Outcome;
  D.FinalLevel = Result.FinalLevel;
  D.Attempts = Result.Attempts;
  D.ClockCycles = Result.ClockCycles;
  D.PreciseInt = Result.Stats.Ops.PreciseInt;
  D.ApproxInt = Result.Stats.Ops.ApproxInt;
  D.PreciseFp = Result.Stats.Ops.PreciseFp;
  D.ApproxFp = Result.Stats.Ops.ApproxFp;
  D.TimingErrors = Result.Stats.Ops.TimingErrors;
  D.SramPrecise = Result.Stats.Storage.SramPrecise;
  D.SramApprox = Result.Stats.Storage.SramApprox;
  D.DramPrecise = Result.Stats.Storage.DramPrecise;
  D.DramApprox = Result.Stats.Storage.DramApprox;
  D.PowerLosses = Result.Power.Losses;
  D.PowerCheckpoints = Result.Power.Checkpoints;
  D.PowerReExecutedOps = Result.Power.ReExecutedOps;
  D.PowerSurvived = Result.Power.Survived;
  return D;
}

std::string enerj::obs::renderDigestJson(const JournalDigest &D) {
  std::string Out;
  Out += "{\"qos\":";
  appendDouble(Out, D.Qos);
  Out += ",\"energy\":";
  appendDouble(Out, D.Energy);
  Out += ",\"effectiveEnergy\":";
  appendDouble(Out, D.EffectiveEnergy);
  Out += ",\"outcome\":\"";
  Out += resilience::trialOutcomeName(D.Outcome);
  Out += "\",\"finalLevel\":\"";
  Out += approxLevelName(D.FinalLevel);
  Out += "\",\"attempts\":";
  appendI64(Out, D.Attempts);
  Out += ",\"clockCycles\":";
  appendU64(Out, D.ClockCycles);
  Out += ",\"ops\":{\"preciseInt\":";
  appendU64(Out, D.PreciseInt);
  Out += ",\"approxInt\":";
  appendU64(Out, D.ApproxInt);
  Out += ",\"preciseFp\":";
  appendU64(Out, D.PreciseFp);
  Out += ",\"approxFp\":";
  appendU64(Out, D.ApproxFp);
  Out += ",\"timingErrors\":";
  appendU64(Out, D.TimingErrors);
  Out += "},\"storage\":{\"sramPrecise\":";
  appendDouble(Out, D.SramPrecise);
  Out += ",\"sramApprox\":";
  appendDouble(Out, D.SramApprox);
  Out += ",\"dramPrecise\":";
  appendDouble(Out, D.DramPrecise);
  Out += ",\"dramApprox\":";
  appendDouble(Out, D.DramApprox);
  Out += "},\"power\":{\"losses\":";
  appendU64(Out, D.PowerLosses);
  Out += ",\"checkpoints\":";
  appendU64(Out, D.PowerCheckpoints);
  Out += ",\"reExecutedOps\":";
  appendU64(Out, D.PowerReExecutedOps);
  Out += ",\"survived\":";
  appendBool(Out, D.PowerSurvived);
  Out += "}}";
  return Out;
}

Journal enerj::obs::buildJournal(const harness::EvalResult &Grid,
                                 const harness::TrialRecord &Record) {
  Journal J;
  J.App = Record.AppName;
  J.Exec = Grid.Exec;
  J.Config = Record.Config;
  J.WorkloadSeed = Record.WorkloadSeed;
  J.Obs = Record.Obs;
  J.Policy = Grid.Policy;
  J.PowerArmed = Grid.PowerArmed;
  J.PowerTrace = Grid.Power.Trace.Name;
  J.Checkpoint = Grid.Power.Checkpoint.Spec;
  for (uint32_t R = 0; R < Record.Result.Metrics.regionCount(); ++R)
    J.Regions.push_back(Record.Result.Metrics.regionName(R));
  J.Timeline = Record.Result.Trace;
  J.TimelineDropped = Record.Result.TraceDropped;
  J.Digest = digestOf(Record.Result);
  return J;
}

std::string enerj::obs::renderJournalJson(const Journal &J) {
  std::string Out;
  Out += "{\"tool\":\"enerj-journal\",\"version\":1,\"app\":\"";
  appendEscaped(Out, J.App);
  Out += "\",\"engine\":\"";
  Out += harness::execModeName(J.Exec);
  Out += "\",\"level\":\"";
  Out += approxLevelName(J.Config.Level);
  Out += "\",\"mode\":\"";
  Out += errorModeName(J.Config.Mode);
  Out += "\",\"workloadSeed\":";
  appendU64(Out, J.WorkloadSeed);
  Out += ",\"configSeed\":";
  appendU64(Out, J.Config.Seed);
  // The derivation echo: replay recomputes this from (configSeed,
  // workloadSeed); it is recorded so a human can grep the fault stream.
  Out += ",\"mixedSeed\":";
  appendU64(Out, mixSeed(J.Config.Seed, J.WorkloadSeed));
  Out += ",\"config\":{\"dram\":";
  appendBool(Out, J.Config.EnableDram);
  Out += ",\"sram\":";
  appendBool(Out, J.Config.EnableSram);
  Out += ",\"fpWidth\":";
  appendBool(Out, J.Config.EnableFpWidth);
  Out += ",\"timing\":";
  appendBool(Out, J.Config.EnableTiming);
  Out += ",\"cyclesPerSecond\":";
  appendDouble(Out, J.Config.CyclesPerSecond);
  Out += ",\"cacheLineBytes\":";
  appendU64(Out, J.Config.CacheLineBytes);
  Out += ",\"opBudget\":";
  appendU64(Out, J.Config.OpBudgetOps);
  Out += ",\"overrides\":{\"dramFlipPerSecond\":";
  appendDouble(Out, J.Config.DramFlipPerSecondOverride);
  Out += ",\"sramReadUpset\":";
  appendDouble(Out, J.Config.SramReadUpsetOverride);
  Out += ",\"sramWriteFailure\":";
  appendDouble(Out, J.Config.SramWriteFailureOverride);
  Out += ",\"timingError\":";
  appendDouble(Out, J.Config.TimingErrorOverride);
  Out += ",\"floatMantissa\":";
  appendI64(Out, J.Config.FloatMantissaOverride);
  Out += ",\"doubleMantissa\":";
  appendI64(Out, J.Config.DoubleMantissaOverride);
  Out += "}},\"obs\":{\"metrics\":";
  appendBool(Out, J.Obs.Metrics);
  Out += ",\"trace\":";
  appendBool(Out, J.Obs.Trace);
  Out += ",\"traceCapacity\":";
  appendU64(Out, J.Obs.TraceCapacity);
  Out += "},\"policy\":{\"enabled\":";
  appendBool(Out, J.Policy.Enabled);
  Out += ",\"slo\":";
  appendDouble(Out, J.Policy.Slo);
  Out += ",\"outputBound\":";
  appendDouble(Out, J.Policy.OutputAbsBound);
  Out += ",\"maxRetries\":";
  appendI64(Out, J.Policy.MaxRetries);
  Out += ",\"opBudget\":";
  appendU64(Out, J.Policy.OpBudget);
  Out += ",\"degrade\":";
  appendBool(Out, J.Policy.Degrade);
  Out += "},\"power\":{\"armed\":";
  appendBool(Out, J.PowerArmed);
  Out += ",\"trace\":\"";
  appendEscaped(Out, J.PowerTrace);
  Out += "\",\"checkpoint\":\"";
  appendEscaped(Out, J.Checkpoint);
  Out += "\"},\"regions\":[";
  for (size_t R = 0; R < J.Regions.size(); ++R) {
    if (R)
      Out += ",";
    Out += "\"";
    appendEscaped(Out, J.Regions[R]);
    Out += "\"";
  }
  Out += "],\"timeline\":[";
  for (size_t I = 0; I < J.Timeline.size(); ++I) {
    const TrialTraceEvent &E = J.Timeline[I];
    if (I)
      Out += ",";
    Out += "{\"attempt\":";
    appendI64(Out, E.Attempt);
    Out += ",\"at\":";
    appendU64(Out, E.Event.At);
    Out += ",\"kind\":\"";
    Out += traceEventKindName(E.Event.Kind);
    Out += "\",\"op\":\"";
    Out += opKindName(E.Event.Op);
    Out += "\",\"arg\":";
    appendU64(Out, E.Event.Arg);
    Out += ",\"region\":";
    appendU64(Out, E.Event.Region);
    Out += "}";
  }
  Out += "],\"timelineDropped\":";
  appendU64(Out, J.TimelineDropped);
  Out += ",\"digest\":";
  Out += renderDigestJson(J.Digest);
  Out += "}";
  return Out;
}

std::string enerj::obs::journalFileName(const Journal &J) {
  std::string Name = J.App;
  Name += "-";
  Name += approxLevelName(J.Config.Level);
  Name += "-";
  Name += harness::execModeName(J.Exec);
  Name += "-seed";
  appendU64(Name, J.WorkloadSeed);
  Name += ".journal.json";
  return Name;
}

bool enerj::obs::parseJournalJson(const std::string &Text, Journal *Out,
                                  std::string *Error) {
  Value Doc;
  if (!parse(Text, &Doc, Error))
    return false;
  try {
    if (!Doc.isObject())
      throw ParseFail{"journal is not a JSON object"};
    if (stringOf(Doc, "tool") != "enerj-journal")
      throw ParseFail{"not an enerj-journal document"};
    if (i64Of(Doc, "version") != 1)
      throw ParseFail{"unsupported journal schema version"};

    Journal J;
    J.App = stringOf(Doc, "app");
    if (!execModeFromName(stringOf(Doc, "engine"), &J.Exec))
      throw ParseFail{"unknown engine"};
    if (!levelFromName(stringOf(Doc, "level"), &J.Config.Level))
      throw ParseFail{"unknown level"};
    if (!modeFromName(stringOf(Doc, "mode"), &J.Config.Mode))
      throw ParseFail{"unknown error mode"};
    J.WorkloadSeed = u64Of(Doc, "workloadSeed");
    J.Config.Seed = u64Of(Doc, "configSeed");

    const Value &Config = member(Doc, "config", Value::Kind::Object);
    J.Config.EnableDram = boolOf(Config, "dram");
    J.Config.EnableSram = boolOf(Config, "sram");
    J.Config.EnableFpWidth = boolOf(Config, "fpWidth");
    J.Config.EnableTiming = boolOf(Config, "timing");
    J.Config.CyclesPerSecond = numberOf(Config, "cyclesPerSecond");
    J.Config.CacheLineBytes = u64Of(Config, "cacheLineBytes");
    J.Config.OpBudgetOps = u64Of(Config, "opBudget");
    const Value &Overrides = member(Config, "overrides", Value::Kind::Object);
    J.Config.DramFlipPerSecondOverride =
        numberOf(Overrides, "dramFlipPerSecond");
    J.Config.SramReadUpsetOverride = numberOf(Overrides, "sramReadUpset");
    J.Config.SramWriteFailureOverride =
        numberOf(Overrides, "sramWriteFailure");
    J.Config.TimingErrorOverride = numberOf(Overrides, "timingError");
    J.Config.FloatMantissaOverride =
        static_cast<int>(i64Of(Overrides, "floatMantissa"));
    J.Config.DoubleMantissaOverride =
        static_cast<int>(i64Of(Overrides, "doubleMantissa"));

    const Value &Obs = member(Doc, "obs", Value::Kind::Object);
    J.Obs.Metrics = boolOf(Obs, "metrics");
    J.Obs.Trace = boolOf(Obs, "trace");
    J.Obs.TraceCapacity = static_cast<size_t>(u64Of(Obs, "traceCapacity"));

    const Value &Policy = member(Doc, "policy", Value::Kind::Object);
    J.Policy.Enabled = boolOf(Policy, "enabled");
    J.Policy.Slo = numberOf(Policy, "slo");
    J.Policy.OutputAbsBound = numberOf(Policy, "outputBound");
    J.Policy.MaxRetries = static_cast<int>(i64Of(Policy, "maxRetries"));
    J.Policy.OpBudget = u64Of(Policy, "opBudget");
    J.Policy.Degrade = boolOf(Policy, "degrade");

    const Value &Power = member(Doc, "power", Value::Kind::Object);
    J.PowerArmed = boolOf(Power, "armed");
    J.PowerTrace = stringOf(Power, "trace");
    J.Checkpoint = stringOf(Power, "checkpoint");

    const Value &Regions = member(Doc, "regions", Value::Kind::Array);
    for (const Value &R : Regions.Items) {
      if (!R.isString())
        throw ParseFail{"region table entry is not a string"};
      J.Regions.push_back(R.Text);
    }

    const Value &Timeline = member(Doc, "timeline", Value::Kind::Array);
    for (const Value &E : Timeline.Items) {
      if (!E.isObject())
        throw ParseFail{"timeline entry is not an object"};
      TrialTraceEvent Event;
      Event.Attempt = static_cast<int>(i64Of(E, "attempt"));
      Event.Event.At = u64Of(E, "at");
      if (!eventKindFromName(stringOf(E, "kind"), &Event.Event.Kind))
        throw ParseFail{"unknown timeline event kind"};
      if (!opKindFromName(stringOf(E, "op"), &Event.Event.Op))
        throw ParseFail{"unknown timeline op kind"};
      Event.Event.Arg = u64Of(E, "arg");
      Event.Event.Region = static_cast<uint32_t>(u64Of(E, "region"));
      J.Timeline.push_back(Event);
    }
    J.TimelineDropped = u64Of(Doc, "timelineDropped");

    const Value &Digest = member(Doc, "digest", Value::Kind::Object);
    J.Digest.Qos = numberOf(Digest, "qos");
    J.Digest.Energy = numberOf(Digest, "energy");
    J.Digest.EffectiveEnergy = numberOf(Digest, "effectiveEnergy");
    if (!outcomeFromName(stringOf(Digest, "outcome"), &J.Digest.Outcome))
      throw ParseFail{"unknown outcome"};
    if (!levelFromName(stringOf(Digest, "finalLevel"), &J.Digest.FinalLevel))
      throw ParseFail{"unknown final level"};
    J.Digest.Attempts = static_cast<int>(i64Of(Digest, "attempts"));
    J.Digest.ClockCycles = u64Of(Digest, "clockCycles");
    const Value &Ops = member(Digest, "ops", Value::Kind::Object);
    J.Digest.PreciseInt = u64Of(Ops, "preciseInt");
    J.Digest.ApproxInt = u64Of(Ops, "approxInt");
    J.Digest.PreciseFp = u64Of(Ops, "preciseFp");
    J.Digest.ApproxFp = u64Of(Ops, "approxFp");
    J.Digest.TimingErrors = u64Of(Ops, "timingErrors");
    const Value &Storage = member(Digest, "storage", Value::Kind::Object);
    J.Digest.SramPrecise = numberOf(Storage, "sramPrecise");
    J.Digest.SramApprox = numberOf(Storage, "sramApprox");
    J.Digest.DramPrecise = numberOf(Storage, "dramPrecise");
    J.Digest.DramApprox = numberOf(Storage, "dramApprox");
    const Value &DigestPower = member(Digest, "power", Value::Kind::Object);
    J.Digest.PowerLosses = u64Of(DigestPower, "losses");
    J.Digest.PowerCheckpoints = u64Of(DigestPower, "checkpoints");
    J.Digest.PowerReExecutedOps = u64Of(DigestPower, "reExecutedOps");
    J.Digest.PowerSurvived = boolOf(DigestPower, "survived");

    *Out = std::move(J);
    return true;
  } catch (const ParseFail &F) {
    if (Error)
      *Error = F.Message;
    return false;
  }
}

std::vector<std::string>
enerj::obs::writeJournals(const harness::EvalResult &Grid,
                          const std::string &Dir, std::string *Error) {
  std::vector<std::string> Paths;
  for (const harness::TrialRecord &Record : Grid.Journaled) {
    Journal J = buildJournal(Grid, Record);
    std::string Path = Dir + "/" + journalFileName(J);
    std::ofstream File(Path, std::ios::trunc);
    if (!File) {
      if (Error)
        *Error = "cannot open '" + Path + "' for writing";
      return Paths;
    }
    File << renderJournalJson(J) << "\n";
    if (!File) {
      if (Error)
        *Error = "write to '" + Path + "' failed";
      return Paths;
    }
    Paths.push_back(std::move(Path));
  }
  return Paths;
}

ReplayResult enerj::obs::replayJournal(const Journal &J,
                                       const std::string &KernelDir) {
  ReplayContext Ctx;
  buildTrial(J, KernelDir, Ctx);
  ReplayResult R;
  R.Result = harness::TrialRunner::runOne(Ctx.T, J.Policy);
  R.RecordedJson = renderDigestJson(J.Digest);
  R.ReplayedJson = renderDigestJson(digestOf(R.Result));
  R.Match = R.RecordedJson == R.ReplayedJson;
  return R;
}

std::vector<BlameRow> enerj::obs::blameJournal(const Journal &J) {
  if (J.Exec != harness::ExecMode::Interp)
    throw std::runtime_error(
        "blame needs per-fault sites, which only interpreter journals "
        "record (the compiled engine injects faults in batch)");

  // Distinct fault regions in first-appearance (execution) order, with
  // their journaled fault mass.
  std::vector<BlameRow> Rows;
  for (const TrialTraceEvent &E : J.Timeline) {
    if (E.Event.Kind != TraceEventKind::Fault)
      continue;
    if (E.Event.Region >= J.Regions.size())
      throw std::runtime_error("timeline fault names region " +
                               std::to_string(E.Event.Region) +
                               " beyond the journal's region table");
    const std::string &Name = J.Regions[E.Event.Region];
    auto Row = std::find_if(Rows.begin(), Rows.end(), [&](const BlameRow &R) {
      return R.Region == Name;
    });
    if (Row == Rows.end()) {
      Rows.push_back(BlameRow{Name, 0, 0, 0.0, 0.0});
      Row = Rows.end() - 1;
    }
    ++Row->Faults;
    Row->FlippedBits += E.Event.Arg;
  }

  // The counterfactual: the same trial with each faulting region forced
  // precise, one probe per region. The probe deliberately perturbs (that
  // is its purpose); everything else about the trial identity is kept.
  for (BlameRow &Row : Rows) {
    ReplayContext Ctx;
    buildTrial(J, "", Ctx);
    Ctx.T.Obs.ForceRegionPrecise = Row.Region;
    harness::TrialResult Forced =
        harness::TrialRunner::runOne(Ctx.T, J.Policy);
    Row.ForcedQos = Forced.QosError;
    Row.QosDelta = J.Digest.Qos - Forced.QosError;
  }

  std::sort(Rows.begin(), Rows.end(), [](const BlameRow &A,
                                         const BlameRow &B) {
    if (A.QosDelta != B.QosDelta)
      return A.QosDelta > B.QosDelta;
    return A.Region < B.Region;
  });
  return Rows;
}

std::string enerj::obs::renderBlameText(const Journal &J,
                                        const std::vector<BlameRow> &Rows) {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "blame: %s %s seed %llu (recorded qos %.6g, outcome %s)\n",
                J.App.c_str(), approxLevelName(J.Config.Level),
                static_cast<unsigned long long>(J.WorkloadSeed),
                J.Digest.Qos,
                resilience::trialOutcomeName(J.Digest.Outcome));
  Out += Line;
  std::snprintf(Line, sizeof(Line), "%-24s %10s %12s %12s %12s\n", "region",
                "faults", "flippedBits", "forcedQos", "qosDelta");
  Out += Line;
  for (const BlameRow &Row : Rows) {
    std::snprintf(Line, sizeof(Line),
                  "%-24s %10llu %12llu %12.6g %+12.6g\n", Row.Region.c_str(),
                  static_cast<unsigned long long>(Row.Faults),
                  static_cast<unsigned long long>(Row.FlippedBits),
                  Row.ForcedQos, Row.QosDelta);
    Out += Line;
  }
  if (Rows.empty())
    Out += "(no journaled fault events)\n";
  return Out;
}
