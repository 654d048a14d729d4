//===- obs/journal.h - Trial flight recorder with replay --------*- C++ -*-===//
//
// Part of the EnerJ reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder behind `fenerj_tool eval --journal-dir` and
/// `fenerj_tool replay`: a Journal is a self-contained, versioned JSON
/// record of one trial — full provenance (app, level, engine, the
/// mixed-seed derivation, fault/policy/power/checkpoint configuration,
/// telemetry request), the structured event timeline (faults with
/// site/tick/mask, attempts, retries, degradations, checkpoints, power
/// losses), and an outcome digest (QoS, energy, effective energy,
/// outcome, final level, op/storage mix, power counters).
///
/// Because every trial is a pure function of its recorded identity, a
/// journal is *executable provenance*: replayJournal() rebuilds the
/// trial from the record alone and re-runs it, and the replayed digest
/// must agree with the recorded one bitwise (%.17g doubles round-trip
/// exactly). Any bad trial a grid captures is thereby a reproducible
/// postmortem. blameJournal() goes one step further and ranks the
/// journaled fault sites by QoS damage via forced-precise counterfactual
/// re-execution per site — the profiler's ForceRegionPrecise probe,
/// driven from a journal instead of a live profile.
///
/// Capture selection happens in the harness (EvalResult::Journaled) in
/// grid order, so the journal set — like everything else the harness
/// emits — is byte-identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef ENERJ_OBS_JOURNAL_H
#define ENERJ_OBS_JOURNAL_H

#include "harness/eval.h"

#include <string>
#include <vector>

namespace enerj {
namespace obs {

/// The outcome digest of one trial: exactly the fields replay must
/// reproduce bitwise. Kept flat and explicit — this is the journal's
/// compatibility contract, versioned with the journal schema.
struct JournalDigest {
  double Qos = 0.0;
  double Energy = 1.0;          ///< EnergyReport::TotalFactor.
  double EffectiveEnergy = 1.0; ///< With re-execution/power charged.
  resilience::TrialOutcome Outcome = resilience::TrialOutcome::Ok;
  ApproxLevel FinalLevel = ApproxLevel::None;
  int Attempts = 1;
  uint64_t ClockCycles = 0;

  uint64_t PreciseInt = 0;
  uint64_t ApproxInt = 0;
  uint64_t PreciseFp = 0;
  uint64_t ApproxFp = 0;
  uint64_t TimingErrors = 0;

  double SramPrecise = 0.0;
  double SramApprox = 0.0;
  double DramPrecise = 0.0;
  double DramApprox = 0.0;

  uint64_t PowerLosses = 0;
  uint64_t PowerCheckpoints = 0;
  uint64_t PowerReExecutedOps = 0;
  bool PowerSurvived = true;
};

/// The digest of a measured trial result.
JournalDigest digestOf(const harness::TrialResult &Result);

/// One trial's complete flight-recorder record (schema version 1).
struct Journal {
  std::string App;
  harness::ExecMode Exec = harness::ExecMode::Interp;
  FaultConfig Config; ///< The trial's full fault configuration (level,
                      ///< mode, seed, toggles, overrides — its identity).
  uint64_t WorkloadSeed = 1;
  TelemetryRequest Obs; ///< The telemetry the trial ran with; replay
                        ///< reconstructs it exactly.
  resilience::ResiliencePolicy Policy;

  bool PowerArmed = false;
  std::string PowerTrace = "steady"; ///< PowerTraceSpec::Name: the full
                                     ///< preset spec text, or a file path.
  std::string Checkpoint = "none";   ///< CheckpointPolicy::Spec.

  /// Region id -> name, from the recorded trial's registry; resolves the
  /// timeline's Region fields without the original process.
  std::vector<std::string> Regions;
  std::vector<TrialTraceEvent> Timeline;
  uint64_t TimelineDropped = 0;

  JournalDigest Digest;
};

/// Builds the journal of one captured record of \p Grid (provenance that
/// is grid-wide — engine, policy, power environment — comes from the
/// grid; everything per-trial from the record).
Journal buildJournal(const harness::EvalResult &Grid,
                     const harness::TrialRecord &Record);

/// Renders \p J as one line of stable JSON (enerj-journal schema
/// version 1): %.17g doubles, pinned key order — two journals of the
/// same trial compare bitwise.
std::string renderJournalJson(const Journal &J);

/// Canonical digest-only rendering; replay compares these bitwise.
std::string renderDigestJson(const JournalDigest &D);

/// "<app>-<level>-<engine>-seed<N>.journal.json".
std::string journalFileName(const Journal &J);

/// Parses a journal document. Returns false and fills \p Error (when
/// non-null) on malformed JSON, an unknown schema version, or missing /
/// ill-typed required fields.
bool parseJournalJson(const std::string &Text, Journal *Out,
                      std::string *Error);

/// Writes every captured record of \p Grid into directory \p Dir (which
/// must exist), one file per journal. Returns the written paths in grid
/// order; on an I/O failure fills \p Error and returns what was written.
std::vector<std::string> writeJournals(const harness::EvalResult &Grid,
                                       const std::string &Dir,
                                       std::string *Error);

/// What one replay established.
struct ReplayResult {
  bool Match = false;       ///< Replayed digest == recorded digest, bitwise.
  std::string RecordedJson; ///< renderDigestJson of the journal's digest.
  std::string ReplayedJson; ///< renderDigestJson of the re-executed trial.
  harness::TrialResult Result; ///< The re-executed trial in full.
};

/// Re-executes the journaled trial and compares digests. \p KernelDir
/// locates the ISA corpus for compiled journals (ignored for interp).
/// Throws std::runtime_error when the provenance cannot be reconstructed
/// (unknown app, malformed power spec, missing kernel).
ReplayResult replayJournal(const Journal &J, const std::string &KernelDir);

/// One fault site's counterfactual blame.
struct BlameRow {
  std::string Region;
  uint64_t Faults = 0;      ///< Journaled fault events at the site.
  uint64_t FlippedBits = 0; ///< Total corrupted bits across them.
  double ForcedQos = 0.0;   ///< QoS error with the region forced precise.
  /// Recorded QoS error minus ForcedQos: the QoS damage attributable to
  /// this site's approximation. Positive = the site hurts.
  double QosDelta = 0.0;
};

/// Ranks the journal's fault sites by QoS damage: for every distinct
/// region among the journaled Fault events (first-appearance order), the
/// trial is re-executed with that region forced precise and the QoS
/// delta recorded. Rows sort by QosDelta descending, region name
/// ascending as the tiebreak. Interpreter journals only (the forced-
/// precise probe is Simulator machinery); throws std::runtime_error for
/// compiled journals or unreconstructable provenance.
std::vector<BlameRow> blameJournal(const Journal &J);

/// Fixed-width table of \p Rows for the CLI.
std::string renderBlameText(const Journal &J,
                            const std::vector<BlameRow> &Rows);

} // namespace obs
} // namespace enerj

#endif // ENERJ_OBS_JOURNAL_H
