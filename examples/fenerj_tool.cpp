//===- examples/fenerj_tool.cpp - FEnerJ checker / interpreter CLI --------===//
//
// A command-line driver for the FEnerJ formal language:
//
//   fenerj_tool check <file.fej>       type-check only
//   fenerj_tool run <file.fej>         check, then evaluate precisely
//   fenerj_tool fuzz <file.fej> [n]    check, then evaluate under n random
//                                      perturbation seeds and report
//                                      whether the precise projection is
//                                      invariant (non-interference)
//   fenerj_tool lint <file.fej> [--json] [--Werror]
//                                      check, then run the enerj-lint
//                                      audits (endorsement, precision
//                                      slack, dead values, isa-flow,
//                                      interproc-flow); --Werror promotes
//                                      warnings to a failing exit status
//   fenerj_tool infer <file.fej>... [--json] [--suggest-annotations]
//                                      whole-program qualifier inference
//                                      over the instantiated call graph:
//                                      the maximal relaxation set with
//                                      zero new endorsements, reported
//                                      per app (Figure 3 style)
//   fenerj_tool eval [--apps a,b] [--levels l1,l2] [--seeds N]
//                    [--threads N] [--slo E] [--max-retries N]
//                    [--op-budget M] [--output-bound B] [--no-degrade]
//                    [--metrics] [--json] [--exec-mode interp|compiled]
//                    [--power-trace file|preset] [--checkpoint policy]
//                    [--journal-dir d] [--journal-sample N] [--progress]
//                    [--ledger file]
//                                      run the Section 6 evaluation grid
//                                      on the parallel trial runner; the
//                                      resilience flags arm the QoS SLO,
//                                      the retry/degradation ladder, and
//                                      the per-trial watchdog budget;
//                                      --metrics collects per-site
//                                      telemetry (JSON schema v3);
//                                      --power-trace meters every trial
//                                      against an intermittent supply
//                                      with checkpoint/restore accounting
//                                      (JSON schema v5); --journal-dir
//                                      captures flight-recorder journals
//                                      (all non-ok trials, sampled ok
//                                      trials); --progress heartbeats on
//                                      stderr; --ledger appends one
//                                      manifest line to a JSONL run
//                                      ledger
//   fenerj_tool replay <journal> [--blame]
//                                      re-execute a captured journal and
//                                      verify the digest bitwise;
//                                      --blame ranks the journaled fault
//                                      sites by QoS damage via forced-
//                                      precise counterfactual replay
//   fenerj_tool runs list <ledger.jsonl>
//   fenerj_tool runs diff <ledger.jsonl> <a> <b>
//   fenerj_tool runs check <ledger.jsonl> --baseline <file>
//                                      cross-run comparison over the run
//                                      ledger; check gates QoS / energy /
//                                      throughput against a committed
//                                      baseline's thresholds
//   fenerj_tool profile <app> [--level L] [--seeds N] [--threads N]
//                      [--top K] [--no-qos-delta] [--trace out.json]
//                      [--json]
//                                      per-site energy/fault attribution:
//                                      which region/operation pays the
//                                      energy bill and causes the QoS
//                                      loss; --trace exports the seed-1
//                                      timeline as Chrome/Perfetto
//                                      trace_event JSON
//   fenerj_tool demo                   run a built-in demo program
//
//===----------------------------------------------------------------------===//

#include "analysis/infer.h"
#include "analysis/isa_flow.h"
#include "analysis/lint.h"
#include "analysis/opt/pipeline.h"
#include "analysis/reliability/bounds.h"
#include "fenerj/codegen.h"
#include "fenerj/fenerj.h"
#include "harness/eval.h"
#include "isa/assembler.h"
#include "isa/machine.h"
#include "isa/verifier.h"
#include "obs/journal.h"
#include "obs/json_mini.h"
#include "obs/ledger.h"
#include "obs/profile.h"
#include "obs/trace.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace enerj::fenerj;

namespace {

const char *DemoProgram = R"(// The paper's IntPair (Section 2.5.1), runnable.
class IntPair {
  @context int x;
  @context int y;
  @approx int numAdditions;
  int addToBoth(@context int amount) {
    this.x := this.x + amount;
    this.y := this.y + amount;
    this.numAdditions := this.numAdditions + 1;
    0;
  }
}
{
  let @precise IntPair p = new @precise IntPair();
  let @approx IntPair a = new @approx IntPair();
  let int i = 0;
  while (i < 5) {
    p.addToBoth(i);
    a.addToBoth(i);
    i = i + 1;
  };
  p.x + p.y;   // Precise: always 20.
}
)";

/// \p S as a quoted JSON string.
std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  enerj::obs::json::appendEscaped(Out, S);
  Out += '"';
  return Out;
}

int check(const std::string &Source, bool Quiet = false) {
  DiagnosticEngine Diags;
  ClassTable Table;
  std::optional<Program> Prog = compile(Source, Table, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (!Quiet)
    std::printf("ok: program is well typed (%zu class(es))\n",
                Prog->Classes.size());
  return 0;
}

int run(const std::string &Source) {
  DiagnosticEngine Diags;
  ClassTable Table;
  std::optional<Program> Prog = compile(Source, Table, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  Interpreter Interp(*Prog, Table, {});
  EvalResult Result = Interp.run();
  if (Result.Trapped) {
    std::fprintf(stderr, "trap: %s\n", Result.TrapMessage.c_str());
    return 1;
  }
  std::printf("result: %s\n", Result.Result.str().c_str());
  std::printf("-- precise projection --\n%s",
              Interp.preciseProjection(Result).c_str());
  return 0;
}

int fuzz(const std::string &Source, int Rounds) {
  DiagnosticEngine Diags;
  ClassTable Table;
  std::optional<Program> Prog = compile(Source, Table, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  Interpreter Ref(*Prog, Table, {});
  EvalResult RefResult = Ref.run();
  if (RefResult.Trapped) {
    std::fprintf(stderr, "trap (precise run): %s\n",
                 RefResult.TrapMessage.c_str());
    return 1;
  }
  std::string RefProjection = Ref.preciseProjection(RefResult);
  int Violations = 0;
  for (int Round = 1; Round <= Rounds; ++Round) {
    RandomPerturber Perturb(static_cast<uint64_t>(Round), 1.0);
    InterpOptions Options;
    Options.Perturb = &Perturb;
    Interpreter Interp(*Prog, Table, Options);
    EvalResult Result = Interp.run();
    if (Result.Trapped) {
      std::printf("round %d: TRAP: %s\n", Round,
                  Result.TrapMessage.c_str());
      ++Violations;
      continue;
    }
    if (Interp.preciseProjection(Result) != RefProjection) {
      std::printf("round %d: PRECISE STATE CHANGED\n", Round);
      ++Violations;
    }
  }
  if (Violations == 0) {
    std::printf("non-interference held across %d fully-perturbed runs\n",
                Rounds);
    return 0;
  }
  std::printf("%d violation(s) — if the program is endorse-free this is "
              "a checker bug\n", Violations);
  return 1;
}

int compileIsa(const std::string &Source, bool Execute, bool Optimize) {
  DiagnosticEngine Diags;
  ClassTable Table;
  std::optional<Program> Prog = compile(Source, Table, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  CodegenResult Code = compileToIsa(*Prog);
  if (!Code.Ok) {
    std::fprintf(stderr, "codegen error: %s\n", Code.Error.c_str());
    return 1;
  }
  std::vector<std::string> AsmErrors;
  std::optional<enerj::isa::IsaProgram> Binary =
      enerj::isa::assemble(Code.Assembly, AsmErrors);
  if (!Binary) {
    for (const std::string &E : AsmErrors)
      std::fprintf(stderr, "%s\n", E.c_str());
    return 1;
  }
  std::vector<enerj::isa::VerifyError> Violations =
      enerj::isa::verify(*Binary);
  for (const enerj::isa::VerifyError &E : Violations)
    std::fprintf(stderr, "verifier: %s\n", E.str().c_str());
  if (!Violations.empty())
    return 1;
  if (Optimize) {
    enerj::analysis::opt::OptReport Report =
        enerj::analysis::opt::optimizeProgram(*Binary);
    if (!Report.Ok) {
      std::fprintf(stderr, "opt: %s\n", Report.Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "opt: %zu -> %zu instructions (%u removed, "
                         "%u rewritten)\n",
                 Report.OpsBefore, Report.OpsAfter, Report.totalRemoved(),
                 Report.totalRewritten());
  }
  if (!Execute) {
    if (Optimize)
      std::fputs(enerj::isa::disassemble(*Binary).c_str(), stdout);
    else
      std::fputs(Code.Assembly.c_str(), stdout);
    return 0;
  }
  for (enerj::ApproxLevel Level :
       {enerj::ApproxLevel::None, enerj::ApproxLevel::Mild,
        enerj::ApproxLevel::Medium, enerj::ApproxLevel::Aggressive}) {
    enerj::isa::Machine M(*Binary, enerj::FaultConfig::preset(Level));
    enerj::isa::MachineResult Result = M.run();
    if (Result.Trapped) {
      std::printf("%-10s trap: %s\n", enerj::approxLevelName(Level),
                  Result.TrapMessage.c_str());
      continue;
    }
    std::printf("%-10s r1 = %lld   f1 = %.9g   (%llu instructions)\n",
                enerj::approxLevelName(Level),
                static_cast<long long>(M.intReg(1)), M.fpReg(1),
                static_cast<unsigned long long>(
                    Result.InstructionsExecuted));
  }
  return 0;
}

std::string readFile(const char *Path, bool &Ok);

int lint(const std::string &Source, const char *FileName, bool Json,
         bool Werror) {
  DiagnosticEngine Diags;
  ClassTable Table;
  std::optional<Program> Prog = compile(Source, Table, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  enerj::analysis::LintResult Result =
      enerj::analysis::runLint(*Prog, Table);
  std::string Rendered =
      Json ? enerj::analysis::renderLintJson(Result, FileName) + "\n"
           : enerj::analysis::renderLintText(Result, FileName);
  std::fputs(Rendered.c_str(), stdout);
  // Warnings and suggestions are advisory; only hard errors fail the run
  // — unless --Werror promotes warnings (suggestions stay advisory).
  // isa-flow *warnings* are exempt: they describe the compiled artifact
  // (scratch-register dead stores the codegen emits on nearly every
  // program), not the source; real qualifier-flow violations in the ISA
  // are errors and fail the run regardless.
  if (Result.hasErrors())
    return 1;
  if (Werror)
    for (const enerj::analysis::LintFinding &F : Result.Findings)
      if (F.Severity == enerj::analysis::LintSeverity::Warning &&
          F.Pass != enerj::analysis::LintPass::IsaFlow)
        return 1;
  return 0;
}

/// `fenerj_tool opt <file.fej|file.isa> [--passes a,b] [--level L]
/// [--json] [--emit]` — assemble (compiling first for .fej inputs), run
/// the validated pass pipeline, and report per-pass statistics. --emit
/// prints the optimized assembly to stdout (the report moves to stderr).
int optMode(int Argc, char **Argv) {
  const char *File = Argv[2];
  bool Json = false, Emit = false;
  enerj::analysis::opt::OptOptions Options;
  for (int Arg = 3; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    auto NextValue = [&]() -> std::string {
      if (Arg + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return Argv[++Arg];
    };
    if (Flag == "--json") {
      Json = true;
    } else if (Flag == "--emit") {
      Emit = true;
    } else if (Flag == "--passes") {
      std::string Error;
      if (!enerj::analysis::opt::parsePassList(NextValue(), Options.Passes,
                                               Error)) {
        std::fprintf(stderr, "%s (known: constprop, copyprop, cse, "
                             "endorse-elim, dce)\n", Error.c_str());
        return 2;
      }
    } else if (Flag == "--level") {
      std::string Name = NextValue();
      bool Found = false;
      for (enerj::ApproxLevel Level :
           {enerj::ApproxLevel::None, enerj::ApproxLevel::Mild,
            enerj::ApproxLevel::Medium, enerj::ApproxLevel::Aggressive})
        if (Name == enerj::approxLevelName(Level)) {
          Options.EnergyLevel = Level;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "unknown level '%s' (none, mild, medium, "
                             "aggressive)\n", Name.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown opt flag '%s'\n", Flag.c_str());
      return 2;
    }
  }

  bool Ok = true;
  std::string Source = readFile(File, Ok);
  if (!Ok) {
    std::fprintf(stderr, "error: cannot read '%s'\n", File);
    return 1;
  }

  std::string Assembly;
  std::string Name = File;
  if (Name.size() >= 4 && Name.substr(Name.size() - 4) == ".isa") {
    Assembly = Source;
  } else {
    DiagnosticEngine Diags;
    ClassTable Table;
    std::optional<Program> Prog = compile(Source, Table, Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    CodegenResult Code = compileToIsa(*Prog);
    if (!Code.Ok) {
      std::fprintf(stderr, "codegen error: %s\n", Code.Error.c_str());
      return 1;
    }
    Assembly = Code.Assembly;
  }
  std::vector<std::string> AsmErrors;
  std::optional<enerj::isa::IsaProgram> Binary =
      enerj::isa::assemble(Assembly, AsmErrors);
  if (!Binary) {
    for (const std::string &E : AsmErrors)
      std::fprintf(stderr, "%s\n", E.c_str());
    return 1;
  }

  enerj::analysis::opt::OptReport Report =
      enerj::analysis::opt::optimizeProgram(*Binary, Options);

  std::string Rendered;
  if (Json) {
    std::ostringstream Out;
    Out << "{\"tool\": \"fenerj-opt\", \"version\": 1, \"file\": "
        << jsonString(File)
        << ", \"ok\": " << (Report.Ok ? "true" : "false")
        << ", \"error\": " << jsonString(Report.Error)
        << ", \"level\": \"" << enerj::approxLevelName(Options.EnergyLevel)
        << "\", \"opsBefore\": " << Report.OpsBefore
        << ", \"opsAfter\": " << Report.OpsAfter
        << ", \"removed\": " << Report.totalRemoved()
        << ", \"rewritten\": " << Report.totalRewritten();
    char Buffer[64];
    std::snprintf(Buffer, sizeof(Buffer), "%.6f",
                  Report.EnergyBefore.factor());
    Out << ", \"energyFactorBefore\": " << Buffer;
    std::snprintf(Buffer, sizeof(Buffer), "%.6f",
                  Report.EnergyAfter.factor());
    Out << ", \"energyFactorAfter\": " << Buffer << ", \"passes\": [";
    for (size_t Index = 0; Index < Report.Passes.size(); ++Index) {
      const enerj::analysis::opt::PassReport &Pass = Report.Passes[Index];
      if (Index)
        Out << ", ";
      std::snprintf(Buffer, sizeof(Buffer), "%.6f",
                    Pass.EnergyAfter.factor());
      Out << "{\"pass\": \"" << enerj::analysis::opt::passName(Pass.Kind)
          << "\", \"changed\": " << (Pass.Changed ? "true" : "false")
          << ", \"accepted\": " << (Pass.Accepted ? "true" : "false")
          << ", \"rewritten\": " << Pass.Rewritten
          << ", \"removed\": " << Pass.Removed
          << ", \"rejectReason\": " << jsonString(Pass.RejectReason)
          << ", \"opsAfter\": " << Pass.OpsAfter
          << ", \"energyFactor\": " << Buffer << "}";
    }
    Out << "]}\n";
    Rendered = Out.str();
  } else {
    std::ostringstream Out;
    Out << "== fenerj-opt: " << File << " ==\n";
    if (!Report.Error.empty())
      Out << "error: " << Report.Error << "\n";
    char Line[160];
    for (const enerj::analysis::opt::PassReport &Pass : Report.Passes) {
      std::snprintf(Line, sizeof(Line),
                    "  %-12s %-9s rewritten %3u  removed %3u  ops %4zu  "
                    "energy %.4f\n",
                    enerj::analysis::opt::passName(Pass.Kind),
                    !Pass.Changed ? "no-op"
                    : Pass.Accepted ? "validated"
                                    : "REJECTED",
                    Pass.Rewritten, Pass.Removed, Pass.OpsAfter,
                    Pass.EnergyAfter.factor());
      Out << Line;
      if (!Pass.Accepted && !Pass.RejectReason.empty())
        Out << "      reject: " << Pass.RejectReason << "\n";
    }
    std::snprintf(Line, sizeof(Line),
                  "  total: %zu -> %zu instructions, energy factor "
                  "%.4f -> %.4f (@%s)\n",
                  Report.OpsBefore, Report.OpsAfter,
                  Report.EnergyBefore.factor(), Report.EnergyAfter.factor(),
                  enerj::approxLevelName(Options.EnergyLevel));
    Out << Line;
    Rendered = Out.str();
  }
  std::fputs(Rendered.c_str(), Emit ? stderr : stdout);
  if (Emit && Report.Ok)
    std::fputs(enerj::isa::disassemble(*Binary).c_str(), stdout);
  return Report.Ok ? 0 : 1;
}

/// `fenerj_tool bound <file.fej|file.isa> [--level L] [--json]
/// [--per-site]` — run the static reliability analysis: lower bounds on
/// the probability that each output is bitwise equal to the fault-free
/// reference. The input goes through the same pipeline as a compiled
/// evaluation cell (compile, assemble, verify, flow-check, optimize), so
/// the reported bounds describe exactly the artifact the grid executes.
int boundMode(int Argc, char **Argv) {
  const char *File = Argv[2];
  bool Json = false, PerSite = false;
  std::string LedgerPath;
  enerj::ApproxLevel Level = enerj::ApproxLevel::Medium;
  for (int Arg = 3; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    auto NextValue = [&]() -> std::string {
      if (Arg + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return Argv[++Arg];
    };
    if (Flag == "--json") {
      Json = true;
    } else if (Flag == "--per-site") {
      PerSite = true;
    } else if (Flag == "--ledger") {
      LedgerPath = NextValue();
      if (LedgerPath.empty()) {
        std::fprintf(stderr, "--ledger needs a file path\n");
        return 2;
      }
    } else if (Flag == "--level") {
      std::string Name = NextValue();
      bool Found = false;
      for (enerj::ApproxLevel Candidate :
           {enerj::ApproxLevel::None, enerj::ApproxLevel::Mild,
            enerj::ApproxLevel::Medium, enerj::ApproxLevel::Aggressive})
        if (Name == enerj::approxLevelName(Candidate)) {
          Level = Candidate;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "unknown level '%s' (none, mild, medium, "
                             "aggressive)\n", Name.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown bound flag '%s'\n", Flag.c_str());
      return 2;
    }
  }

  bool Ok = true;
  std::string Source = readFile(File, Ok);
  if (!Ok) {
    std::fprintf(stderr, "error: cannot read '%s'\n", File);
    return 1;
  }

  std::string Assembly;
  std::string Name = File;
  if (Name.size() >= 4 && Name.substr(Name.size() - 4) == ".isa") {
    Assembly = Source;
  } else {
    DiagnosticEngine Diags;
    ClassTable Table;
    std::optional<Program> Prog = compile(Source, Table, Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    CodegenResult Code = compileToIsa(*Prog);
    if (!Code.Ok) {
      std::fprintf(stderr, "codegen error: %s\n", Code.Error.c_str());
      return 1;
    }
    Assembly = Code.Assembly;
  }
  std::vector<std::string> AsmErrors;
  std::optional<enerj::isa::IsaProgram> Binary =
      enerj::isa::assemble(Assembly, AsmErrors);
  if (!Binary) {
    for (const std::string &E : AsmErrors)
      std::fprintf(stderr, "%s\n", E.c_str());
    return 1;
  }
  std::vector<enerj::isa::VerifyError> Violations =
      enerj::isa::verify(*Binary);
  for (const enerj::isa::VerifyError &E : Violations)
    std::fprintf(stderr, "verifier: %s\n", E.str().c_str());
  if (!Violations.empty())
    return 1;
  enerj::analysis::IsaFlowResult Flow = enerj::analysis::verifyFlow(*Binary);
  for (const enerj::isa::VerifyError &E : Flow.Errors)
    std::fprintf(stderr, "flow: %s\n", E.str().c_str());
  if (!Flow.ok())
    return 1;
  enerj::analysis::opt::OptOptions OptOptions;
  OptOptions.EnergyLevel = Level;
  enerj::analysis::opt::OptReport OptReport =
      enerj::analysis::opt::optimizeProgram(*Binary, OptOptions);
  if (!OptReport.Ok) {
    std::fprintf(stderr, "opt: %s\n", OptReport.Error.c_str());
    return 1;
  }

  enerj::FaultRates Rates =
      enerj::FaultRates::of(enerj::FaultConfig::preset(Level));
  auto Started = std::chrono::steady_clock::now();
  enerj::analysis::reliability::ReliabilityReport Report =
      enerj::analysis::reliability::analyzeProgram(*Binary, Rates);
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Started)
          .count();

  auto Fmt = [](double Value) {
    char Buffer[48];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    return std::string(Buffer);
  };
  // The JSON payload is also the ledger's grid digest, so build it in
  // text mode too.
  std::string PayloadJson;
  {
    std::ostringstream Out;
    Out << "{\"tool\": \"fenerj-bound\", \"version\": 1, \"file\": "
        << jsonString(File)
        << ", \"level\": \"" << enerj::approxLevelName(Level)
        << "\", \"conservative\": " << (Report.Conservative ? "true" : "false")
        << ", \"pathBound\": " << Fmt(Report.PathBound)
        << ", \"intOutputBound\": " << Fmt(Report.IntOutputBound)
        << ", \"fpOutputBound\": " << Fmt(Report.FpOutputBound)
        << ", \"programBound\": " << Fmt(Report.ProgramBound)
        << ", \"preciseMemBound\": " << Fmt(Report.PreciseMemBound)
        << ", \"approxMemBound\": " << Fmt(Report.ApproxMemBound)
        << ", \"loops\": " << Report.LoopCount
        << ", \"loopsUnrolled\": " << Report.LoopsUnrolled
        << ", \"loopsWidened\": " << Report.LoopsWidened
        << ", \"blockEvals\": " << Report.BlockEvals << ", \"sites\": [";
    for (size_t Index = 0; Index < Report.Sites.size(); ++Index) {
      const enerj::analysis::reliability::SiteBound &S = Report.Sites[Index];
      if (Index)
        Out << ", ";
      Out << "{\"block\": " << S.Block << ", \"index\": " << S.Index
          << ", \"line\": " << S.Line
          << ", \"op\": \"" << (S.Fp ? "fendorse" : "endorse")
          << "\", \"srcReg\": \"" << (S.Fp ? "f" : "r") << S.SrcReg
          << "\", \"bound\": " << Fmt(S.Bound)
          << ", \"visits\": " << S.Visits << "}";
    }
    Out << "]}";
    PayloadJson = Out.str();
  }
  auto AppendLedger = [&]() -> bool {
    if (LedgerPath.empty())
      return true;
    enerj::obs::LedgerEntry Entry;
    Entry.Command = "bound";
    Entry.PayloadVersion = 1;
    Entry.ConfigSummary = std::string("bound file=") + File +
                          " level=" + enerj::approxLevelName(Level);
    Entry.ConfigHash = enerj::obs::json::fnv1a(Entry.ConfigSummary);
    Entry.GridDigest = enerj::obs::json::fnv1a(PayloadJson);
    Entry.Apps = 1;
    Entry.Levels = 1;
    Entry.ElapsedSec = ElapsedSec;
    std::string Error;
    if (!enerj::obs::appendLedgerLine(LedgerPath, Entry, &Error)) {
      std::fprintf(stderr, "--ledger: %s\n", Error.c_str());
      return false;
    }
    return true;
  };
  if (Json) {
    std::fputs((PayloadJson + "\n").c_str(), stdout);
    return AppendLedger() ? 0 : 1;
  }

  std::ostringstream Out;
  Out << "== fenerj-bound: " << File << " @ "
      << enerj::approxLevelName(Level) << " ==\n";
  if (Report.Conservative)
    Out << "  (conservative fallback: irreducible control flow or "
           "budget exhausted)\n";
  char Line[160];
  auto Row = [&](const char *Label, double Value) {
    std::snprintf(Line, sizeof(Line), "  %-22s %.12g\n", Label, Value);
    Out << Line;
  };
  Row("path bound", Report.PathBound);
  Row("r1 (int output)", Report.IntOutputBound);
  Row("f1 (fp output)", Report.FpOutputBound);
  Row("program (QoS == 0)", Report.ProgramBound);
  Row("precise memory", Report.PreciseMemBound);
  Row("approx memory", Report.ApproxMemBound);
  std::snprintf(Line, sizeof(Line),
                "  loops: %u (%u unrolled, %u widened), %llu block "
                "evaluation(s)\n",
                Report.LoopCount, Report.LoopsUnrolled, Report.LoopsWidened,
                static_cast<unsigned long long>(Report.BlockEvals));
  Out << Line;
  if (PerSite) {
    if (Report.Sites.empty()) {
      Out << "  no endorsement sites\n";
    } else {
      Out << "  endorsement sites (weakest guarantee endorsed):\n";
      for (const enerj::analysis::reliability::SiteBound &S : Report.Sites) {
        std::snprintf(Line, sizeof(Line),
                      "    line %-4d %-8s %s%-3u bound %.12g  visits %llu\n",
                      S.Line, S.Fp ? "fendorse" : "endorse",
                      S.Fp ? "f" : "r", S.SrcReg, S.Bound,
                      static_cast<unsigned long long>(S.Visits));
        Out << Line;
      }
    }
  }
  std::fputs(Out.str().c_str(), stdout);
  return AppendLedger() ? 0 : 1;
}

int infer(int Argc, char **Argv) {
  bool Json = false;
  bool Suggest = false;
  std::vector<const char *> Files;
  for (int Arg = 2; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    if (Flag == "--json")
      Json = true;
    else if (Flag == "--suggest-annotations")
      Suggest = true;
    else if (!Flag.empty() && Flag[0] == '-') {
      std::fprintf(stderr, "unknown infer flag '%s'\n", Flag.c_str());
      return 2;
    } else
      Files.push_back(Argv[Arg]);
  }
  if (Files.empty()) {
    std::fprintf(stderr, "infer needs at least one .fej file\n");
    return 2;
  }
  std::vector<enerj::analysis::InferResult> Results;
  for (const char *File : Files) {
    bool Ok = true;
    std::string Source = readFile(File, Ok);
    if (!Ok) {
      std::fprintf(stderr, "error: cannot read '%s'\n", File);
      return 1;
    }
    DiagnosticEngine Diags;
    ClassTable Table;
    std::optional<Program> Prog = compile(Source, Table, Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s", Diags.str().c_str());
      return 1;
    }
    Results.push_back(enerj::analysis::inferProgram(*Prog, Table, File));
  }
  if (Json) {
    std::fputs((enerj::analysis::renderInferJson(Results) + "\n").c_str(),
               stdout);
  } else {
    std::fputs(enerj::analysis::renderInferTable(Results).c_str(), stdout);
    if (Suggest)
      for (const enerj::analysis::InferResult &R : Results)
        std::fputs(enerj::analysis::renderInferSuggestions(R).c_str(),
                   stdout);
  }
  return 0;
}

/// Splits "a,b,c" on commas; empty segments are dropped.
std::vector<std::string> splitList(const std::string &Value) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (Start <= Value.size()) {
    size_t Comma = Value.find(',', Start);
    if (Comma == std::string::npos)
      Comma = Value.size();
    if (Comma > Start)
      Parts.push_back(Value.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Parts;
}

/// Strict full-string integer parse: "5x", "abc", "" and out-of-range
/// values are rejected, unlike atoi's silent truncation to 0 or a
/// prefix. A grid silently shrunk by a typo is a wrong measurement.
bool parseInt(const std::string &Value, long long &Out) {
  if (Value.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoll(Value.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

bool parseUnsigned(const std::string &Value, unsigned long long &Out) {
  if (Value.empty() || Value[0] == '-')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Value.c_str(), &End, 10);
  return errno == 0 && End && *End == '\0';
}

/// Strict full-string double parse; rejects trailing junk and non-finite
/// spellings like "nan"/"inf" (a NaN SLO would accept nothing).
bool parseDouble(const std::string &Value, double &Out) {
  if (Value.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(Value.c_str(), &End);
  return errno == 0 && End && *End == '\0' && std::isfinite(Out);
}

int profile(int Argc, char **Argv) {
  if (Argc < 3 || Argv[2][0] == '-') {
    std::fprintf(stderr, "profile needs an application name; known:");
    for (const enerj::apps::Application *Known :
         enerj::apps::allApplications())
      std::fprintf(stderr, " %s", Known->name());
    std::fprintf(stderr, "\n");
    return 2;
  }
  enerj::obs::ProfileOptions Options;
  Options.App = enerj::apps::findApplication(Argv[2]);
  if (!Options.App) {
    std::fprintf(stderr, "unknown application '%s'; known:", Argv[2]);
    for (const enerj::apps::Application *Known :
         enerj::apps::allApplications())
      std::fprintf(stderr, " %s", Known->name());
    std::fprintf(stderr, "\n");
    return 2;
  }
  bool Json = false;
  std::string TracePath;
  std::string LedgerPath;
  for (int Arg = 3; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    auto NextValue = [&]() -> std::string {
      if (Arg + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return Argv[++Arg];
    };
    if (Flag == "--json") {
      Json = true;
    } else if (Flag == "--no-qos-delta") {
      Options.QosDelta = false;
    } else if (Flag == "--trace") {
      TracePath = NextValue();
      Options.Trace = true;
    } else if (Flag == "--ledger") {
      LedgerPath = NextValue();
      if (LedgerPath.empty()) {
        std::fprintf(stderr, "--ledger needs a file path\n");
        return 2;
      }
    } else if (Flag == "--level") {
      std::string Name = NextValue();
      bool Found = false;
      for (enerj::ApproxLevel Level :
           {enerj::ApproxLevel::None, enerj::ApproxLevel::Mild,
            enerj::ApproxLevel::Medium, enerj::ApproxLevel::Aggressive})
        if (Name == enerj::approxLevelName(Level)) {
          Options.Level = Level;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "unknown level '%s' (none, mild, medium, "
                             "aggressive)\n", Name.c_str());
        return 2;
      }
    } else if (Flag == "--seeds") {
      long long Seeds = 0;
      if (!parseInt(NextValue(), Seeds) || Seeds < 1 || Seeds > 1000000) {
        std::fprintf(stderr,
                     "--seeds needs a positive integer (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Seeds = static_cast<int>(Seeds);
    } else if (Flag == "--threads") {
      unsigned long long Threads = 0;
      if (!parseUnsigned(NextValue(), Threads) || Threads > 4096) {
        std::fprintf(stderr,
                     "--threads needs a non-negative integer (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Threads = static_cast<unsigned>(Threads);
    } else if (Flag == "--top") {
      long long Top = 0;
      if (!parseInt(NextValue(), Top) || Top < 0 || Top > 10000) {
        std::fprintf(stderr,
                     "--top needs a non-negative integer (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.TopK = static_cast<int>(Top);
    } else {
      std::fprintf(stderr, "unknown profile flag '%s'\n", Flag.c_str());
      return 2;
    }
  }
  auto Started = std::chrono::steady_clock::now();
  enerj::obs::ProfileResult Result = enerj::obs::runProfile(Options);
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Started)
          .count();
  if (!TracePath.empty()) {
    std::string Trace = enerj::obs::renderChromeTrace(
        Result.Seed1.Trace, Result.Seed1.Metrics, Result.App->name());
    std::ofstream Out(TracePath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", TracePath.c_str());
      return 1;
    }
    Out << Trace << '\n';
    if (!Out.flush()) {
      std::fprintf(stderr, "error: failed writing '%s'\n",
                   TracePath.c_str());
      return 1;
    }
  }
  std::string PayloadJson = enerj::obs::renderProfileJson(Result);
  std::string Rendered =
      Json ? PayloadJson + "\n" : enerj::obs::renderProfileText(Result);
  std::fputs(Rendered.c_str(), stdout);
  if (!LedgerPath.empty()) {
    enerj::obs::LedgerEntry Entry;
    Entry.Command = "profile";
    Entry.PayloadVersion = 1;
    Entry.ConfigSummary = std::string("profile app=") + Result.App->name() +
                          " level=" +
                          enerj::approxLevelName(Result.Config.Level) +
                          " seeds=" + std::to_string(Result.Seeds) +
                          " topK=" + std::to_string(Result.TopK) +
                          (Options.QosDelta ? " qosDelta=on"
                                            : " qosDelta=off");
    Entry.ConfigHash = enerj::obs::json::fnv1a(Entry.ConfigSummary);
    Entry.GridDigest = enerj::obs::json::fnv1a(PayloadJson);
    Entry.Apps = 1;
    Entry.Levels = 1;
    Entry.Seeds = Result.Seeds;
    Entry.Trials = static_cast<uint64_t>(Result.Seeds);
    Entry.Outcomes.Ok = static_cast<uint64_t>(Result.Seeds);
    Entry.QosMean = Result.Qos.Mean;
    Entry.EnergyMean = Result.Energy.TotalFactor;
    Entry.EffectiveEnergyMean = Result.Energy.TotalFactor;
    Entry.ElapsedSec = ElapsedSec;
    Entry.TrialsPerSec =
        ElapsedSec > 0.0 ? static_cast<double>(Entry.Trials) / ElapsedSec
                         : 0.0;
    std::string Error;
    if (!enerj::obs::appendLedgerLine(LedgerPath, Entry, &Error)) {
      std::fprintf(stderr, "--ledger: %s\n", Error.c_str());
      return 1;
    }
  }
  return 0;
}

int eval(int Argc, char **Argv) {
  enerj::harness::EvalOptions Options;
  bool Json = false;
  bool SawCheckpoint = false;
  std::string JournalDir;
  std::string LedgerPath;
  for (int Arg = 2; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    auto NextValue = [&]() -> std::string {
      if (Arg + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag.c_str());
        std::exit(2);
      }
      return Argv[++Arg];
    };
    if (Flag == "--json") {
      Json = true;
    } else if (Flag == "--apps") {
      std::vector<std::string> Names = splitList(NextValue());
      if (Names.empty()) {
        std::fprintf(stderr,
                     "--apps needs at least one application name\n");
        return 2;
      }
      for (const std::string &Name : Names) {
        const enerj::apps::Application *App =
            enerj::apps::findApplication(Name);
        if (!App) {
          std::fprintf(stderr, "unknown application '%s'; known:",
                       Name.c_str());
          for (const enerj::apps::Application *Known :
               enerj::apps::allApplications())
            std::fprintf(stderr, " %s", Known->name());
          std::fprintf(stderr, "\n");
          return 2;
        }
        Options.Apps.push_back(App);
      }
    } else if (Flag == "--levels") {
      std::vector<std::string> Names = splitList(NextValue());
      if (Names.empty()) {
        std::fprintf(stderr, "--levels needs at least one level name\n");
        return 2;
      }
      for (const std::string &Name : Names) {
        bool Found = false;
        for (enerj::ApproxLevel Level :
             {enerj::ApproxLevel::None, enerj::ApproxLevel::Mild,
              enerj::ApproxLevel::Medium, enerj::ApproxLevel::Aggressive})
          if (Name == enerj::approxLevelName(Level)) {
            Options.Levels.push_back(Level);
            Found = true;
          }
        if (!Found) {
          std::fprintf(stderr, "unknown level '%s' (none, mild, medium, "
                               "aggressive)\n", Name.c_str());
          return 2;
        }
      }
    } else if (Flag == "--seeds") {
      long long Seeds = 0;
      if (!parseInt(NextValue(), Seeds) || Seeds < 1 ||
          Seeds > 1000000) {
        std::fprintf(stderr,
                     "--seeds needs a positive integer (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Seeds = static_cast<int>(Seeds);
    } else if (Flag == "--threads") {
      unsigned long long Threads = 0;
      if (!parseUnsigned(NextValue(), Threads) || Threads > 4096) {
        std::fprintf(stderr,
                     "--threads needs a non-negative integer (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Threads = static_cast<unsigned>(Threads);
    } else if (Flag == "--slo") {
      double Slo = 0.0;
      if (!parseDouble(NextValue(), Slo) || Slo < 0.0 || Slo > 1.0) {
        std::fprintf(stderr,
                     "--slo needs a QoS error bound in [0, 1] (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Policy.Slo = Slo;
      Options.Policy.Enabled = true;
    } else if (Flag == "--output-bound") {
      double Bound = 0.0;
      if (!parseDouble(NextValue(), Bound) || Bound < 0.0) {
        std::fprintf(stderr,
                     "--output-bound needs a non-negative magnitude "
                     "(got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Policy.OutputAbsBound = Bound;
      Options.Policy.Enabled = true;
    } else if (Flag == "--max-retries") {
      long long Retries = 0;
      if (!parseInt(NextValue(), Retries) || Retries < 0 ||
          Retries > 1000) {
        std::fprintf(stderr,
                     "--max-retries needs a non-negative integer "
                     "(got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Policy.MaxRetries = static_cast<int>(Retries);
      Options.Policy.Enabled = true;
    } else if (Flag == "--op-budget") {
      unsigned long long Budget = 0;
      if (!parseUnsigned(NextValue(), Budget) || Budget == 0) {
        std::fprintf(stderr,
                     "--op-budget needs a positive operation count "
                     "(got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.Policy.OpBudget = Budget;
      Options.Policy.Enabled = true;
    } else if (Flag == "--no-degrade") {
      Options.Policy.Degrade = false;
      Options.Policy.Enabled = true;
    } else if (Flag == "--metrics") {
      Options.Metrics = true;
    } else if (Flag == "--exec-mode") {
      std::string Mode = NextValue();
      if (Mode == "interp") {
        Options.Exec = enerj::harness::ExecMode::Interp;
      } else if (Mode == "compiled") {
        Options.Exec = enerj::harness::ExecMode::Compiled;
      } else {
        std::fprintf(stderr,
                     "--exec-mode needs 'interp' or 'compiled' "
                     "(got '%s')\n",
                     Mode.c_str());
        return 2;
      }
      // Echo the mode (JSON schema v4) whenever it was given explicitly,
      // for either value; the flagless grid stays byte-identical to the
      // historical v2/v3 output.
      Options.EchoExecMode = true;
    } else if (Flag == "--power-trace") {
      std::string Spec = NextValue();
      std::string Error;
      std::optional<enerj::env::PowerTraceSpec> Trace;
      // A spec naming an existing file loads it; anything else must be a
      // synthetic preset. The two parsers produce their own diagnostics.
      if (std::ifstream(Spec).good())
        Trace = enerj::env::PowerTraceSpec::fromFile(Spec, &Error);
      else
        Trace = enerj::env::PowerTraceSpec::preset(Spec, &Error);
      if (!Trace) {
        std::fprintf(stderr, "--power-trace: %s\n", Error.c_str());
        return 2;
      }
      Options.Power.Trace = std::move(*Trace);
      Options.PowerArmed = true;
    } else if (Flag == "--checkpoint") {
      std::string Spec = NextValue();
      std::string Error;
      std::optional<enerj::env::CheckpointPolicy> Policy =
          enerj::env::CheckpointPolicy::parse(Spec, &Error);
      if (!Policy) {
        std::fprintf(stderr, "--checkpoint: %s\n", Error.c_str());
        return 2;
      }
      Options.Power.Checkpoint = std::move(*Policy);
      SawCheckpoint = true;
    } else if (Flag == "--journal-dir") {
      JournalDir = NextValue();
      if (JournalDir.empty()) {
        std::fprintf(stderr, "--journal-dir needs a directory\n");
        return 2;
      }
      Options.Journal = true;
    } else if (Flag == "--journal-sample") {
      long long Every = 0;
      if (!parseInt(NextValue(), Every) || Every < 0 || Every > 1000000) {
        std::fprintf(stderr,
                     "--journal-sample needs a non-negative ok-trial "
                     "stride, 0 = non-ok only (got '%s')\n",
                     Argv[Arg]);
        return 2;
      }
      Options.JournalOkSampleEvery = static_cast<int>(Every);
    } else if (Flag == "--progress") {
      Options.Progress = true;
    } else if (Flag == "--ledger") {
      LedgerPath = NextValue();
      if (LedgerPath.empty()) {
        std::fprintf(stderr, "--ledger needs a file path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown eval flag '%s'\n", Flag.c_str());
      return 2;
    }
  }
  if (SawCheckpoint && !Options.PowerArmed) {
    std::fprintf(stderr,
                 "--checkpoint requires --power-trace (a checkpoint "
                 "policy is part of a power environment)\n");
    return 2;
  }
  Options.KernelDir = std::string(ENERJ_FEJ_DIR) + "/isa";
  enerj::harness::EvalResult Result;
  auto Started = std::chrono::steady_clock::now();
  try {
    Result = enerj::harness::runEval(Options);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "eval failed: %s\n", E.what());
    return 1;
  }
  double ElapsedSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Started)
          .count();
  // The payload JSON feeds the ledger's grid digest even in text mode;
  // render it once.
  std::string PayloadJson = enerj::harness::renderEvalJson(Result);
  std::string Rendered =
      Json ? PayloadJson + "\n" : enerj::harness::renderEvalText(Result);
  std::fputs(Rendered.c_str(), stdout);
  if (!JournalDir.empty()) {
    std::error_code DirError;
    std::filesystem::create_directories(JournalDir, DirError);
    std::string Error;
    std::vector<std::string> Written =
        enerj::obs::writeJournals(Result, JournalDir, &Error);
    if (!Error.empty()) {
      std::fprintf(stderr, "--journal-dir: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[journal] %zu journal(s) written to %s\n",
                 Written.size(), JournalDir.c_str());
  }
  if (!LedgerPath.empty()) {
    std::string Error;
    if (!enerj::obs::appendLedgerLine(
            LedgerPath,
            enerj::obs::ledgerEntryForEval(Result, PayloadJson, ElapsedSec),
            &Error)) {
      std::fprintf(stderr, "--ledger: %s\n", Error.c_str());
      return 1;
    }
  }
  return 0;
}

int replayMode(int Argc, char **Argv) {
  bool Blame = false;
  const char *File = nullptr;
  for (int Arg = 2; Arg < Argc; ++Arg) {
    std::string Flag = Argv[Arg];
    if (Flag == "--blame") {
      Blame = true;
    } else if (!Flag.empty() && Flag[0] == '-') {
      std::fprintf(stderr, "unknown replay flag '%s'\n", Flag.c_str());
      return 2;
    } else if (!File) {
      File = Argv[Arg];
    } else {
      std::fprintf(stderr, "replay takes exactly one journal file\n");
      return 2;
    }
  }
  if (!File) {
    std::fprintf(stderr,
                 "usage: fenerj_tool replay <journal.json> [--blame]\n");
    return 2;
  }
  bool Ok = true;
  std::string Text = readFile(File, Ok);
  if (!Ok) {
    std::fprintf(stderr, "error: cannot read '%s'\n", File);
    return 1;
  }
  enerj::obs::Journal J;
  std::string Error;
  if (!enerj::obs::parseJournalJson(Text, &J, &Error)) {
    std::fprintf(stderr, "%s: %s\n", File, Error.c_str());
    return 1;
  }
  try {
    if (Blame) {
      std::vector<enerj::obs::BlameRow> Rows = enerj::obs::blameJournal(J);
      std::fputs(enerj::obs::renderBlameText(J, Rows).c_str(), stdout);
      return 0;
    }
    enerj::obs::ReplayResult R = enerj::obs::replayJournal(
        J, std::string(ENERJ_FEJ_DIR) + "/isa");
    if (R.Match) {
      std::printf("replay: match\n  digest %s\n", R.RecordedJson.c_str());
      return 0;
    }
    std::printf("replay: MISMATCH\n  recorded %s\n  replayed %s\n",
                R.RecordedJson.c_str(), R.ReplayedJson.c_str());
    return 1;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "replay failed: %s\n", E.what());
    return 1;
  }
}

int runsUsage() {
  std::fprintf(
      stderr,
      "usage: fenerj_tool runs list <ledger.jsonl>\n"
      "       fenerj_tool runs diff <ledger.jsonl> <a> <b>\n"
      "       fenerj_tool runs check <ledger.jsonl> --baseline <file>\n"
      "       (entry indexes are 0-based; negative counts from the end)\n");
  return 2;
}

/// Parses a "0x"-prefixed 16-digit hash spelling (the ledger's hash
/// format) strictly.
bool parseHex64(const std::string &Text, uint64_t &Out) {
  if (Text.size() < 3 || Text[0] != '0' || Text[1] != 'x')
    return false;
  errno = 0;
  char *End = nullptr;
  Out = std::strtoull(Text.c_str() + 2, &End, 16);
  return errno == 0 && End && *End == '\0';
}

int runsMode(int Argc, char **Argv) {
  if (Argc < 4)
    return runsUsage();
  std::string Sub = Argv[2];
  const char *Path = Argv[3];
  std::vector<enerj::obs::LedgerEntry> Entries;
  std::string Error;
  if (!enerj::obs::readLedger(Path, &Entries, &Error)) {
    std::fprintf(stderr, "runs: %s\n", Error.c_str());
    return 1;
  }
  auto Hash = [](uint64_t Value) {
    char Buffer[24];
    std::snprintf(Buffer, sizeof(Buffer), "0x%016llx",
                  static_cast<unsigned long long>(Value));
    return std::string(Buffer);
  };
  if (Sub == "list") {
    if (Argc != 4)
      return runsUsage();
    std::printf("%4s %-8s %-18s %8s %8s %12s %12s %12s\n", "idx", "command",
                "configHash", "trials", "ok", "qosMean", "effEnergy",
                "trials/s");
    for (size_t I = 0; I < Entries.size(); ++I) {
      const enerj::obs::LedgerEntry &E = Entries[I];
      std::printf("%4zu %-8s %-18s %8llu %8llu %12.6g %12.6g %12.6g\n", I,
                  E.Command.c_str(), Hash(E.ConfigHash).c_str(),
                  static_cast<unsigned long long>(E.Trials),
                  static_cast<unsigned long long>(E.Outcomes.Ok), E.QosMean,
                  E.EffectiveEnergyMean, E.TrialsPerSec);
    }
    return 0;
  }
  if (Sub == "diff") {
    if (Argc != 6)
      return runsUsage();
    auto Resolve = [&](const char *Text, size_t &Out) -> bool {
      long long Index = 0;
      if (!parseInt(Text, Index))
        return false;
      if (Index < 0)
        Index += static_cast<long long>(Entries.size());
      if (Index < 0 || Index >= static_cast<long long>(Entries.size()))
        return false;
      Out = static_cast<size_t>(Index);
      return true;
    };
    size_t IndexA = 0, IndexB = 0;
    if (!Resolve(Argv[4], IndexA) || !Resolve(Argv[5], IndexB)) {
      std::fprintf(stderr,
                   "runs diff: bad entry index (ledger has %zu entries)\n",
                   Entries.size());
      return 2;
    }
    const enerj::obs::LedgerEntry &A = Entries[IndexA];
    const enerj::obs::LedgerEntry &B = Entries[IndexB];
    std::printf("== runs diff [%zu] vs [%zu] ==\n", IndexA, IndexB);
    std::printf("  %-22s %s | %s\n", "command", A.Command.c_str(),
                B.Command.c_str());
    std::printf("  %-22s %s | %s  %s\n", "configHash",
                Hash(A.ConfigHash).c_str(), Hash(B.ConfigHash).c_str(),
                A.ConfigHash == B.ConfigHash ? "(same config)"
                                             : "(DIFFERENT config)");
    std::printf("  %-22s %s | %s  %s\n", "gridDigest",
                Hash(A.GridDigest).c_str(), Hash(B.GridDigest).c_str(),
                A.GridDigest == B.GridDigest ? "(bitwise-identical payload)"
                                             : "(payload differs)");
    std::printf("  %-22s %llu | %llu\n", "trials",
                static_cast<unsigned long long>(A.Trials),
                static_cast<unsigned long long>(B.Trials));
    auto Tally = [&](const char *Name, uint64_t ValueA, uint64_t ValueB) {
      std::printf("  %-22s %llu | %llu\n", Name,
                  static_cast<unsigned long long>(ValueA),
                  static_cast<unsigned long long>(ValueB));
    };
    Tally("outcomes.ok", A.Outcomes.Ok, B.Outcomes.Ok);
    Tally("outcomes.sloViolated", A.Outcomes.SloViolated,
          B.Outcomes.SloViolated);
    Tally("outcomes.aborted", A.Outcomes.Aborted, B.Outcomes.Aborted);
    Tally("outcomes.retried", A.Outcomes.Retried, B.Outcomes.Retried);
    Tally("outcomes.degraded", A.Outcomes.Degraded, B.Outcomes.Degraded);
    Tally("outcomes.powerFailed", A.Outcomes.PowerFailed,
          B.Outcomes.PowerFailed);
    auto Metric = [&](const char *Name, double ValueA, double ValueB) {
      std::printf("  %-22s %.17g | %.17g  (%+.3g)\n", Name, ValueA, ValueB,
                  ValueB - ValueA);
    };
    Metric("qosMean", A.QosMean, B.QosMean);
    Metric("energyMean", A.EnergyMean, B.EnergyMean);
    Metric("effectiveEnergyMean", A.EffectiveEnergyMean,
           B.EffectiveEnergyMean);
    Metric("trialsPerSec", A.TrialsPerSec, B.TrialsPerSec);
    return 0;
  }
  if (Sub == "check") {
    if (Argc != 6 || std::string(Argv[4]) != "--baseline")
      return runsUsage();
    bool Ok = true;
    std::string Text = readFile(Argv[5], Ok);
    if (!Ok) {
      std::fprintf(stderr, "runs check: cannot read '%s'\n", Argv[5]);
      return 1;
    }
    enerj::obs::json::Value Doc;
    if (!enerj::obs::json::parse(Text, &Doc, &Error) || !Doc.isObject()) {
      std::fprintf(stderr, "runs check: %s: %s\n", Argv[5],
                   Error.empty() ? "baseline is not a JSON object"
                                 : Error.c_str());
      return 1;
    }
    std::string Command = "eval";
    if (const enerj::obs::json::Value *V = Doc.find("command"))
      if (V->isString())
        Command = V->Text;
    bool HaveHash = false;
    uint64_t WantHash = 0;
    if (const enerj::obs::json::Value *V = Doc.find("configHash")) {
      if (!V->isString() || !parseHex64(V->Text, WantHash)) {
        std::fprintf(stderr,
                     "runs check: baseline configHash must be a 0x hash\n");
        return 1;
      }
      HaveHash = true;
    }
    // The baseline gates the *latest* comparable run: the last ledger
    // entry with the baseline's command (and configHash, when pinned).
    const enerj::obs::LedgerEntry *Entry = nullptr;
    size_t EntryIndex = 0;
    for (size_t I = 0; I < Entries.size(); ++I)
      if (Entries[I].Command == Command &&
          (!HaveHash || Entries[I].ConfigHash == WantHash)) {
        Entry = &Entries[I];
        EntryIndex = I;
      }
    if (!Entry) {
      std::fprintf(stderr,
                   "runs check: no ledger entry matches the baseline "
                   "(command '%s'%s)\n",
                   Command.c_str(),
                   HaveHash ? " with the pinned configHash" : "");
      return 1;
    }
    std::printf("== runs check: entry [%zu] (%s, configHash %s) vs %s ==\n",
                EntryIndex, Entry->Command.c_str(),
                Hash(Entry->ConfigHash).c_str(), Argv[5]);
    int Failures = 0;
    if (const enerj::obs::json::Value *V = Doc.find("gridDigest")) {
      uint64_t Want = 0;
      if (!V->isString() || !parseHex64(V->Text, Want)) {
        std::fprintf(stderr,
                     "runs check: baseline gridDigest must be a 0x hash\n");
        return 1;
      }
      bool Pass = Entry->GridDigest == Want;
      std::printf("  %-4s %-24s %s %s %s\n", Pass ? "ok" : "FAIL",
                  "gridDigest", Hash(Entry->GridDigest).c_str(),
                  Pass ? "==" : "!=", Hash(Want).c_str());
      if (!Pass)
        ++Failures;
    }
    auto Gate = [&](const char *Name, double Have, double Bound, bool Pass,
                    const char *Relation) {
      std::printf("  %-4s %-24s %.17g %s %.17g\n", Pass ? "ok" : "FAIL",
                  Name, Have, Relation, Bound);
      if (!Pass)
        ++Failures;
    };
    auto Threshold = [&](const char *Key, double &Out) -> bool {
      const enerj::obs::json::Value *V = Doc.find(Key);
      if (!V || !V->isNumber())
        return false;
      Out = V->asDouble();
      return true;
    };
    double Bound = 0.0;
    if (Threshold("qosMeanMax", Bound))
      Gate("qosMean", Entry->QosMean, Bound, Entry->QosMean <= Bound, "<=");
    if (Threshold("energyMeanMax", Bound))
      Gate("energyMean", Entry->EnergyMean, Bound,
           Entry->EnergyMean <= Bound, "<=");
    if (Threshold("effectiveEnergyMeanMax", Bound))
      Gate("effectiveEnergyMean", Entry->EffectiveEnergyMean, Bound,
           Entry->EffectiveEnergyMean <= Bound, "<=");
    if (Threshold("trialsPerSecMin", Bound))
      Gate("trialsPerSec", Entry->TrialsPerSec, Bound,
           Entry->TrialsPerSec >= Bound, ">=");
    if (Failures) {
      std::printf("runs check: %d gate(s) FAILED\n", Failures);
      return 1;
    }
    std::printf("runs check: all gates passed\n");
    return 0;
  }
  std::fprintf(stderr, "unknown runs subcommand '%s'\n", Sub.c_str());
  return runsUsage();
}

std::string readFile(const char *Path, bool &Ok) {
  std::ifstream In(Path);
  if (!In) {
    Ok = false;
    return {};
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Ok = true;
  return Buffer.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: fenerj_tool check <file.fej>\n"
               "       fenerj_tool run <file.fej>\n"
               "       fenerj_tool fuzz <file.fej> [rounds]\n"
               "       fenerj_tool compile <file.fej> [-O1]  (emit ISA "
               "asm, optionally optimized)\n"
               "       fenerj_tool exec <file.fej> [-O1]     (compile + "
               "run at all levels)\n"
               "       fenerj_tool opt <file.fej|file.isa> [--passes a,b] "
               "[--level L]\n"
               "                       [--json] [--emit]\n"
               "                      (qualifier-aware optimizer with "
               "per-pass translation\n"
               "                       validation; --emit prints the "
               "optimized assembly)\n"
               "       fenerj_tool bound <file.fej|file.isa> [--level L] "
               "[--json] [--per-site]\n"
               "                       [--ledger f]\n"
               "                      (static reliability bounds: P(output "
               "bitwise-exact) lower\n"
               "                       bounds for the optimized binary at "
               "level L, default medium;\n"
               "                       --per-site lists endorsement-site "
               "bounds)\n"
               "       fenerj_tool lint <file.fej> [--json] [--Werror]\n"
               "                      (endorsement / precision-slack / "
               "dead-value / isa-flow /\n"
               "                       interproc-flow audits; --Werror "
               "fails on warnings)\n"
               "       fenerj_tool infer <file.fej>... [--json] "
               "[--suggest-annotations]\n"
               "                      (whole-program qualifier inference: "
               "maximal @approx\n"
               "                       relaxation with zero new "
               "endorsements, per app)\n"
               "       fenerj_tool eval [--apps a,b] [--levels l1,l2] "
               "[--seeds N] [--threads N]\n"
               "                        [--slo E] [--max-retries N] "
               "[--op-budget M]\n"
               "                        [--output-bound B] [--no-degrade] "
               "[--metrics] [--json]\n"
               "                        [--exec-mode interp|compiled]\n"
               "                        [--power-trace file|preset] "
               "[--checkpoint policy]\n"
               "                        [--journal-dir d] [--journal-sample "
               "N] [--progress]\n"
               "                        [--ledger file]\n"
               "                      (the Section 6 evaluation grid on "
               "the parallel trial runner;\n"
               "                       --slo/--max-retries/--op-budget arm "
               "the resilience policy,\n"
               "                       on either exec mode;\n"
               "                       --metrics adds per-site telemetry, "
               "JSON schema v3;\n"
               "                       --exec-mode compiled runs each "
               "cell's cached ISA kernel\n"
               "                       with batched fault injection, JSON "
               "schema v4;\n"
               "                       --power-trace meters every trial "
               "against an intermittent\n"
               "                       supply (steady[:r], "
               "brownout[:hi:lo], harvest[:seed], or a\n"
               "                       trace file), JSON schema v5; "
               "--checkpoint none|periodic:N|\n"
               "                       preregion sets the checkpoint "
               "policy;\n"
               "                       --journal-dir captures replayable "
               "flight-recorder journals\n"
               "                       (every non-ok trial, every "
               "--journal-sample'th ok trial);\n"
               "                       --progress heartbeats on stderr; "
               "--ledger appends one\n"
               "                       manifest line to a JSONL run "
               "ledger)\n"
               "       fenerj_tool replay <journal.json> [--blame]\n"
               "                      (re-execute a captured journal and "
               "verify its digest\n"
               "                       bitwise; --blame ranks journaled "
               "fault sites by QoS damage\n"
               "                       via forced-precise counterfactual "
               "replay)\n"
               "       fenerj_tool runs list <ledger.jsonl>\n"
               "       fenerj_tool runs diff <ledger.jsonl> <a> <b>\n"
               "       fenerj_tool runs check <ledger.jsonl> --baseline "
               "<file>\n"
               "                      (cross-run comparison over the run "
               "ledger; check gates\n"
               "                       QoS / energy / throughput against a "
               "baseline's thresholds)\n"
               "       fenerj_tool profile <app> [--level L] [--seeds N] "
               "[--threads N] [--top K]\n"
               "                           [--no-qos-delta] [--trace "
               "out.json] [--json] [--ledger f]\n"
               "                      (per-site energy/fault attribution "
               "with forced-precise QoS\n"
               "                       deltas; --trace exports a "
               "Chrome/Perfetto timeline)\n"
               "       fenerj_tool demo\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::string(Argv[1]) == "eval")
    return eval(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "profile")
    return profile(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "infer")
    return infer(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "replay")
    return replayMode(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "runs")
    return runsMode(Argc, Argv);
  if (Argc >= 2 && std::string(Argv[1]) == "demo") {
    std::printf("--- demo program ---\n%s--- check ---\n", DemoProgram);
    if (check(DemoProgram))
      return 1;
    std::printf("--- run ---\n");
    if (run(DemoProgram))
      return 1;
    std::printf("--- fuzz ---\n");
    return fuzz(DemoProgram, 10);
  }
  if (Argc < 3)
    return usage();
  if (std::string(Argv[1]) == "opt")
    return optMode(Argc, Argv);
  if (std::string(Argv[1]) == "bound")
    return boundMode(Argc, Argv);
  bool Ok = true;
  std::string Source = readFile(Argv[2], Ok);
  if (!Ok) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Argv[2]);
    return 1;
  }
  std::string Mode = Argv[1];
  if (Mode == "check")
    return check(Source);
  if (Mode == "run")
    return run(Source);
  if (Mode == "fuzz")
    return fuzz(Source, Argc >= 4 ? std::atoi(Argv[3]) : 20);
  if (Mode == "compile" || Mode == "exec") {
    bool Optimize = false;
    for (int Arg = 3; Arg < Argc; ++Arg) {
      std::string Flag = Argv[Arg];
      if (Flag == "-O1")
        Optimize = true;
      else if (Flag == "-O0")
        Optimize = false;
      else {
        std::fprintf(stderr, "unknown %s flag '%s' (-O0 or -O1)\n",
                     Mode.c_str(), Flag.c_str());
        return 2;
      }
    }
    return compileIsa(Source, /*Execute=*/Mode == "exec", Optimize);
  }
  if (Mode == "lint" || Mode == "--lint") {
    bool Json = false, Werror = false;
    for (int Arg = 3; Arg < Argc; ++Arg) {
      std::string Flag = Argv[Arg];
      if (Flag == "--json")
        Json = true;
      else if (Flag == "--Werror")
        Werror = true;
      else {
        std::fprintf(stderr, "unknown lint flag '%s'\n", Flag.c_str());
        return 2;
      }
    }
    return lint(Source, Argv[2], Json, Werror);
  }
  return usage();
}
