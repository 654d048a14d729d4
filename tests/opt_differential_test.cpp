//===- tests/opt_differential_test.cpp - Corpus differential gate --------===//
//
// The optimizer's end-to-end contract over the whole `.fej` corpus
// (examples/fej and its subdirectories):
//
//  * at ApproxLevel::None the optimized binary is *bitwise* identical
//    to the unoptimized one — same trap behavior, same final register
//    files, same final memory image — while never executing more
//    instructions;
//  * at least five of the nine ISA kernel apps actually lose
//    instructions to optimization (the pipeline is not vacuous);
//  * under approximation (Medium) bit-identity is impossible — deleting
//    instructions changes how many RNG draws the fault models make —
//    so the gate is statistical instead: the optimized QoS stays inside
//    the unoptimized trials' 95% confidence interval, and the static
//    energy-factor estimate never gets worse.
//
//===----------------------------------------------------------------------===//

#include "analysis/isa_flow.h"
#include "analysis/opt/pipeline.h"
#include "fenerj/codegen.h"
#include "fenerj/fenerj.h"
#include "harness/stats.h"
#include "isa/assembler.h"
#include "isa/machine.h"
#include "isa/verifier.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace enerj;
using namespace enerj::analysis;

namespace {

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(ENERJ_FEJ_DIR))
    if (Entry.path().extension() == ".fej")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Compiles a corpus program to a verified ISA binary; nullopt when the
/// program is outside the code generator's class-free subset.
std::optional<isa::IsaProgram> compileCorpus(const std::string &Path) {
  std::string Source = slurp(Path);
  fenerj::DiagnosticEngine Diags;
  fenerj::ClassTable Table;
  std::optional<fenerj::Program> Prog =
      fenerj::compile(Source, Table, Diags);
  if (!Prog)
    return std::nullopt;
  fenerj::CodegenResult Code = fenerj::compileToIsa(*Prog);
  if (!Code.Ok)
    return std::nullopt;
  std::vector<std::string> Errors;
  std::optional<isa::IsaProgram> Binary =
      isa::assemble(Code.Assembly, Errors);
  EXPECT_TRUE(Binary.has_value()) << Path;
  if (Binary) {
    EXPECT_TRUE(isa::verify(*Binary).empty()) << Path;
  }
  return Binary;
}

struct RunState {
  bool Trapped = false;
  std::string TrapMessage;
  uint64_t Executed = 0;
  std::vector<int64_t> IntRegs;
  std::vector<uint64_t> FpBits;
  std::vector<uint64_t> MemBits;
};

RunState runToCompletion(const isa::IsaProgram &Program,
                         const FaultConfig &Config) {
  isa::Machine M(Program, Config);
  isa::MachineResult R = M.run();
  RunState Out;
  Out.Trapped = R.Trapped;
  Out.TrapMessage = R.TrapMessage;
  Out.Executed = R.InstructionsExecuted;
  for (unsigned I = 0; I < isa::NumIntRegs; ++I)
    Out.IntRegs.push_back(M.intReg(I));
  for (unsigned I = 0; I < isa::NumFpRegs; ++I) {
    double V = M.fpReg(I);
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(V));
    Out.FpBits.push_back(Bits);
  }
  for (uint64_t A = 0; A < Program.PreciseWords + Program.ApproxWords;
       ++A)
    Out.MemBits.push_back(M.memBits(A));
  return Out;
}

} // namespace

TEST(OptDifferential, CorpusIsNonEmpty) {
  // Nine ISA kernels plus the original top-level examples.
  EXPECT_GE(corpusFiles().size(), 15u);
}

TEST(OptDifferential, PreciseStateIsBitwiseIdenticalAcrossCorpus) {
  size_t Compiled = 0;
  size_t KernelsImproved = 0, Kernels = 0;
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    std::optional<isa::IsaProgram> Binary = compileCorpus(Path);
    if (!Binary)
      continue; // Outside the class-free ISA subset.
    ++Compiled;

    isa::IsaProgram Optimized = *Binary;
    opt::OptReport Report = opt::optimizeProgram(Optimized);
    ASSERT_TRUE(Report.Ok) << Report.Error;
    for (const opt::PassReport &Pass : Report.Passes)
      EXPECT_TRUE(Pass.Accepted)
          << opt::passName(Pass.Kind) << ": " << Pass.RejectReason;

    // The optimized output re-verifies under both checkers.
    EXPECT_TRUE(isa::verify(Optimized).empty());
    EXPECT_TRUE(verifyFlow(Optimized).ok());

    // Static gates: never more ops, never a worse energy factor.
    EXPECT_LE(Report.OpsAfter, Report.OpsBefore);
    EXPECT_LE(Report.EnergyAfter.factor(),
              Report.EnergyBefore.factor() + 1e-12);

    bool IsKernelApp =
        Path.find("/isa/") != std::string::npos;
    if (IsKernelApp) {
      ++Kernels;
      if (Report.totalRemoved() > 0)
        ++KernelsImproved;
    }

    // The precise path: full-state bitwise identity.
    FaultConfig None = FaultConfig::preset(ApproxLevel::None);
    RunState A = runToCompletion(*Binary, None);
    RunState B = runToCompletion(Optimized, None);
    EXPECT_EQ(A.Trapped, B.Trapped) << B.TrapMessage;
    EXPECT_LE(B.Executed, A.Executed);
    EXPECT_EQ(A.IntRegs, B.IntRegs);
    EXPECT_EQ(A.FpBits, B.FpBits);
    EXPECT_EQ(A.MemBits, B.MemBits);
  }
  // The corpus contains at least the four original top-level subset
  // programs plus the nine kernels.
  EXPECT_GE(Compiled, 13u);
  EXPECT_EQ(Kernels, 9u);
  // Acceptance gate: >0 ops removed on at least 5 of the 9 apps.
  EXPECT_GE(KernelsImproved, 5u);
}

TEST(OptDifferential, ApproximateQosWithinConfidenceInterval) {
  // Under approximation bit-identity is forfeit by design (see
  // docs/OPTIMIZER.md): removing instructions shifts the RNG stream.
  // Instead: over many seeded trials at Medium, the optimized binary's
  // mean r1/f1 must lie within the unoptimized trials' 95% CI band
  // (widened by one ulp-scale epsilon for the all-zero-variance case).
  for (const std::string &Path : corpusFiles()) {
    SCOPED_TRACE(Path);
    std::optional<isa::IsaProgram> Binary = compileCorpus(Path);
    if (!Binary)
      continue;
    isa::IsaProgram Optimized = *Binary;
    opt::OptReport Report = opt::optimizeProgram(Optimized);
    ASSERT_TRUE(Report.Ok) << Report.Error;

    auto Sample = [](const isa::IsaProgram &P, uint64_t Seed) {
      FaultConfig Config = FaultConfig::preset(ApproxLevel::Medium);
      Config.Seed = Seed;
      isa::Machine M(P, Config);
      isa::MachineResult R = M.run();
      if (R.Trapped)
        return std::optional<double>{};
      double FpPart = M.fpReg(1);
      if (!std::isfinite(FpPart))
        FpPart = 0.0; // NaN/inf trials carry no usable magnitude.
      return std::optional<double>{
          static_cast<double>(M.intReg(1)) + FpPart};
    };

    std::vector<double> Base, Opt;
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      if (auto V = Sample(*Binary, Seed))
        Base.push_back(*V);
      if (auto V = Sample(Optimized, Seed))
        Opt.push_back(*V);
    }
    if (Base.size() < 5 || Opt.size() < 5)
      continue; // Too trap-happy at Medium to compare distributions.
    harness::TrialStats BaseStats = harness::TrialStats::over(Base);
    harness::TrialStats OptStats = harness::TrialStats::over(Opt);
    // Both means carry sampling error, so the band sums both CIs; the
    // epsilon covers the zero-variance (no fault fired) case.
    double Scale = std::max({std::fabs(BaseStats.Mean), 1.0});
    double Band = BaseStats.Ci95Half + OptStats.Ci95Half + 1e-9 * Scale;
    EXPECT_LE(std::fabs(OptStats.Mean - BaseStats.Mean), Band)
        << "base mean " << BaseStats.Mean << " +/- "
        << BaseStats.Ci95Half << ", opt mean " << OptStats.Mean;
  }
}
