//===- bench/opt_pipeline.cpp - Optimizer impact across the corpus --------===//
//
// What the qualifier-aware optimizer buys on each kernel: every ISA-subset
// kernel in examples/fej/isa/ is compiled, assembled, and run at -O0 and
// at -O1 (the validated default pipeline). For each app the bench reports
// the static instruction count, the dynamic instruction count of one
// fault-free run, and the Table-2 energy factor, before and after. Every
// figure is deterministic; run time is perfbench's job.
//
// Usage: opt_pipeline
//
//===----------------------------------------------------------------------===//

#include "analysis/opt/pipeline.h"
#include "fenerj/codegen.h"
#include "fenerj/fenerj.h"
#include "isa/assembler.h"
#include "isa/machine.h"
#include "isa/verifier.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace enerj;
using namespace enerj::fenerj;
namespace opt = enerj::analysis::opt;
namespace fs = std::filesystem;

namespace {

std::optional<std::string> readFile(const fs::path &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Instructions executed by one fault-free run of \p Binary.
uint64_t dynamicCount(const isa::IsaProgram &Binary) {
  isa::Machine M(Binary, FaultConfig::preset(ApproxLevel::None));
  return M.run(50'000'000).InstructionsExecuted;
}

} // namespace

int main() {
  fs::path KernelDir = fs::path(ENERJ_FEJ_DIR) / "isa";
  std::vector<fs::path> Files;
  for (const fs::directory_entry &Entry : fs::directory_iterator(KernelDir))
    if (Entry.path().extension() == ".fej")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  if (Files.empty()) {
    std::fprintf(stderr, "opt_pipeline: no kernels under %s\n",
                 KernelDir.string().c_str());
    return 1;
  }

  std::printf("Optimizer impact across the ISA corpus (dynamic counts "
              "from one fault-free run)\n\n");
  std::printf("%-14s %6s %6s %9s %9s %7s %9s %9s\n", "app", "ops0", "ops1",
              "dyn0", "dyn1", "dynΔ%", "factor0", "factor1");
  for (int I = 0; I < 76; ++I)
    std::putchar('-');
  std::printf("\n");

  for (const fs::path &File : Files) {
    std::optional<std::string> Source = readFile(File);
    if (!Source) {
      std::fprintf(stderr, "opt_pipeline: cannot read %s\n",
                   File.string().c_str());
      return 1;
    }
    DiagnosticEngine Diags;
    ClassTable Table;
    std::optional<Program> Prog = compile(*Source, Table, Diags);
    if (!Prog) {
      std::fprintf(stderr, "%s: %s\n", File.filename().string().c_str(),
                   Diags.str().c_str());
      return 1;
    }
    CodegenResult Code = compileToIsa(*Prog);
    if (!Code.Ok) {
      std::fprintf(stderr, "%s: %s\n", File.filename().string().c_str(),
                   Code.Error.c_str());
      return 1;
    }
    std::vector<std::string> AsmErrors;
    std::optional<isa::IsaProgram> Binary =
        isa::assemble(Code.Assembly, AsmErrors);
    if (!Binary) {
      for (const std::string &E : AsmErrors)
        std::fprintf(stderr, "%s: assembler: %s\n",
                     File.filename().string().c_str(), E.c_str());
      return 1;
    }
    std::vector<isa::VerifyError> VerifyErrors = isa::verify(*Binary);
    if (!VerifyErrors.empty()) {
      for (const isa::VerifyError &E : VerifyErrors)
        std::fprintf(stderr, "%s: verifier: %s\n",
                     File.filename().string().c_str(), E.str().c_str());
      return 1;
    }

    isa::IsaProgram Optimized = *Binary;
    opt::OptReport Report = opt::optimizeProgram(Optimized);
    if (!Report.Ok) {
      std::fprintf(stderr, "%s: optimizer: %s\n",
                   File.filename().string().c_str(), Report.Error.c_str());
      return 1;
    }

    uint64_t DynBefore = dynamicCount(*Binary);
    uint64_t DynAfter = dynamicCount(Optimized);
    double DynDelta =
        DynBefore > 0 ? 100.0 * (1.0 - static_cast<double>(DynAfter) /
                                           static_cast<double>(DynBefore))
                      : 0.0;
    std::printf("%-14s %6zu %6zu %9llu %9llu %6.1f%% %9.4f %9.4f\n",
                File.stem().string().c_str(), Report.OpsBefore,
                Report.OpsAfter, static_cast<unsigned long long>(DynBefore),
                static_cast<unsigned long long>(DynAfter), DynDelta,
                Report.EnergyBefore.factor(), Report.EnergyAfter.factor());
  }
  return 0;
}
