//===- tests/cli_bound_test.cpp - fenerj_tool bound CLI contract ----------===//
//
// Black-box tests of the bound subcommand: the JSON report (schema v1)
// is pinned byte-for-byte against goldens, is bytewise stable across
// runs, level None reports every bound as exactly 1.0, argv validation
// exits 2, the per-site text view lists endorsement sites, and a file
// name with quote, backslash and control bytes still yields valid JSON
// from both bound and opt. The
// binary path comes from ENERJ_FENERJ_TOOL, kernels from ENERJ_FEJ_DIR.
//
//===----------------------------------------------------------------------===//

#include "obs/json_mini.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <unistd.h>

#ifndef ENERJ_FENERJ_TOOL
#error "ENERJ_FENERJ_TOOL must point at the fenerj_tool binary"
#endif
#ifndef ENERJ_FEJ_DIR
#error "ENERJ_FEJ_DIR must point at examples/fej"
#endif

namespace {

int runTool(const std::string &Args, std::string &Output) {
  std::string Command =
      std::string("\"") + ENERJ_FENERJ_TOOL + "\" " + Args + " 2>&1";
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return -1;
  Output.clear();
  std::array<char, 4096> Buffer;
  size_t Read;
  while ((Read = fread(Buffer.data(), 1, Buffer.size(), Pipe)) > 0)
    Output.append(Buffer.data(), Read);
  int Status = pclose(Pipe);
  if (Status == -1)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

int runTool(const std::string &Args) {
  std::string Discard;
  return runTool(Args, Discard);
}

std::string isaKernel(const char *Name) {
  return std::string(ENERJ_FEJ_DIR) + "/isa/" + Name;
}

} // namespace

TEST(CliBound, JsonMatchesGoldenAtMedium) {
  // The full schema-v1 report for fft at medium, pinned byte for byte.
  // A change here is a change to the analysis result or the schema and
  // must be deliberate.
  std::string Output;
  ASSERT_EQ(runTool("bound " + isaKernel("fft.fej") + " --level medium "
                    "--json",
                    Output),
            0);
  std::string Expected =
      std::string("{\"tool\": \"fenerj-bound\", \"version\": 1, "
                  "\"file\": \"") +
      isaKernel("fft.fej") +
      "\", \"level\": \"medium\", \"conservative\": false, "
      "\"pathBound\": 1, \"intOutputBound\": 1, \"fpOutputBound\": 0, "
      "\"programBound\": 0, \"preciseMemBound\": 1, "
      "\"approxMemBound\": 0, \"loops\": 6, \"loopsUnrolled\": 5, "
      "\"loopsWidened\": 1, \"blockEvals\": 51, \"sites\": "
      "[{\"block\": 18, \"index\": 2, \"line\": 210, \"op\": "
      "\"fendorse\", \"srcReg\": \"f16\", \"bound\": 0, \"visits\": "
      "1}]}\n";
  EXPECT_EQ(Output, Expected);
}

TEST(CliBound, JsonIsBytewiseStableAcrossRuns) {
  std::string First, Second;
  std::string Args =
      "bound " + isaKernel("sor.fej") + " --level aggressive --json";
  ASSERT_EQ(runTool(Args, First), 0);
  ASSERT_EQ(runTool(Args, Second), 0);
  EXPECT_EQ(First, Second);
  EXPECT_NE(First.find("\"tool\": \"fenerj-bound\""), std::string::npos);
  EXPECT_NE(First.find("\"version\": 1"), std::string::npos);
}

TEST(CliBound, NoneLevelReportsEveryBoundAsOne) {
  for (const char *Name : {"fft.fej", "sor.fej", "montecarlo.fej"}) {
    std::string Output;
    ASSERT_EQ(runTool("bound " + isaKernel(Name) + " --level none --json",
                      Output),
              0)
        << Name;
    EXPECT_NE(Output.find("\"pathBound\": 1,"), std::string::npos) << Name;
    EXPECT_NE(Output.find("\"intOutputBound\": 1,"), std::string::npos)
        << Name;
    EXPECT_NE(Output.find("\"fpOutputBound\": 1,"), std::string::npos)
        << Name;
    EXPECT_NE(Output.find("\"programBound\": 1,"), std::string::npos)
        << Name;
    EXPECT_NE(Output.find("\"conservative\": false"), std::string::npos)
        << Name;
  }
}

TEST(CliBound, DefaultLevelIsMedium) {
  std::string Output;
  ASSERT_EQ(runTool("bound " + isaKernel("fft.fej"), Output), 0);
  EXPECT_NE(Output.find("@ medium"), std::string::npos);
}

TEST(CliBound, PerSiteTextListsEndorsementSites) {
  std::string Output;
  ASSERT_EQ(runTool("bound " + isaKernel("fft.fej") + " --per-site",
                    Output),
            0);
  EXPECT_NE(Output.find("endorsement sites"), std::string::npos);
  EXPECT_NE(Output.find("fendorse"), std::string::npos);
  EXPECT_NE(Output.find("line 210"), std::string::npos);
}

TEST(CliBound, FlagOrderDoesNotMatter) {
  std::string A, B;
  ASSERT_EQ(runTool("bound " + isaKernel("lu.fej") +
                    " --json --level mild",
                    A),
            0);
  ASSERT_EQ(runTool("bound " + isaKernel("lu.fej") +
                    " --level mild --json",
                    B),
            0);
  EXPECT_EQ(A, B);
}

TEST(CliBound, ArgvValidation) {
  std::string Output;
  EXPECT_EQ(runTool("bound " + isaKernel("fft.fej") + " --frobnicate",
                    Output),
            2);
  EXPECT_NE(Output.find("frobnicate"), std::string::npos);
  EXPECT_EQ(runTool("bound " + isaKernel("fft.fej") + " --level warp"), 2);
  EXPECT_EQ(runTool("bound " + isaKernel("fft.fej") + " --level"), 2);
  EXPECT_EQ(runTool("bound /nonexistent/missing.fej"), 1);
  EXPECT_EQ(runTool("bound"), 2);
}

TEST(CliBound, HostileFileNameStillYieldsValidJson) {
  // The file name is echoed into the report: a quote, a backslash and a
  // control byte must all come out escaped, for bound and for opt.
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() /
                 ("enerj_cli_bound_" + std::to_string(getpid()));
  fs::create_directories(Dir);
  std::string Hostile = (Dir / "q\"x\\y\x01z.fej").string();
  fs::copy_file(isaKernel("fft.fej"), Hostile,
                fs::copy_options::overwrite_existing);
  for (const char *Mode : {"bound", "opt"}) {
    SCOPED_TRACE(Mode);
    std::string Output;
    ASSERT_EQ(runTool(std::string(Mode) + " '" + Hostile + "' --json", Output),
              0);
    // Strict JSON carries no raw control bytes; only the final newline.
    ASSERT_FALSE(Output.empty());
    EXPECT_EQ(Output.back(), '\n');
    for (size_t I = 0; I + 1 < Output.size(); ++I)
      EXPECT_GE(static_cast<unsigned char>(Output[I]), 0x20u) << "at " << I;
    enerj::obs::json::Value Doc;
    std::string Error;
    ASSERT_TRUE(enerj::obs::json::parse(Output, &Doc, &Error)) << Error;
    const enerj::obs::json::Value *File = Doc.find("file");
    ASSERT_NE(File, nullptr);
    EXPECT_EQ(File->Text, Hostile);
  }
  fs::remove_all(Dir);
}
