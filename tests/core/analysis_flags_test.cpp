//===- tests/core/analysis_flags_test.cpp - Shared flag parser ------------===//
//
// The shared command-line parser behind the CLI, the examples and the
// benchmarks: accepted flags land in AnalysisOptions, and flags for
// options that no longer exist are usage errors rather than silently
// ignored.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisFlags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace syntox;

namespace {

/// Parses \p Args; returns the parser's verdict and leaves the error in
/// \p Error.
bool parse(std::vector<std::string> Args, AnalysisOptions &Opts,
           std::string &Error) {
  TelemetryFlags Telem;
  return parseAnalysisFlags(Args, Opts, Telem, Error);
}

TEST(AnalysisFlagsTest, StrategiesParse) {
  AnalysisOptions Opts;
  std::string Error;
  ASSERT_TRUE(parse({"--strategy=worklist"}, Opts, Error)) << Error;
  EXPECT_EQ(Opts.Strategy, IterationStrategy::Worklist);
  ASSERT_TRUE(parse({"--strategy=recursive"}, Opts, Error)) << Error;
  EXPECT_EQ(Opts.Strategy, IterationStrategy::Recursive);
}

TEST(AnalysisFlagsTest, RemovedParallelOptionsAreUsageErrors) {
  for (const char *Arg : {"--strategy=parallel", "--threads=4"}) {
    AnalysisOptions Opts;
    std::string Error;
    EXPECT_FALSE(parse({Arg}, Opts, Error)) << Arg;
    EXPECT_FALSE(Error.empty()) << Arg;
    EXPECT_TRUE(Opts == AnalysisOptions()) << Arg << " changed an option";
  }
}

TEST(AnalysisFlagsTest, HelpNoLongerOffersRemovedOptions) {
  std::string Help = analysisFlagsHelp();
  EXPECT_EQ(Help.find("parallel"), std::string::npos);
  EXPECT_EQ(Help.find("--threads"), std::string::npos);
}

} // namespace
