/// \file test_tool_exit_codes.cpp
/// \brief Drives the built gaia-perfgate and gaia-critpath binaries on
/// hostile inputs: every bad input must exit 2 with a plain message (the
/// 0/1/2 contract CI pipelines rely on), never pass, crash or print a
/// source location.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "gaia_tool_" + name;
  std::ofstream(path, std::ios::trunc) << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

struct ToolRun {
  int exit_code = -1;  ///< -1 when killed by a signal
  std::string err;
};

ToolRun run(const std::string& tool, const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "gaia_tool_stderr";
  const int status = std::system(
      (tool + ' ' + args + " >/dev/null 2>" + err_path).c_str());
  ToolRun r;
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  r.err = read_file(err_path);
  return r;
}

/// The committed baseline with one textual substitution applied.
std::string baseline_with(const std::string& from, const std::string& to) {
  std::string doc = read_file(GAIA_SOURCE_DIR "/bench/baselines/BENCH_smoke.json");
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) doc.replace(at, from.size(), to);
  return doc;
}

void expect_bad_input(const ToolRun& r) {
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_EQ(r.err.find("check failed"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find(".cpp:"), std::string::npos) << r.err;
}

const std::string kCommitted =
    GAIA_SOURCE_DIR "/bench/baselines/BENCH_smoke.json";

TEST(PerfgateCli, CommittedBaselinePassesAgainstItself) {
  EXPECT_EQ(run(GAIA_PERFGATE, kCommitted + ' ' + kCommitted).exit_code, 0);
}

TEST(PerfgateCli, NanMedianExits2) {
  const std::string nan = temp_file(
      "nan.json",
      baseline_with("\"median_seconds\": 6.0486999999999999e-05",
                    "\"median_seconds\": NaN"));
  expect_bad_input(run(GAIA_PERFGATE, kCommitted + ' ' + nan));
  expect_bad_input(run(GAIA_PERFGATE, nan + ' ' + kCommitted));
}

TEST(PerfgateCli, NegativeMedianExits2) {
  const std::string neg = temp_file(
      "negmed.json",
      baseline_with("\"median_seconds\": 6.0486999999999999e-05",
                    "\"median_seconds\": -6e-05"));
  expect_bad_input(run(GAIA_PERFGATE, kCommitted + ' ' + neg));
}

TEST(PerfgateCli, NegativeSamplesExit2) {
  const std::string neg = temp_file(
      "negsamples.json", baseline_with("\"samples\": 15", "\"samples\": -1"));
  expect_bad_input(run(GAIA_PERFGATE, kCommitted + ' ' + neg));
}

TEST(PerfgateCli, DuplicatedVersionExits2) {
  const std::string dup = temp_file(
      "dup.json",
      baseline_with("\"version\": 1,", "\"version\": 1,\n  \"version\": 1,"));
  const ToolRun r = run(GAIA_PERFGATE, kCommitted + ' ' + dup);
  expect_bad_input(r);
  EXPECT_NE(r.err.find("version"), std::string::npos) << r.err;
}

TEST(PerfgateCli, TruncatedFileExits2WithAPlainMessage) {
  const std::string doc = read_file(kCommitted);
  const std::string torn = temp_file("torn.json", doc.substr(0, doc.size() / 2));
  expect_bad_input(run(GAIA_PERFGATE, kCommitted + ' ' + torn));
}

TEST(PerfgateCli, NonFiniteToleranceExits2) {
  // NaN used to slip past `tolerance < 0` and disable every comparison.
  for (const char* bad : {"nan", "-nan", "inf", "-1"})
    EXPECT_EQ(run(GAIA_PERFGATE,
                  kCommitted + ' ' + kCommitted + " --tolerance " + bad)
                  .exit_code,
              2)
        << bad;
}

TEST(CritpathCli, DeeplyNestedInputExits2) {
  // A megabyte of '[' used to overflow the parser's stack (SIGSEGV).
  const std::string deep = temp_file("deep.json", std::string(1 << 20, '['));
  expect_bad_input(run(GAIA_CRITPATH, deep));
}

}  // namespace
