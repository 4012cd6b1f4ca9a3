// End-to-end campaign tests against the real vpmem_cli binary (path via
// VPMEM_CLI_PATH): a journaled 500-point sweep is SIGKILLed mid-flight
// and resumed to byte-identical results, a sandboxed campaign quarantines
// a deliberately crashing point while every other point completes, and
// SIGINT drains into a valid "interrupted" envelope with exit code 7.
// This file forks and execs, so it carries the "fork" ctest label and is
// excluded from the ThreadSanitizer pass.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_process.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem {
namespace {

using cli_test::run_cli;
using cli_test::slurp;
using cli_test::spawn_cli;
using cli_test::TempDir;
namespace fs = std::filesystem;

std::size_t journal_lines(const std::string& path) {
  std::ifstream in{path};
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

/// Wait until the journal reaches `lines` records; false on timeout.
bool wait_for_journal(const std::string& path, std::size_t lines, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (journal_lines(path) >= lines) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// The 500-point acceptance grid: d1 in 1..20, d2 in 1..25, m=16 nc=3.
std::vector<std::string> grid_args(const std::vector<std::string>& extra) {
  std::vector<std::string> args{"sweep", "16", "3", "--d1", "1:20", "--d2", "1:25"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CliCampaign, KilledSweepResumesToByteIdenticalResults) {
  TempDir dir{"kill_resume"};
  const std::string ref = dir.file("ref.json");
  const std::string out = dir.file("resumed.json");
  const std::string journal = dir.file("journal.jsonl");

  // The uninterrupted reference run.
  ASSERT_EQ(run_cli(grid_args({"--jobs", "2", "--out", ref})), 0);

  // Hard-stop a throttled run once the journal passes the halfway mark.
  const pid_t pid = spawn_cli(grid_args(
      {"--jobs", "2", "--throttle-ms", "2", "--journal", journal, "--out", out}));
  ASSERT_TRUE(wait_for_journal(journal, 250, 30000)) << "campaign never reached 250 journal lines";
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status)) << "expected the campaign to die by SIGKILL";
  const std::size_t lines_at_death = journal_lines(journal);
  EXPECT_GE(lines_at_death, 250u);
  EXPECT_LT(lines_at_death, 500u) << "campaign finished before the kill landed";
  EXPECT_FALSE(fs::exists(out)) << "--out must not exist for a killed campaign";

  // Resume from the journal the kill left behind.
  ASSERT_EQ(run_cli(grid_args({"--jobs", "2", "--journal", journal, "--resume", "--out", out})),
            0);
  const std::string resumed_doc = slurp(out);
  ASSERT_FALSE(resumed_doc.empty());
  EXPECT_EQ(slurp(ref), resumed_doc) << "resumed results differ from the uninterrupted run";

  // Every point is settled now: a second resume re-runs nothing new and
  // still reproduces the same bytes.
  const std::size_t settled_lines = journal_lines(journal);
  ASSERT_EQ(run_cli(grid_args({"--journal", journal, "--resume", "--out", out})), 0);
  EXPECT_EQ(journal_lines(journal), settled_lines);
  EXPECT_EQ(slurp(ref), slurp(out));
}

TEST(CliCampaign, SandboxQuarantinesTheCrashingPointAndCompletesTheRest) {
  TempDir dir{"quarantine"};
  const std::string out = dir.file("results.json");
  const int rc = run_cli(grid_args(
      {"--jobs", "4", "--sandbox", "--test-crash", "d1=3/d2=7", "--out", out}));
  EXPECT_EQ(rc, 8);  // degraded campaign

  const Json doc = Json::parse(slurp(out));
  EXPECT_EQ(doc.at("schema").as_string(), "vpmem.sweep_results/1");
  const Json& points = doc.at("points");
  ASSERT_EQ(points.size(), 500u);
  std::size_t ok = 0;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Json& p = points.at(i);
    if (p.at("status").as_string() == "ok") {
      ++ok;
      continue;
    }
    ++quarantined;
    EXPECT_EQ(p.at("id").as_string(), "d1=3/d2=7");
    EXPECT_EQ(p.at("status").as_string(), "quarantined");
    EXPECT_EQ(p.at("error_code").as_string(), "SIGSEGV");
    // The repro token replays the dead point in isolation.
    EXPECT_NE(p.at("repro").as_string().find("--d1 3:3"), std::string::npos);
  }
  EXPECT_EQ(ok, 499u);
  EXPECT_EQ(quarantined, 1u);
}

TEST(CliCampaign, SigintDrainsIntoAValidInterruptedEnvelope) {
  TempDir dir{"sigint"};
  const std::string journal = dir.file("journal.jsonl");
  const std::string envelope = dir.file("envelope.json");

  const pid_t pid = spawn_cli(grid_args(
      {"--throttle-ms", "5", "--journal", journal, "--json", envelope}));
  ASSERT_TRUE(wait_for_journal(journal, 50, 30000));
  ::kill(pid, SIGINT);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status)) << "SIGINT should drain, not kill";
  EXPECT_EQ(WEXITSTATUS(status), 7);

  const Json doc = Json::parse(slurp(envelope));  // valid JSON, not torn
  EXPECT_EQ(doc.at("schema").as_string(), "vpmem.cli/1");
  EXPECT_EQ(doc.at("status").as_string(), "interrupted");
  EXPECT_EQ(doc.at("campaign").at("status").as_string(), "partial");
}

}  // namespace
}  // namespace vpmem
