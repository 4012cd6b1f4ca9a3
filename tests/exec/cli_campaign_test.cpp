// End-to-end campaign tests against the real vpmem_cli binary (path via
// VPMEM_CLI_PATH): a journaled 500-point sweep is SIGKILLed mid-flight
// and resumed to byte-identical results, a sandboxed campaign quarantines
// a deliberately crashing point while every other point completes, and
// SIGINT drains into a valid "interrupted" envelope with exit code 7, and
// malformed numeric arguments are usage errors (exit code 2).
// This file forks and execs, so it carries the "fork" ctest label and is
// excluded from the ThreadSanitizer pass.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "vpmem/util/json.hpp"

namespace vpmem {
namespace {

namespace fs = std::filesystem;

/// Scratch directory for one test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_{fs::temp_directory_path() /
              ("vpmem_cli_campaign_" + name + "_" + std::to_string(::getpid()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// Fork/exec vpmem_cli with stdout/stderr routed to /dev/null.  Returns
/// the child pid; the caller waits (or kills) as the test demands.
pid_t spawn_cli(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int devnull = ::open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    ::close(devnull);
  }
  std::vector<char*> argv;
  static const std::string cli = VPMEM_CLI_PATH;
  argv.push_back(const_cast<char*>(cli.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  ::execv(cli.c_str(), argv.data());
  ::_exit(127);
}

/// Run to completion; returns the exit code (-signal if killed).
int run_cli(const std::vector<std::string>& args) {
  const pid_t pid = spawn_cli(args);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

std::size_t journal_lines(const std::string& path) {
  std::ifstream in{path};
  std::size_t n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
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

TEST(CliCampaign, MalformedNumbersAreUsageErrors) {
  // Every numeric argument is parsed strictly: empty input, trailing
  // text and overflow exit 2 instead of silently becoming 0 or a prefix.
  const std::vector<std::vector<std::string>> bad = {
      {"fuzz", "5", "--jobs", "abc"},
      {"fuzz", "5", "--jobs", ""},
      {"report", "13", "6", "1", "6", "--cycles", "12x"},
      {"fuzz", "5", "--seed", "18446744073709551616"},  // 2^64
      {"fuzz", "5", "--seed", "0x10000000000000000"},
      {"fuzz", "5", "--seed", "0x"},
      {"sweep", "16", "4", "--d1", "3:x", "--d2", "1:2"},
      {"sweep", "16", "4", "--d1", "3:", "--d2", "1:2"},
      {"pair", "12x", "3", "1", "7"},
      {"pair", "99999999999999999999", "3", "1", "7"},
  };
  for (const auto& args : bad) {
    std::string line;
    for (const auto& a : args) line += " '" + a + "'";
    EXPECT_EQ(run_cli(args), 2) << line;
  }
  // Well-formed values still run: decimal and 0x-prefixed hex seeds
  // (CI passes hex), and a single-value stride range.
  EXPECT_EQ(run_cli({"fuzz", "5", "--seed", "0x2a", "--jobs", "1"}), 0);
  EXPECT_EQ(run_cli({"fuzz", "5", "--seed", "42"}), 0);
  EXPECT_EQ(run_cli({"sweep", "16", "4", "--d1", "3", "--d2", "1:2"}), 0);
}

}  // namespace
}  // namespace vpmem
