// Campaign executor: worker pool dispatch, the retry/quarantine state
// machine, journaling, metrics aggregation, and cooperative cancellation.
// Everything here runs in-process (no fork) so the whole file is also
// part of the ThreadSanitizer pass.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "vpmem/exec/executor.hpp"
#include "vpmem/exec/pool.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/util/hash.hpp"
#include "vpmem/util/journal.hpp"

namespace vpmem {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_{(std::filesystem::temp_directory_path() /
               ("vpmem_executor_test_" + name + "_" + std::to_string(::getpid()) + ".jsonl"))
                  .string()} {
    std::filesystem::remove(path_);
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

Json payload(i64 value) {
  Json doc = Json::object();
  doc["value"] = value;
  return doc;
}

std::vector<exec::JobSpec> simple_jobs(i64 count) {
  std::vector<exec::JobSpec> jobs;
  for (i64 i = 0; i < count; ++i) {
    exec::JobSpec job;
    job.id = "job-" + std::to_string(i);
    job.hash = stable_hash("executor_test " + std::to_string(i));
    job.run = [i] { return payload(i * i); };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

exec::ExecutorOptions fast_options() {
  exec::ExecutorOptions options;
  options.sleep_on_backoff = false;  // keep retry tests instant
  return options;
}

TEST(ParallelFor, CoversEveryIndexOnEveryWorkerCount) {
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(64);
    const i64 executed = exec::parallel_for(
        64, jobs, [&](i64 index, int /*worker*/) { hits[static_cast<std::size_t>(index)]++; });
    EXPECT_EQ(executed, 64);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, CancellationStopsDispatch) {
  exec::CancelToken token;
  token.cancel();
  std::atomic<i64> ran{0};
  const i64 executed =
      exec::parallel_for(1000, 4, [&](i64, int) { ran++; }, &token);
  EXPECT_EQ(executed, 0);
  EXPECT_EQ(ran.load(), 0);
}

TEST(Executor, AllJobsCompleteInInputOrder) {
  auto options = fast_options();
  options.jobs = 4;
  const exec::CampaignSummary summary = exec::run_campaign(simple_jobs(16), options);
  EXPECT_EQ(summary.status, "ok");
  EXPECT_TRUE(summary.ok());
  EXPECT_EQ(summary.completed, 16);
  EXPECT_EQ(summary.failed, 0);
  ASSERT_EQ(summary.results.size(), 16u);
  for (i64 i = 0; i < 16; ++i) {
    const auto& r = summary.results[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.id, "job-" + std::to_string(i));  // input order, not finish order
    EXPECT_EQ(r.status, exec::JobStatus::ok);
    EXPECT_EQ(r.result.at("value").as_int(), i * i);
    EXPECT_EQ(r.attempts, 1);
  }
}

TEST(Executor, TransientErrorIsRetriedUntilItSucceeds) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  exec::JobSpec job;
  job.id = "flaky";
  job.hash = stable_hash("flaky");
  job.run = [counter] {
    if (counter->fetch_add(1) < 2) {
      throw Error{ErrorCode::deadline_exceeded, "transient"};
    }
    return payload(7);
  };
  auto options = fast_options();
  options.retry.max_attempts = 4;
  const exec::CampaignSummary summary = exec::run_campaign({job}, options);
  EXPECT_EQ(summary.status, "ok");
  EXPECT_EQ(summary.completed, 1);
  EXPECT_EQ(summary.retries, 2);
  EXPECT_EQ(summary.results[0].attempts, 3);
  EXPECT_EQ(summary.results[0].result.at("value").as_int(), 7);
}

TEST(Executor, TransientErrorExhaustsIntoFailed) {
  exec::JobSpec job;
  job.id = "always-slow";
  job.hash = stable_hash("always-slow");
  job.run = []() -> Json { throw Error{ErrorCode::livelock, "stuck"}; };
  auto options = fast_options();
  options.retry.max_attempts = 3;
  const exec::CampaignSummary summary = exec::run_campaign({job}, options);
  EXPECT_EQ(summary.status, "degraded");
  EXPECT_FALSE(summary.ok());
  EXPECT_EQ(summary.failed, 1);
  EXPECT_EQ(summary.results[0].status, exec::JobStatus::failed);
  EXPECT_EQ(summary.results[0].attempts, 3);
  EXPECT_EQ(summary.results[0].error_code, "livelock");
}

TEST(Executor, DeterministicErrorIsQuarantinedAfterOneConfirmationRetry) {
  exec::JobSpec job;
  job.id = "broken";
  job.hash = stable_hash("broken");
  job.repro = "replay-token-xyz";
  job.run = []() -> Json { throw Error{ErrorCode::config_invalid, "bad config"}; };
  auto options = fast_options();
  options.retry.max_attempts = 5;  // deterministic errors ignore the budget
  const exec::CampaignSummary summary = exec::run_campaign({job}, options);
  EXPECT_EQ(summary.status, "degraded");
  EXPECT_EQ(summary.quarantined, 1);
  const auto& r = summary.results[0];
  EXPECT_EQ(r.status, exec::JobStatus::quarantined);
  EXPECT_EQ(r.attempts, 2);  // first failure + one confirmation retry
  EXPECT_EQ(r.error_code, "config_invalid");
  EXPECT_EQ(r.repro, "replay-token-xyz");
}

TEST(Executor, DuplicateHashesThrow) {
  auto jobs = simple_jobs(2);
  jobs[1].hash = jobs[0].hash;
  EXPECT_THROW((void)exec::run_campaign(jobs, fast_options()), std::runtime_error);
}

TEST(Executor, PreCancelledCampaignIsPartial) {
  exec::CancelToken token;
  token.cancel();
  auto options = fast_options();
  options.cancel = &token;
  const exec::CampaignSummary summary = exec::run_campaign(simple_jobs(8), options);
  EXPECT_EQ(summary.status, "partial");
  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.cancelled, 8);
  for (const auto& r : summary.results) EXPECT_EQ(r.status, exec::JobStatus::cancelled);
}

TEST(Executor, JournalRecordsEveryAttemptAndResumeSkipsSettledJobs) {
  TempFile journal{"resume"};
  auto options = fast_options();
  options.jobs = 2;
  options.journal_path = journal.path();
  const exec::CampaignSummary first = exec::run_campaign(simple_jobs(6), options);
  EXPECT_EQ(first.completed, 6);
  const JournalScan scan = read_journal(journal.path());
  EXPECT_EQ(scan.records.size(), 6u);
  for (const auto& r : scan.records) EXPECT_EQ(r.status, "ok");

  // Resume over the same journal: every job is already settled.
  options.resume = true;
  const exec::CampaignSummary second = exec::run_campaign(simple_jobs(6), options);
  EXPECT_EQ(second.completed, 6);
  EXPECT_EQ(second.resumed, 6);
  EXPECT_EQ(second.status, "ok");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(second.results[i].resumed);
    EXPECT_EQ(second.results[i].attempts, 0);
    EXPECT_EQ(second.results[i].result, first.results[i].result);
  }
}

TEST(Executor, MetricsCountCompletionsAndRetries) {
  auto counter = std::make_shared<std::atomic<int>>(0);
  auto jobs = simple_jobs(4);
  exec::JobSpec flaky;
  flaky.id = "flaky";
  flaky.hash = stable_hash("metrics-flaky");
  flaky.run = [counter] {
    if (counter->fetch_add(1) == 0) throw Error{ErrorCode::deadline_exceeded, "transient"};
    return payload(1);
  };
  jobs.push_back(std::move(flaky));
  auto options = fast_options();
  options.jobs = 3;
  const exec::CampaignSummary summary = exec::run_campaign(jobs, options);
  EXPECT_EQ(summary.completed, 5);
  EXPECT_EQ(summary.retries, 1);
  ASSERT_TRUE(summary.metrics.is_object());
  EXPECT_EQ(summary.metrics.at("jobs.completed").as_int(), 5);
  EXPECT_EQ(summary.metrics.at("jobs.retried").as_int(), 1);
  EXPECT_EQ(summary.metrics.at("job.wall_ms").at("count").as_int(), 6);  // 5 jobs + 1 retry
}

/// A `metrics` counter, or 0 when the key is absent.
i64 metric(const exec::CampaignSummary& summary, const std::string& name) {
  return summary.metrics.contains(name) ? summary.metrics.at(name).as_int() : 0;
}

i64 wall_ms_count(const exec::CampaignSummary& summary) {
  return summary.metrics.contains("job.wall_ms")
             ? summary.metrics.at("job.wall_ms").at("count").as_int()
             : 0;
}

TEST(Executor, MetricsPinEveryCounterAcrossRetryFailureQuarantineAndResume) {
  TempFile journal{"metrics"};
  // Three plain jobs, one transient error that clears on its second
  // attempt, one transient error that never clears (3 attempts, failed)
  // and one deterministic error (2 attempts, quarantined).
  auto jobs = simple_jobs(3);
  auto flaky_calls = std::make_shared<std::atomic<int>>(0);
  exec::JobSpec flaky;
  flaky.id = "flaky";
  flaky.hash = stable_hash("metrics-pin flaky");
  flaky.run = [flaky_calls] {
    if (flaky_calls->fetch_add(1) == 0) throw Error{ErrorCode::deadline_exceeded, "transient"};
    return payload(1);
  };
  jobs.push_back(std::move(flaky));
  exec::JobSpec slow;
  slow.id = "always-slow";
  slow.hash = stable_hash("metrics-pin slow");
  slow.run = []() -> Json { throw Error{ErrorCode::livelock, "stuck"}; };
  jobs.push_back(std::move(slow));
  exec::JobSpec broken;
  broken.id = "broken";
  broken.hash = stable_hash("metrics-pin broken");
  broken.repro = "replay-token";
  broken.run = []() -> Json { throw Error{ErrorCode::config_invalid, "bad config"}; };
  jobs.push_back(std::move(broken));

  auto options = fast_options();
  options.jobs = 2;
  options.retry.max_attempts = 3;
  options.journal_path = journal.path();
  const exec::CampaignSummary first = exec::run_campaign(jobs, options);
  EXPECT_EQ(first.status, "degraded");
  EXPECT_EQ(metric(first, "jobs.completed"), 4);
  EXPECT_EQ(metric(first, "jobs.retried"), 4);  // flaky 1 + slow 2 + broken 1
  EXPECT_EQ(metric(first, "jobs.failed"), 1);
  EXPECT_EQ(metric(first, "jobs.quarantined"), 1);
  EXPECT_EQ(metric(first, "jobs.resumed"), 0);
  EXPECT_EQ(wall_ms_count(first), 10);  // one sample per attempt: 3 + 2 + 3 + 2

  // Resume: the four ok jobs and the quarantined one are settled from the
  // journal; only the failed job runs again, through all three attempts.
  options.resume = true;
  const exec::CampaignSummary second = exec::run_campaign(jobs, options);
  EXPECT_EQ(second.status, "degraded");
  EXPECT_EQ(second.resumed, 5);
  EXPECT_EQ(second.quarantined, 1);  // the summary counts resumed jobs too
  EXPECT_EQ(metric(second, "jobs.completed"), 0);
  EXPECT_EQ(metric(second, "jobs.retried"), 2);
  EXPECT_EQ(metric(second, "jobs.failed"), 1);
  EXPECT_EQ(metric(second, "jobs.quarantined"), 0);  // resumed, not re-quarantined
  EXPECT_EQ(metric(second, "jobs.resumed"), 5);
  EXPECT_EQ(wall_ms_count(second), 3);
}

TEST(Executor, MetricsKeysAreAlwaysPresentInOneOrder) {
  // Counts that stay zero are written too, so a consumer never has to
  // tell "none" from "not reported".
  const exec::CampaignSummary summary = exec::run_campaign(simple_jobs(2), fast_options());
  const auto& members = summary.metrics.as_object();
  ASSERT_EQ(members.size(), 6u);
  const char* const keys[] = {"job.wall_ms",  "jobs.completed",   "jobs.retried",
                              "jobs.failed", "jobs.quarantined", "jobs.resumed"};
  for (std::size_t i = 0; i < members.size(); ++i) EXPECT_EQ(members[i].first, keys[i]);
  EXPECT_EQ(summary.metrics.at("jobs.completed").as_int(), 2);
  EXPECT_EQ(summary.metrics.at("jobs.failed").as_int(), 0);
  EXPECT_EQ(summary.metrics.at("job.wall_ms").at("count").as_int(), 2);
}

}  // namespace
}  // namespace vpmem
