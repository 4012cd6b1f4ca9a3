// Crash-isolated, journaled campaign executor.
//
// A campaign is a vector of independent jobs (sweep points, fuzz cases,
// bench configs), each a closure returning a Json result.  The executor
// shards them across a worker pool, optionally fork-isolates every
// attempt (sandbox.hpp) so a SIGSEGV becomes a structured failure, and
// journals every attempt to an append-only vpmem.journal/1 file so a
// killed campaign resumes exactly where it stopped, skipping completed
// jobs by config hash.
//
// Retry state machine per job:
//
//          ok ──────────────────────────────▶ ok
//   run ─▶ transient error (deadline_exceeded,
//          livelock) ── backoff, attempt <
//          retry.max_attempts ─▶ run again, else ▶ failed
//          crash / deterministic error ── one
//          immediate retry, then ───────────▶ quarantined
//
// Quarantined jobs carry their repro token so `vpmem_cli fuzz --replay`
// (or the sweep equivalent) can reproduce the death in isolation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "vpmem/exec/pool.hpp"
#include "vpmem/util/backoff.hpp"
#include "vpmem/util/journal.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::exec {

/// One schedulable unit of campaign work.
struct JobSpec {
  std::string id;    ///< unique, human-readable ("d1=3/d2=7")
  std::string hash;  ///< stable config hash — the resume key
  std::string repro; ///< replay token recorded on crash/quarantine
  std::function<Json()> run;  ///< executed on a worker (or a fork child)
};

/// Final disposition of one job.
enum class JobStatus {
  ok,           ///< result available
  failed,       ///< transient error persisted through every retry
  quarantined,  ///< deterministic crash/error; repro captured
  cancelled,    ///< campaign stopped before this job ran
};

[[nodiscard]] std::string to_string(JobStatus status);

/// Per-job outcome; `results` of CampaignSummary holds one per input
/// job, in input order, whatever order the workers finished in.
struct JobResult {
  std::string id;
  std::string hash;
  JobStatus status = JobStatus::cancelled;
  int attempts = 0;       ///< attempts this process made (0 when resumed)
  bool resumed = false;   ///< settled from the journal, not re-run
  std::string error_code; ///< stable error code or signal name
  std::string error;      ///< human-readable failure detail
  std::string repro;      ///< replay token (quarantined jobs)
  int signal = 0;         ///< terminating signal for sandboxed crashes
  double wall_ms = 0.0;   ///< wall time of the final attempt
  long max_rss_kb = 0;    ///< child peak RSS (sandboxed runs only)
  Json result;            ///< job payload (status == ok)
};

/// Knobs for one campaign.
struct ExecutorOptions {
  int jobs = 1;              ///< worker threads
  bool sandbox = false;      ///< fork-isolate each attempt (POSIX)
  BackoffPolicy retry{};     ///< transient retry/backoff policy
  std::string journal_path;  ///< empty = unjournaled campaign
  bool resume = false;       ///< preload settled jobs from journal_path
  /// Campaign-level cancellation (defaults to nothing; the CLI passes
  /// the process token so SIGINT drains gracefully).
  const CancelToken* cancel = nullptr;
  /// Sleep between retry attempts (tests disable to stay fast).
  bool sleep_on_backoff = true;
};

/// Aggregated campaign outcome.
struct CampaignSummary {
  std::vector<JobResult> results;  ///< one per job, input order
  i64 completed = 0;    ///< status ok (fresh or resumed)
  i64 failed = 0;
  i64 quarantined = 0;
  i64 cancelled = 0;
  i64 resumed = 0;      ///< settled straight from the journal
  i64 retries = 0;      ///< extra attempts beyond the first, all jobs
  /// "ok" (everything completed) | "partial" (cancelled mid-flight) |
  /// "degraded" (completed, but some jobs failed or were quarantined).
  std::string status = "ok";
  bool interrupted = false;  ///< cancel token tripped mid-campaign
  /// job.wall_ms, a histogram of every attempt's wall time merged from
  /// per-worker copies, then the counts of this run: jobs.completed,
  /// jobs.retried, jobs.failed and jobs.quarantined (jobs settled from
  /// the journal are not among them) and jobs.resumed.  Every key is
  /// always present, in this order.
  Json metrics;

  [[nodiscard]] bool ok() const noexcept { return status == "ok"; }
  /// Schema "vpmem.campaign/1": counters, status, metrics — everything
  /// except per-job results (callers embed those as they see fit).
  [[nodiscard]] Json to_json() const;
};

/// Run `jobs` under `options`.  Never throws for per-job conditions —
/// crashes, typed errors and cancellations all land in the summary.
/// Throws std::runtime_error only for campaign-level misuse: an
/// unopenable journal, duplicate config hashes, or a corrupt journal on
/// resume.
[[nodiscard]] CampaignSummary run_campaign(const std::vector<JobSpec>& jobs,
                                           const ExecutorOptions& options);

}  // namespace vpmem::exec
