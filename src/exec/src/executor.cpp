#include "vpmem/exec/executor.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "vpmem/exec/sandbox.hpp"
#include "vpmem/obs/metrics.hpp"
#include "vpmem/obs/timer.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/util/hash.hpp"

namespace vpmem::exec {

std::string to_string(JobStatus status) {
  switch (status) {
    case JobStatus::ok: return "ok";
    case JobStatus::failed: return "failed";
    case JobStatus::quarantined: return "quarantined";
    case JobStatus::cancelled: return "cancelled";
  }
  return "?";
}

namespace {

/// Outcome of a single attempt, sandboxed or in-process.
struct Attempt {
  enum class Kind { ok, error, crashed } kind = Kind::error;
  Json result;
  std::string code;     ///< stable error code ("deadline_exceeded", ...)
  std::string message;
  int signal = 0;
  long max_rss_kb = 0;
};

Attempt attempt_once(const JobSpec& spec, bool sandbox) {
  if (sandbox && sandbox_supported()) {
    const SandboxOutcome s = run_sandboxed(spec.run);
    Attempt a;
    a.max_rss_kb = s.max_rss_kb;
    switch (s.kind) {
      case SandboxOutcome::Kind::ok:
        a.kind = Attempt::Kind::ok;
        a.result = s.result;
        return a;
      case SandboxOutcome::Kind::crashed:
        a.kind = Attempt::Kind::crashed;
        a.signal = s.signal;
        a.code = s.signal_name();
        a.message = "job crashed with " + s.signal_name();
        return a;
      case SandboxOutcome::Kind::error:
      case SandboxOutcome::Kind::unsupported:
        a.kind = Attempt::Kind::error;
        a.code = s.error_code.empty() ? "error" : s.error_code;
        a.message = s.error_message;
        return a;
    }
  }
  Attempt a;
  try {
    a.result = spec.run();
    a.kind = Attempt::Kind::ok;
  } catch (const vpmem::Error& e) {
    a.code = to_string(e.code());
    a.message = e.what();
  } catch (const std::exception& e) {
    a.code = "error";
    a.message = e.what();
  }
  return a;
}

/// deadline_exceeded / livelock are load conditions worth retrying with
/// backoff; everything else (a crash, config_invalid, a logic error) is
/// deterministic and gets exactly one confirmation retry.
bool transient(const Attempt& a) {
  return a.kind == Attempt::Kind::error &&
         (a.code == "deadline_exceeded" || a.code == "livelock");
}

JournalRecord record_of(const JobSpec& spec, const Attempt& a, int attempt, int worker,
                        double wall_ms, const std::string& status) {
  JournalRecord rec;
  rec.job = spec.id;
  rec.hash = spec.hash;
  rec.attempt = attempt;
  rec.status = status;
  rec.worker = worker;
  rec.wall_ms = wall_ms;
  if (a.kind == Attempt::Kind::ok) {
    rec.result = a.result;
  } else {
    rec.error = a.code;
    if (status == "quarantined" || a.kind == Attempt::Kind::crashed) rec.repro = spec.repro;
  }
  return rec;
}

/// Run one job to its final disposition (retries included), recording
/// every attempt's wall time in `wall_ms`.
JobResult run_one(const JobSpec& spec, int worker, const ExecutorOptions& options,
                  JournalWriter* journal, obs::Histogram& wall_ms) {
  JobResult out;
  out.id = spec.id;
  out.hash = spec.hash;
  const std::uint64_t seed = fnv1a64(spec.hash);
  int attempt = 0;
  int deterministic_failures = 0;
  for (;;) {
    ++attempt;
    out.attempts = attempt;
    if (attempt > 1) {
      const double delay = options.retry.delay_ms(attempt, seed);
      if (options.sleep_on_backoff && delay > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
      }
    }
    const obs::Stopwatch watch;
    const Attempt a = attempt_once(spec, options.sandbox);
    out.wall_ms = watch.seconds() * 1e3;
    out.max_rss_kb = a.max_rss_kb;
    wall_ms.record(static_cast<i64>(out.wall_ms));

    if (a.kind == Attempt::Kind::ok) {
      out.status = JobStatus::ok;
      out.result = a.result;
      out.error_code.clear();
      out.error.clear();
      if (journal != nullptr) journal->append(record_of(spec, a, attempt, worker, out.wall_ms, "ok"));
      return out;
    }

    out.error_code = a.code;
    out.error = a.message;
    out.signal = a.signal;
    if (transient(a)) {
      if (options.retry.retryable(attempt)) {
        if (journal != nullptr) {
          journal->append(record_of(spec, a, attempt, worker, out.wall_ms, "retry"));
        }
        continue;
      }
      out.status = JobStatus::failed;
      if (journal != nullptr) {
        journal->append(record_of(spec, a, attempt, worker, out.wall_ms, "failed"));
      }
      return out;
    }

    // Deterministic crash or typed error: one confirmation retry, then
    // quarantine with the repro token.
    ++deterministic_failures;
    if (deterministic_failures < 2) {
      if (journal != nullptr) {
        journal->append(record_of(spec, a, attempt, worker, out.wall_ms,
                                  a.kind == Attempt::Kind::crashed ? "crashed" : "retry"));
      }
      continue;
    }
    out.status = JobStatus::quarantined;
    out.repro = spec.repro;
    if (journal != nullptr) {
      journal->append(record_of(spec, a, attempt, worker, out.wall_ms, "quarantined"));
    }
    return out;
  }
}

JobResult resumed_result(const JobSpec& spec, const JournalRecord& rec) {
  JobResult out;
  out.id = spec.id;
  out.hash = spec.hash;
  out.resumed = true;
  out.error_code = rec.error;
  out.repro = rec.repro;
  if (rec.status == "ok") {
    out.status = JobStatus::ok;
    out.result = rec.result;
  } else {
    out.status = JobStatus::quarantined;
    out.error = "quarantined in a previous campaign run (journal attempt " +
                std::to_string(rec.attempt) + ")";
  }
  return out;
}

}  // namespace

Json CampaignSummary::to_json() const {
  Json doc = Json::object();
  doc["schema"] = "vpmem.campaign/1";
  doc["status"] = status;
  doc["interrupted"] = interrupted;
  doc["jobs"] = static_cast<i64>(results.size());
  doc["completed"] = completed;
  doc["failed"] = failed;
  doc["quarantined"] = quarantined;
  doc["cancelled"] = cancelled;
  doc["resumed"] = resumed;
  doc["retries"] = retries;
  doc["metrics"] = metrics;
  return doc;
}

CampaignSummary run_campaign(const std::vector<JobSpec>& jobs, const ExecutorOptions& options) {
  {
    std::unordered_set<std::string> hashes;
    for (const auto& j : jobs) {
      if (!hashes.insert(j.hash).second) {
        throw std::runtime_error{"run_campaign: duplicate config hash for job '" + j.id +
                                 "' — resume-by-hash would conflate jobs"};
      }
    }
  }

  CampaignSummary summary;
  summary.results.resize(jobs.size());

  // Resume view: settled ("ok"/"quarantined") records by config hash.
  std::unordered_map<std::string, JournalRecord> settled;
  if (options.resume && !options.journal_path.empty()) {
    for (auto& rec : read_journal(options.journal_path).latest_per_hash()) {
      if (rec.status == "ok" || rec.status == "quarantined") {
        settled.emplace(rec.hash, std::move(rec));
      }
    }
  }

  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    journal = std::make_unique<JournalWriter>(options.journal_path);
  }

  // Settle resumable jobs up front; only the rest hit the pool.
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = settled.find(jobs[i].hash);
    if (it != settled.end()) {
      summary.results[i] = resumed_result(jobs[i], it->second);
    } else {
      summary.results[i].id = jobs[i].id;
      summary.results[i].hash = jobs[i].hash;
      pending.push_back(i);
    }
  }

  const int workers = options.jobs <= 1 ? 1 : options.jobs;
  std::vector<obs::Histogram> wall_ms(static_cast<std::size_t>(workers));
  parallel_for(
      static_cast<i64>(pending.size()), options.jobs,
      [&](i64 index, int worker) {
        const std::size_t slot = pending[static_cast<std::size_t>(index)];
        summary.results[slot] = run_one(jobs[slot], worker, options, journal.get(),
                                        wall_ms[static_cast<std::size_t>(worker)]);
      },
      options.cancel);

  // The metrics' completed/quarantined count only the jobs this run
  // settled; the summary's also count those resumed from the journal.
  i64 fresh_completed = 0;
  i64 fresh_quarantined = 0;
  for (const auto& r : summary.results) {
    switch (r.status) {
      case JobStatus::ok: ++summary.completed; break;
      case JobStatus::failed: ++summary.failed; break;
      case JobStatus::quarantined: ++summary.quarantined; break;
      case JobStatus::cancelled: ++summary.cancelled; break;
    }
    if (r.resumed) {
      ++summary.resumed;
    } else if (r.status == JobStatus::ok) {
      ++fresh_completed;
    } else if (r.status == JobStatus::quarantined) {
      ++fresh_quarantined;
    }
    if (r.attempts > 1) summary.retries += r.attempts - 1;
  }
  for (std::size_t w = 1; w < wall_ms.size(); ++w) wall_ms.front().merge(wall_ms[w]);
  summary.metrics = Json::object();
  summary.metrics["job.wall_ms"] = wall_ms.front().to_json();
  summary.metrics["jobs.completed"] = fresh_completed;
  summary.metrics["jobs.retried"] = summary.retries;
  summary.metrics["jobs.failed"] = summary.failed;
  summary.metrics["jobs.quarantined"] = fresh_quarantined;
  summary.metrics["jobs.resumed"] = summary.resumed;
  summary.interrupted = options.cancel != nullptr && options.cancel->cancelled();
  if (summary.cancelled > 0) {
    summary.status = "partial";
  } else if (summary.failed > 0 || summary.quarantined > 0) {
    summary.status = "degraded";
  }
  return summary;
}

}  // namespace vpmem::exec
