// The benchmark's four seeded workloads.  Each drives vpmem through its
// public functions only, times every item from outside, validates every
// simulated result, and (when the span recorder is on) records a span
// around each call into a layer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "vpmem/util/json.hpp"

namespace perfbench {

/// Seed used when --seed is not given; the golden digests are for it.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Worker threads of the parallel workloads.
inline constexpr int kWorkers = 2;
/// Items per golden digest chunk.
inline constexpr std::size_t kDigestChunk = 32;

/// One pass over every item of a workload.
struct RoundResult {
  std::vector<double> latency_ms;  ///< items timed one by one (host ms)
  std::vector<vpmem::Json> records;  ///< simulated outputs per item, item order
  std::vector<std::string> errors;   ///< per item: empty when the item is valid
  double timed_s = 0.0;  ///< host seconds of the item-execution phases
                         ///< (validation excluded)

  [[nodiscard]] std::int64_t attempted() const noexcept {
    return static_cast<std::int64_t>(records.size());
  }
  [[nodiscard]] std::int64_t failed() const;
};

struct WorkloadOptions {
  std::uint64_t seed = kDefaultSeed;
  std::string scratch_dir = ".";  ///< where the campaign journal goes
  /// Fraction of the standard item count (the self-tests run small).
  double scale = 1.0;
  /// Test hook: mutate an item's record before it is validated.
  std::function<void(std::int64_t item, vpmem::Json& record)> perturb;
};

class Workload {
 public:
  explicit Workload(WorkloadOptions options) : options_{std::move(options)} {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Generate the inputs from the seed, open the journal and allocate
  /// result slots.  Re-runnable: each call replaces the previous set-up.
  virtual void setup(SpanRecorder& spans) = 0;

  /// Execute every item once, then validate each result.
  [[nodiscard]] RoundResult round(SpanRecorder& spans);

 protected:
  /// Run the items; fill latency_ms, records and timed_s.
  virtual void execute(SpanRecorder& spans, RoundResult& out) = 0;
  /// Empty when `record` (item `item`) is valid, else what is wrong.
  [[nodiscard]] virtual std::string check(std::int64_t item, const vpmem::Json& record) const = 0;
  /// Checks that span several items (e.g. the Fig. 10 shape); appends
  /// to `out.errors` of the items concerned.  Default: none.
  virtual void check_round(RoundResult& out) const;

  /// Items at scale 1.0 -> items at the configured scale (at least 1).
  [[nodiscard]] std::size_t scaled(std::size_t count) const;

  WorkloadOptions options_;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      WorkloadOptions options);

/// Digest of each kDigestChunk-item chunk of records (hex).
[[nodiscard]] std::vector<std::string> chunk_digests(const std::vector<vpmem::Json>& records);

/// Mark every item of a chunk whose digest differs from `golden` as
/// failed (also items beyond a golden of a different length).
void apply_golden(const std::vector<std::string>& golden, RoundResult& round);

}  // namespace perfbench
