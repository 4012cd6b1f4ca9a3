// Tracing v2: cycle-accurate run recording with bounded memory and a
// Chrome trace-event / Perfetto JSON exporter (schema vpmem.trace/1).
//
// A Tracer attaches to a MemorySystem as a typed sim::EventSink and does
// two things per event, both O(1): push a 32-byte packed record
// into its own sim::EventBuffer (chunked ring — memory stays bounded on
// arbitrarily long runs) and fold the event into a ConflictAttribution
// (exact per-(stream, bank, kind) lost-cycle matrices that never lose
// precision to buffer eviction).
//
// The export draws one track per bank (service slices, nc periods each)
// and one per port (transfer slices, conflict instants carrying kind /
// blocking stream / element index in args), plus a b_eff counter track —
// load the file at ui.perfetto.dev or chrome://tracing.  One simulated
// clock period maps to one microsecond of trace time.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "vpmem/obs/attribution.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::obs {

/// Current value of the "schema" member emitted by Tracer::chrome_trace().
inline constexpr const char* kTraceSchema = "vpmem.trace/1";

struct TracerOptions {
  /// Retained events; older events are evicted in chunks (the attribution
  /// fold is unaffected).  0 means sim::EventBuffer::kDefaultCapacity.
  std::size_t capacity = sim::EventBuffer::kDefaultCapacity;
  /// Fold a ConflictAttribution alongside the buffer.
  bool attribution = true;
  /// b_eff(t) window width for the attribution fold.
  i64 window = 64;
};

/// Lifecycle: construct before running (attaches itself as a sink), step
/// the system, call finish() (detaches, finalizes attribution), then
/// export.
/// The destructor calls finish() if it has not run yet.
class Tracer : private sim::EventSink {
 public:
  explicit Tracer(sim::MemorySystem& mem, TracerOptions options = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  Tracer(Tracer&&) = delete;
  Tracer& operator=(Tracer&&) = delete;

  /// Detach from the system and finalize the attribution at the current
  /// clock.
  /// Idempotent; no further events are recorded afterwards.
  void finish();

  [[nodiscard]] const sim::EventBuffer& buffer() const noexcept { return buffer_; }

  /// The attribution fold, or nullptr when options.attribution is false.
  /// Finalized only after finish().
  [[nodiscard]] const ConflictAttribution* attribution() const noexcept {
    return attribution_.get();
  }

  /// The full vpmem.trace/1 document (Chrome trace-event JSON object form
  /// with vpmem extensions under "otherData").  Calls finish() first.
  [[nodiscard]] Json chrome_trace();

  /// Serialize chrome_trace() to `os` / to `path` (replacing any existing
  /// file; throws std::runtime_error if the file cannot be opened).
  void write_chrome_trace(std::ostream& os);
  void save_chrome_trace(const std::string& path);

 private:
  /// The tracing hot path: one call per simulated step buffers the
  /// step's events and folds them into the attribution.
  void on_events(std::span<const sim::Event> events) override;

  sim::MemorySystem& mem_;
  TracerOptions options_;
  sim::EventBuffer buffer_;
  std::unique_ptr<ConflictAttribution> attribution_;
  // A typed sink does both the buffer push and the attribution fold, one
  // virtual call per simulated step: that is what keeps the traced engine
  // within the 2x overhead budget (steady_perf_test).
  bool attached_ = false;
  bool finished_ = false;
};

}  // namespace vpmem::obs
