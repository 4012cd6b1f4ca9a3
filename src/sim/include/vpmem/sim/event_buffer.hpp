// Bounded, chunked storage for the simulator's event stream.
//
// The event-hook multiplexer (memory_system.hpp) lets several observers
// watch one run, but each observer that *stores* events used to keep its
// own unbounded std::vector<Event>.  EventBuffer is the shared backing
// store for tracing v2: events are packed to 32 bytes, appended to
// fixed-size chunks, and the oldest chunk is recycled once the configured
// capacity is reached — memory stays bounded no matter how long the run
// is, and trace::Timeline plus obs::Tracer can read the same buffer
// instead of recording the stream twice.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "vpmem/sim/event.hpp"
#include "vpmem/sim/memory_system.hpp"

namespace vpmem::sim {

/// One retained event, packed to 32 bytes (sizeof(Event) is 48).  Field
/// widths cover every configuration the library accepts: bank indices fit
/// 32 bits and port counts 16 bits (the X-MP driver tops out at tens of
/// ports); EventBuffer::push checks the limits once per event.
struct PackedEvent {
  i64 cycle = 0;
  i64 element = 0;
  std::int32_t bank = 0;
  std::uint16_t port = 0;
  std::uint16_t blocker = 0;
  std::uint8_t kind = 0;  ///< 0 = grant, 1 + ConflictKind otherwise

  [[nodiscard]] Event unpack() const noexcept {
    Event e;
    e.type = kind == 0 ? Event::Type::grant : Event::Type::conflict;
    e.cycle = cycle;
    e.port = port;
    e.bank = bank;
    e.element = element;
    e.conflict = kind == 0 ? ConflictKind::bank : static_cast<ConflictKind>(kind - 1);
    e.blocker = blocker;
    return e;
  }
};

/// Chunked ring of PackedEvents.  push() is the tracing hot path: it
/// appends to the newest chunk and only touches the chunk list when a
/// chunk fills up.  Eviction drops whole chunks from the front, so the
/// retained window always covers the most recent events.  The whole ring
/// is allocated and pre-faulted by the constructor: push() never
/// allocates, so neither malloc stalls nor first-touch page faults land
/// inside the traced run.
class EventBuffer {
 public:
  /// Events per chunk; eviction granularity.
  static constexpr std::size_t kChunkEvents = 4096;
  /// Default retention: 256k events (8 MiB packed) — far beyond what a
  /// trace viewer renders comfortably, small enough to pre-fault eagerly.
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// `capacity` is rounded up to a whole number of chunks; 0 means
  /// kDefaultCapacity.
  explicit EventBuffer(std::size_t capacity = kDefaultCapacity);

  /// Record one event, evicting the oldest chunk when full.  Inline: the
  /// tracing hot path calls it once per event.
  void push(const Event& e) {
    if (e.port > std::numeric_limits<std::uint16_t>::max() ||
        e.blocker > std::numeric_limits<std::uint16_t>::max() ||
        e.bank > std::numeric_limits<std::int32_t>::max()) {
      reject_unpackable();
    }
    if (tail_ == nullptr || tail_->count == kChunkEvents) new_chunk();
    PackedEvent& p = tail_->data[tail_->count++];
    p.cycle = e.cycle;
    p.element = e.element;
    p.bank = static_cast<std::int32_t>(e.bank);
    p.port = static_cast<std::uint16_t>(e.port);
    p.blocker = static_cast<std::uint16_t>(e.blocker);
    p.kind = e.type == Event::Type::grant
                 ? std::uint8_t{0}
                 : static_cast<std::uint8_t>(1 + static_cast<int>(e.conflict));
    ++size_;
    ++recorded_;
  }

  /// Retained events (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Events ever pushed, including evicted ones.
  [[nodiscard]] i64 recorded() const noexcept { return recorded_; }
  /// Events evicted to stay within capacity.
  [[nodiscard]] i64 dropped() const noexcept { return recorded_ - static_cast<i64>(size_); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Packed bytes currently held.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return size_ * sizeof(PackedEvent);
  }

  /// Cycle of the oldest retained event (0 when empty) — the start of the
  /// faithfully covered window after eviction.
  [[nodiscard]] i64 first_cycle() const;

  /// Visit every retained event in emission order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (std::size_t i = 0; i < chunk.count; ++i) fn(chunk.data[i].unpack());
    }
  }

  /// Materialize the retained events (tests, small windows).
  [[nodiscard]] std::vector<Event> events() const;

  /// Drop everything; recorded()/dropped() reset too.
  void clear();

 private:
  /// Fixed-size slab of kChunkEvents; `count` events are valid.
  struct Chunk {
    std::unique_ptr<PackedEvent[]> data;
    std::size_t count = 0;
  };

  /// Start a fresh tail chunk, evicting the oldest one at capacity.
  void new_chunk();
  [[noreturn]] static void reject_unpackable();

  std::size_t capacity_;
  std::size_t size_ = 0;
  i64 recorded_ = 0;
  std::deque<Chunk> chunks_;
  Chunk* tail_ = nullptr;  ///< cached &chunks_.back(); stable across pop_front
  /// Pre-faulted spare slabs; new_chunk() draws from here (or recycles an
  /// evicted chunk) so the steady state is allocation-free.
  std::vector<std::unique_ptr<PackedEvent[]>> free_;
};

/// RAII binding of an EventBuffer to a MemorySystem: attaches a hook that
/// pushes every event into the (shared) buffer, detaches on destruction.
/// Both trace::Timeline and obs::Tracer record through this, so a run
/// traced by both stores its event stream exactly once.
class EventRecorder {
 public:
  /// Uses `buffer` if given, otherwise creates one with `capacity`.
  explicit EventRecorder(MemorySystem& mem, std::shared_ptr<EventBuffer> buffer = nullptr,
                         std::size_t capacity = EventBuffer::kDefaultCapacity);
  ~EventRecorder();

  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;
  EventRecorder(EventRecorder&&) = delete;
  EventRecorder& operator=(EventRecorder&&) = delete;

  /// Detach from the MemorySystem; the buffer stays readable.  Idempotent.
  void detach();

  [[nodiscard]] const EventBuffer& buffer() const noexcept { return *buffer_; }
  [[nodiscard]] EventBuffer& buffer() noexcept { return *buffer_; }
  /// Share the buffer with another reader (e.g. a Timeline over a traced
  /// run).
  [[nodiscard]] std::shared_ptr<EventBuffer> share() const noexcept { return buffer_; }

 private:
  MemorySystem& mem_;
  std::shared_ptr<EventBuffer> buffer_;
  std::size_t hook_ = 0;
  bool attached_ = false;
};

}  // namespace vpmem::sim
