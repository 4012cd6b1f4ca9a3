// Bounded, chunked storage for the simulator's event stream.
//
// Several sinks may watch one run (MemorySystem::add_event_sink), but
// each one that *stores* events used to keep its own unbounded
// std::vector<Event>.  EventBuffer is the bounded store for tracing v2:
// events are packed to 32 bytes, appended to fixed-size chunks, and the
// oldest chunk is recycled once the configured capacity is reached, so
// memory stays bounded no matter how long the run is.  Each recorder
// (trace::Timeline, obs::Tracer) owns its EventBuffer by value.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "vpmem/sim/event.hpp"

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
    check_packable(e);
    if (cursor_ == tail_end_) new_chunk();
    pack(*cursor_++, e);
  }

  /// Record a batch (one step's events, as a sim::EventSink receives
  /// them).  Same result as push() on each in order.
  void push(std::span<const Event> events) {
    // A local cursor: the packed kind byte may alias any member, which
    // would otherwise force a reload of cursor_ per event.
    PackedEvent* cursor = cursor_;
    for (const Event& e : events) {
      check_packable(e);
      if (cursor == tail_end_) {
        cursor_ = cursor;
        new_chunk();
        cursor = cursor_;
      }
      pack(*cursor++, e);
    }
    cursor_ = cursor;
  }

  /// Retained events (<= capacity()).
  [[nodiscard]] std::size_t size() const noexcept { return size_ + tail_fill(); }
  /// Events ever pushed, including evicted ones.
  [[nodiscard]] i64 recorded() const noexcept {
    return recorded_ + static_cast<i64>(tail_fill());
  }
  /// Events evicted to stay within capacity.
  [[nodiscard]] i64 dropped() const noexcept { return recorded_ - static_cast<i64>(size_); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Packed bytes currently held.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return size() * sizeof(PackedEvent);
  }

  /// Cycle of the oldest retained event (0 when empty) — the start of the
  /// faithfully covered window after eviction.
  [[nodiscard]] i64 first_cycle() const;

  /// Visit every retained event in emission order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      const std::size_t count = &chunk == tail_ ? tail_fill() : chunk.count;
      for (std::size_t i = 0; i < count; ++i) fn(chunk.data[i].unpack());
    }
  }

  /// Materialize the retained events (tests, small windows).
  [[nodiscard]] std::vector<Event> events() const;

  /// Drop everything; recorded()/dropped() reset too.
  void clear();

 private:
  /// Fixed-size slab of kChunkEvents; `count` events are valid.  The
  /// tail chunk's count is only written when it fills up: push() just
  /// advances cursor_, and tail_fill() reads the tail's count from it.
  struct Chunk {
    std::unique_ptr<PackedEvent[]> data;
    std::size_t count = 0;
  };

  static void check_packable(const Event& e) {
    if (e.port > std::numeric_limits<std::uint16_t>::max() ||
        e.blocker > std::numeric_limits<std::uint16_t>::max() ||
        e.bank > std::numeric_limits<std::int32_t>::max()) {
      reject_unpackable();
    }
  }

  static void pack(PackedEvent& p, const Event& e) noexcept {
    p.cycle = e.cycle;
    p.element = e.element;
    p.bank = static_cast<std::int32_t>(e.bank);
    p.port = static_cast<std::uint16_t>(e.port);
    p.blocker = static_cast<std::uint16_t>(e.blocker);
    p.kind = e.type == Event::Type::grant
                 ? std::uint8_t{0}
                 : static_cast<std::uint8_t>(1 + static_cast<int>(e.conflict));
  }

  /// Events in the tail chunk.
  [[nodiscard]] std::size_t tail_fill() const noexcept {
    return tail_ == nullptr ? 0 : static_cast<std::size_t>(cursor_ - tail_->data.get());
  }

  /// Seal the full tail chunk and start a fresh one, evicting the oldest
  /// chunk at capacity.
  void new_chunk();
  [[noreturn]] static void reject_unpackable();

  std::size_t capacity_;
  std::size_t size_ = 0;  ///< retained events in sealed chunks
  i64 recorded_ = 0;      ///< events ever pushed into sealed chunks
  std::deque<Chunk> chunks_;
  Chunk* tail_ = nullptr;  ///< cached &chunks_.back(); stable across pop_front
  PackedEvent* cursor_ = nullptr;    ///< next free slot of the tail chunk
  PackedEvent* tail_end_ = nullptr;  ///< one past the tail chunk's last slot
  /// Pre-faulted spare slabs; new_chunk() draws from here (or recycles an
  /// evicted chunk) so the steady state is allocation-free.
  std::vector<std::unique_ptr<PackedEvent[]>> free_;
};

}  // namespace vpmem::sim
