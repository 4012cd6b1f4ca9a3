// Tests for the bounded chunked event store behind tracing v2.
#include "vpmem/sim/event_buffer.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>


namespace vpmem::sim {
namespace {

Event make_event(i64 cycle, Event::Type type, std::size_t port, i64 bank,
                 ConflictKind kind = ConflictKind::bank, std::size_t blocker = 0) {
  Event e;
  e.type = type;
  e.cycle = cycle;
  e.port = port;
  e.bank = bank;
  e.element = cycle * 7 + bank;
  e.conflict = kind;
  e.blocker = blocker;
  return e;
}

TEST(PackedEvent, RoundTripsEveryKind) {
  for (const ConflictKind kind :
       {ConflictKind::bank, ConflictKind::simultaneous, ConflictKind::section}) {
    for (const Event::Type type : {Event::Type::grant, Event::Type::conflict}) {
      const Event in = make_event(123456789, type, 11, 4095, kind, 7);
      EventBuffer buf;
      buf.push(in);
      const Event out = buf.events().front();
      EXPECT_EQ(out.type, in.type);
      EXPECT_EQ(out.cycle, in.cycle);
      EXPECT_EQ(out.port, in.port);
      EXPECT_EQ(out.bank, in.bank);
      EXPECT_EQ(out.element, in.element);
      EXPECT_EQ(out.blocker, in.blocker);
      if (type == Event::Type::conflict) {
        EXPECT_EQ(out.conflict, in.conflict);
      }
    }
  }
}

TEST(EventBuffer, CapacityRoundsUpToWholeChunks) {
  EventBuffer buf{1};
  EXPECT_EQ(buf.capacity(), EventBuffer::kChunkEvents);
  EventBuffer two{EventBuffer::kChunkEvents + 1};
  EXPECT_EQ(two.capacity(), 2 * EventBuffer::kChunkEvents);
  EventBuffer dflt{0};
  EXPECT_EQ(dflt.capacity(), EventBuffer::kDefaultCapacity);
}

TEST(EventBuffer, EvictsOldestChunkAndCountsDrops) {
  EventBuffer buf{EventBuffer::kChunkEvents};  // one-chunk ring
  const auto n = static_cast<i64>(EventBuffer::kChunkEvents);
  for (i64 c = 0; c < n + 5; ++c) {
    buf.push(make_event(c, Event::Type::grant, 0, c % 7));
  }
  EXPECT_EQ(buf.recorded(), n + 5);
  EXPECT_EQ(buf.dropped(), n);  // the full first chunk went away at once
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.first_cycle(), n);  // retained window starts after the evicted chunk
  i64 seen = 0;
  i64 prev = -1;
  buf.for_each([&](const Event& e) {
    EXPECT_GT(e.cycle, prev);
    prev = e.cycle;
    ++seen;
  });
  EXPECT_EQ(seen, 5);
}

TEST(EventBuffer, RejectsOutOfRangeFields) {
  EventBuffer buf;
  Event wide = make_event(0, Event::Type::grant, 0, 0);
  wide.port = std::numeric_limits<std::uint16_t>::max() + 1u;
  EXPECT_THROW(buf.push(wide), std::invalid_argument);
  wide = make_event(0, Event::Type::grant, 0, 0);
  wide.blocker = std::numeric_limits<std::uint16_t>::max() + 1u;
  EXPECT_THROW(buf.push(wide), std::invalid_argument);
  wide = make_event(0, Event::Type::grant, 0, 0);
  wide.bank = static_cast<i64>(std::numeric_limits<std::int32_t>::max()) + 1;
  EXPECT_THROW(buf.push(wide), std::invalid_argument);
}

TEST(EventBuffer, ClearResetsCounters) {
  EventBuffer buf;
  buf.push(make_event(0, Event::Type::grant, 0, 0));
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.recorded(), 0);
  EXPECT_EQ(buf.dropped(), 0);
  EXPECT_EQ(buf.first_cycle(), 0);
}

TEST(EventBuffer, BatchPushMatchesSinglePushes) {
  // Batches straddle chunk boundaries and eviction of a two-chunk ring.
  const auto n = static_cast<i64>(EventBuffer::kChunkEvents);
  EventBuffer single{2 * EventBuffer::kChunkEvents};
  EventBuffer batched{2 * EventBuffer::kChunkEvents};
  std::vector<Event> batch;
  for (i64 c = 0; c < 3 * n + 11; ++c) {
    const Event e = make_event(c / 5, c % 3 == 0 ? Event::Type::grant : Event::Type::conflict,
                               static_cast<std::size_t>(c % 9), c % 13, ConflictKind::section,
                               static_cast<std::size_t>(c % 4));
    single.push(e);
    batch.push_back(e);
    if (batch.size() == 7) {
      batched.push(batch);
      batch.clear();
    }
  }
  EventBuffer one_event{1};
  EXPECT_TRUE(one_event.empty());
  one_event.push(std::span<const Event>{batch}.first(1));
  EXPECT_FALSE(one_event.empty());
  EXPECT_EQ(one_event.size(), 1u);
  batched.push(batch);
  EXPECT_EQ(batched.recorded(), single.recorded());
  EXPECT_EQ(batched.size(), single.size());
  EXPECT_EQ(batched.dropped(), single.dropped());
  EXPECT_EQ(batched.first_cycle(), single.first_cycle());
  const std::vector<Event> a = batched.events();
  const std::vector<Event> b = single.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].element, b[i].element);
    EXPECT_EQ(a[i].port, b[i].port);
  }
}

}  // namespace
}  // namespace vpmem::sim
