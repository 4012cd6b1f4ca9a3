#include "vpmem/sim/event_buffer.hpp"

#include <stdexcept>

namespace vpmem::sim {

EventBuffer::EventBuffer(std::size_t capacity)
    : capacity_{capacity == 0 ? kDefaultCapacity : capacity} {
  // Round up to whole chunks so eviction keeps at least `capacity` events.
  capacity_ = ((capacity_ + kChunkEvents - 1) / kChunkEvents) * kChunkEvents;
  // Allocate and touch every slab now: the zero-fill faults the pages in,
  // so the per-event path never pays malloc or first-touch cost.
  for (std::size_t have = 0; have < capacity_; have += kChunkEvents) {
    free_.push_back(std::make_unique<PackedEvent[]>(kChunkEvents));
  }
}

void EventBuffer::new_chunk() {
  Chunk next;
  if (size_ + kChunkEvents > capacity_ && !chunks_.empty()) {
    // Evict the oldest chunk but keep its slab: the warm ring runs
    // allocation-free.
    size_ -= chunks_.front().count;
    next = std::move(chunks_.front());
    next.count = 0;
    chunks_.pop_front();
  } else if (!free_.empty()) {
    next.data = std::move(free_.back());
    free_.pop_back();
  } else {
    next.data = std::make_unique_for_overwrite<PackedEvent[]>(kChunkEvents);
  }
  chunks_.push_back(std::move(next));
  // deque never relocates surviving elements on push_back/pop_front, so
  // the cached tail pointer stays valid until the next new_chunk().
  tail_ = &chunks_.back();
}

void EventBuffer::reject_unpackable() {
  throw std::invalid_argument{"EventBuffer::push: port/bank exceeds packed field width"};
}

i64 EventBuffer::first_cycle() const {
  if (chunks_.empty() || chunks_.front().count == 0) return 0;
  return chunks_.front().data[0].cycle;
}

std::vector<Event> EventBuffer::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  for_each([&out](const Event& e) { out.push_back(e); });
  return out;
}

void EventBuffer::clear() {
  for (auto& chunk : chunks_) free_.push_back(std::move(chunk.data));
  chunks_.clear();
  tail_ = nullptr;
  size_ = 0;
  recorded_ = 0;
}

EventRecorder::EventRecorder(MemorySystem& mem, std::shared_ptr<EventBuffer> buffer,
                             std::size_t capacity)
    : mem_{mem},
      buffer_{buffer ? std::move(buffer) : std::make_shared<EventBuffer>(capacity)},
      hook_{mem.add_event_hook(
          [b = buffer_.get()](const Event& e) { b->push(e); })},
      attached_{true} {}

EventRecorder::~EventRecorder() { detach(); }

void EventRecorder::detach() {
  if (!attached_) return;
  mem_.remove_event_hook(hook_);
  attached_ = false;
}

}  // namespace vpmem::sim
