#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace adhoc::sim {
namespace {

// Heap order: the earliest (time, seq) on top; seq breaks ties FIFO.
struct Later {
  template <class E>
  bool operator()(const E& a, const E& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

Scheduler::~Scheduler() {
  for (std::size_t index = 0; index < blocks_.size() * kBlockSlots; ++index) {
    Slot& s = slot(static_cast<std::uint32_t>(index));
    if (s.invoke == nullptr) continue;
    ++s.generation;  // stale the handle first: a capture's destructor may cancel it
    release(static_cast<std::uint32_t>(index));
  }
}

void Scheduler::throw_past() {
  throw std::invalid_argument("Scheduler: event scheduled in the past");
}

void Scheduler::throw_empty() { throw std::invalid_argument("Scheduler: empty callback"); }

void Scheduler::grow() {
  const std::size_t base = blocks_.size() * kBlockSlots;
  if (base + kBlockSlots > kNoSlot) throw std::length_error("Scheduler: slot pool exhausted");
  blocks_.push_back(std::make_unique<Slot[]>(kBlockSlots));
  Slot* block = blocks_.back().get();
  for (std::size_t i = 0; i + 1 < kBlockSlots; ++i) {
    block[i].next_free = static_cast<std::uint32_t>(base + i + 1);
  }
  block[kBlockSlots - 1].next_free = free_head_;
  free_head_ = static_cast<std::uint32_t>(base);
}

EventId Scheduler::commit(Time at, const char* label) {
  const std::uint32_t index = free_head_;
  Slot& s = slot(index);
  const std::uint32_t generation = s.generation + 1;  // even (free) -> odd (pending)
  try {
    heap_.push_back(HeapEntry{at, next_seq_, index, generation});
  } catch (...) {
    // The callable is already constructed: destroy it; the slot stays free.
    if (s.destroy != nullptr) s.destroy(s.storage);
    s.invoke = nullptr;
    s.destroy = nullptr;
    throw;
  }
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  free_head_ = s.next_free;
  s.generation = generation;
  s.label = label;
  ++next_seq_;
  ++total_scheduled_;
  if (++pending_ > queue_high_water_) queue_high_water_ = pending_;
  return (static_cast<EventId>(generation) << 32) | index;
}

Scheduler::Slot* Scheduler::live_slot(EventId id) const {
  const auto index = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if ((generation & 1U) == 0 || index >= blocks_.size() * kBlockSlots) return nullptr;
  Slot& s = slot(index);
  return s.generation == generation ? &s : nullptr;
}

void Scheduler::release(std::uint32_t index) {
  Slot& s = slot(index);
  // Destroy before the slot rejoins the free list: a capture's destructor
  // may schedule, and must not be handed this slot's storage.
  if (s.destroy != nullptr) s.destroy(s.storage);
  s.invoke = nullptr;
  s.destroy = nullptr;
  s.label = nullptr;
  s.next_free = free_head_;
  free_head_ = index;
}

bool Scheduler::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  ++s->generation;
  --pending_;
  ++total_cancelled_;
  release(static_cast<std::uint32_t>(id));
  return true;
}

bool Scheduler::settle_top() {
  while (!heap_.empty() && slot(heap_.front().slot).generation != heap_.front().generation) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

bool Scheduler::step() {
  if (!settle_top()) return false;
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Slot& s = slot(top.slot);
  ++s.generation;  // running: its handle is stale from here on
  --pending_;
  now_ = top.at;
  ++total_executed_;
  // The callback runs from its slot; the slot is released once it
  // returns or throws.
  struct Release {
    Scheduler& sched;
    std::uint32_t index;
    ~Release() { sched.release(index); }
  } release_after{*this, top.slot};
  if (probe_ == nullptr) {
    s.invoke(s.storage);
  } else {
    const auto t0 = std::chrono::steady_clock::now();  // NOLINT-ADHOC(wall-clock) profiler hook timing
    s.invoke(s.storage);
    const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)  // NOLINT-ADHOC(wall-clock) profiler hook timing
                            .count();
    probe_->event_executed(s.label, wall, pending_);
  }
  return true;
}

void Scheduler::run_until(Time horizon) {
  while (settle_top() && heap_.front().at <= horizon) step();
  if (!horizon.is_infinite() && horizon > now_) now_ = horizon;
}

std::ostream& operator<<(std::ostream& os, Time t) {
  return os << t.to_us() << "us";
}

}  // namespace adhoc::sim
