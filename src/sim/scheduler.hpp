#pragma once
// Discrete-event scheduler.
//
// The core of the simulator: a cancellable priority queue of callbacks
// keyed by (time, insertion sequence). Events scheduled for the same
// instant run in insertion order (FIFO), which makes protocol races (e.g.
// two stations ending backoff in the same slot) deterministic and
// reproducible for a given seed.
//
// The event path does not allocate in steady state:
//  * Each pending event occupies a slot in a pool of fixed-address slots.
//    The pool grows lazily, kBlockSlots slots at a time, and freed slots
//    are reused from a free list; an empty Scheduler owns no memory.
//  * A slot stores its callback in place when the callable fits in
//    kInlineBytes (every capture in this library does); larger callables
//    fall back to one heap block, freed with the event.
//  * A binary heap orders (time, seq, slot, generation) entries.
//  * An EventId is an opaque (generation, slot) handle. A slot's
//    generation is odd while its event is pending and is bumped the
//    moment the event starts running or is cancelled, so a stale handle
//    can never cancel or report the slot's next occupant.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace adhoc::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Value 0 is reserved as "invalid / never scheduled".
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Profiling hook (see obs::SchedulerProfiler). When attached, the
/// scheduler times every executed callback and reports it here together
/// with its static label and the post-execution queue depth. Detached
/// (the default), the only cost is one null-pointer test per event.
class SchedulerProbe {
 public:
  virtual ~SchedulerProbe() = default;
  virtual void event_executed(const char* label, double wall_seconds, std::size_t pending) = 0;
};

/// Cancellable discrete-event queue.
///
/// Cancellation is O(1) lazy: the slot's captures are destroyed and the
/// slot freed at once, and its heap entry is skipped when popped.
/// `run_until` executes events in nondecreasing time order and leaves the
/// clock at the requested horizon.
class Scheduler {
 public:
  /// Any nullary callable is accepted; this alias is the type-erased one.
  using Callback = std::function<void()>;

  /// Callables up to this size (and fundamental alignment) are stored in
  /// the event slot itself; larger ones take one heap block.
  static constexpr std::size_t kInlineBytes = 64;
  /// Slots added to the pool each time it runs dry.
  static constexpr std::size_t kBlockSlots = 64;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Destroys the captures of every event still pending.
  ~Scheduler();

  /// Current simulation time (time of the last executed event, or the
  /// horizon passed to run_until once it returns).
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at`. `at` must not precede now(), and
  /// `fn` must not be an empty std::function or null function pointer.
  /// `label` names the event type for profiling (static storage only —
  /// the scheduler keeps the pointer, not a copy; string literals).
  template <class F>
  EventId schedule_at(Time at, F&& fn, const char* label = nullptr) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "Scheduler: callback must be callable with no args");
    if (at < now_) throw_past();
    if (is_empty<Fn>(fn)) throw_empty();
    Slot& s = free_slot();
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
      s.invoke = &invoke_inline<Fn>;
      s.destroy = std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_inline<Fn>;
    } else {
      ::new (static_cast<void*>(s.storage)) Fn*(new Fn(std::forward<F>(fn)));
      s.invoke = &invoke_heap<Fn>;
      s.destroy = &destroy_heap<Fn>;
    }
    return commit(at, label);
  }

  /// Schedule `fn` after a relative delay (>= 0) from now().
  template <class F>
  EventId schedule_in(Time delay, F&& fn, const char* label = nullptr) {
    return schedule_at(now_ + delay, std::forward<F>(fn), label);
  }

  /// Cancel a pending event. Returns true if the event existed and had not
  /// yet run; its captures are destroyed before returning. Cancelling
  /// kInvalidEvent, an already-run event or a running one is a no-op.
  bool cancel(EventId id);

  /// True if `id` refers to an event that is still pending.
  [[nodiscard]] bool is_pending(EventId id) const { return live_slot(id) != nullptr; }

  /// Execute the single earliest pending event. Returns false if none.
  bool step();

  /// Run events until the queue is exhausted or the clock would pass
  /// `horizon`; the clock is then set to `horizon` (if finite).
  void run_until(Time horizon);

  /// Run until the event queue is empty.
  void run() { run_until(Time::infinity()); }

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return pending_; }

  // Lifetime statistics, useful for microbenchmarks and leak hunting.
  [[nodiscard]] std::uint64_t total_scheduled() const { return total_scheduled_; }
  [[nodiscard]] std::uint64_t total_executed() const { return total_executed_; }
  [[nodiscard]] std::uint64_t total_cancelled() const { return total_cancelled_; }
  /// Largest pending-event count ever reached.
  [[nodiscard]] std::size_t queue_high_water() const { return queue_high_water_; }

  /// Attach a profiling probe (nullptr detaches). The probe must outlive
  /// its attachment.
  void set_probe(SchedulerProbe* probe) { probe_ = probe; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*invoke)(void*) = nullptr;   // null while the slot is free
    void (*destroy)(void*) = nullptr;  // null for trivially destructible inline captures
    const char* label = nullptr;
    std::uint32_t generation = 0;  // odd iff pending; handles carry odd ones, so never 0
    std::uint32_t next_free = kNoSlot;
  };

  struct HeapEntry {
    Time at;
    std::uint64_t seq;  // insertion order: ties broken FIFO
    std::uint32_t slot;
    std::uint32_t generation;
  };

  template <class Fn>
  static void invoke_inline(void* p) { (*std::launder(static_cast<Fn*>(p)))(); }
  template <class Fn>
  static void destroy_inline(void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); }
  template <class Fn>
  static void invoke_heap(void* p) { (**std::launder(static_cast<Fn**>(p)))(); }
  template <class Fn>
  static void destroy_heap(void* p) { delete *std::launder(static_cast<Fn**>(p)); }

  template <class T>
  struct IsStdFunction : std::false_type {};
  template <class R, class... Args>
  struct IsStdFunction<std::function<R(Args...)>> : std::true_type {};

  /// Only std::function and function pointers can be empty; other
  /// callables (lambdas, functors) are never tested, so no -Waddress.
  template <class Fn>
  static bool is_empty([[maybe_unused]] const Fn& fn) {
    if constexpr (std::is_pointer_v<Fn>) {
      return fn == nullptr;
    } else if constexpr (IsStdFunction<Fn>::value) {
      return !fn;
    } else {
      return false;
    }
  }

  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_empty();

  [[nodiscard]] Slot& slot(std::uint32_t index) const {
    return blocks_[index / kBlockSlots][index % kBlockSlots];
  }
  /// The slot at the free-list head, growing the pool by one block if it
  /// is empty. The slot stays on the free list until commit().
  Slot& free_slot() {
    if (free_head_ == kNoSlot) grow();
    return slot(free_head_);
  }
  void grow();
  /// Take the constructed free-list head into service at `at`.
  EventId commit(Time at, const char* label);
  /// The slot `id` names if its event is still pending, else nullptr.
  [[nodiscard]] Slot* live_slot(EventId id) const;
  /// Destroy a retired slot's captures and return it to the free list.
  /// Callers bump its generation first, so its handle is already stale.
  void release(std::uint32_t index);
  /// Pop heap entries until the top is a live event; returns false if empty.
  bool settle_top();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t pending_ = 0;
  std::uint64_t total_scheduled_ = 0;
  std::uint64_t total_executed_ = 0;
  std::uint64_t total_cancelled_ = 0;
  std::size_t queue_high_water_ = 0;
  SchedulerProbe* probe_ = nullptr;
};

}  // namespace adhoc::sim
