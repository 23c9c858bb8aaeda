// Discrete-event simulation core.
//
// Virtual time is a double in seconds. Events scheduled at equal times fire
// in schedule order (a monotonically increasing sequence number breaks
// ties), which keeps every run fully deterministic.
//
// The event queue is a hand-rolled binary heap over a vector rather than
// std::priority_queue: priority_queue only exposes a const top(), which
// forces a copy of the callback out of the queue on every pop. With a
// move-only small-buffer callback (util::SmallFunction) the hot loop moves
// events out of the heap and never touches the allocator for captures up
// to the inline buffer size. The (time, seq) comparator is a strict total
// order, so the pop sequence — and therefore determinism — is independent
// of the heap's internal layout.
//
// One client may attach a before-event hook (sim::Network does): it runs
// before every pop, and before run_until() compares the next event with its
// deadline. A client that defers work to the hook — the network coalesces
// every topology change of one event callback into a single rate solve —
// reserves the sequence number its eager schedule() would have taken and
// later schedules at that reserved seq, so the deferred event sorts exactly
// where the eager one would have.
#pragma once

#include <cstdint>
#include <vector>

#include "util/small_function.hpp"

namespace osp::sim {

using SimTime = double;

/// Event callback: 32 inline bytes covers every capture the simulator's
/// clients create on the hot path (network completions capture 24 bytes;
/// a moved-in std::function is exactly 32), and keeps the whole Event
/// record — time, seq, callback — at one 64-byte cache line so heap
/// sifts stay cheap. Larger captures spill to the heap.
using EventFn = util::SmallFunction<void(), 32>;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  void schedule(SimTime delay, EventFn fn);

  /// Schedule `fn` at absolute time `when` (must be >= now()).
  void schedule_at(SimTime when, EventFn fn);

  /// Take the next sequence number without scheduling anything; pass it to
  /// schedule_at(when, seq, fn) later to fire in the tie order of an event
  /// scheduled now.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at `when` with a seq from reserve_seq().
  void schedule_at(SimTime when, std::uint64_t seq, EventFn fn);

  /// Attach the hook run before every event pop (see the file comment);
  /// an empty `hook` detaches. At most one hook may be attached.
  void set_before_event_hook(EventFn hook);

  /// Run until the event queue drains. Returns events processed.
  std::size_t run();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events after the deadline remain queued; now() is clamped to deadline.
  std::size_t run_until(SimTime deadline);

  /// Drop all pending events (used between experiment repetitions).
  void clear();

  /// Queued events only: work a client holds for the before-event hook
  /// (the network's next solve) is not an event until the hook runs.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;
  };

  /// True when `a` must fire before `b`.
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void run_hook() {
    if (before_event_) before_event_();
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove and return the earliest event.
  Event pop_min();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Event> heap_;  ///< min-heap ordered by earlier()
  EventFn before_event_;
};

}  // namespace osp::sim
