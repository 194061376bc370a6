// Discrete-event simulation core.
//
// A single-threaded calendar queue: events fire in timestamp order, ties
// broken by insertion order so runs are exactly reproducible. All of
// CampusLab's virtual world — traffic sessions, link deliveries, flow
// timeouts, control-loop windows — runs on one EventQueue.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "campuslab/util/time.h"

namespace campuslab::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;
  /// One step of a recurring process: does its work at now() and
  /// returns when it runs next, or nullopt when the process ends.
  using Step = std::function<std::optional<Timestamp>()>;

  EventQueue() = default;
  // Loop events hold the queue's address.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Timestamp now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `at`. Events scheduled in the past
  /// fire "immediately" (at current time, after already-pending events
  /// for that time).
  void schedule_at(Timestamp at, Handler fn);

  /// Schedule `fn` after a relative delay from now.
  void schedule_in(Duration delay, Handler fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run a recurring process: `step` runs at `first`, then at each time
  /// it returns, until it returns nullopt. The queue keeps the step, and
  /// whatever state it captures by value, in a slot table until then;
  /// each queued event holds only the queue and the slot. The successor
  /// is scheduled as the step returns, so it queues after every event
  /// the step scheduled itself — the order of a chain that re-schedules
  /// itself last.
  void loop(Timestamp first, Step step);

  /// Pop and run the earliest event. Returns false when empty.
  bool run_one();

  /// Run all events with timestamp <= `end`; afterwards now() == end
  /// (even if the queue drained early). Returns events executed.
  std::size_t run_until(Timestamp end);

  /// Drain the queue completely. Returns events executed.
  std::size_t run_all();

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    Timestamp at;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;  // FIFO within a timestamp
    }
  };

  void run_step(std::uint32_t slot);

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Timestamp now_{};
  std::uint64_t next_seq_ = 0;
  std::vector<Step> steps_;               // live loops' steps, by slot
  std::vector<std::uint32_t> free_steps_;  // slots of ended loops
};

}  // namespace campuslab::sim
