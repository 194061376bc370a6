#include "campuslab/sim/event_queue.h"

#include <utility>

namespace campuslab::sim {

void EventQueue::schedule_at(Timestamp at, Handler fn) {
  if (at < now_) at = now_;
  heap_.push(Entry{at, next_seq_++, std::move(fn)});
}

void EventQueue::loop(Timestamp first, Step step) {
  std::uint32_t slot = 0;
  if (free_steps_.empty()) {
    slot = static_cast<std::uint32_t>(steps_.size());
    steps_.push_back(std::move(step));
  } else {
    slot = free_steps_.back();
    free_steps_.pop_back();
    steps_[slot] = std::move(step);
  }
  schedule_at(first, [this, slot] { run_step(slot); });
}

void EventQueue::run_step(std::uint32_t slot) {
  // The step runs moved out of its slot: it may start loops of its own,
  // which can grow the table under it. An ended step is destroyed on
  // return, releasing its state; its slot is free for the next loop.
  Step step = std::move(steps_[slot]);
  if (const auto next = step()) {
    steps_[slot] = std::move(step);
    schedule_at(*next, [this, slot] { run_step(slot); });
  } else {
    free_steps_.push_back(slot);
  }
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  // priority_queue::top() is const; the handler must be moved out before
  // pop, so copy the cheap fields and move the function via const_cast —
  // contained objects are never const-qualified in the underlying vector.
  auto& top = const_cast<Entry&>(heap_.top());
  Handler fn = std::move(top.fn);
  now_ = top.at;
  heap_.pop();
  fn();
  return true;
}

std::size_t EventQueue::run_until(Timestamp end) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top().at <= end) {
    run_one();
    ++executed;
  }
  if (now_ < end) now_ = end;
  return executed;
}

std::size_t EventQueue::run_all() {
  std::size_t executed = 0;
  while (run_one()) ++executed;
  return executed;
}

}  // namespace campuslab::sim
