#include "sim/engine.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace tapo::sim {

void Engine::note_pending() {
  if (pending() > max_pending_) max_pending_ = pending();
}

void Engine::schedule_at(double when, Callback cb) {
  TAPO_CHECK_MSG(when >= now_ - 1e-12, "cannot schedule in the past");
  queue_.push_back(Event{when, next_seq_++, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  note_pending();
}

void Engine::schedule_in(double delay, Callback cb) {
  TAPO_CHECK(delay >= 0.0);
  schedule_at(now_ + delay, std::move(cb));
}

double Engine::next_time() const {
  return queue_.empty() ? std::numeric_limits<double>::infinity()
                        : queue_.front().time;
}

std::uint64_t Engine::next_seq() const {
  TAPO_CHECK(!queue_.empty());
  return queue_.front().seq;
}

bool Engine::run_one(double horizon) {
  if (queue_.empty() || queue_.front().time > horizon) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.time;
  ev.cb();  // may schedule further events
  ++executed_;
  return true;
}

std::uint64_t Engine::hold() {
  ++held_;
  note_pending();
  return next_seq_++;
}

void Engine::fire_held(double when) {
  TAPO_CHECK(held_ > 0);
  --held_;
  now_ = when;
  ++executed_;
}

void Engine::cancel_held() {
  TAPO_CHECK(held_ > 0);
  --held_;
  ++executed_;
}

std::size_t Engine::run_until(double horizon) {
  std::size_t executed = 0;
  while (run_one(horizon)) ++executed;
  if (now_ < horizon) now_ = horizon;
  return executed;
}

}  // namespace tapo::sim
