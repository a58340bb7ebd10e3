// Discrete-event simulation engine.
//
// A minimal event calendar: schedule callbacks at absolute times, run until
// a horizon. Ties are broken by insertion order so runs are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace tapo::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  double now() const { return now_; }

  // Schedules a callback at absolute time `when` (>= now()).
  void schedule_at(double when, Callback cb);
  // Schedules relative to the current time.
  void schedule_in(double delay, Callback cb);

  // Runs events until the calendar empties or the horizon is passed; events
  // scheduled exactly at the horizon still run. Returns events executed.
  std::size_t run_until(double horizon);

  // Time of the earliest pending event, +infinity when the calendar is
  // empty. Lets the batched-admission loop in sim/des.cpp drain arrivals
  // up to (but not past) the next calendar event without going through the
  // priority queue per arrival.
  double next_time() const;

  // Executes the single earliest event if its time is <= horizon; returns
  // whether an event ran. The batched DES loop alternates run_one with
  // arrival-batch admission so calendar events and arrivals stay in global
  // time order (ties run the calendar event first).
  bool run_one(double horizon);

  std::size_t pending() const { return queue_.size(); }

  // Lifetime observability counters (sim.* metrics): total events executed
  // across all run_until calls, and the calendar's high-water mark.
  std::size_t executed() const { return executed_; }
  std::size_t max_pending() const { return max_pending_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t max_pending_ = 0;
  // Binary heap under Later (front = earliest), kept with std::*_heap so a
  // pop can move the callback out instead of copying it.
  std::vector<Event> queue_;
};

}  // namespace tapo::sim
