// Discrete-event simulation engine.
//
// A minimal event calendar: schedule callbacks at absolute times, run until
// a horizon. Ties are broken by insertion order so runs are deterministic.
//
// A client may also keep events of its own outside the calendar — the DES
// keeps every task completion in a per-core cursor (sim/des.cpp) — and
// *hold* them here: a held event draws its sequence number from the same
// counter as a scheduled one, so (time, seq) orders both kinds exactly as
// if every event sat in the calendar, and it counts in pending() and
// executed() like one. The client compares its next event with
// next_time()/next_seq() and fires whichever comes first.
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

  // Time of the earliest calendar event, +infinity when the calendar is
  // empty, and its sequence number (the calendar must not be empty). Let the
  // batched-admission loop in sim/des.cpp drain arrivals up to (but not
  // past) the next event without going through the priority queue per
  // arrival, and order held events against the calendar.
  double next_time() const;
  std::uint64_t next_seq() const;

  // Executes the single earliest calendar event if its time is <= horizon;
  // returns whether an event ran. The batched DES loop alternates run_one
  // and held-event firing with arrival-batch admission so events and
  // arrivals stay in global time order (ties run the event first).
  bool run_one(double horizon);

  // Holds one event kept by the caller and returns its sequence number.
  std::uint64_t hold();
  // A held event fires at `when`: the clock advances to it and it counts
  // as executed.
  void fire_held(double when);
  // A held event is cancelled (its task was killed). It leaves pending()
  // but still counts as executed, so executed() counts every event held or
  // scheduled by the horizon whether or not its work survived.
  void cancel_held();

  // Calendar events plus held events.
  std::size_t pending() const { return queue_.size() + held_; }

  // Lifetime observability counters (sim.* metrics): total events executed
  // across all run_until calls, and the high-water mark of pending().
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
  void note_pending();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t executed_ = 0;
  std::size_t held_ = 0;
  std::size_t max_pending_ = 0;
  // Binary heap under Later (front = earliest), kept with std::*_heap so a
  // pop can move the callback out instead of copying it.
  std::vector<Event> queue_;
};

}  // namespace tapo::sim
