#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

// Relative margin of the indexed path's stopping rules. The heap key
// count/TC and the scan's ratio (count/elapsed)/TC agree up to ~3 ulps
// (two extra roundings and a shared division); 1e-12 is ~4500 ulps of
// headroom, so the margin can only cause a handful of extra pops near
// exact ties — never a missed candidate (docs/SCHEDULER.md §3).
constexpr double kIndexMargin = 1e-12;

// Min-heap on (key, bucket representative position): std::*_heap build a
// max-heap from operator<, so "greater" yields the min-heap the index
// needs. Equal keys pop lowest position first, steering pops toward the
// scan's first-candidate tie-break; the exact tie-break is re-derived from
// the bucket's live membership at examination time.
struct IndexEntryGreater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.key != b.key) return a.key > b.key;
    return a.pos > b.pos;
  }
};

// Min-heap on the parked buckets' finish floors. Release order among equal
// floors cannot matter: every released entry goes back to the ratio heap,
// whose (key, position) order is total.
struct FloorGreater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.floor > b.floor;
  }
};

}  // namespace

util::Status SchedulerOptions::validate() const {
  if (!std::isfinite(warmup_seconds) || warmup_seconds <= 0.0) {
    return util::Status::InvalidArgument(
        "scheduler ATC warm-up floor must be positive and finite (got " +
        std::to_string(warmup_seconds) +
        "); a zero floor makes the first arrival's ATC estimate 0/0");
  }
  return util::Status::Ok();
}

DynamicScheduler::DynamicScheduler(const dc::DataCenter& dc,
                                   const Assignment& assignment,
                                   SchedulerOptions options)
    : dc_(dc),
      assignment_(assignment),
      options_(std::move(options)),
      rng_(options_.random_seed) {
  TAPO_CHECK(assignment_.feasible);
  TAPO_CHECK(assignment_.tc.rows() == dc_.num_task_types());
  TAPO_CHECK(assignment_.tc.cols() == dc_.total_cores());
  TAPO_CHECK_MSG(options_.validate().ok(),
                 "invalid SchedulerOptions (see SchedulerOptions::validate)");
  const std::size_t t = dc_.num_task_types();
  candidates_.assign(t, {});
  exec_seconds_.assign(t, {});
  counts_.assign(t, {});
  cohorts_.assign(t, {});
  index_.assign(t, {});
  parked_.assign(t, {});
  assigned_.assign(t, 0);
  dropped_.assign(t, 0);
  const bool tc_based = options_.policy == SchedulerPolicy::MinAtcTcRatio;
  use_index_ = tc_based && options_.route_mode == RouteMode::kIndexed;
  for (std::size_t i = 0; i < t; ++i) {
    counts_[i].assign(dc_.total_cores(), 0.0);
    for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
      if (tc_based) {
        if (assignment_.tc(i, k) > 0.0) candidates_[i].push_back(k);
      } else {
        // Ablation policies: any active core that can meet the deadline.
        const std::size_t type = dc_.core_type(k);
        const std::size_t ps = assignment_.core_pstate[k];
        if (ps != dc_.node_types[type].off_state() &&
            dc_.ecs.can_meet_deadline(i, type, ps,
                                      dc_.task_types[i].relative_deadline)) {
          candidates_[i].push_back(k);
        }
      }
    }
    // Execution times are a pure function of (type, core P-state); hoisting
    // them out of route() keeps the hot loop free of ECS table lookups.
    exec_seconds_[i].reserve(candidates_[i].size());
    for (std::size_t k : candidates_[i]) {
      exec_seconds_[i].push_back(dc_.ecs.etc_seconds(
          i, dc_.core_type(k), assignment_.core_pstate[k]));
    }
    if (use_index_) {
      // Group candidates with bitwise-identical TC into cohorts: the LP
      // routinely assigns many cores of a type the same desired rate, and
      // identical (TC, count) means an identical exact ratio, so one heap
      // entry can stand in for the whole bucket. Sorting by (TC, position)
      // keeps each cohort's members in ascending position order.
      std::vector<std::pair<double, std::uint32_t>> by_tc;
      by_tc.reserve(candidates_[i].size());
      for (std::size_t p = 0; p < candidates_[i].size(); ++p) {
        by_tc.emplace_back(assignment_.tc(i, candidates_[i][p]),
                           static_cast<std::uint32_t>(p));
      }
      std::sort(by_tc.begin(), by_tc.end());
      for (std::size_t p = 0; p < by_tc.size(); ++p) {
        if (p == 0 || by_tc[p].first != cohorts_[i].back().tc) {
          cohorts_[i].push_back(Cohort{by_tc[p].first, {CohortBucket{}}});
        }
        cohorts_[i].back().buckets.front().members.push_back(by_tc[p].second);
      }
      // All keys start at 0/TC = 0, so heap order is position order.
      index_[i].reserve(cohorts_[i].size());
      for (std::size_t g = 0; g < cohorts_[i].size(); ++g) {
        index_[i].push_back(
            IndexEntry{0.0, cohorts_[i][g].buckets.front().members.front(),
                       static_cast<std::uint32_t>(g), 0.0});
      }
      std::make_heap(index_[i].begin(), index_[i].end(), IndexEntryGreater{});
    }
  }
}

double DynamicScheduler::atc(std::size_t task_type, std::size_t core,
                             double now) const {
  const double elapsed = std::max(now - start_time_, options_.warmup_seconds);
  return counts_[task_type][core] / elapsed;
}

double DynamicScheduler::atc_tc_ratio(std::size_t task_type, std::size_t core,
                                      double now) const {
  const double tc = assignment_.tc(task_type, core);
  if (tc <= 0.0) return 0.0;
  return atc(task_type, core, now) / tc;
}

const std::vector<std::size_t>& DynamicScheduler::candidates(
    std::size_t task_type) const {
  TAPO_CHECK(task_type < candidates_.size());
  return candidates_[task_type];
}

DynamicScheduler::Decision DynamicScheduler::select_min_ratio(
    std::size_t task_type, double now,
    const std::vector<double>& core_free_time) const {
  const double deadline = now + dc_.task_types[task_type].relative_deadline;
  Decision best;
  double best_score = 0.0;
  const std::vector<std::size_t>& cands = candidates_[task_type];
  const std::vector<double>& execs = exec_seconds_[task_type];
  for (std::size_t p = 0; p < cands.size(); ++p) {
    const std::size_t k = cands[p];
    const double exec = execs[p];
    const double finish = std::max(now, core_free_time[k]) + exec;
    if (options_.deadline_check && finish > deadline + 1e-12) continue;
    const double ratio = atc_tc_ratio(task_type, k, now);
    if (ratio > 1.0) continue;  // core already ahead of its desired rate
    if (!best.assigned || ratio < best_score) {
      best = {true, k, exec};
      best_score = ratio;
    }
  }
  return best;
}

DynamicScheduler::Decision DynamicScheduler::route_scan(
    std::size_t task_type, double now,
    const std::vector<double>& core_free_time) {
  if (options_.policy == SchedulerPolicy::MinAtcTcRatio) {
    return select_min_ratio(task_type, now, core_free_time);
  }
  const double deadline = now + dc_.task_types[task_type].relative_deadline;
  Decision best;
  double best_score = 0.0;
  std::size_t eligible = 0;  // for Random's reservoir pick
  const std::vector<std::size_t>& cands = candidates_[task_type];
  const std::vector<double>& execs = exec_seconds_[task_type];
  for (std::size_t p = 0; p < cands.size(); ++p) {
    const std::size_t k = cands[p];
    const double exec = execs[p];
    const double finish = std::max(now, core_free_time[k]) + exec;
    if (options_.deadline_check && finish > deadline + 1e-12) continue;
    switch (options_.policy) {
      case SchedulerPolicy::MinAtcTcRatio:
        break;  // handled above
      case SchedulerPolicy::EarliestFinish: {
        if (!best.assigned || finish < best_score) {
          best = {true, k, exec};
          best_score = finish;
        }
        break;
      }
      case SchedulerPolicy::Random: {
        // Reservoir sampling: uniform over eligible cores in one pass.
        ++eligible;
        if (rng_.uniform(0.0, 1.0) < 1.0 / static_cast<double>(eligible)) {
          best = {true, k, exec};
        }
        break;
      }
    }
  }
  return best;
}

DynamicScheduler::CohortBucket* DynamicScheduler::find_bucket(Cohort& cohort,
                                                              double count) {
  for (CohortBucket& b : cohort.buckets) {
    if (b.count == count) return &b;
  }
  return nullptr;
}

DynamicScheduler::Decision DynamicScheduler::route_indexed(
    std::size_t task_type, double now,
    const std::vector<double>& core_free_time) {
  const double deadline = now + dc_.task_types[task_type].relative_deadline;
  const double elapsed = std::max(now - start_time_, options_.warmup_seconds);
  // Keys beyond this bound have ATC/TC > 1 even after worst-case rounding.
  const double rate_cutoff = elapsed * (1.0 + kIndexMargin);

  std::vector<IndexEntry>& heap = index_[task_type];
  std::vector<ParkedEntry>& parked = parked_[task_type];
  std::vector<Cohort>& cohorts = cohorts_[task_type];
  const std::vector<std::size_t>& cands = candidates_[task_type];
  const std::vector<double>& execs = exec_seconds_[task_type];
  const IndexEntryGreater after;

  // Release every parked bucket whose floor no longer misses the deadline:
  // the exact complement of the scan's test, so a bucket stays out only
  // while every member's finish provably fails it (docs/SCHEDULER.md §2).
  while (!parked.empty() && !(parked.front().floor > deadline + 1e-12)) {
    const IndexEntry e = parked.front().entry;
    std::pop_heap(parked.begin(), parked.end(), FloorGreater{});
    parked.pop_back();
    find_bucket(cohorts[e.group], e.count)->finish_floor =
        -std::numeric_limits<double>::infinity();
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), after);
  }

  Decision best;
  double best_ratio = 0.0;
  std::uint32_t best_pos = 0;
  IndexEntry best_entry;
  stash_.clear();

  while (!heap.empty()) {
    const IndexEntry top = heap.front();
    if (top.key > rate_cutoff) break;  // all remaining ratios exceed 1
    if (best.assigned) {
      // Remaining keys cannot produce a strictly smaller ratio. Zero keys
      // are exact (count == 0 ⇒ ratio == 0), and a count-0 bucket never
      // gains members, so its entry position is its exact minimum member:
      // once a zero-key bucket won at best_pos, later zero-key entries with
      // larger positions lose the tie by the scan's first-candidate rule.
      // (best_pos can exceed top.pos only after a deadline substitution
      // inside the winning bucket; then top must still be examined.)
      if ((top.key == 0.0 && top.pos > best_pos) ||
          top.key > best_ratio * elapsed * (1.0 + kIndexMargin)) {
        break;
      }
    }
    std::pop_heap(heap.begin(), heap.end(), after);
    heap.pop_back();
    ++stats_.index_pops;

    CohortBucket* bucket = find_bucket(cohorts[top.group], top.count);
    if (bucket == nullptr) {
      // Defensive only: the pop/push discipline keeps exactly one live
      // entry per bucket, so this branch is dead by invariant.
      ++stats_.index_stale_pops;
      continue;
    }

    // Every member of the bucket has the same count and bitwise-identical
    // TC, so the scan's exact expression gives the same ratio for all of
    // them — re-scoring the representative re-scores the whole bucket.
    const std::size_t k0 = cands[bucket->members.front()];
    const double ratio = atc_tc_ratio(task_type, k0, now);
    if (ratio > 1.0) {
      stash_.push_back(top);  // rate-saturated now; retry at larger elapsed
      continue;
    }
    // The scan admits the first member (in position order) whose backlog
    // still meets the deadline; members share the ratio but not the queue.
    std::uint32_t pos = 0;
    double exec = 0.0;
    double floor = std::numeric_limits<double>::infinity();
    bool eligible = false;
    for (std::uint32_t m : bucket->members) {
      const double finish = std::max(now, core_free_time[cands[m]]) + execs[m];
      if (!options_.deadline_check || finish <= deadline + 1e-12) {
        pos = m;
        exec = execs[m];
        eligible = true;
        break;
      }
      floor = std::min(floor, finish);
    }
    if (!eligible) {
      // Every member is deadline-blocked. Under the backlog contract each
      // member's later finishes are at least this walk's (rounded max and +
      // are monotone), so the bucket sits out, key unchanged, until a
      // deadline reaches its floor.
      bucket->finish_floor = floor;
      parked.push_back(ParkedEntry{floor, top});
      std::push_heap(parked.begin(), parked.end(), FloorGreater{});
      ++stats_.index_parks;
      continue;
    }
    if (!best.assigned || ratio < best_ratio ||
        (ratio == best_ratio && pos < best_pos)) {
      if (best.assigned) stash_.push_back(best_entry);  // dethroned, unchanged
      best = {true, cands[pos], exec};
      best_ratio = ratio;
      best_pos = pos;
      best_entry = top;
    } else {
      stash_.push_back(top);
    }
  }

  stats_.index_deferred += stash_.size();
  for (const IndexEntry& e : stash_) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), after);
  }
  if (best.assigned) {
    // Move the winner from its bucket to the count+1 bucket of the same
    // cohort (the caller increments counts_ right after us). The winning
    // bucket's entry stays popped; re-push it only if members remain.
    Cohort& cohort = cohorts[best_entry.group];
    std::size_t bi = 0;
    while (cohort.buckets[bi].count != best_entry.count) ++bi;
    std::vector<std::uint32_t>& members = cohort.buckets[bi].members;
    members.erase(std::lower_bound(members.begin(), members.end(), best_pos));
    if (!members.empty()) {
      heap.push_back(IndexEntry{best_entry.key, members.front(),
                                best_entry.group, best_entry.count});
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      cohort.buckets.erase(cohort.buckets.begin() + bi);
    }
    const double new_count = best_entry.count + 1.0;
    if (CohortBucket* next = find_bucket(cohort, new_count)) {
      // The bucket already has a live entry; joining it never adds one.
      // (Its entry position may now sit above the bucket's true minimum —
      // that only biases pop order among exact-equal keys, which the
      // examination-time tie-break re-derives anyway.) The winner meets
      // this route's deadline, so a parked bucket's floor no longer bounds
      // its members past it: release the bucket.
      if (next->parked()) release(task_type, best_entry.group, new_count);
      next->members.insert(
          std::lower_bound(next->members.begin(), next->members.end(), best_pos),
          best_pos);
    } else {
      cohort.buckets.push_back(CohortBucket{new_count, {best_pos}});
      heap.push_back(IndexEntry{new_count / cohort.tc, best_pos,
                                best_entry.group, new_count});
      std::push_heap(heap.begin(), heap.end(), after);
    }
  }
  return best;
}

void DynamicScheduler::release(std::size_t task_type, std::uint32_t group,
                               double count) {
  std::vector<ParkedEntry>& parked = parked_[task_type];
  const auto it = std::find_if(parked.begin(), parked.end(),
                               [&](const ParkedEntry& p) {
                                 return p.entry.group == group &&
                                        p.entry.count == count;
                               });
  TAPO_CHECK(it != parked.end());
  const IndexEntry e = it->entry;
  *it = parked.back();
  parked.pop_back();
  std::make_heap(parked.begin(), parked.end(), FloorGreater{});
  find_bucket(cohorts_[task_type][group], count)->finish_floor =
      -std::numeric_limits<double>::infinity();
  std::vector<IndexEntry>& heap = index_[task_type];
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), IndexEntryGreater{});
}

DynamicScheduler::Decision DynamicScheduler::route(
    std::size_t task_type, double now, const std::vector<double>& core_free_time) {
  TAPO_CHECK(task_type < candidates_.size());
  TAPO_CHECK(core_free_time.size() == dc_.total_cores());
  if (!started_) {
    started_ = true;
    start_time_ = now;
  }
  if (now < last_now_) backlog_lowered();  // the contract's O(1) half
  last_now_ = now;
  ++stats_.routed;

  Decision best;
  if (use_index_) {
    best = route_indexed(task_type, now, core_free_time);
    ++stats_.indexed_routes;
    if (options_.validate_index) {
      const Decision ref = select_min_ratio(task_type, now, core_free_time);
      TAPO_CHECK_MSG(ref.assigned == best.assigned &&
                         (!ref.assigned || (ref.core == best.core &&
                                            ref.exec_seconds == best.exec_seconds)),
                     "indexed routing diverged from the reference scan");
    }
  } else {
    best = route_scan(task_type, now, core_free_time);
    ++stats_.scan_routes;
  }

  if (best.assigned) {
    counts_[task_type][best.core] += 1.0;
    ++assigned_[task_type];
    TAPO_TELEM_EVENT(options_.telemetry, "sched.assign", now,
                     {{"type", static_cast<double>(task_type)},
                      {"core", static_cast<double>(best.core)},
                      {"exec_seconds", best.exec_seconds}});
  } else {
    ++dropped_[task_type];
    TAPO_TELEM_EVENT(options_.telemetry, "sched.drop", now,
                     {{"type", static_cast<double>(task_type)}});
  }
  return best;
}

void DynamicScheduler::backlog_lowered() {
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    if (parked_[i].empty()) continue;
    for (const ParkedEntry& p : parked_[i]) index_[i].push_back(p.entry);
    parked_[i].clear();
    std::make_heap(index_[i].begin(), index_[i].end(), IndexEntryGreater{});
    for (Cohort& cohort : cohorts_[i]) {
      for (CohortBucket& b : cohort.buckets) {
        b.finish_floor = -std::numeric_limits<double>::infinity();
      }
    }
  }
}

void DynamicScheduler::check_index_invariants() const {
  if (!use_index_) return;
  const IndexEntryGreater after;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const std::vector<IndexEntry>& heap = index_[i];
    const std::vector<Cohort>& cohorts = cohorts_[i];
    TAPO_CHECK_MSG(std::is_heap(heap.begin(), heap.end(), after),
                   "index heap property violated");
    // The cohort buckets partition the candidate list; every member carries
    // its bucket's exact count and its cohort's exact TC.
    std::size_t buckets = 0;
    std::vector<std::uint8_t> seen(candidates_[i].size(), 0);
    for (const Cohort& c : cohorts) {
      for (const CohortBucket& b : c.buckets) {
        ++buckets;
        TAPO_CHECK_MSG(!b.members.empty(), "empty cohort bucket");
        TAPO_CHECK_MSG(std::is_sorted(b.members.begin(), b.members.end()),
                       "cohort bucket members out of order");
        for (std::uint32_t p : b.members) {
          TAPO_CHECK(p < candidates_[i].size());
          TAPO_CHECK_MSG(!seen[p], "candidate in two cohort buckets");
          seen[p] = 1;
          const std::size_t k = candidates_[i][p];
          TAPO_CHECK_MSG(assignment_.tc(i, k) == c.tc,
                         "cohort member TC mismatch");
          TAPO_CHECK_MSG(counts_[i][k] == b.count,
                         "cohort bucket count out of date");
        }
      }
    }
    TAPO_CHECK_MSG(std::all_of(seen.begin(), seen.end(),
                               [](std::uint8_t s) { return s != 0; }),
                   "candidate missing from every cohort bucket");
    // Exactly one live entry per bucket: in the ratio heap keyed by the
    // bucket's state, or parked keyed by its floor.
    const std::vector<ParkedEntry>& parked = parked_[i];
    TAPO_CHECK_MSG(std::is_heap(parked.begin(), parked.end(), FloorGreater{}),
                   "parked heap property violated");
    TAPO_CHECK_MSG(heap.size() + parked.size() == buckets,
                   "index must hold exactly one entry per cohort bucket");
    std::vector<std::vector<std::uint8_t>> entry_seen(cohorts.size());
    for (std::size_t g = 0; g < cohorts.size(); ++g) {
      entry_seen[g].assign(cohorts[g].buckets.size(), 0);
    }
    const auto check_entry = [&](const IndexEntry& e) -> const CohortBucket& {
      TAPO_CHECK(e.group < cohorts.size());
      const Cohort& c = cohorts[e.group];
      std::size_t bi = 0;
      while (bi < c.buckets.size() && c.buckets[bi].count != e.count) ++bi;
      TAPO_CHECK_MSG(bi < c.buckets.size(), "index entry for a vanished bucket");
      TAPO_CHECK_MSG(!entry_seen[e.group][bi],
                     "duplicate index entry for a cohort bucket");
      entry_seen[e.group][bi] = 1;
      TAPO_CHECK_MSG(e.key == e.count / c.tc, "index key out of date");
      const std::vector<std::uint32_t>& m = c.buckets[bi].members;
      TAPO_CHECK_MSG(std::binary_search(m.begin(), m.end(), e.pos),
                     "index entry position is not a bucket member");
      return c.buckets[bi];
    };
    for (const IndexEntry& e : heap) {
      TAPO_CHECK_MSG(!check_entry(e).parked(),
                     "parked bucket has a ratio-heap entry");
    }
    for (const ParkedEntry& p : parked) {
      TAPO_CHECK_MSG(check_entry(p.entry).finish_floor == p.floor,
                     "parked key differs from the bucket's finish floor");
    }
  }
}

std::size_t DynamicScheduler::assigned_count(std::size_t task_type) const {
  TAPO_CHECK(task_type < assigned_.size());
  return assigned_[task_type];
}

std::size_t DynamicScheduler::dropped_count(std::size_t task_type) const {
  TAPO_CHECK(task_type < dropped_.size());
  return dropped_[task_type];
}

}  // namespace tapo::core
