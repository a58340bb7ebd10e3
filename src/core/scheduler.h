// Second-step dynamic scheduler (Section V.C).
//
// The first step fixes the desired execution rates TC(i, k); online, each
// arriving task of type i is routed to the core k that (a) still has
// ATC(i,k)/TC(i,k) <= 1, (b) can finish the task before its deadline given
// the core's current backlog, and (c) has the minimum ATC/TC ratio among
// such cores - keeping the realized rates tracking the desired ones. If no
// core qualifies the task is dropped. ATC is the realized assignment rate:
// tasks routed so far divided by elapsed time (with a short warm-up floor so
// the ratio is meaningful at the start of a run).
//
// Two interchangeable selection paths implement the min-ratio rule (see
// docs/SCHEDULER.md):
//  * scan    — the reference O(candidates) argmin over the candidate list;
//  * indexed — a per-task-type min-heap ordered by the time-independent key
//              count(i,k)/TC(i,k). ATC/TC = (count/elapsed)/TC shares the
//              positive factor 1/elapsed across all cores at a given `now`,
//              so heap order is ratio order; the few popped entries are
//              re-scored with the scan's exact floating-point expression and
//              an epsilon-margin stopping rule, which makes every indexed
//              decision bit-identical to the scan's. Candidates with
//              bitwise-identical TC and assignment count share the exact
//              ratio, so the heap holds one entry per such *cohort bucket*
//              rather than one per candidate — real LP assignments give many
//              cores of a type the same desired rate, and min-ratio routing
//              then pins whole cohorts at equal keys; per-candidate entries
//              would force the tie window to examine every member on every
//              route (docs/SCHEDULER.md §2). A bucket whose walk found every
//              member deadline-blocked keeps a floor on its members' finish
//              times, so later routes skip it in O(1) while it still
//              misses the deadline.
// The ablation policies always use the scan.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/assigner.h"
#include "dc/datacenter.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::core {

// Routing policies. MinAtcTcRatio is the paper's second step; the others
// are ablation baselines that ignore the desired-rate matrix:
// EarliestFinish greedily picks the eligible core that finishes the task
// soonest, Random picks uniformly among eligible cores. Both consider every
// active core that could ever serve the type (not just TC > 0 cores).
enum class SchedulerPolicy { MinAtcTcRatio, EarliestFinish, Random };

// Selection path. kIndexed (the default) routes MinAtcTcRatio through the
// candidate index and the ablation policies (which have no time-independent
// key) through the scan; kScan forces the reference scan everywhere, the
// oracle of the differential tests. Decisions are bit-identical across both.
enum class RouteMode { kScan, kIndexed };

// Cumulative routing-path statistics, kept as plain counters so the hot
// path never touches the telemetry registry; the simulation loop publishes
// them as scheduler.* counters at end of run (docs/OBSERVABILITY.md).
struct RoutingStats {
  std::size_t routed = 0;           // route() calls
  std::size_t indexed_routes = 0;   // served by the candidate index
  std::size_t scan_routes = 0;      // served by the reference scan
  std::size_t index_pops = 0;       // cohort-bucket entries examined
  std::size_t index_deferred = 0;   // rate-saturated or outranked, pushed back
  std::size_t index_parks = 0;      // deadline-blocked buckets parked
  std::size_t index_stale_pops = 0;  // defensive discards (0 by invariant)
};

struct SchedulerOptions {
  SchedulerPolicy policy = SchedulerPolicy::MinAtcTcRatio;
  RouteMode route_mode = RouteMode::kIndexed;
  // Elapsed-time floor (seconds) in the ATC estimate; prevents the ratio
  // from saturating on the first assignments of a run. The floor is load
  // bearing: at the first arrival `now == start time`, so the elapsed time
  // is exactly this value and ATC = count / warmup_seconds. A zero or
  // non-finite floor would make that first estimate 0/0; validate()
  // rejects such configurations and the constructor enforces it.
  double warmup_seconds = 1.0;
  // Admit a task only if its queueing + execution delay meets the deadline.
  bool deadline_check = true;
  // Seed for the Random policy.
  std::uint64_t random_seed = 1;
  // Cross-checks every indexed decision against the reference scan and
  // aborts on divergence. Test/debug knob; the differential suites keep it
  // on through randomized sequences.
  bool validate_index = false;
  // Optional metrics sink (scheduler.* in docs/OBSERVABILITY.md). The
  // aggregate drop/assignment counters are recorded by the simulation loop
  // at end of run; per-decision "sched.assign"/"sched.drop" event records
  // are emitted from route() only in TAPO_TELEMETRY=ON builds, so the
  // routing hot path carries no telemetry code by default. Recording never
  // affects routing decisions.
  util::telemetry::Registry* telemetry = nullptr;

  // Rejects a degenerate ATC warm-up floor (non-positive or non-finite) so
  // callers can report instead of aborting.
  util::Status validate() const;
};

class DynamicScheduler {
 public:
  DynamicScheduler(const dc::DataCenter& dc, const Assignment& assignment,
                   SchedulerOptions options = {});

  struct Decision {
    bool assigned = false;
    std::size_t core = 0;
    double exec_seconds = 0.0;
  };

  // Routes a task arriving at `now`; core_free_time[k] is the earliest time
  // core k can start new work. On success the internal ATC counters update.
  //
  // Precondition (the backlog contract, docs/SCHEDULER.md §2): between two
  // calls `now` does not decrease and no core_free_time entry decreases,
  // unless backlog_lowered() is called in between. The indexed path parks
  // deadline-blocked cohort buckets on a lower bound of their finish times
  // and leaves them out until a deadline reaches that bound; a lowered
  // backlog would make the bound stale. route() releases every parked
  // bucket itself when `now` goes backwards; a caller that lowers a free
  // time must call the hook.
  Decision route(std::size_t task_type, double now,
                 const std::vector<double>& core_free_time);

  // Declares that some core_free_time entry was lowered since the last
  // route() (a drained or killed queue). Releases every parked bucket back
  // into its ratio heap and clears the floors; O(cohort buckets). A
  // spurious call is harmless (it only costs member walks); a missing one
  // can make the index skip an eligible member.
  void backlog_lowered();

  // Realized assignment rate of task type i on core k at time `now`.
  double atc(std::size_t task_type, std::size_t core, double now) const;

  // ATC/TC tracking ratio (0 when TC is 0).
  double atc_tc_ratio(std::size_t task_type, std::size_t core, double now) const;

  // Candidate cores for the given task type: TC(i, k) > 0 under the paper's
  // policy, every deadline-capable active core under the ablation policies.
  const std::vector<std::size_t>& candidates(std::size_t task_type) const;

  std::size_t assigned_count(std::size_t task_type) const;
  std::size_t dropped_count(std::size_t task_type) const;

  const RoutingStats& stats() const { return stats_; }

  // Whether MinAtcTcRatio routing goes through the candidate index under
  // the resolved route_mode.
  bool routes_with_index() const { return use_index_; }

  // Index invariant check (property tests): for every task type the
  // cohort buckets partition the candidate list, every member of a bucket
  // has the bucket's exact count and its cohort's exact TC, every bucket has
  // exactly one live entry — in the ratio heap with key count/TC, or parked
  // with key equal to its finish floor — and both heaps are valid
  // min-heaps. Aborts on violation.
  void check_index_invariants() const;

 private:
  // One heap entry per cohort bucket (a set of candidates with
  // bitwise-identical TC and assignment count, which therefore share the
  // exact ATC/TC ratio). `pos` is the bucket's minimum candidate position at
  // push time — it orders equal-key ties toward the scan's first-candidate
  // rule, but the authoritative tie-break always re-derives the bucket's
  // current minimum eligible member at examination time. `count` identifies
  // the bucket within its cohort; `group` indexes cohorts_[type].
  struct IndexEntry {
    double key = 0.0;  // count / TC at push time
    std::uint32_t pos = 0;
    std::uint32_t group = 0;
    double count = 0.0;
  };

  // Candidates of one task type sharing a bitwise-identical desired rate,
  // partitioned into buckets by current assignment count. Members are kept
  // in ascending candidate-position order so the bucket's representative
  // (front) is the scan's tie-break winner among its members.
  //
  // A member walk that finds the bucket fully deadline-blocked parks it
  // with `finish_floor` set to the walk's minimum finish: under the backlog
  // contract that bounds every member's finish time
  // max(now, core_free_time[k]) + exec at any later route(). Members never
  // leave a parked bucket (it cannot win), and a joining winner releases
  // it. -inf while the bucket is in the ratio heap.
  struct CohortBucket {
    double count = 0.0;
    std::vector<std::uint32_t> members;  // candidate positions, ascending
    double finish_floor = -std::numeric_limits<double>::infinity();
    bool parked() const {
      return finish_floor != -std::numeric_limits<double>::infinity();
    }
  };
  // A parked bucket's ratio-heap entry, kept unchanged for its release.
  struct ParkedEntry {
    double floor = 0.0;
    IndexEntry entry;
  };
  struct Cohort {
    double tc = 0.0;
    std::vector<CohortBucket> buckets;  // few per cohort; linear lookup
  };

  Decision route_scan(std::size_t task_type, double now,
                      const std::vector<double>& core_free_time);
  Decision route_indexed(std::size_t task_type, double now,
                         const std::vector<double>& core_free_time);
  // Moves the parked entry of bucket (group, count) back to the ratio heap.
  void release(std::size_t task_type, std::uint32_t group, double count);
  // The bucket of `cohort` holding `count`; nullptr when there is none.
  static CohortBucket* find_bucket(Cohort& cohort, double count);
  // The MinAtcTcRatio scan selection without side effects, shared by
  // route_scan and the validate_index cross-check.
  Decision select_min_ratio(std::size_t task_type, double now,
                            const std::vector<double>& core_free_time) const;

  const dc::DataCenter& dc_;
  const Assignment& assignment_;
  SchedulerOptions options_;
  double start_time_ = 0.0;
  double last_now_ = -std::numeric_limits<double>::infinity();
  bool started_ = false;
  bool use_index_ = false;

  std::vector<std::vector<std::size_t>> candidates_;  // per task type
  std::vector<std::vector<double>> exec_seconds_;     // [type][candidate pos]
  std::vector<std::vector<double>> counts_;           // [task type][core]
  std::vector<std::vector<Cohort>> cohorts_;          // [task type][group]
  std::vector<std::vector<IndexEntry>> index_;        // [task type] min-heap
  std::vector<std::vector<ParkedEntry>> parked_;      // [task type] min-heap
  std::vector<IndexEntry> stash_;                     // route-local scratch
  std::vector<std::size_t> assigned_, dropped_;
  RoutingStats stats_;
  util::Rng rng_;
};

}  // namespace tapo::core
