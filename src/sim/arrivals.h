// Poisson arrival processes for the workload's task types — stationary or
// driven by a piecewise-constant rate trace.
//
// Task types arrive independently at their rates lambda_i (Section III.B);
// exponential interarrival times drawn from a per-type RNG substream keep
// the processes independent and reproducible. The paper holds lambda_i fixed
// for the lifetime of a run; the RateTrace extension lets each type's rate
// follow a validated piecewise-constant curve instead (diurnal swing, flash
// crowd, decaying burst), which is what the receding-horizon re-planner
// (core/replanner.h) tracks.
//
// Sampling under a trace is exact, not thinned: an interarrival is drawn at
// the current segment's rate, and a draw that would cross a segment boundary
// is discarded at the boundary and redrawn at the new rate — valid by
// memorylessness of the exponential, and it gives the zero-rate contract for
// free: a segment with rate 0 produces no arrivals at all, because sampling
// jumps straight over it (no stale pre-drawn arrival can survive a rate
// drop; the regression suite pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dc/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapo::sim {

// --- Piecewise-constant rate traces ("tapo-traces v1") --------------------

// One constant-rate stretch: rate `rate` from `start_s` until the next
// segment's start (the last segment extends to the end of time).
struct RateSegment {
  double start_s = 0.0;
  double rate = 0.0;  // arrivals per second; 0 silences the type
};

struct RateTrace {
  // One segment list per task type; index matches dc.task_types.
  std::vector<std::vector<RateSegment>> per_type;

  std::size_t num_task_types() const { return per_type.size(); }
  bool empty() const { return per_type.empty(); }

  // Every type needs at least one segment; first segment starts at 0,
  // starts strictly increase, times and rates are finite, rates >= 0.
  util::Status validate() const;

  // The rate in force at time `t` (>= 0) for `type`.
  double rate_at(std::size_t type, double t) const;

  // Largest rate any type ever takes; sizes admission-side capacity checks.
  double peak_rate(std::size_t type) const;
};

bool operator==(const RateTrace& a, const RateTrace& b);
inline bool operator!=(const RateTrace& a, const RateTrace& b) {
  return !(a == b);
}

// Text format "tapo-traces v1":
//   tapo-traces v1
//   types <T>
//   seg <type> <start_s> <rate>     (grouped by type, starts increasing)
//   end
// Tokens, numbers, counts, comments and CRLF follow the shared lexical rules
// (util/text.h, docs/SCENARIOS.md "Lexical rules"). Doubles serialize with
// 17 significant digits so save -> load round-trips bit-identically; parse
// errors carry the offending line number and never crash (the mutation-fuzz
// suite pins this).
void save_rate_trace(const RateTrace& trace, std::ostream& os);
std::string serialize_rate_trace(const RateTrace& trace);
util::StatusOr<RateTrace> load_rate_trace(std::istream& is);
util::StatusOr<RateTrace> parse_rate_trace(const std::string& text);
util::StatusOr<RateTrace> load_rate_trace_file(const std::string& path);
bool save_rate_trace_file(const RateTrace& trace, const std::string& path);

// Seeded trace generator: the same (task_types, config) pair always yields
// the same trace, mirroring the scenario-profile generators. Base rates come
// from the task types; the shape multiplies them.
struct RateTraceGenConfig {
  enum class Kind {
    kDiurnal,       // smooth sinusoidal swing discretized into `segments`
    kFlashCrowd,    // rates jump to `magnitude`x for `duration_s`, then back
    kDecayingBurst  // jump to `magnitude`x, decay back with half-life
                    // `duration_s` (discretized into `segments` steps)
  };
  Kind kind = Kind::kDiurnal;
  std::uint64_t seed = 1;
  double horizon_s = 100.0;   // trace covers [0, horizon]; tail holds last rate
  std::size_t segments = 16;  // discretization of the smooth shapes
  double amplitude = 0.5;     // diurnal: rate = base * (1 + amplitude*sin), < 1
  double magnitude = 3.0;     // flash/burst peak multiplier, >= 1
  double start_s = -1.0;      // flash/burst onset; < 0 draws it from the seed
  double duration_s = 20.0;   // flash width / burst half-life

  util::Status validate() const;
};

RateTrace generate_rate_trace(const std::vector<dc::TaskType>& task_types,
                              const RateTraceGenConfig& config);

// --- Arrival sampling -----------------------------------------------------

class ArrivalProcess {
 public:
  // `trace` (optional, non-owning, must outlive the process) switches the
  // per-type processes from stationary rates to the trace's curves; it must
  // cover exactly task_types.size() types.
  ArrivalProcess(const std::vector<dc::TaskType>& task_types, util::Rng rng,
                 const RateTrace* trace = nullptr);

  // Next interarrival delay for the given task type (exponential with rate
  // lambda_i), ignoring any trace. Zero-rate contract: task types with rate
  // <= 0 never arrive — the call returns +infinity and consumes no
  // randomness, so a silenced type's substream stays untouched.
  double next_interarrival(std::size_t task_type);

  // Absolute time of the next arrival strictly after `now`. Without a trace
  // this is `now + next_interarrival(type)` (bit-identical draws); with one
  // it samples the piecewise-constant process by per-segment rate swaps.
  // Returns +infinity when no further arrival can occur (rate 0 forever).
  double next_arrival_after(std::size_t task_type, double now);

  std::size_t num_task_types() const { return rates_.size(); }
  double rate(std::size_t task_type) const;

 private:
  std::vector<double> rates_;
  std::vector<util::Rng> streams_;
  const RateTrace* trace_ = nullptr;
};

}  // namespace tapo::sim
