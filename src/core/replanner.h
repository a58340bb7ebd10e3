// Receding-horizon re-planning under demand drift (robustness extension).
//
// The paper's first step plans once for stationary arrival rates; when
// traffic drifts, the plan in force leaks reward (docs/RESILIENCE.md §4,
// EXPERIMENTS.md). The key structural fact making a rolling fix cheap is
// that the arrival rates enter the three-stage plan ONLY through the
// Stage-3 rate LP's arrival rows (sum_k TC(i,k) <= lambda_i): the Stage-1
// ARR curves and the psi ranking use reward, ECS and deadlines alone. So as
// long as the hardware and P-states stand, a horizon step is a Stage-3
// re-solve with new arrival-row right-hand sides — exactly the shape the
// persistent LpSession (solver/session.h) patch-and-resume API was built
// for. Each step patches T right-hand sides on the resident rate LP and
// resumes from the previous optimal basis; no LP is ever rebuilt on the hot
// path (lp.session.* telemetry shows resident resumes, not rebuilds).
//
// A step's outcome walks the degradation ladder (docs/RESILIENCE.md):
//   1. verified re-plan — the patched LP solved, the finalized plan passed
//      the independent verifier: adopt it (through the caller's
//      generation-guarded protocol; see simulate_with_faults).
//   2. held plan — the step failed (iteration cap, solver failure,
//      verification failure) but the last verified plan still verifies
//      against the current data center: keep running it.
//   3. safety throttle — the held plan no longer verifies (hardware
//      degraded under it): fall back to the LP-free uniform-demotion
//      throttle from core/recovery.
//   4. bounded-backoff retry — after any degraded step the next attempt
//      waits 5 s * 2^(consecutive_failures - 1), capped at 60 s, so a
//      persistently failing solver cannot cause a re-plan storm.
// A horizon step never crashes the run and never publishes an unverified
// plan.
//
// Hardware changes (faults, fault-recovery adoptions) change the Stage-3
// class structure, so the caller must rebind() the planner to the new
// active plan; that rebuild is counted (replan.session_rebuilds) and is the
// only path that constructs a fresh LP.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/assigner.h"
#include "core/stage3.h"
#include "dc/datacenter.h"
#include "solver/session.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::util::telemetry {
class Registry;
}

namespace tapo::core {

struct ReplannerOptions {
  // Re-plan at least this often while healthy (simulated seconds).
  double cadence_s = 20.0;
  // Early re-plan when the scheduler's tracking error (the existing
  // scheduler.tracking_error telemetry statistic) exceeds this; <= 0
  // disables the sensor trigger.
  double tracking_error_threshold = 0.5;
  // Iteration cap of the resident rate LP (0 = the LP engine's automatic
  // cap). It is the solve deadline: a horizon step that exceeds it surfaces
  // as ResourceExhausted and takes the degraded path (soak scenarios plant
  // exactly this).
  std::size_t max_lp_iterations = 0;
  // Optional replan.* metrics sink (docs/OBSERVABILITY.md).
  util::telemetry::Registry* telemetry = nullptr;

  util::Status validate() const;
};

// Outcome of one horizon step; `rung` names the degradation-ladder level.
struct HorizonStep {
  enum class Rung {
    kAdopted,    // `plan` is a new verified plan
    kHeld,       // keep the active plan; `plan` is unset
    kThrottled,  // `plan` is the LP-free safety throttle
  };
  Rung rung = Rung::kHeld;
  util::Status status;  // why the step degraded; ok when adopted
  Assignment plan;
  // Simulated seconds the caller should wait before the next attempt
  // (0 after an adopted step, the bounded backoff after a degraded one).
  double retry_after_s = 0.0;

  bool adopted() const { return rung == Rung::kAdopted; }
  bool degraded() const { return rung != Rung::kAdopted; }
};

class RollingPlanner {
 public:
  // Builds the resident Stage-3 rate LP for `active`'s P-states on `dc`'s
  // current degraded-mode state. `dc` and `model` must outlive the planner;
  // `dc` may mutate afterwards (faults) — call rebind() when it does.
  RollingPlanner(const dc::DataCenter& dc, const thermal::HeatFlowModel& model,
                 const Assignment& active, ReplannerOptions options = {});

  // Re-anchors the planner on a new active plan (fault throttle, recovery
  // re-plan) and rebuilds the resident LP for its class structure. The only
  // path that constructs a fresh LP.
  void rebind(const Assignment& active);

  // One horizon step: patch the arrival rows to `lambda` (one rate per task
  // type), resume the resident LP, finalize + verify the candidate plan.
  // Never throws on solver failure — degradation is the return value.
  HorizonStep step(const std::vector<double>& lambda);

  // The plan the planner considers active (last adopted / rebound).
  const Assignment& active() const { return active_; }

  solver::LpSession::Stats session_stats() const;
  std::size_t consecutive_failures() const { return failures_; }
  std::size_t session_rebuilds() const { return rebuilds_; }

 private:
  void build_session();
  HorizonStep degrade(util::Status reason);

  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  ReplannerOptions options_;
  Assignment active_;

  // The rate LP for active_'s P-states and its resident session (null when
  // nothing is schedulable).
  Stage3RateLp rate_lp_;
  std::unique_ptr<solver::LpSession> session_;

  std::size_t failures_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace tapo::core
