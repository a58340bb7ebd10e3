// Online recovery from infrastructure faults (robustness extension).
//
// When a fault lands mid-run (node failure, CRAC derate, power-cap drop —
// see sim/faults.h) the plan in force may violate the degraded redlines or
// the reduced budget. Recovery is two-phase:
//
//   Phase 1, safety throttle (microseconds, no LP): starting from the active
//   plan, force failed cores off and zero their desired rates, raise any
//   CRAC setpoint below its degraded minimum, then walk a uniform P-state
//   demotion ladder — demote every surviving core by d states, d = 0, 1, ...
//   — until the steady state satisfies the redlines and the budget. Each
//   rung costs one thermal solve, so at most num_pstates + 1 solves total;
//   the all-off rung draws base + idle CRAC power only, so a rung almost
//   always exists. Surviving rates are rescaled to the demoted cores'
//   capacity and re-checked against the deadline rule.
//
//   Phase 2, re-plan (milliseconds): the full three-stage assignment re-runs
//   on the degraded data center — failed nodes carry no variables, derated
//   CRACs bound the setpoint sweep from below, the new Pconst bounds the
//   budget row. The re-plan is adopted only if it is feasible, passes the
//   independent verifier, earns at least the throttle's reward rate, and
//   its transient from the throttle state holds the redlines (the default
//   lumped-capacitance model of sim/transient.h, as for the throttle).
//   On any failure the controller keeps the throttle plan and reports why
//   through RecoveryOutcome::status — a fault never aborts the process.
#pragma once

#include "core/assigner.h"
#include "dc/datacenter.h"
#include "sim/transient.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::core {

struct RecoveryOptions {
  // Options for the phase-2 re-solve (telemetry pointer rides along).
  ThreeStageOptions assign;
  // Simulated seconds between the fault (throttle takes effect immediately)
  // and adoption of the re-plan; models solver + actuation latency.
  double replan_delay_s = 10.0;
  // Optional recovery.* metrics sink (docs/OBSERVABILITY.md); falls back to
  // assign.stage1.telemetry when null.
  util::telemetry::Registry* telemetry = nullptr;

  // Rejects a negative or non-finite re-plan delay: an adoption scheduled
  // before the fault instant would land in the simulation's past.
  util::Status validate() const;
};

struct RecoveryOutcome {
  // Non-ok when even the throttle could not reach a safe operating point
  // (plan is then best-effort all-off) or when the phase-2 re-solve failed
  // (plan is the throttle; the status says why the re-plan was rejected).
  util::Status status;
  bool safe = false;            // throttle satisfies redlines + budget
  bool replan_adopted = false;  // phase 2 produced a better verified plan
  Assignment throttle;          // phase-1 plan (always populated)
  Assignment plan;              // the plan to run: re-plan if adopted, else throttle
  double throttle_reward_rate = 0.0;
  double replan_reward_rate = 0.0;  // 0 unless replan_adopted
  // Transient checks (replan_transient is empty when the re-plan was
  // rejected before its transition was simulated).
  thermal::TransientResult throttle_transient;  // post-fault state -> throttle
  thermal::TransientResult replan_transient;    // throttle -> re-plan
};

class RecoveryController {
 public:
  // `dc` must already carry the degraded-mode state (apply_fault has run);
  // the controller never mutates it.
  RecoveryController(const dc::DataCenter& dc,
                     const thermal::HeatFlowModel& model,
                     RecoveryOptions options = {});

  // Runs both phases against `previous`, the plan active when the fault hit.
  RecoveryOutcome recover(const Assignment& previous) const;

  // Phase 1 only; exposed for tests and the latency benchmark. The returned
  // assignment's `feasible` flag reports whether a safe rung was found.
  Assignment safety_throttle(const Assignment& previous) const;

 private:
  const dc::DataCenter& dc_;
  const thermal::HeatFlowModel& model_;
  RecoveryOptions options_;
};

}  // namespace tapo::core
