#include "core/recovery.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

namespace {

// Desired-rate cleanup after forcing P-states: zero rates on unavailable or
// off cores, zero (type, core) pairs that can no longer meet the deadline,
// and rescale each overloaded core's remaining rates to unit utilization.
// Rates only ever shrink, so the arrival-rate rows stay satisfied. Returns
// the resulting predicted reward rate.
double clamp_rates_to_pstates(const dc::DataCenter& dc, Assignment& plan) {
  double reward_rate = 0.0;
  for (std::size_t k = 0; k < dc.total_cores(); ++k) {
    const std::size_t type = dc.core_type(k);
    const std::size_t ps = plan.core_pstate[k];
    const bool off =
        !dc.core_available(k) || ps == dc.node_types[type].off_state();
    double utilization = 0.0;
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      double rate = plan.tc(i, k);
      if (rate <= 0.0) {
        plan.tc(i, k) = 0.0;
        continue;
      }
      if (off || !dc.ecs.can_meet_deadline(
                     i, type, ps, dc.task_types[i].relative_deadline)) {
        plan.tc(i, k) = 0.0;
        continue;
      }
      utilization += rate * dc.ecs.etc_seconds(i, type, ps);
    }
    const double scale = utilization > 1.0 ? 1.0 / utilization : 1.0;
    for (std::size_t i = 0; i < dc.num_task_types(); ++i) {
      if (plan.tc(i, k) <= 0.0) continue;
      plan.tc(i, k) *= scale;
      reward_rate += plan.tc(i, k) * dc.task_types[i].reward;
    }
  }
  return reward_rate;
}

}  // namespace

util::Status RecoveryOptions::validate() const {
  if (!std::isfinite(replan_delay_s) || replan_delay_s < 0.0) {
    return util::Status::InvalidArgument(
        "re-plan delay must be non-negative and finite (got " +
        std::to_string(replan_delay_s) + "s)");
  }
  return util::Status::Ok();
}

RecoveryController::RecoveryController(const dc::DataCenter& dc,
                                       const thermal::HeatFlowModel& model,
                                       RecoveryOptions options)
    : dc_(dc), model_(model), options_(std::move(options)) {}

Assignment RecoveryController::safety_throttle(const Assignment& previous) const {
  util::telemetry::Registry* const reg =
      options_.telemetry ? options_.telemetry
                         : options_.assign.stage1.telemetry;
  const util::telemetry::ScopedTimer timer(reg, "recovery.throttle");

  TAPO_CHECK(previous.core_pstate.size() == dc_.total_cores());
  TAPO_CHECK(previous.crac_out_c.size() == dc_.num_cracs());

  Assignment plan = previous;
  plan.technique = "safety-throttle(" + previous.technique + ")";
  plan.feasible = false;
  plan.status = util::Status::Ok();

  // Raise any setpoint a derated CRAC can no longer hold.
  for (std::size_t c = 0; c < dc_.num_cracs(); ++c) {
    plan.crac_out_c[c] = dc_.crac_min_outlet(c, plan.crac_out_c[c]);
  }
  // Failed cores go off immediately; their rates are zeroed by the rate
  // cleanup below.
  std::vector<std::size_t> base_state = plan.core_pstate;
  std::size_t max_off = 0;
  for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
    const dc::NodeTypeSpec& spec = dc_.node_type(dc_.core_node(k));
    max_off = std::max(max_off, spec.off_state());
    if (!dc_.core_available(k)) base_state[k] = spec.off_state();
  }

  // Uniform demotion ladder: rung d demotes every surviving active core by d
  // P-states (toward off). One steady-state solve per rung.
  std::size_t rungs_tried = 0;
  bool found = false;
  for (std::size_t d = 0; d <= max_off && !found; ++d) {
    std::vector<std::size_t> candidate = base_state;
    for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
      const std::size_t off = dc_.node_type(dc_.core_node(k)).off_state();
      if (candidate[k] >= off) continue;  // already off stays off
      candidate[k] = std::min(candidate[k] + d, off);
    }
    ++rungs_tried;
    const std::vector<double> node_power = dc_.node_power_from_pstates(candidate);
    const thermal::Temperatures temps = model_.solve(plan.crac_out_c, node_power);
    double total_kw = model_.total_crac_power_kw(temps);
    for (double p : node_power) total_kw += p;
    if (model_.within_redlines(temps) && total_kw <= dc_.p_const_kw + 1e-9) {
      plan.core_pstate = std::move(candidate);
      found = true;
    }
  }
  // Last resort: everything off with the setpoints pushed to the top of the
  // range (minimum CRAC draw). If even this fails, no safe operating point
  // exists under the degraded constraints.
  if (!found) {
    std::vector<std::size_t> candidate(dc_.total_cores());
    for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
      candidate[k] = dc_.node_type(dc_.core_node(k)).off_state();
    }
    std::vector<double> hot = plan.crac_out_c;
    for (std::size_t c = 0; c < dc_.num_cracs(); ++c) {
      hot[c] = std::max(hot[c], options_.assign.stage1.tcrac_max_c);
    }
    ++rungs_tried;
    const std::vector<double> node_power = dc_.node_power_from_pstates(candidate);
    const thermal::Temperatures temps = model_.solve(hot, node_power);
    double total_kw = model_.total_crac_power_kw(temps);
    for (double p : node_power) total_kw += p;
    plan.core_pstate = std::move(candidate);
    if (model_.within_redlines(temps) && total_kw <= dc_.p_const_kw + 1e-9) {
      plan.crac_out_c = std::move(hot);
      found = true;
    } else {
      plan.status = util::Status::FailedPrecondition(
          "safety throttle: even all-cores-off exceeds the degraded budget "
          "or redlines");
    }
  }

  plan.reward_rate = clamp_rates_to_pstates(dc_, plan);
  plan.feasible = found;
  plan = finalize_assignment(dc_, model_, std::move(plan));
  if (reg) {
    reg->count("recovery.throttle_rungs", rungs_tried);
    reg->gauge_set("recovery.throttle_reward_rate", plan.reward_rate);
  }
  return plan;
}

RecoveryOutcome RecoveryController::recover(const Assignment& previous) const {
  util::telemetry::Registry* const reg =
      options_.telemetry ? options_.telemetry
                         : options_.assign.stage1.telemetry;
  const util::telemetry::ScopedTimer total_timer(reg, "recovery.total");
  if (reg) reg->count("recovery.invocations");

  RecoveryOutcome out;
  out.throttle = safety_throttle(previous);
  out.safe = out.throttle.feasible;
  out.throttle_reward_rate = out.throttle.reward_rate;
  if (!out.safe) {
    out.status = out.throttle.status;
    if (reg) reg->count("recovery.throttle_unsafe");
  }

  // The transition into the throttle starts from the instantaneous
  // post-fault state: the previous P-states with failed nodes already dark
  // (node_power_from_pstates zeroes them) and any physically unholdable
  // setpoint already drifted up to the degraded minimum.
  const std::vector<double> post_fault_power =
      dc_.node_power_from_pstates(previous.core_pstate);
  std::vector<double> post_fault_out = previous.crac_out_c;
  for (std::size_t c = 0; c < dc_.num_cracs(); ++c) {
    post_fault_out[c] = dc_.crac_min_outlet(c, post_fault_out[c]);
  }
  const std::vector<double> throttle_power =
      dc_.node_power_from_pstates(out.throttle.core_pstate);
  if (options_.verify_transient) {
    out.throttle_transient = thermal::simulate_transition(
        dc_, model_, post_fault_out, post_fault_power, out.throttle.crac_out_c,
        throttle_power, options_.transient);
    if (out.safe && !out.throttle_transient.redlines_held) {
      out.safe = false;
      out.status = util::Status::FailedPrecondition(
          "safety throttle: transition transiently overshoots a redline");
    }
  }
  out.plan = out.throttle;

  // Phase 2: full three-stage re-solve on the degraded data center. Kept
  // only if it beats the throttle and survives independent verification.
  {
    const util::telemetry::ScopedTimer replan_timer(reg, "recovery.replan");
    const ThreeStageAssigner assigner(dc_, model_);
    // The pre-fault plan's Stage-1 basis seeds the re-plan's CRAC sweep: a
    // fault perturbs bounds/RHS (failed nodes, derated CRACs, a new Pconst)
    // but leaves most of the LP intact, so dual-simplex warm starts from the
    // old optimum converge in a handful of iterations. The sweep itself
    // runs on persistent per-chain LP sessions (revised engine, warm
    // chains), so beyond the seeded chain heads each grid point is a
    // patch-and-resume, not a rebuild (docs/SOLVER.md §7). The sweep's final
    // re-solve at the selected point always runs the dense oracle cold
    // (stage1.cpp), so the published plan does not depend on the seed.
    ThreeStageOptions replan_options = options_.assign;
    if (!previous.stage1_basis.empty()) {
      replan_options.stage1.warm_seed = &previous.stage1_basis;
    }
    Assignment replan = assigner.assign(replan_options);
    util::Status reject;
    if (!replan.feasible) {
      reject = replan.status.with_context("recovery re-plan");
    } else if (const AssignmentCheck check =
                   verify_assignment(dc_, model_, replan);
               !check.ok()) {
      reject = util::Status::Internal(
          "recovery re-plan failed independent verification");
    } else if (replan.reward_rate + 1e-9 < out.throttle.reward_rate) {
      reject = util::Status::Infeasible(
          "recovery re-plan earns less than the safety throttle; keeping "
          "the throttle");
    } else {
      if (options_.verify_transient) {
        out.replan_transient = thermal::simulate_transition(
            dc_, model_, out.throttle.crac_out_c, throttle_power,
            replan.crac_out_c,
            dc_.node_power_from_pstates(replan.core_pstate),
            options_.transient);
        if (!out.replan_transient.redlines_held) {
          reject = util::Status::FailedPrecondition(
              "recovery re-plan transition transiently overshoots a "
              "redline; keeping the throttle");
        }
      }
      if (reject.ok()) {
        out.replan_adopted = true;
        out.replan_reward_rate = replan.reward_rate;
        out.plan = std::move(replan);
      }
    }
    if (!reject.ok() && out.status.ok()) out.status = reject;
  }

  if (reg) {
    reg->count(out.replan_adopted ? "recovery.replan_adopted"
                                  : "recovery.replan_rejected");
    reg->gauge_set("recovery.replan_reward_rate", out.replan_reward_rate);
    reg->gauge_set("recovery.safe", out.safe ? 1.0 : 0.0);
  }
  return out;
}

}  // namespace tapo::core
