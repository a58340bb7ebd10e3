#include "core/replanner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/recovery.h"
#include "util/check.h"
#include "util/telemetry.h"

namespace tapo::core {

util::Status ReplannerOptions::validate() const {
  if (!std::isfinite(cadence_s) || cadence_s <= 0.0) {
    return util::Status::InvalidArgument(
        "replan cadence must be positive and finite");
  }
  if (!std::isfinite(tracking_error_threshold)) {
    return util::Status::InvalidArgument(
        "replan tracking-error threshold must be finite");
  }
  if (!std::isfinite(sensor_period_s) || sensor_period_s <= 0.0) {
    return util::Status::InvalidArgument(
        "replan sensor period must be positive and finite");
  }
  if (!std::isfinite(min_gap_s) || min_gap_s <= 0.0) {
    return util::Status::InvalidArgument(
        "replan retry gap must be positive and finite");
  }
  if (!std::isfinite(max_backoff_s) || max_backoff_s < min_gap_s) {
    return util::Status::InvalidArgument(
        "replan backoff cap must be finite and >= the retry gap");
  }
  return util::Status::Ok();
}

RollingPlanner::RollingPlanner(const dc::DataCenter& dc,
                               const thermal::HeatFlowModel& model,
                               const Assignment& active,
                               ReplannerOptions options)
    : dc_(dc),
      model_(model),
      options_(std::move(options)),
      active_(active),
      rate_lp_(dc, active.core_pstate) {
  TAPO_CHECK(options_.validate().ok());
  build_session();
}

// Resident copy of rate_lp_; step() patches its arrival rows.
void RollingPlanner::build_session() {
  session_.reset();
  if (!rate_lp_.empty()) {
    solver::LpOptions lp_options = options_.lp;
    if (!lp_options.telemetry) lp_options.telemetry = options_.telemetry;
    session_ =
        std::make_unique<solver::LpSession>(rate_lp_.problem(), lp_options);
  }
}

void RollingPlanner::rebind(const Assignment& active) {
  TAPO_CHECK(active.core_pstate.size() == dc_.total_cores());
  active_ = active;
  rate_lp_ = Stage3RateLp(dc_, active_.core_pstate);
  build_session();
  ++rebuilds_;
  if (options_.telemetry) options_.telemetry->count("replan.session_rebuilds");
}

solver::LpSession::Stats RollingPlanner::session_stats() const {
  return session_ ? session_->stats() : solver::LpSession::Stats{};
}

HorizonStep RollingPlanner::degrade(util::Status reason) {
  ++failures_;
  util::telemetry::Registry* const reg = options_.telemetry;
  if (reg) reg->count("replan.degraded_steps");

  HorizonStep out;
  out.status = std::move(reason);
  const double backoff =
      options_.min_gap_s *
      std::exp2(static_cast<double>(std::min<std::size_t>(failures_, 32) - 1));
  out.retry_after_s = std::min(backoff, options_.max_backoff_s);

  // Ladder rung 2 vs 3: hold the active plan if it still verifies on the
  // current (possibly degraded) data center; otherwise fall back to the
  // LP-free safety throttle so the run never operates an invalid plan. The
  // hold check asks "is this plan still physically safe" (power, thermal,
  // core capacity, deadlines); the arrivals bound is checked against the
  // plan's own per-type totals — it was verified against the demand it was
  // planned for when adopted, and a since-shrunk demand cannot make an
  // admission *upper bound* unsafe.
  std::vector<double> held_rates(dc_.num_task_types(), 0.0);
  for (std::size_t i = 0; i < dc_.num_task_types(); ++i) {
    for (std::size_t k = 0; k < dc_.total_cores(); ++k) {
      held_rates[i] += active_.tc(i, k);
    }
  }
  if (verify_assignment(dc_, model_, active_, &held_rates).ok()) {
    out.rung = HorizonStep::Rung::kHeld;
    return out;
  }
  RecoveryOptions recovery_options;
  recovery_options.telemetry = reg;
  const RecoveryController controller(dc_, model_, recovery_options);
  out.plan = controller.safety_throttle(active_);
  out.rung = HorizonStep::Rung::kThrottled;
  if (reg) reg->count("replan.throttles");
  // The throttle's P-states differ from the active plan's, so the resident
  // LP no longer matches reality; re-anchor on the throttle.
  rebind(out.plan);
  return out;
}

HorizonStep RollingPlanner::step(const std::vector<double>& lambda) {
  TAPO_CHECK(lambda.size() == dc_.num_task_types());
  util::telemetry::Registry* const reg = options_.telemetry;
  const util::telemetry::ScopedTimer step_timer(reg, "replan.step");
  if (reg) reg->count("replan.steps");

  for (const double l : lambda) {
    if (!std::isfinite(l) || l < 0.0) {
      return degrade(util::Status::InvalidArgument(
          "horizon step: arrival rates must be finite and non-negative"));
    }
  }
  if (!session_) {
    return degrade(util::Status::FailedPrecondition(
        "horizon step: no schedulable (type, class) pair — every core off"));
  }

  // The demand-only patch: T right-hand sides on the resident LP.
  for (std::size_t i = 0; i < dc_.num_task_types(); ++i) {
    if (rate_lp_.arrival_row(i) < 0) continue;
    session_->patch_rhs(static_cast<std::size_t>(rate_lp_.arrival_row(i)),
                        lambda[i]);
  }
  const solver::LpSolution sol = session_->solve();
  if (!sol.optimal()) {
    return degrade(
        sol.status == solver::LpStatus::IterLimit
            ? util::Status::ResourceExhausted(
                  "horizon step: rate LP exceeded the solve deadline")
            : util::Status::Internal("horizon step: rate LP did not converge"));
  }

  Assignment candidate;
  candidate.technique = "rolling-horizon";
  candidate.crac_out_c = active_.crac_out_c;
  candidate.core_pstate = active_.core_pstate;
  candidate.tc = rate_lp_.split(sol.x);
  candidate.reward_rate = sol.objective;
  candidate.feasible = true;
  candidate = finalize_assignment(dc_, model_, std::move(candidate));
  if (!candidate.feasible) {
    return degrade(candidate.status.with_context("horizon step: finalize"));
  }
  // Verified against the demand this step planned for: under a drifting
  // trace the targeted rates legitimately exceed the stationary ones.
  if (const AssignmentCheck check =
          verify_assignment(dc_, model_, candidate, &lambda);
      !check.ok()) {
    return degrade(util::Status::Internal(
        "horizon step: candidate failed independent verification"));
  }

  failures_ = 0;
  active_ = candidate;  // same class structure: no rebuild needed
  if (reg) reg->count("replan.adoptions");
  HorizonStep out;
  out.rung = HorizonStep::Rung::kAdopted;
  out.plan = std::move(candidate);
  return out;
}

}  // namespace tapo::core
