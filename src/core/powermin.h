// Power minimization under a reward-rate floor (Section VIII, future work).
//
// The paper's stated extension: when the power budget is not binding but a
// workload performance guarantee is, minimize total power subject to a
// required total reward rate. The Stage-1 LP flips: the objective becomes
// the total (compute + CRAC) power, and the former objective - the concave
// aggregate reward rate - becomes a >= constraint. Stages 2 and 3 are reused
// unchanged; because integer rounding can land below the floor, the floor
// passed to Stage 1 is inflated and retried a few times until the realized
// Stage-3 reward rate meets the target.
#pragma once

#include <vector>

#include "core/assigner.h"
#include "core/stage1.h"
#include "dc/datacenter.h"
#include "thermal/heatflow.h"
#include "util/status.h"

namespace tapo::core {

struct PowerMinOptions {
  Stage1Options stage1;
};

struct PowerMinResult {
  bool feasible = false;
  // Non-ok when no attempt produced a plan (target unreachable, or a stage
  // failed); mirrors `feasible`.
  util::Status status;
  bool met_target = false;
  double total_power_kw = 0.0;
  double reward_rate = 0.0;
  Assignment assignment;
  std::size_t attempts = 0;
};

// Minimizes total power subject to reward_rate >= target (plus redlines).
// The data center's p_const_kw is ignored here - the power budget is what is
// being minimized. Invalid `options.stage1` (Stage1Options::validate) or a
// negative or non-finite target return InvalidArgument (no attempt is made).
PowerMinResult minimize_power_for_reward(const dc::DataCenter& dc,
                                         const thermal::HeatFlowModel& model,
                                         double target_reward_rate,
                                         const PowerMinOptions& options = {});

}  // namespace tapo::core
