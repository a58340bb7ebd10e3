#include "scenario/generator.h"

#include <algorithm>
#include <cmath>

#include "thermal/crossinterference.h"
#include "util/check.h"

namespace tapo::scenario {

namespace {
// RNG substream ids, so the parts of a scenario are independently seeded.
enum Stream : std::uint64_t {
  kNodeMix = 1,
  kEcs = 2,
  kTasks = 3,
  kAlpha = 4,
};
}  // namespace

dc::EcsTable generate_ecs_table(const ScenarioConfig& config,
                                const std::vector<dc::NodeTypeSpec>& types,
                                util::Rng& rng) {
  const std::size_t t = config.num_task_types;
  const std::size_t nt = types.size();
  TAPO_CHECK_MSG(config.node_type_performance.size() == nt,
                 "one performance factor per node type required");
  std::size_t max_states = 0;
  for (const auto& spec : types) {
    max_states = std::max(max_states, spec.num_pstates_with_off());
  }
  dc::EcsTable ecs(t, nt, max_states);

  for (std::size_t i = 0; i < t; ++i) {
    // "The average ECS ... for task type i is half that of task type i+1":
    // the last task type is the easiest and is normalized to scale 1.
    const double task_scale =
        std::pow(2.0, static_cast<double>(i) - static_cast<double>(t - 1));
    for (std::size_t j = 0; j < nt; ++j) {
      const dc::NodeTypeSpec& spec = types[j];
      const double p0 = task_scale * config.node_type_performance[j] *
                        rng.uniform(1.0 - config.v_ecs, 1.0 + config.v_ecs);
      ecs.set_ecs(i, j, 0, p0);
      const double f0 = spec.freq_mhz(0);
      for (std::size_t k = 1; k < spec.num_active_pstates(); ++k) {
        // Eq. 10 with the paper's resampling rule: regenerate the variation
        // factor until the ECS is monotone in the P-state index.
        const double prev = ecs.ecs(i, j, k - 1);
        const double ratio = spec.freq_mhz(k) / f0;
        double value = 0.0;
        bool accepted = false;
        for (int attempt = 0; attempt < 100; ++attempt) {
          value = p0 * ratio *
                  rng.uniform(1.0 - config.v_prop, 1.0 + config.v_prop);
          if (value <= prev) {
            accepted = true;
            break;
          }
        }
        if (!accepted) value = prev * 0.999;  // pathological draw; clamp
        ecs.set_ecs(i, j, k, value);
      }
      // The off state keeps ECS 0 (constructor default).
    }
  }
  return ecs;
}

std::vector<dc::TaskType> generate_task_types(const ScenarioConfig& config,
                                              const dc::DataCenter& dc,
                                              util::Rng& rng) {
  const std::size_t t = config.num_task_types;
  const std::size_t nt = dc.node_types.size();
  std::vector<dc::TaskType> tasks(t);
  for (std::size_t i = 0; i < t; ++i) {
    dc::TaskType& task = tasks[i];
    task.name = "task-" + std::to_string(i);

    // Eq. 11: reward = 1 / (average ECS over node types at P-state 0).
    double avg = 0.0;
    for (std::size_t j = 0; j < nt; ++j) avg += dc.ecs.ecs(i, j, 0);
    avg /= static_cast<double>(nt);
    TAPO_CHECK(avg > 0.0);
    task.reward = 1.0 / avg;

    // Eqs. 12-14: deadlines from the extreme ECS values. MinECS uses the
    // slowest *active* P-state (eta_j - 2 with the off state included).
    double min_ecs = std::numeric_limits<double>::infinity();
    double max_ecs = 0.0;
    for (std::size_t j = 0; j < nt; ++j) {
      const std::size_t slowest = dc.node_types[j].num_active_pstates() - 1;
      min_ecs = std::min(min_ecs, dc.ecs.ecs(i, j, slowest));
      max_ecs = std::max(max_ecs, dc.ecs.ecs(i, j, 0));
    }
    TAPO_CHECK(min_ecs > 0.0 && max_ecs >= min_ecs);
    task.relative_deadline = 1.5 * rng.uniform(1.0 / max_ecs, 1.0 / min_ecs);

    // Eqs. 15-16: arrival rates sized so that all-P0 capacity just covers the
    // workload (the power constraint then oversubscribes the data center).
    double sum_ecs = 0.0;
    for (std::size_t k = 0; k < dc.total_cores(); ++k) {
      sum_ecs += dc.ecs.ecs(i, dc.core_type(k), 0);
    }
    sum_ecs /= static_cast<double>(t);
    task.arrival_rate =
        sum_ecs * rng.uniform(1.0 - config.v_arrival, 1.0 + config.v_arrival);
  }
  return tasks;
}

std::optional<Scenario> generate_scenario(const ScenarioConfig& config) {
  TAPO_CHECK(config.num_nodes >= 1 && config.num_cracs >= 1);
  TAPO_CHECK(config.num_task_types >= 1);

  util::Rng master(config.seed);

  Scenario scenario;
  dc::DataCenter& dc = scenario.dc;
  dc.node_types = dc::table1_node_types(config.static_fraction);
  dc.redline_node_c = config.redline_node_c;
  dc.redline_crac_c = config.redline_crac_c;

  // Node-type mix (Section VI.B): uniform by default, weighted when the
  // config skews the park. The uniform path keeps the original uniform_int
  // draw so existing seeds reproduce bit-identically.
  {
    TAPO_CHECK_MSG(config.node_type_mix.empty() ||
                       config.node_type_mix.size() == dc.node_types.size(),
                   "one mix weight per node type required");
    util::Rng rng = master.fork(kNodeMix);
    dc.nodes.resize(config.num_nodes);
    for (auto& node : dc.nodes) {
      node.type =
          config.node_type_mix.empty()
              ? static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(dc.node_types.size()) - 1))
              : rng.pick_weighted(config.node_type_mix);
    }
  }
  dc.layout = dc::make_hot_cold_aisle_layout(config.num_nodes, config.num_cracs);

  // Homogeneous CRACs; total CRAC flow matches total node flow (VI.G). Node
  // flows are fixed by the node types, so this precedes finalize() only in
  // ordering, not in dependency.
  {
    double total_node_flow = 0.0;
    for (const auto& node : dc.nodes) {
      total_node_flow += dc.node_types[node.type].airflow_m3s();
    }
    const double flow = total_node_flow / static_cast<double>(config.num_cracs);
    dc.cracs.assign(config.num_cracs, dc::CracSpec{});
    for (auto& crac : dc.cracs) crac.flow_m3s = flow;
  }
  dc.finalize();

  {
    util::Rng rng = master.fork(kEcs);
    dc.ecs = generate_ecs_table(config, dc.node_types, rng);
  }
  {
    util::Rng rng = master.fork(kTasks);
    dc.task_types = generate_task_types(config, dc, rng);
  }

  // Cross-interference coefficients (Appendix B).
  {
    util::Rng rng = master.fork(kAlpha);
    std::vector<double> flows;
    flows.reserve(dc.num_entities());
    for (std::size_t e = 0; e < dc.num_entities(); ++e) {
      flows.push_back(e < dc.num_cracs() ? dc.cracs[e].flow_m3s
                                         : dc.node_flow(e - dc.num_cracs()));
    }
    auto alpha = thermal::generate_cross_interference(dc.layout, flows, rng);
    if (!alpha) return std::nullopt;
    dc.alpha = std::move(*alpha);
  }

  // Power bounds and the budget (Eqs. 17-18).
  {
    const thermal::HeatFlowModel model(dc);
    thermal::PowerBoundsOptions opts = config.bounds;
    opts.tcrac_max_c = std::min(opts.tcrac_max_c, config.redline_node_c);
    scenario.bounds = thermal::compute_power_bounds(dc, model, opts);
    if (!scenario.bounds.feasible) return std::nullopt;
    const util::StatusOr<double> pconst =
        thermal::pconst_from_bounds(scenario.bounds, config.pconst_factor);
    if (!pconst.ok()) return std::nullopt;
    dc.p_const_kw = *pconst;
  }
  return scenario;
}

}  // namespace tapo::scenario
