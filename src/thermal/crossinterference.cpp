#include "thermal/crossinterference.h"

#include <algorithm>
#include <cmath>

#include "solver/maxflow.h"
#include "util/check.h"

namespace tapo::thermal {

EcRcRange table2_range(dc::RackLabel label) {
  switch (label) {
    case dc::RackLabel::A: return {0.30, 0.40, 0.00, 0.10};
    case dc::RackLabel::B: return {0.30, 0.40, 0.00, 0.20};
    case dc::RackLabel::C: return {0.40, 0.50, 0.10, 0.30};
    case dc::RackLabel::D: return {0.70, 0.80, 0.30, 0.70};
    case dc::RackLabel::E: return {0.80, 0.90, 0.40, 0.80};
  }
  TAPO_CHECK_MSG(false, "unknown rack label");
}

namespace {

// Half-width of the tightened interval around each drawn EC/RC target, as a
// fraction (0.03 = +/-3 percentage points).
constexpr double kTargetSlack = 0.03;
// Retries with progressively wider slack before falling back to the full
// Table-II ranges.
constexpr std::size_t kMaxRetries = 4;
// Step and step count of the upper-bound widening applied when even the full
// Table-II ranges are infeasible (see the header).
constexpr double kRelaxationStep = 0.05;
constexpr std::size_t kMaxRelaxationSteps = 16;

struct Interval {
  double lo, hi;
};

// Tightens [range_lo, range_hi] around target with the given half-width.
Interval around(double target, double slack, double range_lo, double range_hi) {
  return {std::max(range_lo, target - slack), std::min(range_hi, target + slack)};
}

// One feasibility attempt with the given per-node EC/RC intervals and
// node->node arc capacity factors; returns alpha on success.
std::optional<solver::Matrix> attempt(const dc::Layout& layout,
                                      const std::vector<double>& flows,
                                      const std::vector<Interval>& ec,
                                      const std::vector<Interval>& rc,
                                      const std::vector<double>& nn_cap_factor) {
  const std::size_t nc = layout.num_cracs;
  const std::size_t nn = layout.nodes.size();
  const std::size_t n = nc + nn;

  // Circulation graph vertices: out_e (0..n-1), in_e (n..2n-1), then one
  // recirculation aggregator per node that carries the RC group bound.
  const auto out_v = [](std::size_t e) { return e; };
  const auto in_v = [n](std::size_t e) { return n + e; };
  const auto agg_v = [n, nc](std::size_t node) { return 2 * n + (node - nc); };
  solver::Circulation circ(2 * n + nn);

  // Throughput: everything that enters an entity leaves it, at its flow rate.
  for (std::size_t e = 0; e < n; ++e) {
    circ.add_arc(in_v(e), out_v(e), flows[e], flows[e]);
  }

  struct ArcRef {
    std::size_t arc;
    std::size_t src, dst;  // entity indices
  };
  std::vector<ArcRef> refs;
  refs.reserve(n * n);

  // CRAC outlets supply node inlets (cold aisle) and may bypass into CRAC
  // inlets (short-circuited cold air keeps the flow totals consistent when
  // the nodes' exit coefficients do not cover the full CRAC draw).
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t j = 0; j < nn; ++j) {
      refs.push_back({circ.add_arc(out_v(c), in_v(nc + j), 0.0, flows[c]), c, nc + j});
    }
    for (std::size_t c2 = 0; c2 < nc; ++c2) {
      refs.push_back({circ.add_arc(out_v(c), in_v(c2), 0.0, flows[c]), c, c2});
    }
  }

  // Node -> CRAC exit flows, bounded by the EC interval split over CRACs by
  // the hot-aisle matrix M (Appendix B constraints 3-4).
  for (std::size_t j = 0; j < nn; ++j) {
    const std::size_t e = nc + j;
    const std::size_t aisle = layout.nodes[j].hot_aisle;
    for (std::size_t c = 0; c < nc; ++c) {
      const double m = layout.hot_aisle_to_crac(aisle, c);
      if (m <= 0.0) continue;
      refs.push_back({circ.add_arc(out_v(e), in_v(c), ec[j].lo * m * flows[e],
                                   ec[j].hi * m * flows[e]),
                      e, c});
    }
  }

  // Node -> node recirculation through the receiving node's aggregator,
  // which enforces the RC group bound (Appendix B constraint 5).
  for (std::size_t i = 0; i < nn; ++i) {
    const std::size_t src = nc + i;
    for (std::size_t j = 0; j < nn; ++j) {
      const double cap = flows[src] * nn_cap_factor[i * nn + j];
      refs.push_back({circ.add_arc(out_v(src), agg_v(nc + j), 0.0, cap), src, nc + j});
    }
  }
  for (std::size_t j = 0; j < nn; ++j) {
    const std::size_t e = nc + j;
    circ.add_arc(agg_v(e), in_v(e), rc[j].lo * flows[e], rc[j].hi * flows[e]);
  }

  const auto result = circ.solve();
  if (!result) return std::nullopt;

  solver::Matrix alpha(n, n);
  for (const ArcRef& r : refs) {
    alpha(r.src, r.dst) += (*result)[r.arc] / flows[r.src];
  }
  return alpha;
}

}  // namespace

std::optional<solver::Matrix> generate_cross_interference(
    const dc::Layout& layout, const std::vector<double>& flows, util::Rng& rng,
    GenerationInfo* info) {
  const std::size_t nc = layout.num_cracs;
  const std::size_t nn = layout.nodes.size();
  TAPO_CHECK(flows.size() == nc + nn);
  for (double f : flows) TAPO_CHECK(f > 0.0);

  GenerationInfo local_info;
  GenerationInfo& gi = info ? *info : local_info;
  gi = {};

  // Draw the per-node EC/RC targets once; retries only widen the intervals.
  std::vector<double> ec_target(nn), rc_target(nn);
  for (std::size_t j = 0; j < nn; ++j) {
    const EcRcRange range = table2_range(layout.nodes[j].label);
    ec_target[j] = rng.uniform(range.ec_min, range.ec_max);
    rc_target[j] = rng.uniform(range.rc_min, range.rc_max);
  }
  // Randomized recirculation affinities: which pairs of nodes exchange air.
  std::vector<double> nn_cap(nn * nn);
  for (double& c : nn_cap) c = rng.uniform(0.2, 1.0);

  // Phase 1: tightened intervals around the drawn targets, widened per retry.
  double slack = kTargetSlack;
  for (std::size_t attempt_idx = 0; attempt_idx <= kMaxRetries; ++attempt_idx) {
    const bool last = attempt_idx == kMaxRetries;
    std::vector<Interval> ec(nn), rc(nn);
    for (std::size_t j = 0; j < nn; ++j) {
      const EcRcRange range = table2_range(layout.nodes[j].label);
      if (last) {
        ec[j] = {range.ec_min, range.ec_max};
        rc[j] = {range.rc_min, range.rc_max};
      } else {
        ec[j] = around(ec_target[j], slack, range.ec_min, range.ec_max);
        rc[j] = around(rc_target[j], slack, range.rc_min, range.rc_max);
      }
    }
    std::vector<double> caps = nn_cap;
    if (last) std::fill(caps.begin(), caps.end(), 1.0);
    ++gi.attempts;
    if (auto alpha = attempt(layout, flows, ec, rc, caps)) return alpha;
    slack *= 2.5;
  }
  // Phase 2: the strict Table-II polytope is empty for this layout (typical
  // for label mixes from partial racks). Widen the EC and RC upper bounds in
  // small steps until feasibility is restored; the relaxation amount is the
  // minimum multiple of kRelaxationStep that works.
  const std::vector<double> caps(nn * nn, 1.0);
  for (std::size_t step = 1; step <= kMaxRelaxationSteps; ++step) {
    const double widen = kRelaxationStep * static_cast<double>(step);
    std::vector<Interval> ec(nn), rc(nn);
    for (std::size_t j = 0; j < nn; ++j) {
      const EcRcRange range = table2_range(layout.nodes[j].label);
      ec[j] = {range.ec_min, std::min(1.0, range.ec_max + widen)};
      rc[j] = {range.rc_min, std::min(1.0, range.rc_max + widen)};
    }
    ++gi.attempts;
    if (auto alpha = attempt(layout, flows, ec, rc, caps)) {
      gi.range_relaxation = widen;
      return alpha;
    }
  }
  return std::nullopt;
}

AlphaCheckResult verify_cross_interference(const solver::Matrix& alpha,
                                           const dc::Layout& layout,
                                           const std::vector<double>& flows,
                                           double range_tolerance) {
  const std::size_t nc = layout.num_cracs;
  const std::size_t nn = layout.nodes.size();
  const std::size_t n = nc + nn;
  AlphaCheckResult out;
  if (alpha.rows() != n || alpha.cols() != n || flows.size() != n) return out;

  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += alpha(i, j);
    out.max_outflow_error = std::max(out.max_outflow_error, std::fabs(row_sum - 1.0));
  }
  for (std::size_t j = 0; j < n; ++j) {
    double inflow = 0.0;
    for (std::size_t i = 0; i < n; ++i) inflow += alpha(i, j) * flows[i];
    out.max_flow_balance_error =
        std::max(out.max_flow_balance_error, std::fabs(inflow - flows[j]) / flows[j]);
  }
  for (std::size_t jn = 0; jn < nn; ++jn) {
    const EcRcRange range = table2_range(layout.nodes[jn].label);
    double ec = 0.0;
    for (std::size_t c = 0; c < nc; ++c) ec += alpha(nc + jn, c);
    out.max_ec_violation =
        std::max(out.max_ec_violation,
                 std::max(range.ec_min - ec, ec - range.ec_max - range_tolerance));
    double rc_flow = 0.0;
    for (std::size_t in = 0; in < nn; ++in) rc_flow += alpha(nc + in, nc + jn) * flows[nc + in];
    const double rc = rc_flow / flows[nc + jn];
    out.max_rc_violation =
        std::max(out.max_rc_violation,
                 std::max(range.rc_min - rc, rc - range.rc_max - range_tolerance));
  }
  out.max_ec_violation = std::max(out.max_ec_violation, 0.0);
  out.max_rc_violation = std::max(out.max_rc_violation, 0.0);
  out.ok = out.max_outflow_error < 1e-6 && out.max_flow_balance_error < 1e-6 &&
           out.max_ec_violation < 1e-6 && out.max_rc_violation < 1e-6;
  return out;
}

}  // namespace tapo::thermal
