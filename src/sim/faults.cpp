#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/check.h"
#include "util/rng.h"
#include "util/text.h"

namespace tapo::sim {

namespace {

constexpr char kHeader[] = "tapo-faults v1";

using util::text::at_line;
using util::text::parse_number;
using util::text::parse_unsigned;

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeFail:
      return "node_fail";
    case FaultKind::kNodeRepair:
      return "node_repair";
    case FaultKind::kCracDerate:
      return "crac_derate";
    case FaultKind::kCracRepair:
      return "crac_repair";
    case FaultKind::kPowerCap:
      return "power_cap";
  }
  return "unknown";
}

void FaultSchedule::sort_by_time() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
}

util::Status FaultSchedule::validate(const dc::DataCenter& dc) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    const std::string where = "event " + std::to_string(i) + " (" +
                              fault_kind_name(e.kind) + ")";
    if (!std::isfinite(e.time_s) || e.time_s < 0.0) {
      return util::Status::InvalidArgument(where + ": non-finite or negative time");
    }
    switch (e.kind) {
      case FaultKind::kNodeFail:
      case FaultKind::kNodeRepair:
        if (e.target >= dc.num_nodes()) {
          return util::Status::InvalidArgument(
              where + ": node index " + std::to_string(e.target) +
              " out of range (data center has " +
              std::to_string(dc.num_nodes()) + " nodes)");
        }
        break;
      case FaultKind::kCracDerate:
        if (!std::isfinite(e.value) || e.value < 0.0 || e.value > 1.0) {
          return util::Status::InvalidArgument(
              where + ": capacity fraction must be in [0, 1]");
        }
        [[fallthrough]];
      case FaultKind::kCracRepair:
        if (e.target >= dc.num_cracs()) {
          return util::Status::InvalidArgument(
              where + ": CRAC index " + std::to_string(e.target) +
              " out of range (data center has " +
              std::to_string(dc.num_cracs()) + " units)");
        }
        break;
      case FaultKind::kPowerCap:
        if (!std::isfinite(e.value) || e.value < 0.0) {
          return util::Status::InvalidArgument(
              where + ": power cap must be finite and non-negative");
        }
        break;
    }
  }
  return util::Status::Ok();
}

void save_fault_schedule(const FaultSchedule& schedule, std::ostream& os) {
  os << kHeader << "\n";
  for (const FaultEvent& e : schedule.events) {
    os << e.time_s << ' ' << fault_kind_name(e.kind);
    switch (e.kind) {
      case FaultKind::kNodeFail:
      case FaultKind::kNodeRepair:
      case FaultKind::kCracRepair:
        os << ' ' << e.target;
        break;
      case FaultKind::kCracDerate:
        os << ' ' << e.target << ' ' << e.value;
        break;
      case FaultKind::kPowerCap:
        os << ' ' << e.value;
        break;
    }
    os << "\n";
  }
}

util::StatusOr<FaultSchedule> load_fault_schedule(std::istream& is) {
  util::text::LineReader reader(is);
  if (util::Status s = reader.expect_header(kHeader); !s.ok()) return s;

  FaultSchedule schedule;
  for (util::text::Line line; reader.next(line);) {
    const std::size_t line_no = line.number;
    const std::vector<std::string>& tokens = line.tokens;
    if (tokens.size() < 2) {
      return at_line(line_no, "expected '<time> <kind> ...'");
    }
    FaultEvent e;
    if (!parse_number(tokens[0], e.time_s) || e.time_s < 0.0) {
      return at_line(line_no, "bad time '" + tokens[0] + "'");
    }
    const std::string& kind = tokens[1];
    if (kind == "node_fail" || kind == "node_repair") {
      e.kind = kind == "node_fail" ? FaultKind::kNodeFail
                                   : FaultKind::kNodeRepair;
      if (tokens.size() != 3 || !parse_unsigned(tokens[2], e.target)) {
        return at_line(line_no, kind + " needs one node index");
      }
    } else if (kind == "crac_derate") {
      e.kind = FaultKind::kCracDerate;
      if (tokens.size() != 4 || !parse_unsigned(tokens[2], e.target) ||
          !parse_number(tokens[3], e.value)) {
        return at_line(line_no,
                       "crac_derate needs '<crac> <capacity_fraction>'");
      }
      if (e.value < 0.0 || e.value > 1.0) {
        return at_line(line_no, "capacity fraction must be in [0, 1]");
      }
    } else if (kind == "crac_repair") {
      e.kind = FaultKind::kCracRepair;
      if (tokens.size() != 3 || !parse_unsigned(tokens[2], e.target)) {
        return at_line(line_no, "crac_repair needs one CRAC index");
      }
    } else if (kind == "power_cap") {
      e.kind = FaultKind::kPowerCap;
      if (tokens.size() != 3 || !parse_number(tokens[2], e.value)) {
        return at_line(line_no, "power_cap needs '<kw>'");
      }
      if (e.value < 0.0) {
        return at_line(line_no, "power cap must be finite and non-negative");
      }
    } else {
      return at_line(line_no, "unknown fault kind '" + kind + "'");
    }
    schedule.events.push_back(e);
  }
  schedule.sort_by_time();
  return schedule;
}

util::StatusOr<FaultSchedule> load_fault_schedule_file(const std::string& path) {
  return util::text::load_file(path, load_fault_schedule);
}

FaultSchedule generate_fault_schedule(const dc::DataCenter& dc,
                                      const FaultInjectionConfig& config) {
  FaultSchedule schedule;
  util::Rng rng(config.seed);
  util::Rng node_rng = rng.fork(1);
  util::Rng crac_rng = rng.fork(2);
  util::Rng cap_rng = rng.fork(3);

  // Draw failure targets without replacement (wrapping when more failures
  // than nodes are requested, which only makes sense with repairs enabled).
  const std::vector<std::size_t> node_order = node_rng.permutation(dc.num_nodes());
  for (std::size_t i = 0; i < config.node_failures; ++i) {
    FaultEvent fail;
    fail.kind = FaultKind::kNodeFail;
    fail.target = node_order[i % node_order.size()];
    fail.time_s = node_rng.uniform(0.0, config.horizon_s);
    schedule.events.push_back(fail);
    if (config.node_repair_after_s > 0.0) {
      FaultEvent repair = fail;
      repair.kind = FaultKind::kNodeRepair;
      repair.time_s = fail.time_s + config.node_repair_after_s;
      schedule.events.push_back(repair);
    }
  }

  const std::vector<std::size_t> crac_order = crac_rng.permutation(dc.num_cracs());
  for (std::size_t i = 0; i < config.crac_derates; ++i) {
    FaultEvent derate;
    derate.kind = FaultKind::kCracDerate;
    derate.target = crac_order[i % crac_order.size()];
    derate.value = config.crac_capacity_fraction;
    derate.time_s = crac_rng.uniform(0.0, config.horizon_s);
    schedule.events.push_back(derate);
    if (config.crac_repair_after_s > 0.0) {
      FaultEvent repair;
      repair.kind = FaultKind::kCracRepair;
      repair.target = derate.target;
      repair.time_s = derate.time_s + config.crac_repair_after_s;
      schedule.events.push_back(repair);
    }
  }

  if (config.power_cap_fraction < 1.0) {
    FaultEvent cap;
    cap.kind = FaultKind::kPowerCap;
    cap.value = dc.p_const_kw * std::max(0.0, config.power_cap_fraction);
    cap.time_s = cap_rng.uniform(0.0, config.horizon_s);
    schedule.events.push_back(cap);
  }

  schedule.sort_by_time();
  return schedule;
}

void apply_fault(dc::DataCenter& dc, const FaultEvent& event,
                 double tcrac_min_c, double tcrac_max_c) {
  switch (event.kind) {
    case FaultKind::kNodeFail:
      dc.set_node_failed(event.target, true);
      break;
    case FaultKind::kNodeRepair:
      dc.set_node_failed(event.target, false);
      break;
    case FaultKind::kCracDerate: {
      // Capacity fraction f -> the coldest supply air the unit can still
      // hold; f = 1 restores the healthy range, f = 0 pins it at tmax.
      const double min_c =
          tcrac_max_c - event.value * (tcrac_max_c - tcrac_min_c);
      dc.set_crac_min_outlet(event.target, min_c);
      break;
    }
    case FaultKind::kCracRepair:
      dc.set_crac_min_outlet(event.target, tcrac_min_c);
      break;
    case FaultKind::kPowerCap:
      dc.p_const_kw = event.value;
      break;
  }
}

}  // namespace tapo::sim
