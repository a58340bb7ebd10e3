// Fault injection (robustness extension).
//
// The paper's model assumes a fixed machine park and power budget for the
// lifetime of a run. Real data centers lose nodes, lose CRAC capacity and
// get their utility feed curtailed mid-run. This module defines a
// deterministic, seed-driven schedule of such faults and the mapping from a
// fault onto the DataCenter's degraded-mode state:
//
//   * node_fail / node_repair — the node draws no power at all and its cores
//     are forced off (airflow is preserved: fans keep spinning, so the heat
//     recirculation model stays valid);
//   * crac_derate / crac_repair — a derated unit can no longer hold cold
//     supply air, modeled as a raised minimum outlet setpoint: with capacity
//     fraction f remaining, min outlet = tmax - f * (tmax - tmin), so f = 0
//     pins the unit at the top of the setpoint range;
//   * power_cap — Pconst steps to a new value (typically down).
//
// Schedules are either written by hand / loaded from the "tapo-faults v1"
// text format, or generated from a FaultInjectionConfig — the same seed
// always produces the same schedule. Injection itself happens in
// simulate_with_faults (sim/des.h), which turns each FaultEvent into a
// first-class DES event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dc/datacenter.h"
#include "util/status.h"

namespace tapo::sim {

enum class FaultKind {
  kNodeFail,    // target = node index
  kNodeRepair,  // target = node index
  kCracDerate,  // target = CRAC index, value = capacity fraction left [0, 1]
  kCracRepair,  // target = CRAC index
  kPowerCap,    // value = new Pconst in kW
};

const char* fault_kind_name(FaultKind kind);

struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kNodeFail;
  std::size_t target = 0;  // node or CRAC index; unused for kPowerCap
  double value = 0.0;      // kCracDerate / kPowerCap payload; unused otherwise
};

struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  // Stable sort by injection time; ties keep file/generation order.
  void sort_by_time();
  // Index ranges, payload ranges and time finiteness against a data center.
  util::Status validate(const dc::DataCenter& dc) const;
};

// Text format "tapo-faults v1": one event per line after the header,
//   <time_s> node_fail <node>
//   <time_s> node_repair <node>
//   <time_s> crac_derate <crac> <capacity_fraction>
//   <time_s> crac_repair <crac>
//   <time_s> power_cap <kw>
// Tokens, numbers, indices, comments and CRLF follow the shared lexical
// rules (util/text.h, docs/SCENARIOS.md "Lexical rules"). Parse errors carry
// the offending line number.
void save_fault_schedule(const FaultSchedule& schedule, std::ostream& os);
util::StatusOr<FaultSchedule> load_fault_schedule(std::istream& is);
util::StatusOr<FaultSchedule> load_fault_schedule_file(const std::string& path);

// Seed-driven scenario generator: the same (dc, config) pair always yields
// the same schedule. Targets are drawn without replacement where possible.
struct FaultInjectionConfig {
  std::uint64_t seed = 1;
  double horizon_s = 100.0;  // fault times drawn uniformly in (0, horizon)
  std::size_t node_failures = 1;
  double node_repair_after_s = 0.0;  // > 0 schedules a repair per failure
  std::size_t crac_derates = 0;
  double crac_capacity_fraction = 0.5;
  double crac_repair_after_s = 0.0;
  // < 1 inserts one power_cap event stepping Pconst to this fraction of the
  // data center's configured budget.
  double power_cap_fraction = 1.0;
};

FaultSchedule generate_fault_schedule(const dc::DataCenter& dc,
                                      const FaultInjectionConfig& config);

// Applies one event to the degraded-mode state. The tcrac range maps a
// derate fraction onto the unit's raised minimum outlet (see file comment);
// repairs restore the healthy minimum. Infrastructure mutation only — the
// caller owns killing in-flight work and re-planning.
void apply_fault(dc::DataCenter& dc, const FaultEvent& event,
                 double tcrac_min_c, double tcrac_max_c);

}  // namespace tapo::sim
