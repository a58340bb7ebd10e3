#include "scenario/profile.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "scenario/io.h"
#include "util/rng.h"
#include "util/text.h"

namespace tapo::scenario {

namespace {

using util::text::at_line;
using util::text::format_double;

util::Status invalid(const std::string& message) {
  return util::Status::InvalidArgument(message);
}

}  // namespace

util::Status ScenarioProfile::validate() const {
  if (name.empty()) return invalid("profile needs a non-empty name");
  if (name.size() > 128) return invalid("name longer than 128 characters");
  if (nodes < 1 || nodes > 100000) {
    return invalid("nodes must be in [1, 100000]");
  }
  if (cracs < 1 || cracs > 10) return invalid("cracs must be in [1, 10]");
  if (task_types < 1 || task_types > 64) {
    return invalid("task_types must be in [1, 64]");
  }
  const auto unit_fraction = [&](double v, const char* field) {
    if (!std::isfinite(v) || v < 0.0 || v >= 1.0) {
      return invalid(std::string(field) + " must be in [0, 1)");
    }
    return util::Status::Ok();
  };
  if (auto s = unit_fraction(static_fraction, "static_fraction"); !s.ok()) return s;
  if (auto s = unit_fraction(v_ecs, "v_ecs"); !s.ok()) return s;
  if (auto s = unit_fraction(v_prop, "v_prop"); !s.ok()) return s;
  if (auto s = unit_fraction(v_arrival, "v_arrival"); !s.ok()) return s;
  // Interpolation factor between the park's Pmin and Pmax envelopes
  // (thermal::pconst_from_bounds), so [0, 1] exactly.
  if (!std::isfinite(pconst_factor) || pconst_factor < 0.0 ||
      pconst_factor > 1.0) {
    return invalid("pconst_factor must be in [0, 1]");
  }
  if (!std::isfinite(psi) || psi <= 0.0 || psi > 100.0) {
    return invalid("psi must be in (0, 100]");
  }
  if (!std::isfinite(redline_node_c) || redline_node_c <= 0.0 ||
      redline_node_c > 100.0 || !std::isfinite(redline_crac_c) ||
      redline_crac_c <= 0.0 || redline_crac_c > 100.0) {
    return invalid("redline temperatures must be in (0, 100]");
  }
  if (!node_mix.empty()) {
    const std::size_t types = ScenarioConfig{}.node_type_performance.size();
    if (node_mix.size() != types) {
      return invalid("node_mix needs one weight per Table-I node type (" +
                     std::to_string(types) + ")");
    }
    double sum = 0.0;
    for (double w : node_mix) {
      if (!std::isfinite(w) || w < 0.0) {
        return invalid("node_mix weights must be finite and non-negative");
      }
      sum += w;
    }
    if (!(sum > 0.0)) return invalid("node_mix weights must sum to > 0");
  }
  switch (arrival.kind) {
    case ArrivalOverlay::Kind::kNone:
      break;
    case ArrivalOverlay::Kind::kScale:
      if (!std::isfinite(arrival.scale) || arrival.scale <= 0.0 ||
          arrival.scale > 100.0) {
        return invalid("arrival scale must be in (0, 100]");
      }
      break;
    case ArrivalOverlay::Kind::kMmpp:
      if (!std::isfinite(arrival.burst_multiplier) ||
          arrival.burst_multiplier < 1.0 || arrival.burst_multiplier > 100.0) {
        return invalid("arrival mmpp multiplier must be in [1, 100]");
      }
      if (!std::isfinite(arrival.mean_phase_s) || arrival.mean_phase_s <= 0.0) {
        return invalid("arrival mmpp phase seconds must be > 0");
      }
      if (!std::isfinite(arrival.burst_duty) || arrival.burst_duty <= 0.0 ||
          arrival.burst_duty >= 1.0) {
        return invalid("arrival mmpp duty must be in (0, 1)");
      }
      break;
  }
  switch (trace.kind) {
    case TraceOverlay::Kind::kNone:
      break;
    case TraceOverlay::Kind::kDiurnal:
      if (!std::isfinite(trace.amplitude) || trace.amplitude < 0.0 ||
          trace.amplitude > 1.0) {
        return invalid("trace diurnal amplitude must be in [0, 1]");
      }
      if (trace.segments < 2 || trace.segments > 256) {
        return invalid("trace segments must be in [2, 256]");
      }
      break;
    case TraceOverlay::Kind::kFlash:
    case TraceOverlay::Kind::kBurst:
      if (!std::isfinite(trace.magnitude) || trace.magnitude < 1.0 ||
          trace.magnitude > 100.0) {
        return invalid("trace magnitude must be in [1, 100]");
      }
      if (!std::isfinite(trace.start_s) || trace.start_s < 0.0) {
        return invalid("trace start must be >= 0");
      }
      if (!std::isfinite(trace.duration_s) || trace.duration_s <= 0.0) {
        return invalid("trace duration must be > 0");
      }
      if (trace.kind == TraceOverlay::Kind::kBurst &&
          (trace.segments < 2 || trace.segments > 256)) {
        return invalid("trace segments must be in [2, 256]");
      }
      break;
  }
  if (trace.kind != TraceOverlay::Kind::kNone &&
      arrival.kind == ArrivalOverlay::Kind::kMmpp) {
    return invalid(
        "trace overlay conflicts with the mmpp arrival overlay (both would "
        "redefine the arrival process)");
  }
  if (replan) {
    if (!std::isfinite(replan->cadence_s) || replan->cadence_s <= 0.0) {
      return invalid("replan cadence must be > 0");
    }
    if (!std::isfinite(replan->tracking_threshold)) {
      return invalid("replan tracking threshold must be finite");
    }
  }
  if (faults) {
    const FaultStorm& f = *faults;
    if (!std::isfinite(f.horizon_s) || f.horizon_s <= 0.0) {
      return invalid("faults horizon must be > 0");
    }
    if (f.node_failures > nodes) {
      return invalid("faults node_failures exceeds the node count");
    }
    if (f.crac_derates > cracs) {
      return invalid("faults crac_derates exceeds the CRAC count");
    }
    if (!std::isfinite(f.node_repair_after_s) || f.node_repair_after_s < 0.0 ||
        !std::isfinite(f.crac_repair_after_s) || f.crac_repair_after_s < 0.0) {
      return invalid("faults repair delays must be >= 0");
    }
    if (!std::isfinite(f.crac_capacity_fraction) ||
        f.crac_capacity_fraction < 0.0 || f.crac_capacity_fraction > 1.0) {
      return invalid("faults capacity fraction must be in [0, 1]");
    }
    if (!std::isfinite(f.power_cap_fraction) || f.power_cap_fraction <= 0.0 ||
        f.power_cap_fraction > 1.0) {
      return invalid("faults power_cap fraction must be in (0, 1]");
    }
  }
  if (!std::isfinite(sim.duration_s) || sim.duration_s <= 0.0) {
    return invalid("sim duration must be > 0");
  }
  if (!std::isfinite(sim.warmup_s) || sim.warmup_s < 0.0 ||
      sim.warmup_s >= sim.duration_s) {
    return invalid("sim warmup must be in [0, duration)");
  }
  if (sim.samples < 2 || sim.samples > 4096) {
    return invalid("sim samples must be in [2, 4096]");
  }
  return util::Status::Ok();
}

ScenarioConfig ScenarioProfile::to_config() const {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_cracs = cracs;
  config.num_task_types = task_types;
  config.static_fraction = static_fraction;
  config.v_ecs = v_ecs;
  config.v_prop = v_prop;
  config.v_arrival = v_arrival;
  config.pconst_factor = pconst_factor;
  config.seed = seed;
  config.node_type_mix = node_mix;
  config.redline_node_c = redline_node_c;
  config.redline_crac_c = redline_crac_c;
  return config;
}

void save_profile(const ScenarioProfile& profile, std::ostream& os) {
  os << "tapo-scenarios v1\n";
  os << "name " << encode_name(profile.name) << "\n";
  os << "nodes " << profile.nodes << "\n";
  os << "cracs " << profile.cracs << "\n";
  os << "task_types " << profile.task_types << "\n";
  os << "seed " << profile.seed << "\n";
  os << "static_fraction " << format_double(profile.static_fraction) << "\n";
  os << "v_ecs " << format_double(profile.v_ecs) << "\n";
  os << "v_prop " << format_double(profile.v_prop) << "\n";
  os << "v_arrival " << format_double(profile.v_arrival) << "\n";
  os << "pconst_factor " << format_double(profile.pconst_factor) << "\n";
  if (!profile.node_mix.empty()) {
    os << "node_mix";
    for (double w : profile.node_mix) os << " " << format_double(w);
    os << "\n";
  }
  if (profile.redline_node_c != ScenarioProfile{}.redline_node_c ||
      profile.redline_crac_c != ScenarioProfile{}.redline_crac_c) {
    os << "redline " << format_double(profile.redline_node_c) << " "
       << format_double(profile.redline_crac_c) << "\n";
  }
  os << "psi " << format_double(profile.psi) << "\n";
  if (!profile.deadline_check) os << "deadline_check off\n";
  switch (profile.policy) {
    case ScenarioProfile::Policy::kMinAtcTc:
      break;  // default; omitted
    case ScenarioProfile::Policy::kEarliestFinish:
      os << "policy earliest\n";
      break;
    case ScenarioProfile::Policy::kRandom:
      os << "policy random\n";
      break;
  }
  switch (profile.arrival.kind) {
    case ArrivalOverlay::Kind::kNone:
      break;
    case ArrivalOverlay::Kind::kScale:
      os << "arrival scale " << format_double(profile.arrival.scale) << "\n";
      break;
    case ArrivalOverlay::Kind::kMmpp:
      os << "arrival mmpp " << format_double(profile.arrival.burst_multiplier)
         << " " << format_double(profile.arrival.mean_phase_s) << " "
         << format_double(profile.arrival.burst_duty) << "\n";
      break;
  }
  switch (profile.trace.kind) {
    case TraceOverlay::Kind::kNone:
      break;
    case TraceOverlay::Kind::kDiurnal:
      os << "trace diurnal " << format_double(profile.trace.amplitude) << " "
         << profile.trace.segments << "\n";
      break;
    case TraceOverlay::Kind::kFlash:
      os << "trace flash " << format_double(profile.trace.start_s) << " "
         << format_double(profile.trace.magnitude) << " "
         << format_double(profile.trace.duration_s) << "\n";
      break;
    case TraceOverlay::Kind::kBurst:
      os << "trace burst " << format_double(profile.trace.start_s) << " "
         << format_double(profile.trace.magnitude) << " "
         << format_double(profile.trace.duration_s) << " "
         << profile.trace.segments << "\n";
      break;
  }
  os << "sim " << format_double(profile.sim.duration_s) << " "
     << format_double(profile.sim.warmup_s) << " " << profile.sim.seed << " "
     << profile.sim.samples << "\n";
  if (profile.faults) {
    const FaultStorm& f = *profile.faults;
    os << "faults " << f.seed << " " << format_double(f.horizon_s) << " "
       << f.node_failures << " " << format_double(f.node_repair_after_s) << " "
       << f.crac_derates << " " << format_double(f.crac_capacity_fraction) << " "
       << format_double(f.crac_repair_after_s) << " "
       << format_double(f.power_cap_fraction) << "\n";
  }
  if (profile.replan) {
    os << "replan " << format_double(profile.replan->cadence_s) << " "
       << format_double(profile.replan->tracking_threshold) << " "
       << profile.replan->max_lp_iterations << "\n";
  }
  if (profile.expect_infeasible) os << "expect infeasible\n";
  os << "end\n";
}

std::string serialize_profile(const ScenarioProfile& profile) {
  std::ostringstream os;
  save_profile(profile, os);
  return os.str();
}

bool operator==(const ScenarioProfile& a, const ScenarioProfile& b) {
  return serialize_profile(a) == serialize_profile(b);
}

bool save_profile_file(const ScenarioProfile& profile, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  save_profile(profile, os);
  return static_cast<bool>(os);
}

util::StatusOr<ScenarioProfile> load_profile(std::istream& is) {
  std::vector<util::text::Line> lines;
  util::text::LineReader reader(is);
  for (util::text::Line line; reader.next(line);) lines.push_back(line);
  if (lines.empty()) return invalid("empty document (expected tapo-scenarios v1)");
  if (lines[0].tokens != std::vector<std::string>{"tapo-scenarios", "v1"}) {
    return at_line(lines[0].number, "expected header 'tapo-scenarios v1'");
  }

  ScenarioProfile profile;
  bool saw_name = false;
  bool saw_end = false;
  std::set<std::string> seen;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const util::text::Line& line = lines[i];
    const std::string& key = line.tokens[0];
    if (saw_end) {
      return at_line(line.number, "content after 'end'");
    }
    if (key == "end") {
      if (line.tokens.size() != 1) {
        return at_line(line.number, "'end' takes no value");
      }
      saw_end = true;
      continue;
    }
    if (!seen.insert(key).second) {
      return at_line(line.number, "duplicate key '" + key + "'");
    }
    const auto args = line.tokens.size() - 1;
    const auto need = [&](std::size_t n) {
      return args == n
                 ? util::Status::Ok()
                 : at_line(line.number, "'" + key + "' expects " +
                                            std::to_string(n) + " value" +
                                            (n == 1 ? "" : "s") + ", got " +
                                            std::to_string(args));
    };
    const auto get_double = [&](std::size_t idx, double& out) {
      if (!util::text::parse_number(line.tokens[idx], out)) {
        return at_line(line.number, "'" + key + "': malformed number '" +
                                        line.tokens[idx] + "'");
      }
      return util::Status::Ok();
    };
    const auto get_count = [&](std::size_t idx, auto& out) {
      if (!util::text::parse_unsigned(line.tokens[idx], out)) {
        return at_line(line.number, "'" + key +
                                        "': expected a non-negative integer, "
                                        "got '" + line.tokens[idx] + "'");
      }
      return util::Status::Ok();
    };
    util::Status s;
    if (key == "name") {
      if (s = need(1); !s.ok()) return s;
      profile.name = decode_name(line.tokens[1]);
      saw_name = true;
    } else if (key == "nodes") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_count(1, profile.nodes); !s.ok()) return s;
    } else if (key == "cracs") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_count(1, profile.cracs); !s.ok()) return s;
    } else if (key == "task_types") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_count(1, profile.task_types); !s.ok()) return s;
    } else if (key == "seed") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_count(1, profile.seed); !s.ok()) return s;
    } else if (key == "static_fraction") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.static_fraction); !s.ok()) return s;
    } else if (key == "v_ecs") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.v_ecs); !s.ok()) return s;
    } else if (key == "v_prop") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.v_prop); !s.ok()) return s;
    } else if (key == "v_arrival") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.v_arrival); !s.ok()) return s;
    } else if (key == "pconst_factor") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.pconst_factor); !s.ok()) return s;
    } else if (key == "node_mix") {
      if (args == 0) {
        return at_line(line.number, "'node_mix' expects weights");
      }
      profile.node_mix.resize(args);
      for (std::size_t k = 0; k < args; ++k) {
        if (s = get_double(k + 1, profile.node_mix[k]); !s.ok()) return s;
      }
    } else if (key == "redline") {
      if (s = need(2); !s.ok()) return s;
      if (s = get_double(1, profile.redline_node_c); !s.ok()) return s;
      if (s = get_double(2, profile.redline_crac_c); !s.ok()) return s;
    } else if (key == "psi") {
      if (s = need(1); !s.ok()) return s;
      if (s = get_double(1, profile.psi); !s.ok()) return s;
    } else if (key == "deadline_check") {
      if (s = need(1); !s.ok()) return s;
      if (line.tokens[1] == "on") {
        profile.deadline_check = true;
      } else if (line.tokens[1] == "off") {
        profile.deadline_check = false;
      } else {
        return at_line(line.number, "'deadline_check' must be on or off");
      }
    } else if (key == "policy") {
      if (s = need(1); !s.ok()) return s;
      if (line.tokens[1] == "minatc") {
        profile.policy = ScenarioProfile::Policy::kMinAtcTc;
      } else if (line.tokens[1] == "earliest") {
        profile.policy = ScenarioProfile::Policy::kEarliestFinish;
      } else if (line.tokens[1] == "random") {
        profile.policy = ScenarioProfile::Policy::kRandom;
      } else {
        return at_line(line.number,
                       "'policy' must be minatc, earliest, or random");
      }
    } else if (key == "arrival") {
      if (args == 0) {
        return at_line(line.number, "'arrival' expects scale|mmpp");
      }
      if (line.tokens[1] == "scale") {
        if (s = need(2); !s.ok()) return s;
        profile.arrival.kind = ArrivalOverlay::Kind::kScale;
        if (s = get_double(2, profile.arrival.scale); !s.ok()) return s;
      } else if (line.tokens[1] == "mmpp") {
        if (s = need(4); !s.ok()) return s;
        profile.arrival.kind = ArrivalOverlay::Kind::kMmpp;
        if (s = get_double(2, profile.arrival.burst_multiplier); !s.ok()) return s;
        if (s = get_double(3, profile.arrival.mean_phase_s); !s.ok()) return s;
        if (s = get_double(4, profile.arrival.burst_duty); !s.ok()) return s;
      } else {
        return at_line(line.number, "'arrival' must be scale or mmpp");
      }
    } else if (key == "trace") {
      if (args == 0) {
        return at_line(line.number, "'trace' expects diurnal|flash|burst");
      }
      if (line.tokens[1] == "diurnal") {
        if (s = need(3); !s.ok()) return s;
        profile.trace.kind = TraceOverlay::Kind::kDiurnal;
        if (s = get_double(2, profile.trace.amplitude); !s.ok()) return s;
        if (s = get_count(3, profile.trace.segments); !s.ok()) return s;
      } else if (line.tokens[1] == "flash") {
        if (s = need(4); !s.ok()) return s;
        profile.trace.kind = TraceOverlay::Kind::kFlash;
        if (s = get_double(2, profile.trace.start_s); !s.ok()) return s;
        if (s = get_double(3, profile.trace.magnitude); !s.ok()) return s;
        if (s = get_double(4, profile.trace.duration_s); !s.ok()) return s;
      } else if (line.tokens[1] == "burst") {
        if (s = need(5); !s.ok()) return s;
        profile.trace.kind = TraceOverlay::Kind::kBurst;
        if (s = get_double(2, profile.trace.start_s); !s.ok()) return s;
        if (s = get_double(3, profile.trace.magnitude); !s.ok()) return s;
        if (s = get_double(4, profile.trace.duration_s); !s.ok()) return s;
        if (s = get_count(5, profile.trace.segments); !s.ok()) return s;
      } else {
        return at_line(line.number,
                       "'trace' must be diurnal, flash, or burst");
      }
    } else if (key == "replan") {
      if (s = need(3); !s.ok()) return s;
      ReplanSection r;
      if (s = get_double(1, r.cadence_s); !s.ok()) return s;
      if (s = get_double(2, r.tracking_threshold); !s.ok()) return s;
      if (s = get_count(3, r.max_lp_iterations); !s.ok()) return s;
      profile.replan = r;
    } else if (key == "sim") {
      if (s = need(4); !s.ok()) return s;
      if (s = get_double(1, profile.sim.duration_s); !s.ok()) return s;
      if (s = get_double(2, profile.sim.warmup_s); !s.ok()) return s;
      if (s = get_count(3, profile.sim.seed); !s.ok()) return s;
      if (s = get_count(4, profile.sim.samples); !s.ok()) return s;
    } else if (key == "faults") {
      if (s = need(8); !s.ok()) return s;
      FaultStorm f;
      if (s = get_count(1, f.seed); !s.ok()) return s;
      if (s = get_double(2, f.horizon_s); !s.ok()) return s;
      if (s = get_count(3, f.node_failures); !s.ok()) return s;
      if (s = get_double(4, f.node_repair_after_s); !s.ok()) return s;
      if (s = get_count(5, f.crac_derates); !s.ok()) return s;
      if (s = get_double(6, f.crac_capacity_fraction); !s.ok()) return s;
      if (s = get_double(7, f.crac_repair_after_s); !s.ok()) return s;
      if (s = get_double(8, f.power_cap_fraction); !s.ok()) return s;
      profile.faults = f;
    } else if (key == "expect") {
      if (s = need(1); !s.ok()) return s;
      if (line.tokens[1] == "feasible") {
        profile.expect_infeasible = false;
      } else if (line.tokens[1] == "infeasible") {
        profile.expect_infeasible = true;
      } else {
        return at_line(line.number,
                       "'expect' must be feasible or infeasible");
      }
    } else {
      return at_line(line.number, "unknown key '" + key + "'");
    }
  }
  if (!saw_end) return at_line(lines.back().number, "missing 'end'");
  if (!saw_name) return invalid("missing required key 'name'");
  if (util::Status s = profile.validate(); !s.ok()) return s;
  return profile;
}

util::StatusOr<ScenarioProfile> parse_profile(const std::string& text) {
  std::istringstream is(text);
  return load_profile(is);
}

util::StatusOr<ScenarioProfile> load_profile_file(const std::string& path) {
  return util::text::load_file(path, load_profile);
}

util::StatusOr<std::vector<ScenarioProfile>> load_profile_dir(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return util::Status::NotFound("'" + dir + "' is not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tapo") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return util::Status::Internal("cannot list '" + dir + "': " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ScenarioProfile> profiles;
  std::map<std::string, std::string> name_to_file;
  for (const std::string& path : paths) {
    util::StatusOr<ScenarioProfile> loaded = load_profile_file(path);
    if (!loaded.ok()) return loaded.status();
    const auto [it, inserted] = name_to_file.emplace(loaded->name, path);
    if (!inserted) {
      return invalid("duplicate profile name '" + loaded->name + "' in " +
                     it->second + " and " + path);
    }
    profiles.push_back(std::move(*loaded));
  }
  return profiles;
}

// Bump when the soak runner's execution semantics change: the salt feeds the
// content hash, so a bump invalidates every cached report at once.
const char kProfileHashSalt[] = "tapo-scenarios-v1/runner-1";

std::uint64_t profile_hash(const ScenarioProfile& profile) {
  const std::string text = serialize_profile(profile);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(data[i]);
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(kProfileHashSalt, sizeof(kProfileHashSalt));  // includes the NUL fence
  mix(text.data(), text.size());
  return h;
}

std::vector<ScenarioProfile> generate_random_profiles(
    const ProfileGenConfig& config) {
  std::vector<ScenarioProfile> profiles;
  profiles.reserve(config.count);
  const util::Rng master(config.seed);
  for (std::size_t i = 0; i < config.count; ++i) {
    util::Rng rng = master.fork(i + 1);
    ScenarioProfile p;
    p.name = config.prefix + "-" + std::to_string(config.seed) + "-" +
             std::to_string(i);
    // Log-uniform node scale so small shapes are not drowned out by large
    // ones; floor at 8 so every CRAC count stays sensible.
    const std::size_t max_nodes = std::max<std::size_t>(config.max_nodes, 8);
    const double log_lo = std::log(8.0);
    const double log_hi = std::log(static_cast<double>(max_nodes));
    p.nodes = static_cast<std::size_t>(
        std::lround(std::exp(rng.uniform(log_lo, log_hi))));
    p.nodes = std::min(std::max<std::size_t>(p.nodes, 8), max_nodes);
    // CRAC count bounded by the node count: below ~6 nodes per CRAC the
    // Eq.-17 power bounds go infeasible (too little heat per CRAC to sit
    // inside its operating envelope), and these draws must stay feasible
    // unless tagged otherwise.
    const std::int64_t max_cracs =
        std::min<std::int64_t>(10, std::max<std::int64_t>(1, p.nodes / 6));
    p.cracs = static_cast<std::size_t>(rng.uniform_int(1, max_cracs));
    p.task_types = static_cast<std::size_t>(rng.uniform_int(2, 12));
    p.seed = rng.next_u64() % 1000000;
    // Corner-heavy draws: a third of profiles land on an extreme of each
    // knob rather than sampling only the comfortable middle.
    const auto corner = [&rng](double lo, double mid_lo, double mid_hi,
                               double hi) {
      const std::int64_t kind = rng.uniform_int(0, 2);
      if (kind == 0) return lo;
      if (kind == 1) return hi;
      return rng.uniform(mid_lo, mid_hi);
    };
    p.static_fraction = corner(0.05, 0.2, 0.4, 0.6);
    p.v_prop = corner(0.0, 0.05, 0.2, 0.45);
    p.v_ecs = rng.uniform(0.0, 0.3);
    p.v_arrival = rng.uniform(0.0, 0.5);
    p.pconst_factor = corner(0.15, 0.3, 0.7, 0.95);
    static const double kPsiCorners[] = {12.5, 25.0, 50.0, 100.0};
    p.psi = kPsiCorners[rng.uniform_int(0, 3)];
    if (rng.next_double() < 0.5) {
      const double w = rng.uniform(0.05, 0.95);
      p.node_mix = {w, 1.0 - w};
    }
    const double overlay = rng.next_double();
    if (overlay < 0.25) {
      p.arrival.kind = ArrivalOverlay::Kind::kScale;
      p.arrival.scale = rng.uniform(0.5, 2.0);
    } else if (overlay < 0.5) {
      p.arrival.kind = ArrivalOverlay::Kind::kMmpp;
      p.arrival.burst_multiplier = rng.uniform(2.0, 8.0);
      p.arrival.mean_phase_s = rng.uniform(5.0, 30.0);
      p.arrival.burst_duty = rng.uniform(0.1, 0.4);
    }
    if (rng.next_double() < 0.35) {
      FaultStorm f;
      f.seed = rng.next_u64() % 1000000;
      f.horizon_s = p.sim.duration_s;
      f.node_failures = static_cast<std::size_t>(
          rng.uniform_int(1, std::max<std::int64_t>(1, p.nodes / 10)));
      f.node_repair_after_s = rng.next_double() < 0.5 ? rng.uniform(5.0, 40.0) : 0.0;
      f.crac_derates = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(p.cracs / 2)));
      f.crac_capacity_fraction = rng.uniform(0.3, 0.9);
      f.power_cap_fraction = rng.next_double() < 0.4 ? rng.uniform(0.7, 0.95) : 1.0;
      p.faults = f;
    }
    // Trace shapes only where they do not collide with the mmpp overlay (the
    // two redefine the same arrival process; validate() rejects the pair).
    const double shape = rng.next_double();
    if (p.arrival.kind != ArrivalOverlay::Kind::kMmpp && shape < 0.4) {
      if (shape < 0.15) {
        p.trace.kind = TraceOverlay::Kind::kDiurnal;
        p.trace.amplitude = rng.uniform(0.2, 0.9);
        p.trace.segments = static_cast<std::size_t>(rng.uniform_int(8, 32));
      } else if (shape < 0.28) {
        p.trace.kind = TraceOverlay::Kind::kFlash;
        p.trace.start_s = rng.uniform(0.1, 0.5) * p.sim.duration_s;
        p.trace.magnitude = rng.uniform(2.0, 6.0);
        p.trace.duration_s = rng.uniform(10.0, 40.0);
      } else {
        p.trace.kind = TraceOverlay::Kind::kBurst;
        p.trace.start_s = rng.uniform(0.1, 0.5) * p.sim.duration_s;
        p.trace.magnitude = rng.uniform(2.0, 6.0);
        p.trace.duration_s = rng.uniform(5.0, 20.0);
        p.trace.segments = static_cast<std::size_t>(rng.uniform_int(4, 16));
      }
    }
    if (rng.next_double() < 0.3) {
      ReplanSection r;
      r.cadence_s = rng.uniform(10.0, 40.0);
      r.tracking_threshold =
          rng.next_double() < 0.3 ? 0.0 : rng.uniform(0.2, 0.8);
      p.replan = r;
    }
    profiles.push_back(std::move(p));
  }
  return profiles;
}

}  // namespace tapo::scenario
