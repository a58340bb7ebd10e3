#include "scenario/io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "thermal/heatflow.h"
#include "util/text.h"

namespace tapo::scenario {

namespace {

using util::text::format_hex;

// DataCenter::finalize() keeps one entry per core; an archive asking for
// more than this many is rejected before anything is sized by it.
constexpr std::size_t kMaxCores = std::size_t{1} << 24;

}  // namespace

// Names may contain spaces, '%' or newlines; they are stored URL-style so
// every name round-trips and saving can never fail.
std::string encode_name(const std::string& name) {
  std::string out;
  for (char c : name) {
    switch (c) {
      case ' ': out += "%20"; break;
      case '%': out += "%25"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

std::string decode_name(const std::string& encoded) {
  std::string out;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (encoded.compare(i, 3, "%20") == 0) {
      out += ' ';
      i += 2;
    } else if (encoded.compare(i, 3, "%25") == 0) {
      out += '%';
      i += 2;
    } else if (encoded.compare(i, 3, "%0A") == 0) {
      out += '\n';
      i += 2;
    } else {
      out += encoded[i];
    }
  }
  return out;
}

namespace {

// save_data_center writes one record per line, so the archive is read a line
// at a time: a record's keyword and field count are checked before its
// fields are parsed left to right, and the first failure is kept, naming its
// line.
class Records {
 public:
  explicit Records(std::istream& is) : lines_(is) {}

  bool header(std::string_view header) {
    status_ = lines_.expect_header(header);
    return status_.ok();
  }

  // Reads the next line as `keyword` (none when empty) and `fields` fields.
  bool next(const std::string& keyword, std::size_t fields) {
    const std::string what = keyword.empty()
                                 ? std::to_string(fields) + " values"
                                 : "'" + keyword + "'";
    if (!lines_.next(line_)) {
      line_.number = lines_.line_number();
      return reject("expected " + what + ", got end of document");
    }
    field_ = keyword.empty() ? 0 : 1;
    if (field_ == 1 && line_.tokens[0] != keyword) {
      return reject("expected " + what + ", got '" + line_.tokens[0] + "'");
    }
    if (line_.tokens.size() != field_ + fields) {
      return reject("expected " + std::to_string(fields) + " values" +
                    (keyword.empty() ? "" : " after " + what) + ", got " +
                    std::to_string(line_.tokens.size() - field_));
    }
    return true;
  }

  // A whole fixed-shape record: `keyword`, then one field per argument.
  template <typename... Fields>
  bool record(const std::string& keyword, Fields&... fields) {
    return next(keyword, sizeof...(fields)) && (field(fields) && ...);
  }

  // The current record's next field, parsed by its type.
  bool field(std::string& out) {
    out = line_.tokens[field_++];
    return true;
  }
  bool field(double& out) {
    const std::string& token = line_.tokens[field_++];
    return util::text::parse_number(token, out) ||
           reject("malformed number '" + token + "'");
  }
  bool field(std::size_t& out) {
    const std::string& token = line_.tokens[field_++];
    return util::text::parse_unsigned(token, out) ||
           reject("expected a non-negative integer, got '" + token + "'");
  }

  // Keeps `message` against the current line unless a failure is already
  // kept; returns the kept failure.
  util::Status fail(const std::string& message) {
    reject(message);
    return status_;
  }
  const util::Status& status() const { return status_; }
  std::size_t line() const { return line_.number; }

 private:
  bool reject(const std::string& message) {
    if (status_.ok()) status_ = util::text::at_line(line_.number, message);
    return false;
  }

  util::text::LineReader lines_;
  util::text::Line line_;
  std::size_t field_ = 0;
  util::Status status_;
};

}  // namespace

void save_data_center(const dc::DataCenter& dc, std::ostream& os) {
  os << "tapo-datacenter v1\n";

  os << "node_types " << dc.node_types.size() << "\n";
  for (const auto& spec : dc.node_types) {
    os << "node_type " << encode_name(spec.name()) << " "
       << format_hex(spec.base_power_kw()) << " " << spec.cores_per_node() << " "
       << format_hex(spec.p0_power_kw()) << " "
       << format_hex(spec.static_fraction()) << " "
       << format_hex(spec.airflow_m3s()) << " " << spec.num_active_pstates() << "\n";
    for (std::size_t k = 0; k < spec.num_active_pstates(); ++k) {
      const auto& s = spec.power_model().state(k);
      os << "pstate " << format_hex(s.freq_mhz) << " " << format_hex(s.voltage)
         << "\n";
    }
  }

  os << "nodes " << dc.num_nodes() << "\n";
  for (const auto& node : dc.nodes) os << node.type << " ";
  os << "\n";

  os << "cracs " << dc.num_cracs() << "\n";
  for (const auto& crac : dc.cracs) {
    os << format_hex(crac.flow_m3s) << " " << format_hex(crac.cop_a) << " "
       << format_hex(crac.cop_b) << " " << format_hex(crac.cop_c) << "\n";
  }

  os << "layout " << dc.layout.num_cracs << " " << dc.layout.nodes.size() << "\n";
  for (const auto& p : dc.layout.nodes) {
    os << p.rack << " " << p.slot << " " << static_cast<int>(p.label) << " "
       << p.hot_aisle << "\n";
  }
  for (std::size_t a = 0; a < dc.layout.num_cracs; ++a) {
    for (std::size_t c = 0; c < dc.layout.num_cracs; ++c) {
      os << format_hex(dc.layout.hot_aisle_to_crac(a, c)) << " ";
    }
    os << "\n";
  }

  os << "task_types " << dc.task_types.size() << "\n";
  for (const auto& task : dc.task_types) {
    os << encode_name(task.name.empty() ? "-" : task.name) << " "
       << format_hex(task.reward) << " " << format_hex(task.relative_deadline)
       << " " << format_hex(task.arrival_rate) << "\n";
  }

  os << "ecs " << dc.ecs.num_task_types() << " " << dc.ecs.num_node_types()
     << " " << dc.ecs.num_states() << "\n";
  for (std::size_t i = 0; i < dc.ecs.num_task_types(); ++i) {
    for (std::size_t j = 0; j < dc.ecs.num_node_types(); ++j) {
      for (std::size_t k = 0; k < dc.ecs.num_states(); ++k) {
        os << format_hex(dc.ecs.ecs(i, j, k)) << " ";
      }
      os << "\n";
    }
  }

  os << "alpha " << dc.alpha.rows() << "\n";
  for (std::size_t i = 0; i < dc.alpha.rows(); ++i) {
    for (std::size_t j = 0; j < dc.alpha.cols(); ++j) {
      os << format_hex(dc.alpha(i, j)) << " ";
    }
    os << "\n";
  }

  os << "limits " << format_hex(dc.redline_node_c) << " "
     << format_hex(dc.redline_crac_c) << " " << format_hex(dc.p_const_kw) << "\n";
  os << "end\n";
}

util::StatusOr<dc::DataCenter> load_data_center(std::istream& is) {
  Records r(is);
  dc::DataCenter dc;
  if (!r.header("tapo-datacenter v1")) return r.status();

  // Every count is checked against the fields on its line or against sizes
  // already read before anything is sized by it, and everything the dc::
  // constructors would TAPO_CHECK is checked first, so a malformed archive
  // is a Status, never an abort.
  std::size_t count = 0;
  if (!r.record("node_types", count)) return r.status();
  for (std::size_t t = 0; t < count; ++t) {
    std::string name;
    double base = 0, p0 = 0, static_fraction = 0, flow = 0;
    std::size_t cores = 0, states = 0;
    if (!r.record("node_type", name, base, cores, p0, static_fraction, flow,
                  states)) {
      return r.status();
    }
    if (states == 0 || cores == 0 || p0 <= 0 || flow <= 0 || base < 0 ||
        !(static_fraction >= 0.0 && static_fraction < 1.0)) {
      return r.fail("invalid node type parameters for '" + name + "'");
    }
    std::vector<dc::PStateSpec> pstates;
    for (std::size_t k = 0; k < states; ++k) {
      dc::PStateSpec& s = pstates.emplace_back();
      if (!r.record("pstate", s.freq_mhz, s.voltage)) return r.status();
      if (!(s.freq_mhz > 0.0) || !(s.voltage > 0.0)) {
        return r.fail("invalid P-state parameters for '" + name + "'");
      }
    }
    dc.node_types.emplace_back(decode_name(name), base, cores, p0,
                               static_fraction, std::move(pstates), flow);
  }

  if (!r.record("nodes", count)) return r.status();
  if (count == 0) return r.fail("a data center needs at least one node");
  if (!r.next("", count)) return r.status();
  dc.nodes.resize(count);
  std::size_t total_cores = 0;
  for (auto& node : dc.nodes) {
    if (!r.field(node.type)) return r.status();
    if (node.type >= dc.node_types.size()) {
      return r.fail("node references unknown type " +
                    std::to_string(node.type) + " (have " +
                    std::to_string(dc.node_types.size()) + ")");
    }
    const std::size_t cores = dc.node_types[node.type].cores_per_node();
    if (cores > kMaxCores - total_cores) {
      return r.fail("more than " + std::to_string(kMaxCores) + " cores");
    }
    total_cores += cores;
  }

  if (!r.record("cracs", count)) return r.status();
  if (count == 0) return r.fail("a data center needs at least one CRAC");
  for (std::size_t c = 0; c < count; ++c) {
    dc::CracSpec& crac = dc.cracs.emplace_back();
    if (!r.record("", crac.flow_m3s, crac.cop_a, crac.cop_b, crac.cop_c)) {
      return r.status();
    }
    if (!(crac.flow_m3s > 0)) return r.fail("CRAC flow must be positive");
  }

  std::size_t layout_cracs = 0, layout_nodes = 0;
  if (!r.record("layout", layout_cracs, layout_nodes)) return r.status();
  if (layout_cracs != dc.cracs.size() || layout_nodes != dc.nodes.size()) {
    return r.fail("layout size does not match the CRAC and node counts");
  }
  dc.layout.num_cracs = layout_cracs;
  dc.layout.num_hot_aisles = layout_cracs;
  dc.layout.nodes.resize(layout_nodes);
  for (auto& p : dc.layout.nodes) {
    std::size_t label = 0;
    if (!r.record("", p.rack, p.slot, label, p.hot_aisle)) return r.status();
    if (label > 4 || p.hot_aisle >= layout_cracs) {
      return r.fail("invalid node placement");
    }
    p.label = static_cast<dc::RackLabel>(label);
  }
  dc.layout.hot_aisle_to_crac = solver::Matrix(layout_cracs, layout_cracs);
  for (std::size_t a = 0; a < layout_cracs; ++a) {
    if (!r.next("", layout_cracs)) return r.status();
    for (std::size_t c = 0; c < layout_cracs; ++c) {
      if (!r.field(dc.layout.hot_aisle_to_crac(a, c))) return r.status();
    }
  }

  if (!r.record("task_types", count)) return r.status();
  for (std::size_t i = 0; i < count; ++i) {
    dc::TaskType& task = dc.task_types.emplace_back();
    std::string name;
    if (!r.record("", name, task.reward, task.relative_deadline,
                  task.arrival_rate)) {
      return r.status();
    }
    if (!(task.relative_deadline > 0) || task.arrival_rate < 0) {
      return r.fail("invalid task type parameters for '" + name + "'");
    }
    task.name = name == "-" ? std::string() : decode_name(name);
  }

  // One ECS row per (task type, node type), one value per P-state plus off.
  std::size_t et = 0, ej = 0, ek = 0, states = 0;
  if (!r.record("ecs", et, ej, ek)) return r.status();
  for (const auto& spec : dc.node_types) {
    states = std::max(states, spec.num_pstates_with_off());
  }
  if (et == 0 || et != dc.task_types.size() || ej != dc.node_types.size() ||
      ek != states) {
    return r.fail("invalid ecs dimensions (want " +
                  std::to_string(dc.task_types.size()) + " " +
                  std::to_string(dc.node_types.size()) + " " +
                  std::to_string(states) + ")");
  }
  dc.ecs = dc::EcsTable(et, ej, ek);
  for (std::size_t i = 0; i < et; ++i) {
    for (std::size_t j = 0; j < ej; ++j) {
      if (!r.next("", ek)) return r.status();
      for (std::size_t k = 0; k < ek; ++k) {
        double v = 0;
        if (!r.field(v)) return r.status();
        if (v < 0 || (k + 1 == ek && v != 0.0)) {
          return r.fail("invalid ecs value");
        }
        dc.ecs.set_ecs(i, j, k, v);
      }
    }
  }

  std::size_t alpha_n = 0;
  if (!r.record("alpha", alpha_n)) return r.status();
  const std::size_t alpha_line = r.line();
  if (alpha_n != dc.num_entities()) {
    return r.fail("alpha size " + std::to_string(alpha_n) +
                  " does not match CRACs + nodes (" +
                  std::to_string(dc.num_entities()) + ")");
  }
  dc.alpha = solver::Matrix(alpha_n, alpha_n);
  for (std::size_t i = 0; i < alpha_n; ++i) {
    if (!r.next("", alpha_n)) return r.status();
    for (std::size_t j = 0; j < alpha_n; ++j) {
      if (!r.field(dc.alpha(i, j))) return r.status();
    }
  }

  if (!r.record("limits", dc.redline_node_c, dc.redline_crac_c,
                dc.p_const_kw)) {
    return r.status();
  }
  if (dc.p_const_kw < 0) return r.fail("invalid limits");
  if (!r.record("end")) return r.status();

  dc.finalize();
  // The thermal model's own rule for alpha, reported instead of aborting.
  if (const auto g = thermal::inlet_mixing(dc); !g.ok()) {
    return util::text::at_line(alpha_line, g.status().message());
  }
  return dc;
}

bool save_data_center_file(const dc::DataCenter& dc, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  save_data_center(dc, os);
  return static_cast<bool>(os);
}

util::StatusOr<dc::DataCenter> load_data_center_file(
    const std::string& path) {
  return util::text::load_file(path, load_data_center);
}

}  // namespace tapo::scenario
