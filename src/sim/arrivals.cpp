#include "sim/arrivals.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace tapo::sim {

namespace {

constexpr char kHeader[] = "tapo-traces v1";
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.14159265358979323846;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool parse_double(const std::string& token, double* out) {
  const char* begin = token.c_str();
  char* end = nullptr;
  *out = std::strtod(begin, &end);
  return end == begin + token.size() && token.size() > 0;
}

bool parse_index(const std::string& token, std::size_t* out) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end != begin + token.size() || token.empty() || v < 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

util::Status line_error(std::size_t line, const std::string& msg) {
  return util::Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                       msg);
}

// Index of the segment in force at time t (segments validated: first start
// 0, strictly increasing).
std::size_t segment_at(const std::vector<RateSegment>& segs, double t) {
  std::size_t idx = 0;
  while (idx + 1 < segs.size() && segs[idx + 1].start_s <= t) ++idx;
  return idx;
}

}  // namespace

util::Status RateTrace::validate() const {
  if (per_type.empty()) {
    return util::Status::InvalidArgument("trace has no task types");
  }
  for (std::size_t i = 0; i < per_type.size(); ++i) {
    const std::string where = "trace type " + std::to_string(i);
    const auto& segs = per_type[i];
    if (segs.empty()) {
      return util::Status::InvalidArgument(where + ": no segments");
    }
    if (segs.front().start_s != 0.0) {
      return util::Status::InvalidArgument(
          where + ": first segment must start at 0");
    }
    for (std::size_t j = 0; j < segs.size(); ++j) {
      if (!std::isfinite(segs[j].start_s) || segs[j].start_s < 0.0) {
        return util::Status::InvalidArgument(
            where + " segment " + std::to_string(j) +
            ": start must be finite and non-negative");
      }
      if (!std::isfinite(segs[j].rate) || segs[j].rate < 0.0) {
        return util::Status::InvalidArgument(
            where + " segment " + std::to_string(j) +
            ": rate must be finite and non-negative");
      }
      if (j > 0 && segs[j].start_s <= segs[j - 1].start_s) {
        return util::Status::InvalidArgument(
            where + " segment " + std::to_string(j) +
            ": starts must strictly increase");
      }
    }
  }
  return util::Status::Ok();
}

double RateTrace::rate_at(std::size_t type, double t) const {
  TAPO_CHECK(type < per_type.size());
  const auto& segs = per_type[type];
  TAPO_CHECK(!segs.empty());
  return segs[segment_at(segs, std::max(t, 0.0))].rate;
}

double RateTrace::peak_rate(std::size_t type) const {
  TAPO_CHECK(type < per_type.size());
  double peak = 0.0;
  for (const RateSegment& s : per_type[type]) peak = std::max(peak, s.rate);
  return peak;
}

bool operator==(const RateTrace& a, const RateTrace& b) {
  if (a.per_type.size() != b.per_type.size()) return false;
  for (std::size_t i = 0; i < a.per_type.size(); ++i) {
    if (a.per_type[i].size() != b.per_type[i].size()) return false;
    for (std::size_t j = 0; j < a.per_type[i].size(); ++j) {
      if (a.per_type[i][j].start_s != b.per_type[i][j].start_s ||
          a.per_type[i][j].rate != b.per_type[i][j].rate) {
        return false;
      }
    }
  }
  return true;
}

void save_rate_trace(const RateTrace& trace, std::ostream& os) {
  os << kHeader << "\n";
  os << "types " << trace.per_type.size() << "\n";
  for (std::size_t i = 0; i < trace.per_type.size(); ++i) {
    for (const RateSegment& s : trace.per_type[i]) {
      os << "seg " << i << ' ' << fmt_double(s.start_s) << ' '
         << fmt_double(s.rate) << "\n";
    }
  }
  os << "end\n";
}

std::string serialize_rate_trace(const RateTrace& trace) {
  std::ostringstream os;
  save_rate_trace(trace, os);
  return os.str();
}

util::StatusOr<RateTrace> load_rate_trace(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  // Blank lines and comments are ignored everywhere, including before the
  // header line.
  bool have_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (line != kHeader) {
      return line_error(line_no, "expected header '" + std::string(kHeader) +
                                     "', got '" + line + "'");
    }
    have_header = true;
    break;
  }
  if (!have_header) {
    return util::Status::InvalidArgument("empty trace file");
  }

  RateTrace trace;
  bool have_types = false;
  bool have_end = false;
  std::size_t current = 0;  // segments must arrive grouped by ascending type
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string token;
    while (ls >> token) tokens.push_back(token);
    if (tokens.empty() || tokens.front()[0] == '#') continue;
    if (have_end) {
      return line_error(line_no, "trailing content after 'end'");
    }

    if (tokens.front() == "types") {
      if (have_types) return line_error(line_no, "duplicate 'types' line");
      std::size_t t = 0;
      if (tokens.size() != 2 || !parse_index(tokens[1], &t) || t == 0) {
        return line_error(line_no, "'types' needs one positive count");
      }
      trace.per_type.assign(t, {});
      have_types = true;
    } else if (tokens.front() == "seg") {
      if (!have_types) {
        return line_error(line_no, "'seg' before the 'types' line");
      }
      std::size_t type = 0;
      RateSegment seg;
      if (tokens.size() != 4 || !parse_index(tokens[1], &type) ||
          !parse_double(tokens[2], &seg.start_s) ||
          !parse_double(tokens[3], &seg.rate)) {
        return line_error(line_no, "expected 'seg <type> <start_s> <rate>'");
      }
      if (type >= trace.per_type.size()) {
        return line_error(line_no, "type index " + std::to_string(type) +
                                       " out of range (trace has " +
                                       std::to_string(trace.per_type.size()) +
                                       " types)");
      }
      if (type < current) {
        return line_error(line_no, "segments must be grouped by ascending type");
      }
      current = type;
      trace.per_type[type].push_back(seg);
    } else if (tokens.front() == "end") {
      if (tokens.size() != 1) return line_error(line_no, "junk after 'end'");
      have_end = true;
    } else {
      return line_error(line_no, "unknown directive '" + tokens.front() + "'");
    }
  }
  if (!have_end) {
    return util::Status::InvalidArgument("missing 'end' terminator");
  }
  if (util::Status s = trace.validate(); !s.ok()) return s;
  return trace;
}

util::StatusOr<RateTrace> parse_rate_trace(const std::string& text) {
  std::istringstream is(text);
  return load_rate_trace(is);
}

util::StatusOr<RateTrace> load_rate_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return util::Status::NotFound("cannot open '" + path + "'");
  }
  util::StatusOr<RateTrace> loaded = load_rate_trace(is);
  if (!loaded.ok()) return loaded.status().with_context(path);
  return loaded;
}

bool save_rate_trace_file(const RateTrace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  save_rate_trace(trace, os);
  return os.good();
}

util::Status RateTraceGenConfig::validate() const {
  if (!std::isfinite(horizon_s) || horizon_s <= 0.0) {
    return util::Status::InvalidArgument(
        "trace horizon must be positive and finite");
  }
  if (segments < 1) {
    return util::Status::InvalidArgument("trace needs at least one segment");
  }
  if (!std::isfinite(amplitude) || amplitude < 0.0 || amplitude > 1.0) {
    return util::Status::InvalidArgument(
        "diurnal amplitude must be in [0, 1]");
  }
  if (!std::isfinite(magnitude) || magnitude < 1.0) {
    return util::Status::InvalidArgument(
        "flash/burst magnitude must be finite and >= 1");
  }
  if (!std::isfinite(duration_s) || duration_s <= 0.0) {
    return util::Status::InvalidArgument(
        "flash/burst duration must be positive and finite");
  }
  // Any negative onset draws it from the seed; NaN fails every comparison,
  // so it must be rejected by name.
  if (std::isnan(start_s)) {
    return util::Status::InvalidArgument("flash/burst onset must be a number");
  }
  if (start_s >= horizon_s) {
    return util::Status::InvalidArgument(
        "flash/burst onset must fall inside the horizon");
  }
  return util::Status::Ok();
}

RateTrace generate_rate_trace(const std::vector<dc::TaskType>& task_types,
                              const RateTraceGenConfig& config) {
  TAPO_CHECK(config.validate().ok());
  util::Rng rng(config.seed);
  RateTrace trace;
  trace.per_type.resize(task_types.size());

  // Shared onset: a flash crowd / burst hits the whole service at once.
  const double onset = config.start_s >= 0.0
                           ? config.start_s
                           : rng.uniform(0.1 * config.horizon_s,
                                         0.6 * config.horizon_s);

  for (std::size_t i = 0; i < task_types.size(); ++i) {
    util::Rng stream = rng.fork(i + 1);
    const double base = task_types[i].arrival_rate;
    auto& segs = trace.per_type[i];
    switch (config.kind) {
      case RateTraceGenConfig::Kind::kDiurnal: {
        // One full period over the horizon, per-type phase jitter so the
        // types do not peak in lockstep.
        const double phase = stream.uniform(0.0, 2.0 * kPi);
        for (std::size_t j = 0; j < config.segments; ++j) {
          const double t = config.horizon_s * static_cast<double>(j) /
                           static_cast<double>(config.segments);
          // Rate held over the segment = curve value at the segment midpoint.
          const double mid = t + 0.5 * config.horizon_s /
                                      static_cast<double>(config.segments);
          const double mult =
              1.0 + config.amplitude *
                        std::sin(2.0 * kPi * mid / config.horizon_s + phase);
          segs.push_back({t, base * std::max(mult, 0.0)});
        }
        break;
      }
      case RateTraceGenConfig::Kind::kFlashCrowd: {
        const double width = std::min(config.duration_s,
                                      config.horizon_s - onset);
        if (onset > 0.0) segs.push_back({0.0, base});
        segs.push_back({onset, base * config.magnitude});
        if (onset + width < config.horizon_s) {
          segs.push_back({onset + width, base});
        }
        break;
      }
      case RateTraceGenConfig::Kind::kDecayingBurst: {
        // Exponential decay from the peak back to base with the configured
        // half-life, discretized over ~5 half-lives.
        if (onset > 0.0) segs.push_back({0.0, base});
        const double span =
            std::min(5.0 * config.duration_s, config.horizon_s - onset);
        for (std::size_t j = 0; j < config.segments; ++j) {
          const double t =
              onset + span * static_cast<double>(j) /
                          static_cast<double>(config.segments);
          const double decay =
              std::exp2(-(t - onset) / config.duration_s);
          segs.push_back({t, base * (1.0 + (config.magnitude - 1.0) * decay)});
        }
        if (onset + span < config.horizon_s) {
          segs.push_back({onset + span, base});
        }
        break;
      }
    }
  }
  TAPO_CHECK(trace.validate().ok());
  return trace;
}

ArrivalProcess::ArrivalProcess(const std::vector<dc::TaskType>& task_types,
                               util::Rng rng, const RateTrace* trace)
    : trace_(trace) {
  rates_.reserve(task_types.size());
  streams_.reserve(task_types.size());
  for (std::size_t i = 0; i < task_types.size(); ++i) {
    TAPO_CHECK(task_types[i].arrival_rate >= 0.0);
    rates_.push_back(task_types[i].arrival_rate);
    streams_.push_back(rng.fork(i));
  }
  if (trace_) TAPO_CHECK(trace_->num_task_types() == task_types.size());
}

double ArrivalProcess::next_interarrival(std::size_t task_type) {
  TAPO_CHECK(task_type < rates_.size());
  // Zero-rate contract: no arrival, ever, and no randomness consumed.
  if (rates_[task_type] <= 0.0) return kInf;
  return streams_[task_type].exponential(rates_[task_type]);
}

double ArrivalProcess::next_arrival_after(std::size_t task_type, double now) {
  TAPO_CHECK(task_type < rates_.size());
  if (!trace_) {
    const double delay = next_interarrival(task_type);
    return std::isfinite(delay) ? now + delay : kInf;
  }
  // Per-segment rate swap: draw at the segment rate; a draw landing past the
  // segment boundary is forgotten at the boundary and redrawn at the next
  // segment's rate (exact by memorylessness). Zero-rate segments are skipped
  // without consuming randomness, which is what silences a type mid-trace.
  const auto& segs = trace_->per_type[task_type];
  double t = std::max(now, 0.0);
  std::size_t idx = segment_at(segs, t);
  while (true) {
    const double rate = segs[idx].rate;
    const bool last = idx + 1 == segs.size();
    if (rate <= 0.0) {
      if (last) return kInf;
      t = segs[idx + 1].start_s;
      ++idx;
      continue;
    }
    const double draw = t + streams_[task_type].exponential(rate);
    if (last || draw < segs[idx + 1].start_s) return draw;
    t = segs[idx + 1].start_s;
    ++idx;
  }
}

double ArrivalProcess::rate(std::size_t task_type) const {
  TAPO_CHECK(task_type < rates_.size());
  return rates_[task_type];
}

}  // namespace tapo::sim
