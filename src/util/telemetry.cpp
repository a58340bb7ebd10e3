#include "util/telemetry.h"

#include <ostream>
#include <sstream>

#include "util/text.h"

namespace tapo::util::telemetry {

using text::json_number;
using text::json_string;

Registry::Registry(std::size_t max_events) : max_events_(max_events) {}

void Registry::count(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void Registry::gauge_set(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void Registry::gauge_max(std::string_view name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    if (value > it->second) it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void Registry::record_duration(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), TimerStats{}).first;
  }
  TimerStats& stats = it->second;
  ++stats.count;
  stats.total_seconds += seconds;
  if (seconds > stats.max_seconds) stats.max_seconds = seconds;
}

void Registry::sample(std::string_view name, double x, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name), std::vector<Sample>{}).first;
  }
  it->second.push_back(Sample{x, value});
}

void Registry::event(
    std::string_view name, double t,
    std::initializer_list<std::pair<const char*, double>> fields) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++events_logged_;
  if (max_events_ == 0) return;
  if (events_.size() == max_events_) events_.pop_front();
  Event ev;
  ev.name = std::string(name);
  ev.t = t;
  ev.fields.reserve(fields.size());
  for (const auto& [key, value] : fields) ev.fields.emplace_back(key, value);
  events_.push_back(std::move(ev));
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

double Registry::gauge_value(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0.0;
}

TimerStats Registry::timer_stats(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = timers_.find(name);
  return it != timers_.end() ? it->second : TimerStats{};
}

std::vector<Sample> Registry::series_values(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  return it != series_.end() ? it->second : std::vector<Sample>{};
}

std::uint64_t Registry::events_logged() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_logged_;
}

std::size_t Registry::events_retained() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<Event> Registry::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Event>(events_.begin(), events_.end());
}

void Registry::to_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  os << "{\n  \"schema\": \"tapo-telemetry-v1\",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_string(name) << ": " << value;
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_string(name) << ": " << json_number(value);
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"timers\": {";
  first = true;
  for (const auto& [name, stats] : timers_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_string(name) << ": {\"count\": " << stats.count
       << ", \"total_seconds\": " << json_number(stats.total_seconds)
       << ", \"max_seconds\": " << json_number(stats.max_seconds) << "}";
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"series\": {";
  first = true;
  for (const auto& [name, samples] : series_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_string(name) << ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i) os << ", ";
      os << "[" << json_number(samples[i].x) << ", "
         << json_number(samples[i].value) << "]";
    }
    os << "]";
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"events\": {\"logged\": " << events_logged_
     << ", \"retained\": " << events_.size() << ", \"records\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& ev = events_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": " << json_string(ev.name)
       << ", \"t\": " << json_number(ev.t) << ", \"fields\": {";
    for (std::size_t f = 0; f < ev.fields.size(); ++f) {
      if (f) os << ", ";
      os << json_string(ev.fields[f].first) << ": "
         << json_number(ev.fields[f].second);
    }
    os << "}}";
  }
  os << (events_.empty() ? "]}\n" : "\n  ]}\n");
  os << "}\n";
}

std::string Registry::to_json_string() const {
  std::ostringstream os;
  to_json(os);
  return os.str();
}

}  // namespace tapo::util::telemetry
