#include "util/args.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/text.h"

namespace tapo::util {

namespace {

// A malformed numeric option is bad input: name it and exit 2.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "error: option --%s: '%s' is not %s\n", name.c_str(),
               value.c_str(), expected);
  std::exit(2);
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  TAPO_CHECK_MSG(!flags_.count(name) && !options_.count(name), "duplicate arg");
  flags_[name] = Flag{help, false};
  order_.push_back(name);
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  add_option(name, '\0', help, default_value);
}

void ArgParser::add_option(const std::string& name, char short_name,
                           const std::string& help,
                           const std::string& default_value) {
  TAPO_CHECK_MSG(!flags_.count(name) && !options_.count(name), "duplicate arg");
  if (short_name != '\0') {
    TAPO_CHECK_MSG(short_name != 'h', "-h is reserved for --help");
    TAPO_CHECK_MSG(!short_options_.count(short_name), "duplicate short arg");
    short_options_[short_name] = name;
  }
  options_[name] = Option{help, default_value, default_value, short_name};
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args);
}

bool ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      // One-letter alias: "-j8" (attached value) or "-j 8" (next argument).
      // Only letters are candidates, so "-5" stays a positional.
      if (arg.size() >= 2 && arg[0] == '-' &&
          std::isalpha(static_cast<unsigned char>(arg[1]))) {
        const auto alias = short_options_.find(arg[1]);
        if (alias == short_options_.end()) {
          error_ = "unknown argument " + arg;
          return false;
        }
        Option& opt = options_.at(alias->second);
        if (arg.size() > 2) {
          opt.value = arg.substr(2);
        } else {
          if (i + 1 >= args.size()) {
            error_ = "option -" + std::string(1, arg[1]) + " requires a value";
            return false;
          }
          opt.value = args[++i];
        }
        continue;
      }
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    if (auto it = flags_.find(name); it != flags_.end()) {
      if (has_value) {
        error_ = "flag --" + name + " does not take a value";
        return false;
      }
      it->second.set = true;
      continue;
    }
    if (auto it = options_.find(name); it != options_.end()) {
      if (!has_value) {
        if (i + 1 >= args.size()) {
          error_ = "option --" + name + " requires a value";
          return false;
        }
        value = args[++i];
      }
      it->second.value = value;
      continue;
    }
    error_ = "unknown argument --" + name;
    return false;
  }
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = flags_.find(name);
  TAPO_CHECK_MSG(it != flags_.end(), "undeclared flag queried");
  return it->second.set;
}

const std::string& ArgParser::option(const std::string& name) const {
  const auto it = options_.find(name);
  TAPO_CHECK_MSG(it != options_.end(), "undeclared option queried");
  return it->second.value;
}

double ArgParser::option_double(const std::string& name) const {
  const std::string& v = option(name);
  double parsed = 0.0;
  if (!text::parse_number(v, parsed)) bad_value(name, v, "a finite number");
  return parsed;
}

std::int64_t ArgParser::option_int(const std::string& name) const {
  const std::string& v = option(name);
  const bool negative = !v.empty() && v[0] == '-';
  std::uint64_t magnitude = 0;
  if (!text::parse_unsigned(std::string_view(v).substr(negative), magnitude) ||
      magnitude > std::uint64_t{std::numeric_limits<std::int64_t>::max()} +
                      negative) {
    bad_value(name, v, "an integer");
  }
  return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\noptions:\n";
  for (const std::string& name : order_) {
    if (const auto it = flags_.find(name); it != flags_.end()) {
      os << "  --" << name << "\n      " << it->second.help << "\n";
    } else {
      const Option& opt = options_.at(name);
      os << "  --" << name << "=<value>";
      if (opt.short_name != '\0') os << ", -" << opt.short_name << "<value>";
      os << "   (default: " << opt.default_value << ")\n      " << opt.help
         << "\n";
    }
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

}  // namespace tapo::util
