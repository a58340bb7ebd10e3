// Minimal command-line argument parser for the tools and examples.
//
// Supports boolean flags (--verbose), valued options (--nodes=150 or
// --nodes 150), optional one-letter aliases (-j8, -j 8), positional
// arguments, and generated usage text. Unknown flags are parse errors;
// every option carries a default so tools run with no arguments at all.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tapo::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);
  // Same, with a one-letter alias: "-j 8" and the attached "-j8" both work.
  // '\0' means no alias; 'h' is reserved for --help.
  void add_option(const std::string& name, char short_name,
                  const std::string& help, const std::string& default_value);

  // Returns false on a malformed command line or when --help was given; the
  // caller should print usage() and stop.
  bool parse(int argc, const char* const* argv);
  bool parse(const std::vector<std::string>& args);

  bool flag(const std::string& name) const;
  const std::string& option(const std::string& name) const;
  // Numeric values follow util/text.h: a finite number; an optional '-'
  // then decimal digits within int64 range. A malformed value prints a
  // diagnostic naming the option and exits with status 2 (bad input).
  double option_double(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }

  std::string usage() const;

 private:
  struct Flag {
    std::string help;
    bool set = false;
  };
  struct Option {
    std::string help;
    std::string default_value;
    std::string value;
    char short_name = '\0';
  };
  std::string program_, description_;
  std::map<std::string, Flag> flags_;
  std::map<std::string, Option> options_;
  std::map<char, std::string> short_options_;  // alias -> canonical name
  std::vector<std::string> order_;  // declaration order for usage()
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace tapo::util
