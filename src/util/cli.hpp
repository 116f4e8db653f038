// Tiny command-line flag parser shared by the bench/example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag` forms plus
// automatic --help generation. Deliberately minimal: no subcommands, no
// positional arguments beyond what the benches need.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace saim::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a flag with a default value; returns *this for chaining.
  /// Throws std::logic_error on a duplicate registration (a silently
  /// clobbered default is a bug at the call site, not a user error).
  ArgParser& add_flag(const std::string& name, const std::string& help,
                      std::string default_value);
  ArgParser& add_bool(const std::string& name, const std::string& help);

  /// Parses argv. Returns false (and prints usage) on --help or on a parse
  /// error such as an unknown flag; error() then carries the message,
  /// naming the offending flag.
  bool parse(int argc, const char* const* argv);

  /// The last parse error ("unknown flag: --bogus", ...); empty after a
  /// successful parse or plain --help.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric reads require the whole value to parse ("2x" and "" do
  /// not); otherwise they throw std::invalid_argument naming the flag.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Every flag with its help and registered default; a flag whose
  /// default is empty prints no "(default: ...)".
  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;  ///< as registered; usage() prints it
    std::string value;          ///< default_value until parsed
    bool is_bool = false;
  };

  std::optional<Flag*> find(const std::string& name);

  std::string program_;
  std::string description_;
  std::string error_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace saim::util
