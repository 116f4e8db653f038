#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

namespace saim::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help,
                               std::string default_value) {
  if (flags_.contains(name)) {
    throw std::logic_error("ArgParser: duplicate flag registration --" +
                           name);
  }
  order_.push_back(name);
  flags_[name] = Flag{help, std::move(default_value), false};
  return *this;
}

ArgParser& ArgParser::add_bool(const std::string& name,
                               const std::string& help) {
  if (flags_.contains(name)) {
    throw std::logic_error("ArgParser: duplicate flag registration --" +
                           name);
  }
  order_.push_back(name);
  flags_[name] = Flag{help, "false", true};
  return *this;
}

std::optional<ArgParser::Flag*> ArgParser::find(const std::string& name) {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return &it->second;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  error_.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument: " + arg;
      std::fprintf(stderr, "%s\n%s", error_.c_str(), usage().c_str());
      return false;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto flag = find(arg);
    if (!flag) {
      error_ = "unknown flag: --" + arg;
      std::fprintf(stderr, "%s\n%s", error_.c_str(), usage().c_str());
      return false;
    }
    if ((*flag)->is_bool) {
      (*flag)->value = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          error_ = "flag --" + arg + " expects a value";
          std::fprintf(stderr, "%s\n", error_.c_str());
          return false;
        }
        value = argv[++i];
      }
      (*flag)->value = value;
    }
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("ArgParser: unregistered flag " + name);
  }
  return it->second.value;
}

namespace {

/// Parses the WHOLE of `text` as a T ("2x", "" and " 2" all fail, unlike
/// std::stoll, which stops at the first bad byte or throws an error that
/// does not name the flag).
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* want) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("bad value for --" + name + ": '" + text +
                                "' (want " + want + ")");
  }
  return value;
}

}  // namespace

std::int64_t ArgParser::get_int(const std::string& name) const {
  return parse_number<std::int64_t>(name, get(name), "an integer");
}

double ArgParser::get_double(const std::string& name) const {
  return parse_number<double>(name, get(name), "a number");
}

bool ArgParser::get_bool(const std::string& name) const {
  const auto v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::string ArgParser::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    out += "  --" + name;
    if (!f.is_bool) out += " <value>";
    out += "\n      " + f.help;
    out += " (default: " + f.value + ")\n";
  }
  out += "  --help\n      show this message\n";
  return out;
}

}  // namespace saim::util
