#include "common/args.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace tmhls {

Args::Args(int argc, const char* const* argv,
           std::vector<std::string> spec_flags) {
  TMHLS_REQUIRE(argc >= 1, "argv must at least hold the program name");
  program_ = argv[0];
  auto is_flag = [&spec_flags](const std::string& name) {
    return std::find(spec_flags.begin(), spec_flags.end(), name) !=
           spec_flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    TMHLS_REQUIRE(!body.empty(), "bare '--' is not a valid option");
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_.push_back(
          Option{body.substr(0, eq), body.substr(eq + 1), false});
      continue;
    }
    if (is_flag(body)) {
      options_.push_back(Option{body, "", true});
      continue;
    }
    TMHLS_REQUIRE(i + 1 < argc, "option --" + body + " expects a value");
    options_.push_back(Option{body, argv[++i], false});
  }
}

void Args::mark_read(const std::string& name) const {
  for (const Option& o : options_) {
    if (o.name == name) o.read = true;
  }
}

bool Args::has(const std::string& name) const {
  mark_read(name);
  for (const Option& o : options_) {
    if (o.name == name) return true;
  }
  return false;
}

std::optional<std::string> Args::get(const std::string& name) const {
  mark_read(name);
  for (const Option& o : options_) {
    if (o.name == name && !o.is_flag) return o.value;
  }
  return std::nullopt;
}

std::string Args::get_or(const std::string& name,
                         const std::string& fallback) const {
  return get(name).value_or(fallback);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  TMHLS_REQUIRE(end != nullptr && *end == '\0' && !v->empty(),
                "option --" + name + " expects a number, got '" + *v + "'");
  return parsed;
}

int Args::get_int(const std::string& name, int fallback) const {
  const auto v = get(name);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  TMHLS_REQUIRE(end != nullptr && *end == '\0' && !v->empty(),
                "option --" + name + " expects an integer, got '" + *v + "'");
  return static_cast<int>(parsed);
}

void Args::reject_unread() const {
  std::string unread;
  for (const Option& o : options_) {
    if (o.read) continue;
    if (!unread.empty()) unread += ", ";
    unread += "--" + o.name;
  }
  if (!unread.empty()) {
    throw InvalidArgument("unknown option(s) for this command: " + unread);
  }
}

} // namespace tmhls
