// Minimal command-line argument parser for the tools.
// Supports `--flag`, `--key value`, `--key=value` and positional
// arguments. Every query records the option name, and a command calls
// reject_unread() once it has read its options: an option it never read
// throws, so typos fail loudly instead of being ignored.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace tmhls {

/// Parsed command line: options (--key[=value]) and positionals, in order.
class Args {
public:
  /// Parse argv; `spec_flags` lists options that take NO value (flags) —
  /// everything else starting with "--" expects one. Throws
  /// InvalidArgument on malformed input.
  Args(int argc, const char* const* argv,
       std::vector<std::string> spec_flags = {});

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// True if --name was given (flag or valued).
  bool has(const std::string& name) const;

  /// Value of --name; std::nullopt when absent.
  std::optional<std::string> get(const std::string& name) const;

  /// Value of --name or a default.
  std::string get_or(const std::string& name,
                     const std::string& fallback) const;

  /// Value parsed as double/int; throws InvalidArgument on bad numbers.
  double get_double(const std::string& name, double fallback) const;
  int get_int(const std::string& name, int fallback) const;

  /// Positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws InvalidArgument naming every option that no has/get* call has
  /// queried. A command calls this after reading its options and before
  /// doing any work.
  void reject_unread() const;

private:
  struct Option {
    std::string name;
    std::string value;
    bool is_flag = false;
    /// Set by the first has/get* query for `name`.
    mutable bool read = false;
  };
  /// Mark every option called `name` as read.
  void mark_read(const std::string& name) const;

  std::string program_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
};

} // namespace tmhls
