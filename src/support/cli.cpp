#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace morph {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_.insert_or_assign(std::move(arg), std::string("1"));
    } else {
      flags_.insert_or_assign(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : std::strtoll(it->second.c_str(), nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double dflt) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool dflt) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return dflt;
  return it->second != "0" && it->second != "false";
}

std::optional<std::int64_t> CliArgs::try_get_int_at_least(
    const std::string& name, std::int64_t min, std::int64_t dflt) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return dflt;
  const std::string& raw = it->second;
  if (raw.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0' || errno == ERANGE || v < min) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(v);
}

std::int64_t CliArgs::get_int_at_least(const std::string& name,
                                       std::int64_t min,
                                       std::int64_t dflt) const {
  if (const auto v = try_get_int_at_least(name, min, dflt)) return *v;
  std::cerr << "error: --" << name << "=" << get(name, "") << " is not "
            << (min == 1 ? "a positive integer"
                         : "an integer >= " + std::to_string(min))
            << "\n";
  std::exit(2);
}

namespace {

// Classic O(n*m) edit distance, plenty for flag-typo suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::size_t CliArgs::warn_unknown(const std::vector<std::string>& known,
                                  std::ostream& err) const {
  std::size_t unknown = 0;
  for (const auto& [flag, value] : flags_) {
    (void)value;
    if (std::find(known.begin(), known.end(), flag) != known.end()) continue;
    ++unknown;
    err << "warning: unknown flag --" << flag;
    std::size_t best = 3;  // suggest only within edit distance 2
    const std::string* suggestion = nullptr;
    for (const std::string& k : known) {
      const std::size_t d = edit_distance(flag, k);
      if (d < best) {
        best = d;
        suggestion = &k;
      }
    }
    if (suggestion) err << " (did you mean --" << *suggestion << "?)";
    err << "\n";
  }
  return unknown;
}

std::uint32_t default_host_workers() {
  return 0;  // auto: the Device resolves 0 to hardware_concurrency
}

std::uint32_t host_workers_arg(const CliArgs& args) {
  const std::int64_t v =
      args.get_int("host-workers", static_cast<std::int64_t>(default_host_workers()));
  return v < 0 ? 0u : static_cast<std::uint32_t>(v);
}

}  // namespace morph
