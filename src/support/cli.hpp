// Minimal --key=value command-line parsing for benches and examples.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace morph {

/// Parses flags of the form --name=value (or bare --name, meaning "1").
/// Positional (non-flag) arguments are collected in order.
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& dflt) const;
  std::int64_t get_int(const std::string& name, std::int64_t dflt) const;
  double get_double(const std::string& name, double dflt) const;
  bool get_bool(const std::string& name, bool dflt) const;

  /// Strict variant for count/size flags: the flag must parse completely as
  /// an integer no smaller than `min`. Returns nullopt on a malformed or
  /// out-of-range value (and the default when the flag is absent).
  std::optional<std::int64_t> try_get_int_at_least(const std::string& name,
                                                    std::int64_t min,
                                                    std::int64_t dflt) const;

  /// try_get_int_at_least, but a bad value prints a clear error to stderr
  /// and exits with status 2 — so `--workers=-1` fails loudly instead of
  /// wrapping to a huge unsigned count. Counts where 0 means "auto" or "off"
  /// use min = 0.
  std::int64_t get_int_at_least(const std::string& name, std::int64_t min,
                                std::int64_t dflt) const;

  /// get_int_at_least with min = 1, for size/scale flags (`--scale=0` would
  /// divide workload sizes by zero).
  std::int64_t get_positive_int(const std::string& name,
                                std::int64_t dflt) const {
    return get_int_at_least(name, 1, dflt);
  }

  /// Warns on every parsed flag not in `known` (so typos like
  /// `--host-worker=4` don't silently no-op), suggesting the closest known
  /// flag when one is within small edit distance. Returns the number of
  /// unknown flags.
  std::size_t warn_unknown(const std::vector<std::string>& known,
                           std::ostream& err) const;

  const std::map<std::string, std::string>& flags() const { return flags_; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Number of host worker threads drivers use when --host-workers is absent:
/// 0, the "auto" sentinel (one worker per hardware thread — see
/// gpu::DeviceConfig::host_workers). Block-parallel execution is the
/// standard fast path for every driver and bench harness.
std::uint32_t default_host_workers();

/// Reads --host-workers (defaulting to default_host_workers()) for plumbing
/// into gpu::DeviceConfig::host_workers. --host-workers=1 restores the
/// serial inline mode; modeled statistics are identical either way.
std::uint32_t host_workers_arg(const CliArgs& args);

}  // namespace morph
