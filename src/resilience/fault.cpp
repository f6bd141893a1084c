#include "resilience/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace morph::resilience {

namespace {

/// splitmix64 — tiny, seedable, and plenty for per-opportunity coin flips.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::optional<FaultClass> class_from_name(const std::string& name) {
  if (name == "arena") return FaultClass::kArenaExhaust;
  if (name == "globalwl") return FaultClass::kGlobalWlOverflow;
  if (name == "launch") return FaultClass::kLaunchFail;
  if (name == "barrier") return FaultClass::kBarrierStall;
  if (name == "livelock") return FaultClass::kLivelock;
  if (name == "journal") return FaultClass::kJournalTorn;
  return std::nullopt;
}

Status bad_spec(const std::string& clause, const std::string& why) {
  return Status(StatusCode::kBadFaultSpec,
                "clause '" + clause + "': " + why);
}

/// Parses a full non-negative integer; nullopt on any trailing garbage.
std::optional<std::uint64_t> parse_u64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

const char* fault_class_name(FaultClass cls) {
  switch (cls) {
    case FaultClass::kArenaExhaust: return "arena";
    case FaultClass::kGlobalWlOverflow: return "globalwl";
    case FaultClass::kLaunchFail: return "launch";
    case FaultClass::kBarrierStall: return "barrier";
    case FaultClass::kLivelock: return "livelock";
    case FaultClass::kJournalTorn: return "journal";
  }
  return "unknown";
}

std::string FaultClause::to_string() const {
  std::ostringstream os;
  os << fault_class_name(cls);
  if (after != 1) os << '@' << after;
  if (count != 1) os << 'x' << count;
  if (prob != 1.0) os << '~' << prob;
  return os.str();
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (i) os << ',';
    os << clauses[i].to_string();
  }
  return os.str();
}

Status parse_fault_plan(const std::string& spec, std::uint64_t seed,
                        FaultPlan* out) {
  FaultPlan plan;
  plan.seed = seed;

  std::istringstream ss(spec);
  std::string clause;
  while (std::getline(ss, clause, ',')) {
    if (clause.empty()) return bad_spec(clause, "empty clause");

    FaultClause fc;
    std::string rest = clause;

    // ~prob suffix first (it may contain digits that would confuse the
    // @/x scans if peeled later).
    if (auto tilde = rest.find('~'); tilde != std::string::npos) {
      std::string p = rest.substr(tilde + 1);
      rest = rest.substr(0, tilde);
      char* end = nullptr;
      fc.prob = std::strtod(p.c_str(), &end);
      if (p.empty() || end != p.c_str() + p.size())
        return bad_spec(clause, "bad probability '" + p + "'");
      if (!(fc.prob > 0.0 && fc.prob <= 1.0))
        return bad_spec(clause, "probability must be in (0,1]");
    }
    if (auto x = rest.find('x'); x != std::string::npos) {
      std::string n = rest.substr(x + 1);
      rest = rest.substr(0, x);
      auto v = parse_u64(n);
      if (!v || *v == 0) return bad_spec(clause, "bad count '" + n + "'");
      fc.count = *v;
    }
    if (auto at = rest.find('@'); at != std::string::npos) {
      std::string n = rest.substr(at + 1);
      rest = rest.substr(0, at);
      auto v = parse_u64(n);
      if (!v || *v == 0)
        return bad_spec(clause, "bad opportunity index '" + n + "'");
      fc.after = *v;
    }

    auto cls = class_from_name(rest);
    if (!cls)
      return bad_spec(clause, "unknown fault class '" + rest +
                                  "' (expected arena|globalwl|launch|"
                                  "barrier|livelock|journal)");
    fc.cls = *cls;
    plan.clauses.push_back(fc);
  }

  if (plan.clauses.empty())
    return Status(StatusCode::kBadFaultSpec, "empty fault spec");
  *out = std::move(plan);
  return Status::Ok();
}

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  // Independent, deterministic PRNG stream per class: identical campaigns
  // replay identically regardless of which classes other clauses touch.
  for (std::size_t c = 0; c < kFaultClassSlots; ++c) {
    std::uint64_t s = plan_.seed;
    (void)splitmix64(s);
    rng_[c] = s + 0x632be59bd9b4e019ull * (c + 1);
  }
}

bool FaultInjector::should_fire(FaultClass cls) {
  const auto idx = static_cast<std::size_t>(cls);
  const std::uint64_t opportunity = ++seen_[idx];  // 1-based

  for (const FaultClause& fc : plan_.clauses) {
    if (fc.cls != cls) continue;
    if (opportunity < fc.after || opportunity >= fc.after + fc.count) continue;
    if (fc.prob < 1.0 && uniform01(rng_[idx]) >= fc.prob) continue;
    ++fired_[idx];
    return true;
  }
  return false;
}

const std::vector<std::string>& fault_cli_flags() {
  static const std::vector<std::string> kFlags = {"faults", "fault-seed"};
  return kFlags;
}

std::optional<FaultPlan> fault_plan_from_args(
    const std::string& spec_or_empty, std::uint64_t seed) {
  if (spec_or_empty.empty()) return std::nullopt;
  FaultPlan plan;
  Status s = parse_fault_plan(spec_or_empty, seed, &plan);
  if (!s.ok()) {
    std::fprintf(stderr, "error: --faults: %s\n", s.to_string().c_str());
    std::exit(2);
  }
  return plan;
}

}  // namespace morph::resilience
