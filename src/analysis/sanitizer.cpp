#include "analysis/sanitizer.hpp"

#include <ostream>
#include <sstream>

namespace morph::analysis {

namespace {

/// Word granularity of the race shadow: accesses within the same 8-byte
/// word conflict (the simulator's "global memory word").
constexpr std::uintptr_t kWordBytes = 8;

std::uintptr_t word_of(std::uintptr_t addr) { return addr / kWordBytes; }

std::string hex(std::uintptr_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

const char* access_name(Sanitizer::Access a) {
  switch (a) {
    case Sanitizer::Access::kRead: return "read";
    case Sanitizer::Access::kWrite: return "write";
    case Sanitizer::Access::kAtomic: return "atomic";
  }
  return "?";
}

}  // namespace

const char* hazard_class_name(HazardClass c) {
  switch (c) {
    case HazardClass::kRaces: return "races";
    case HazardClass::kWorklist: return "worklist";
    case HazardClass::kMemory: return "memory";
  }
  return "unknown";
}

bool SanitizeOptions::parse(std::string_view spec, SanitizeOptions* out) {
  if (spec.empty()) return false;
  SanitizeOptions o;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view tok =
        spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos
                                                         : comma - pos);
    if (tok == "all") {
      o = SanitizeOptions::all();
    } else if (tok == "races") {
      o.races = true;
    } else if (tok == "worklist") {
      o.worklist = true;
    } else if (tok == "memory") {
      o.memory = true;
    } else {
      return false;  // unknown token (includes empty tokens from ",,")
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  *out = o;
  return true;
}

std::string SanitizeOptions::to_string() const {
  if (races && worklist && memory) return "all";
  std::string s;
  const auto add = [&s](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += ",";
    s += name;
  };
  add(races, "races");
  add(worklist, "worklist");
  add(memory, "memory");
  return s.empty() ? "none" : s;
}

std::string Finding::to_string() const {
  std::string s = "[";
  s += hazard_class_name(cls);
  s += "] ";
  s += kind;
  s += ": kernel '";
  s += kernel;
  s += "' launch ";
  s += std::to_string(launch);
  s += " phase ";
  s += std::to_string(phase);
  s += " addr ";
  s += hex(addr);
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

Sanitizer::Sanitizer(SanitizeOptions opts) : opts_(opts) {}

std::string Sanitizer::launch_label() const {
  if (!in_launch_) return "<host>";
  if (!label_.empty()) return label_;
  return "launch#" + std::to_string(launch_ord_);
}

void Sanitizer::add_finding(HazardClass cls, std::string kind,
                            std::uintptr_t addr, std::string detail) {
  ++counts_[static_cast<std::size_t>(cls)];
  if (findings_.size() >= kMaxFindings) {
    ++suppressed_;
    return;
  }
  Finding f;
  f.cls = cls;
  f.kind = std::move(kind);
  f.kernel = launch_label();
  f.launch = in_launch_ ? launch_ord_ : 0;
  f.phase = in_launch_ ? phase_ : 0;
  f.addr = addr;
  f.detail = std::move(detail);
  findings_.push_back(std::move(f));
}

// --- launch lifecycle ----------------------------------------------------

void Sanitizer::begin_launch(const std::string& label,
                             std::uint32_t launch_ord) {
  std::scoped_lock lock(mu_);
  in_launch_ = true;
  label_ = label;
  launch_ord_ = launch_ord;
  phase_ = 0;
  words_.clear();
}

void Sanitizer::begin_phase(std::uint32_t phase, bool ordered) {
  std::scoped_lock lock(mu_);
  phase_ = phase;
  phase_ordered_ = ordered;
  words_.clear();
}

void Sanitizer::end_phase() {
  std::scoped_lock lock(mu_);
  // The global barrier orders every access of this phase before every
  // access of the next: the word shadow resets.
  words_.clear();
}

void Sanitizer::end_launch() {
  std::scoped_lock lock(mu_);
  in_launch_ = false;
  label_.clear();
}

// --- races ---------------------------------------------------------------

void Sanitizer::on_access(std::uint32_t block, const void* addr,
                          std::size_t bytes, Access access) {
  if (!opts_.races) return;
  if (bytes == 0) return;
  const auto lo = reinterpret_cast<std::uintptr_t>(addr);
  const auto hi = lo + bytes;
  std::scoped_lock lock(mu_);
  // Host-side accesses and ordered (sequential / campaign-pinned) phases
  // are totally ordered with respect to everything in the launch.
  if (block == kHostAgent || !in_launch_ || phase_ordered_) return;

  const bool is_write = access != Access::kRead;
  const bool is_atomic = access == Access::kAtomic;
  for (std::uintptr_t w = word_of(lo); w <= word_of(hi - 1); ++w) {
    auto [it, fresh] = words_.try_emplace(w);
    WordState& ws = it->second;
    if (fresh) {
      ws.block = block;
      ws.has_write = is_write;
      ws.all_atomic = is_atomic;
      continue;
    }
    if (ws.block == block && !ws.multi_block) {
      ws.has_write |= is_write;
      ws.all_atomic &= is_atomic;
      continue;
    }
    // Inter-block pair within one unordered phase: conflict unless both
    // sides are reads or both sides are atomic.
    const bool conflict =
        (is_write || ws.has_write) && !(is_atomic && ws.all_atomic);
    if (conflict) {
      add_finding(
          HazardClass::kRaces, "inter-block-race", w * kWordBytes,
          std::string(access_name(access)) + " by block " +
              std::to_string(block) + " conflicts with prior " +
              (ws.has_write ? (ws.all_atomic ? "atomic write" : "write")
                            : "read") +
              " by block " +
              (ws.multi_block ? std::string("(several)")
                              : std::to_string(ws.block)) +
              " in the same unordered phase");
      // Keep reporting per word at most once per phase.
      ws.multi_block = true;
      ws.all_atomic = true;
      ws.has_write = false;
      continue;
    }
    ws.multi_block = true;
    ws.has_write |= is_write;
    ws.all_atomic &= is_atomic;
  }
}

void Sanitizer::note_intentional(std::string what, std::string why) {
  std::scoped_lock lock(mu_);
  for (const auto& [w, _] : notes_) {
    if (w == what) return;  // once per pattern, not per call
  }
  notes_.emplace_back(std::move(what), std::move(why));
}

void Sanitizer::on_ownership_granted(const void* domain, std::uint32_t tid,
                                     std::span<const std::uint32_t> elements) {
  if (!opts_.races) return;
  std::scoped_lock lock(mu_);
  auto& owned = owners_[domain];
  for (std::uint32_t e : elements) {
    auto [it, fresh] = owned.try_emplace(e, tid);
    if (!fresh && it->second != tid) {
      add_finding(HazardClass::kRaces, "overlapping-ownership", e,
                  "element " + std::to_string(e) + " granted to activity " +
                      std::to_string(tid) + " while still owned by " +
                      std::to_string(it->second) +
                      " (overlapping neighborhoods both accepted)");
      it->second = tid;
    }
  }
}

void Sanitizer::on_ownership_released(const void* domain, std::uint32_t tid,
                                      std::span<const std::uint32_t> elements) {
  if (!opts_.races) return;
  std::scoped_lock lock(mu_);
  auto dom = owners_.find(domain);
  if (dom == owners_.end()) return;
  for (std::uint32_t e : elements) {
    auto it = dom->second.find(e);
    if (it != dom->second.end() && it->second == tid) dom->second.erase(it);
  }
}

void Sanitizer::reset_ownership(const void* domain) {
  std::scoped_lock lock(mu_);
  owners_.erase(domain);
}

void Sanitizer::on_guarded_write(const void* domain, std::uint32_t block,
                                 std::uint32_t tid,
                                 std::span<const std::uint32_t> elements) {
  if (!opts_.races) return;
  std::scoped_lock lock(mu_);
  const auto dom = owners_.find(domain);
  for (std::uint32_t e : elements) {
    std::uint32_t owner = kHostAgent;
    bool has_owner = false;
    if (dom != owners_.end()) {
      const auto it = dom->second.find(e);
      if (it != dom->second.end()) {
        owner = it->second;
        has_owner = true;
      }
    }
    if (has_owner && owner == tid) continue;
    add_finding(
        HazardClass::kRaces, "unguarded-write", e,
        "block " + std::to_string(block) + " activity " +
            std::to_string(tid) + " mutates element " + std::to_string(e) +
            " without owning it (" +
            (has_owner ? "owned by " + std::to_string(owner)
                       : "no grant recorded") +
            ") — cavity commit outside the race/prioritycheck/check "
            "protocol");
  }
}

// --- worklist ------------------------------------------------------------

std::optional<Sanitizer::ListShadow::Slot> Sanitizer::ListShadow::state(
    std::uint64_t slot) const {
  const auto it = slots.find(slot);
  if (it != slots.end()) return it->second;
  if (slot < popped_below) return Slot::kPopped;
  return std::nullopt;  // Free
}

void Sanitizer::ListShadow::mark_popped(std::uint64_t slot) {
  if (slot < popped_below) {
    slots.erase(slot);
    return;
  }
  slots[slot] = Slot::kPopped;
  for (auto it = slots.find(popped_below);
       it != slots.end() && it->second == Slot::kPopped;
       it = slots.find(popped_below)) {
    slots.erase(it);
    ++popped_below;
  }
}

void Sanitizer::on_wl_claim(const void* list, const char* name,
                            std::uint32_t block, std::uint64_t slot) {
  if (!opts_.worklist) return;
  std::scoped_lock lock(mu_);
  ListShadow& sh = lists_[list];
  if (sh.name.empty()) sh.name = name;
  const std::optional<ListShadow::Slot> was = sh.state(slot);
  sh.slots[slot] = ListShadow::Slot::kClaimed;
  if (!was) return;
  const char* state = *was == ListShadow::Slot::kClaimed
                          ? "claimed (write in flight)"
                          : *was == ListShadow::Slot::kPublished
                                ? "published"
                                : "popped";
  add_finding(HazardClass::kWorklist, "slot-claim-collision", slot,
              std::string(sh.name) + " slot " + std::to_string(slot) +
                  " claimed by block " +
                  (block == kHostAgent ? "<host>" : std::to_string(block)) +
                  " while already " + state +
                  " — a lost update: the first writer's item is "
                  "overwritten");
}

void Sanitizer::on_wl_publish(const void* list, const char* name,
                              std::uint64_t slot) {
  if (!opts_.worklist) return;
  std::scoped_lock lock(mu_);
  ListShadow& sh = lists_[list];
  if (sh.name.empty()) sh.name = name;
  if (sh.state(slot) != ListShadow::Slot::kClaimed) {
    add_finding(HazardClass::kWorklist, "publish-unclaimed", slot,
                std::string(sh.name) + " slot " + std::to_string(slot) +
                    " published without a preceding claim — the index "
                    "protocol skipped the reservation CAS");
  }
  sh.slots[slot] = ListShadow::Slot::kPublished;
}

void Sanitizer::on_wl_pop(const void* list, const char* name,
                          std::uint32_t block, std::uint64_t slot) {
  if (!opts_.worklist) return;
  std::scoped_lock lock(mu_);
  ListShadow& sh = lists_[list];
  if (sh.name.empty()) sh.name = name;
  const std::string agent =
      block == kHostAgent ? "<host>" : std::to_string(block);
  const std::optional<ListShadow::Slot> was = sh.state(slot);
  if (!was) {
    add_finding(HazardClass::kWorklist, "pop-unwritten", slot,
                std::string(sh.name) + " slot " + std::to_string(slot) +
                    " popped by block " + agent +
                    " but never claimed or written");
    return;
  }
  switch (*was) {
    case ListShadow::Slot::kClaimed:
      add_finding(HazardClass::kWorklist, "pop-inflight-write", slot,
                  std::string(sh.name) + " slot " + std::to_string(slot) +
                      " popped by block " + agent +
                      " while its item write is still in flight "
                      "(claimed but not published)");
      break;
    case ListShadow::Slot::kPopped:
      add_finding(HazardClass::kWorklist, "double-pop", slot,
                  std::string(sh.name) + " slot " + std::to_string(slot) +
                      " popped twice (second pop by block " + agent +
                      ") — ABA on the head index delivers one item to two "
                      "consumers");
      break;
    case ListShadow::Slot::kPublished:
      break;  // the legal transition
  }
  sh.mark_popped(slot);
}

void Sanitizer::on_wl_reset(const void* list) {
  std::scoped_lock lock(mu_);
  auto it = lists_.find(list);
  if (it != lists_.end()) {
    it->second.slots.clear();
    it->second.popped_below = 0;
  }
}

// --- memory --------------------------------------------------------------

void Sanitizer::on_slot_recycled(const void* pool, std::uint32_t slot) {
  if (!opts_.memory) return;
  std::scoped_lock lock(mu_);
  auto [it, fresh] = recycled_[pool].insert(slot);
  (void)it;
  if (!fresh) {
    add_finding(HazardClass::kMemory, "double-recycle", slot,
                "slot " + std::to_string(slot) +
                    " handed to the recycler twice without being "
                    "re-claimed — two future allocations will alias it");
  }
}

void Sanitizer::on_slot_reclaimed(const void* pool, std::uint32_t slot) {
  if (!opts_.memory) return;
  std::scoped_lock lock(mu_);
  auto it = recycled_.find(pool);
  if (it != recycled_.end()) it->second.erase(slot);
}

void Sanitizer::forget_pool(const void* pool) {
  if (!opts_.memory) return;
  std::scoped_lock lock(mu_);
  recycled_.erase(pool);
}

void Sanitizer::on_slot_write(const void* pool, std::uint32_t slot) {
  if (!opts_.memory) return;
  std::scoped_lock lock(mu_);
  auto it = recycled_.find(pool);
  if (it != recycled_.end() && it->second.count(slot)) {
    add_finding(HazardClass::kMemory, "use-after-recycle", slot,
                "slot " + std::to_string(slot) +
                    " written while sitting in the recycler free pool — a "
                    "future take() will hand out a clobbered slot");
  }
}

// --- results -------------------------------------------------------------

bool Sanitizer::clean() const {
  std::scoped_lock lock(mu_);
  for (std::uint64_t c : counts_) {
    if (c != 0) return false;
  }
  return true;
}

std::vector<Finding> Sanitizer::findings() const {
  std::scoped_lock lock(mu_);
  return findings_;
}

std::uint64_t Sanitizer::finding_count(HazardClass c) const {
  std::scoped_lock lock(mu_);
  return counts_[static_cast<std::size_t>(c)];
}

std::uint64_t Sanitizer::total_findings() const {
  std::scoped_lock lock(mu_);
  std::uint64_t n = 0;
  for (std::uint64_t c : counts_) n += c;
  return n;
}

std::uint64_t Sanitizer::suppressed() const {
  std::scoped_lock lock(mu_);
  return suppressed_;
}

std::vector<std::pair<std::string, std::string>> Sanitizer::intentional_notes()
    const {
  std::scoped_lock lock(mu_);
  return notes_;
}

void Sanitizer::report(std::ostream& os) const {
  std::scoped_lock lock(mu_);
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) total += c;
  if (total == 0) {
    os << "sanitizer: clean (--sanitize=" << opts_.to_string() << ")\n";
  } else {
    os << "sanitizer: " << total << " finding(s) (--sanitize="
       << opts_.to_string() << ")\n";
    for (const Finding& f : findings_) os << "  " << f.to_string() << "\n";
    if (suppressed_ > 0) {
      os << "  ... and " << suppressed_ << " more (suppressed)\n";
    }
  }
  for (const auto& [what, why] : notes_) {
    os << "  note: intentional race '" << what << "': " << why << "\n";
  }
}

void Sanitizer::reset() {
  std::scoped_lock lock(mu_);
  words_.clear();
  owners_.clear();
  lists_.clear();
  recycled_.clear();
  findings_.clear();
  for (std::uint64_t& c : counts_) c = 0;
  suppressed_ = 0;
  notes_.clear();
}

}  // namespace morph::analysis
