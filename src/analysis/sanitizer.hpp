// MorphSan: an opt-in shadow-state hazard checker for the SIMT simulator.
//
// The paper's morph kernels live or die on disciplined concurrent structure
// mutation: the 3-phase conflict protocol must make cavity commits disjoint,
// worklist slots must follow the claim -> publish -> pop protocol, and
// recycled memory must not be touched in flight. Nothing in the simulator
// *checked* those disciplines — a violation surfaced only when an answer or
// the byte-identity gate broke. The Sanitizer turns each discipline into
// shadow state with machine-checked transitions, attached per device via
// gpu::DeviceConfig::sanitize (and `--sanitize=<classes>` in the benches).
//
// Hazard classes (SanitizeOptions selects any subset):
//   races     inter-block conflicting non-atomic accesses to the same word
//             within one parallel phase (no barrier orders them), plus the
//             lockset-style checks over MarkTable ownership: overlapping
//             neighborhoods accepted by two activities, and cavity commits
//             not covered by the committing thread's ownership.
//   worklist  lost updates / ABA on gpu::ClaimRing slots (the worklists'
//             and the SlotRecycler's): double claims, publication of
//             unclaimed slots, pops of unpublished (in-flight) slots,
//             double pops.
//   memory    use-after-recycle / double-recycle on SlotRecycler slots.
//
// There is no block-barrier class: the simulator runs each block's threads
// to completion one after another, so a kernel cannot contain a block-level
// barrier; global barriers are the phase boundaries of launch_phases.
//
// The checker is pure shadow state: it charges nothing to the cost model and
// mutates nothing it observes, so modeled statistics are identical with and
// without it, and a detached device (DeviceConfig::sanitize == nullptr) costs
// one branch per hook. Thread-safe: hooks are called concurrently from
// block-parallel host workers. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace morph::analysis {

/// The three hazard classes `--sanitize=` selects between.
enum class HazardClass : std::uint8_t {
  kRaces = 0,
  kWorklist = 1,
  kMemory = 2,
};
inline constexpr std::size_t kNumHazardClasses = 3;

const char* hazard_class_name(HazardClass c);

/// Which hazard classes are armed. Parsed from `--sanitize=` specs like
/// "races,worklist" or "all".
struct SanitizeOptions {
  bool races = false;
  bool worklist = false;
  bool memory = false;

  bool any() const { return races || worklist || memory; }
  bool enabled(HazardClass c) const {
    switch (c) {
      case HazardClass::kRaces: return races;
      case HazardClass::kWorklist: return worklist;
      case HazardClass::kMemory: return memory;
    }
    return false;
  }

  static SanitizeOptions all() { return {true, true, true}; }

  /// Parses a comma-separated class list ("races,worklist,memory")
  /// or "all". Returns false (leaving *out untouched) on any unknown token
  /// or an empty spec.
  static bool parse(std::string_view spec, SanitizeOptions* out);

  /// Canonical spec string ("races,memory"; "all" when everything is on).
  std::string to_string() const;
};

/// One detected hazard. `kernel`/`launch`/`phase` locate the offending
/// launch (kernel is the LaunchConfig::label, or "launch#<n>" when the call
/// site did not label it; "<host>" for hooks hit between launches); `addr`
/// is the offending shadow address (a word, a worklist slot id, a chunk
/// base, or a recycler slot id, depending on `kind`).
struct Finding {
  HazardClass cls = HazardClass::kRaces;
  std::string kind;    ///< stable slug, e.g. "inter-block-race", "double-pop"
  std::string kernel;  ///< launch label of the offending launch
  std::uint32_t launch = 0;
  std::uint32_t phase = 0;
  std::uintptr_t addr = 0;
  std::string detail;  ///< human-readable specifics (blocks, tids, states)

  /// "[races] inter-block-race: kernel 'dmr.refine' launch 3 phase 0
  ///  addr 0x...: ..." — the diagnostic format the seeded-bug suite matches.
  std::string to_string() const;
};

/// The shadow-state checker. One instance may be shared by several devices
/// (findings then aggregate); every hook is thread-safe.
class Sanitizer {
 public:
  /// Agent id for host-side (between-launch) accesses: ordered with respect
  /// to everything, so never part of a race.
  static constexpr std::uint32_t kHostAgent = 0xffffffffu;

  enum class Access : std::uint8_t { kRead, kWrite, kAtomic };

  explicit Sanitizer(SanitizeOptions opts = SanitizeOptions::all());

  const SanitizeOptions& options() const { return opts_; }

  // --- launch lifecycle (called by gpu::Device) -------------------------

  void begin_launch(const std::string& label, std::uint32_t launch_ord);
  /// `ordered` means the phase's blocks are executed in a defined total
  /// order (Phase::sequential, or an armed fault campaign pinning block
  /// order): inter-block accesses within it are ordered by construction and
  /// are exempt from the race check.
  void begin_phase(std::uint32_t phase, bool ordered);
  /// The inter-phase global barrier: orders everything, so the per-phase
  /// access history is cleared.
  void end_phase();
  void end_launch();

  // --- data races (races) ----------------------------------------------

  /// Records one access to [addr, addr+bytes) by `block` (kHostAgent for
  /// host-side accesses). Two accesses to the same word from different
  /// blocks in the same unordered phase conflict unless both are reads or
  /// both are atomic.
  void on_access(std::uint32_t block, const void* addr, std::size_t bytes,
                 Access access);

  /// Free-form intent annotation (no address): records that a deliberately
  /// unsynchronized pattern exists, so a clean report still documents it.
  void note_intentional(std::string what, std::string why);

  // --- ownership / lockset (races) --------------------------------------
  // `domain` namespaces element ids (callers pass the MarkTable address).

  /// An activity (thread `tid`) won its neighborhood (try_claim success,
  /// exact/final check success). Granting an element currently granted to a
  /// different live tid is the paper's overlapping-cavity race.
  void on_ownership_granted(const void* domain, std::uint32_t tid,
                            std::span<const std::uint32_t> elements);
  void on_ownership_released(const void* domain, std::uint32_t tid,
                             std::span<const std::uint32_t> elements);
  /// Round boundary (MarkTable::reset): all grants are forgotten.
  void reset_ownership(const void* domain);
  /// A guarded mutation (cavity commit): every element must currently be
  /// granted to `tid` in `domain`, else an "unguarded-write" is reported.
  void on_guarded_write(const void* domain, std::uint32_t block,
                        std::uint32_t tid,
                        std::span<const std::uint32_t> elements);

  // --- worklist claim-commit slots (worklist) ---------------------------
  // `list` identifies the ring (callers pass the ring address);
  // slots follow Free -> Claimed -> Published -> Popped.

  void on_wl_claim(const void* list, const char* name, std::uint32_t block,
                   std::uint64_t slot);
  void on_wl_publish(const void* list, const char* name, std::uint64_t slot);
  void on_wl_pop(const void* list, const char* name, std::uint32_t block,
                 std::uint64_t slot);
  /// Ring discarded (ClaimRing::reset): every slot returns to Free.
  void on_wl_reset(const void* list);

  // --- recycler shadow (memory) -----------------------------------------

  /// SlotRecycler shadow: a slot handed back (give) must not be given again
  /// or written before it is re-claimed (take). `pool` namespaces slot ids.
  void on_slot_recycled(const void* pool, std::uint32_t slot);
  void on_slot_reclaimed(const void* pool, std::uint32_t slot);
  void on_slot_write(const void* pool, std::uint32_t slot);
  /// The pool at this address was cleared or destroyed: forget its slots.
  /// Shadow state is keyed by object address, and a successor object
  /// constructed at the same address must start from a clean slate.
  void forget_pool(const void* pool);

  // --- results ----------------------------------------------------------

  bool clean() const;
  /// Findings retained verbatim (capped; see suppressed()).
  std::vector<Finding> findings() const;
  std::uint64_t finding_count(HazardClass c) const;
  std::uint64_t total_findings() const;
  /// Findings beyond the retention cap (counted, not stored).
  std::uint64_t suppressed() const;
  std::vector<std::pair<std::string, std::string>> intentional_notes() const;

  /// Human-readable report ("sanitizer: clean (--sanitize=all)" or the
  /// finding list); benches print it to stderr.
  void report(std::ostream& os) const;

  /// Clears findings and all shadow state (not the armed classes).
  void reset();

 private:
  struct WordState {
    std::uint32_t block = 0;
    bool multi_block = false;  ///< compatible accesses from several blocks
    bool has_write = false;
    bool all_atomic = true;
  };
  /// One ring's slot states. A ring that is never reset (the SlotRecycler
  /// pool) pops slot after slot for the whole run, so the prefix of popped
  /// slots is kept as a bound, not as entries: the shadow holds only the
  /// live window and stays as small as the ring's content.
  struct ListShadow {
    enum class Slot : std::uint8_t { kClaimed, kPublished, kPopped };
    std::string name;
    /// Absent == Free, or Popped below popped_below.
    std::unordered_map<std::uint64_t, Slot> slots;
    std::uint64_t popped_below = 0;  ///< every slot < this was popped

    std::optional<Slot> state(std::uint64_t slot) const;
    /// Records `slot` as popped and drops the entries the bound now covers.
    void mark_popped(std::uint64_t slot);
  };

  void add_finding(HazardClass cls, std::string kind, std::uintptr_t addr,
                   std::string detail);  // requires mu_ held
  std::string launch_label() const;  // requires mu_ held

  SanitizeOptions opts_;
  mutable std::mutex mu_;

  // Launch context.
  bool in_launch_ = false;
  bool phase_ordered_ = true;
  std::string label_;
  std::uint32_t launch_ord_ = 0;
  std::uint32_t phase_ = 0;

  // races: per-phase word shadow + ownership.
  std::unordered_map<std::uintptr_t, WordState> words_;
  std::unordered_map<const void*,
                     std::unordered_map<std::uint32_t, std::uint32_t>>
      owners_;

  // worklist: per-list slot shadow.
  std::unordered_map<const void*, ListShadow> lists_;

  // memory: recycler slot sets.
  std::unordered_map<const void*, std::unordered_set<std::uint32_t>>
      recycled_;

  // Results.
  static constexpr std::size_t kMaxFindings = 256;
  std::vector<Finding> findings_;
  std::uint64_t counts_[kNumHazardClasses] = {0, 0, 0};
  std::uint64_t suppressed_ = 0;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace morph::analysis
