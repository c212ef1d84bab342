// Thread-context building blocks for the service layer's one op pipeline
// (ServiceCore, renaming/service_core.h, which assembles them into its
// per-thread context): dense thread slots for home-shard hashing,
// process-unique service ids, the per-(thread, service) state table, and
// the NameStash thread-local name cache.
//
// The per-service table is a small open-addressed map with one entry per
// (thread, service) and no eviction — entries (and any registered nodes
// they cache) are reused for the thread's lifetime, so no call pattern can
// re-register nodes and grow a service's registries without bound. Keys
// are process-unique instance ids, never `this`: a service constructed at
// a dead service's recycled address must not inherit its state — in
// particular cached nodes pointing into freed registries.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "platform/rng.h"

namespace loren {

/// NameStash: the per-(thread, service) free-name cache ("magazine").
///
/// A steady-state churn workload releases and re-acquires the same names
/// per thread, yet every acquisition pays the probe schedule and every
/// release an arena RMW. The stash short-circuits that loop: release
/// pushes the name into a bounded thread-local LIFO (the name's cell stays
/// *taken* in the shared arena and stays counted by the live counter —
/// counter accounting is deferred until the stash interacts with the
/// shared path), and a later acquire pops it back with zero probes, zero
/// counter traffic, and no shared RMW. Misses fall through to the shared
/// path; overflow spills through the service's shared release path.
///
/// Invalidation is generation-based: `gen()` records the service-side
/// generation the contents were stashed under (the reset generation for
/// the fixed service, the resize generation for the elastic one). The
/// owning service compares it against its current generation on every
/// operation and, on mismatch, discards (fixed: the cells were
/// epoch-reset) or flushes (elastic: the names are still held in a
/// retired group and must drain through the tag table) before serving.
///
/// Adaptive sizing: every kAdaptWindow acquisitions the capacity doubles
/// when the hit rate ran >= 3/4 (hot reuse: deepen the stash) and halves
/// when it fell <= 1/4 (adversarial zero-reuse: stop hoarding names other
/// threads may need), clamped to [kMinCapacity, kMaxCapacity]. The caller
/// spills any excess above a shrunken capacity through its shared path.
///
/// Single-threaded by construction (it lives in a thread_local table);
/// trivially copyable so PerServiceTable growth can relocate it.
class NameStash {
 public:
  static constexpr std::uint32_t kMinCapacity = 4;
  static constexpr std::uint32_t kMaxCapacity = 64;
  static constexpr std::uint32_t kAdaptWindow = 128;

  /// Window roll-up handed back by note_acquire: when `rolled`, the
  /// just-completed window's counts are ready for the service to fold
  /// into its (cold) aggregate statistics.
  struct WindowStats {
    std::uint32_t hits = 0;
    std::uint32_t misses = 0;
    bool rolled = false;
  };

  /// Sets the starting capacity (clamped into [kMin, kMax]); adaptation
  /// moves it from there.
  void configure(std::uint32_t capacity) {
    capacity_ = capacity < kMinCapacity
                    ? kMinCapacity
                    : (capacity > kMaxCapacity ? kMaxCapacity : capacity);
  }

  /// Applies an external upper bound to the capacity (the controller's
  /// stash knob, control/adaptive_controller.h): capacity only ever
  /// shrinks here, never below kMinCapacity, and contents are untouched —
  /// the owner spills the excess() a shrink exposes through its shared
  /// release path, exactly as after a hit-rate halving.
  void clamp_capacity(std::uint32_t cap) {
    if (cap < kMinCapacity) cap = kMinCapacity;
    if (capacity_ > cap) capacity_ = cap;
  }

  [[nodiscard]] std::uint64_t gen() const { return gen_; }
  void set_gen(std::uint64_t gen) { gen_ = gen; }

  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ >= capacity_; }
  /// Entries above the current (possibly just shrunk) capacity; the owner
  /// spills these through its shared release path.
  [[nodiscard]] std::uint32_t excess() const {
    return count_ > capacity_ ? count_ - capacity_ : 0;
  }

  /// LIFO pop — the most recently released name, whose cache lines are
  /// the hottest. Precondition: !empty().
  std::int64_t pop() { return names_[--count_]; }

  /// Precondition: !full(). (The owner spills before pushing when full.)
  void push(std::int64_t name) { names_[count_++] = name; }

  /// Linear scan (<= kMaxCapacity entries): the same-thread double-release
  /// detector — a name already stashed must not be stashed again. No
  /// early exit: a match is a contract violation, so the scan nearly
  /// always runs to the end anyway, and a branch per entry let the
  /// compiler lay release_many's per-name loop out with twice the taken
  /// branches.
  [[nodiscard]] bool contains(std::int64_t name) const {
    bool found = false;
    for (std::uint32_t i = 0; i < count_; ++i) found |= names_[i] == name;
    return found;
  }

  /// Moves up to `k` of the *oldest* entries into `out` (spill policy:
  /// keep the most recently released — hottest — half). Returns the count.
  std::uint32_t take_oldest(std::int64_t* out, std::uint32_t k) {
    const std::uint32_t n = k < count_ ? k : count_;
    for (std::uint32_t i = 0; i < n; ++i) out[i] = names_[i];
    for (std::uint32_t i = n; i < count_; ++i) names_[i - n] = names_[i];
    count_ -= n;
    return n;
  }

  /// Empties the stash without handing the names anywhere (fixed-service
  /// reset invalidation: the cells were epoch-reset, nothing to release).
  void clear() { count_ = 0; }

  /// Records `n` acquisitions that all had outcome `hit`, exactly as n
  /// one-name calls would: every kAdaptWindow boundary the count crosses
  /// closes one window, doubles or halves the capacity by its hit rate and
  /// then calls `on_roll()`, where the owner re-applies its capacity bound
  /// and spills the excess. Returns the closed windows' summed counts for
  /// aggregation.
  template <class OnRoll>
  WindowStats note_acquire(bool hit, std::uint64_t n, OnRoll&& on_roll) {
    WindowStats stats;
    while (n > 0) {
      const std::uint32_t room = kAdaptWindow - window_ops_;
      const std::uint32_t take =
          n < room ? static_cast<std::uint32_t>(n) : room;
      window_ops_ += take;
      window_hits_ += hit ? take : 0u;
      n -= take;
      if (window_ops_ < kAdaptWindow) break;
      stats.hits += window_hits_;
      stats.misses += window_ops_ - window_hits_;
      stats.rolled = true;
      if (window_hits_ * 4 >= window_ops_ * 3) {
        capacity_ = capacity_ * 2 > kMaxCapacity ? kMaxCapacity : capacity_ * 2;
      } else if (window_hits_ * 4 <= window_ops_) {
        capacity_ = capacity_ / 2 < kMinCapacity ? kMinCapacity : capacity_ / 2;
      }
      window_ops_ = 0;
      window_hits_ = 0;
      on_roll();
    }
    return stats;
  }

  /// The in-flight (not yet rolled-up) window counts, exported when the
  /// stash is flushed so aggregate statistics stay honest on short runs.
  WindowStats take_partial_window() {
    WindowStats stats;
    stats.hits = window_hits_;
    stats.misses = window_ops_ - window_hits_;
    stats.rolled = window_ops_ != 0;
    window_ops_ = 0;
    window_hits_ = 0;
    return stats;
  }

 private:
  std::int64_t names_[kMaxCapacity] = {};
  std::uint32_t count_ = 0;
  std::uint32_t capacity_ = kMinCapacity;  // configure() overrides
  std::uint32_t window_ops_ = 0;
  std::uint32_t window_hits_ = 0;
  std::uint64_t gen_ = 0;  // 0 = never tagged (services start at 1)
};

/// Process-unique instance id (services, and the renamers that key their
/// threads' coin streams by it); ids start at 1 so 0 can mean "empty" in
/// the per-thread tables forever.
inline std::uint64_t next_service_instance_id() {
  // mo: relaxed -- id ticket: uniqueness only, no ordering contract.
  static std::atomic<std::uint64_t> next{1};
  // sim:exempt(one-time id draw at construction, not an algorithm step)
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace detail {
/// ~0 = "no override"; see force_thread_slot.
inline std::uint64_t& forced_thread_slot_ref() {
  thread_local std::uint64_t forced = ~std::uint64_t{0};
  return forced;
}
}  // namespace detail

/// Test/simulation hook: pins the *calling thread's* dense slot to
/// `slot`, overriding arrival-order assignment. The scenario engine
/// (src/sim/scenario/) calls this with the worker id before a workload
/// body runs, so per-thread probe schedules, home shards and stash
/// identity depend only on the worker id — not on how many threads the
/// process happened to create earlier — which is what makes schedule
/// traces byte-identical across runs in one process. Must be called
/// before the thread first touches a service (the slot is captured into
/// the thread's per-service context on first use).
inline void force_thread_slot(std::uint64_t slot) {
  detail::forced_thread_slot_ref() = slot;
}

/// Threads get dense slots 0, 1, 2, ... in arrival order, so `slot mod S`
/// spreads the first S threads over S distinct home shards (a random hash
/// would collide at birthday rates). force_thread_slot (above) overrides
/// the assignment for deterministic-schedule testing.
inline std::uint64_t dense_thread_slot() {
  const std::uint64_t forced = detail::forced_thread_slot_ref();
  if (forced != ~std::uint64_t{0}) return forced;
  // mo: relaxed -- slot ticket: uniqueness only, no ordering contract.
  static std::atomic<std::uint64_t> next{0};
  // sim:exempt(one-time per-thread slot draw; the scenario engine pins
  // slots via force_thread_slot anyway)
  thread_local const std::uint64_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Open-addressed (thread-local, so single-threaded) map from service id
/// to a Payload. Payload must be default-constructible and cheap to copy
/// (raw pointers + small ints).
template <class Payload>
class PerServiceTable {
 public:
  PerServiceTable() : entries_(16) {}  // power-of-two capacity

  /// The payload for `service_id`; on first touch the entry is default-
  /// constructed and `init(payload)` runs once. The hit is forced inline
  /// (every service op starts with it) and the first touch kept out of
  /// line, so the op paths' inlining does not hinge on the init's size.
  template <class Init>
  [[gnu::always_inline]] inline Payload& for_service(std::uint64_t service_id,
                                                     Init&& init) {
    const std::size_t i = probe(entries_, service_id);
    if (entries_[i].service_id == service_id) [[likely]] {
      return entries_[i].payload;
    }
    return insert(service_id, init);
  }

  /// Visits every occupied entry as (service_id, payload&). The thread-
  /// exit flush walk (renaming/service_directory.h): the owning thread's
  /// ThreadCtx destructor hands each still-registered service its
  /// payload so stashed names don't die with the thread.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (Entry& e : entries_) {
      if (e.service_id != 0) fn(e.service_id, e.payload);
    }
  }

 private:
  struct Entry {
    std::uint64_t service_id = 0;  // 0 = empty
    Payload payload{};
  };

  template <class Init>
  [[gnu::noinline]] Payload& insert(std::uint64_t service_id, Init& init) {
    if ((distinct_ + 1) * 2 > entries_.size()) grow();
    const std::size_t i = probe(entries_, service_id);
    ++distinct_;
    entries_[i].service_id = service_id;
    entries_[i].payload = Payload{};
    init(entries_[i].payload);
    return entries_[i].payload;
  }

  /// Index of service_id's entry, or of the empty slot where it belongs.
  static std::size_t probe(const std::vector<Entry>& table,
                           std::uint64_t service_id) {
    const std::size_t mask = table.size() - 1;
    std::size_t i = service_id & mask;
    while (table[i].service_id != 0 && table[i].service_id != service_id) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow() {
    std::vector<Entry> bigger(entries_.size() * 2);
    for (const Entry& e : entries_) {
      if (e.service_id != 0) bigger[probe(bigger, e.service_id)] = e;
    }
    entries_.swap(bigger);
  }

  std::vector<Entry> entries_;
  std::size_t distinct_ = 0;
};

}  // namespace loren
