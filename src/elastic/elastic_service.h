// ElasticRenamingService: a contention-adaptive namespace that grows and
// shrinks at runtime.
//
// The fixed RenamingService freezes n, shard count, and arena size at
// construction, so a deployment serving bursty traffic must provision for
// peak forever. This service makes capacity a runtime quantity — the
// paper's "namespace proportional to actual contention" promise, carried
// from the one-shot setting into a long-lived, resizable one (cf. the
// long-lived/adaptive renaming chapters of Aspnes's notes):
//
//   * The live namespace is one ShardGroup (shard_group.h): a BitmapArena
//     carved into sticky-probed shards under a ReBatching schedule sized
//     for the group's holder count.
//   * GROW: when acquisitions keep missing the whole probe schedule
//     (a streak of `grow_miss_threshold` full misses with no intervening
//     schedule win — "sustained pressure"), or when even the backstop
//     sweep finds nothing, a group with double the holders is built,
//     linked into the tag table, and published with one pointer store —
//     an RCU-style swap; no acquisition ever blocks on a resize.
//   * SHRINK: shrink() (or the sampled auto-shrink watermark) publishes a
//     *smaller* group the same way. The old group is not torn down: it
//     retires. New acquisitions only ever probe the live group, so the
//     retiree only drains; a name acquired from generation g stays valid —
//     release(name) finds g through the tag table — until its holder
//     releases it, however many resizes have happened since.
//   * RECLAIM: a retired group's memory is freed only after (a) the epoch
//     domain quiesced past the retirement (no acquisition that might still
//     insert into it is in flight), (b) its live counter drained to zero
//     (no held names), and (c) a second quiescence after it is unlinked
//     from the tag table (no release() can still be dereferencing it).
//     See docs/protocols.md, "Grow, shrink, and reclaim".
//
// Name encoding: name = (group_local << kTagBits) | tag. The tag selects
// one of kMaxGroups (8) table slots, so release() decodes its group with a
// mask — no search — and uniqueness across generations is structural:
// distinct tags can never collide, and a tag is only reused after its
// previous group was reclaimed (which requires zero held names). The cost
// is namespace looseness: issued names are < capacity() =
// local_capacity * 2^kTagBits, a constant factor over the (1+eps)-tight
// fixed service. That is the price of elasticity here, and it is bounded
// and documented rather than hidden (docs/protocols.md, "Grow, shrink,
// and reclaim", discusses the tag-bit tradeoff).
//
// The op surface is ServiceCore's (renaming/service_core.h); this class
// is its generation-swap namespace policy, which gives the shared ops
// these elastic semantics:
//   * acquire() never blocks on a concurrent resize, and fails (-1) only
//     when the namespace is exhausted and cannot grow (auto_grow off,
//     max_holders reached, or all kMaxGroups tags still draining);
//   * release()/release_many() accept names from *any* generation,
//     including groups retired since the acquisition; only live-
//     generation names are ever stashed;
//   * acquire_many() runs under one epoch pin per round (a pin never
//     blocks a resize, it only delays reclamation by at most one batch —
//     see docs/protocols.md, "Batched acquisition: the run-claim
//     protocol"), counts one miss per batch, and a shortfall past the
//     sweep backstop grows the namespace and claims the remainder from
//     the new generation — so a batch may span generations;
//   * a resize invalidates every stash: its names are flushed through
//     the tag table on the owner's next call, so the retiree can drain.
//
// Concurrency contract: acquire/release/grow/shrink/resize/reclaim are
// safe from any thread. Destruction requires external quiescence (no
// calls in flight), the same contract as the other services' reset().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/epoch.h"
#include "platform/sim_point.h"
#include "renaming/schedule_cache.h"
#include "renaming/service_core.h"
#include "renaming/shard_group.h"
#include "sim/env.h"
#include "telemetry/metrics.h"

namespace loren {

/// The shared fields are documented on ServiceOptions
/// (renaming/service_core.h); these are the elastic ones.
struct ElasticOptions : ServiceOptions {
  ElasticOptions() { seed = 0xE1A5; }
  /// Smallest holder count shrink may reach. 0 = the initial holder count.
  std::uint64_t min_holders = 0;
  /// Largest holder count grow may reach.
  std::uint64_t max_holders = std::uint64_t{1} << 22;
  /// Grow automatically under sustained probe-schedule misses (and always
  /// on true exhaustion). Off = fixed capacity, explicit resize only.
  bool auto_grow = true;
  /// Full-schedule misses (with no intervening schedule win) that trigger
  /// an automatic grow.
  std::uint32_t grow_miss_threshold = 4;
  /// Shrink automatically (sampled on the release path) when live names
  /// stay below holders/4 across `shrink_low_threshold` consecutive
  /// samples — like grow, the pressure must be *sustained*, so a
  /// transient dip between bursts does not thrash the namespace. Off by
  /// default: shrinking trades latency for memory and most callers prefer
  /// to decide when (e.g. between traffic phases).
  bool auto_shrink = false;
  std::uint32_t shrink_low_threshold = 2;
  /// Diagnostic hardening against *contract-violating* releases: stamp
  /// the issuing generation into bits [48, 63) of every name and reject a
  /// release whose stamp does not match the generation currently holding
  /// the name's tag. This catches the stale double-release ABA — a copy
  /// of a name from a long-reclaimed generation whose 3-bit tag has been
  /// recycled would otherwise free a victim's cell in the *new* group.
  /// Stamped names are no longer < capacity() (the stamp rides above the
  /// value bits), so keep this off in production and on in tests/debug
  /// deployments. See docs/protocols.md, "The release contract".
  bool debug_release_guard = false;
};

class ElasticRenamingService : public ServiceCore<ElasticRenamingService> {
 public:
  /// Tag bits spent in every name; bounds the generations that can be
  /// in flight (live + draining) at once.
  static constexpr std::uint32_t kTagBits = 3;
  static constexpr std::uint32_t kMaxGroups = 1u << kTagBits;
  /// debug_release_guard stamp geometry: 15 generation bits at bit 48 —
  /// far above any realistic local<<kTagBits value (max_holders tops out
  /// at 2^22 by default) and, at 15 bits, stopping short of bit 63 so a
  /// stamped name can never go negative (sim::Name is a signed int64 and
  /// negative means "failure" everywhere).
  static constexpr std::uint32_t kGenStampShift = 48;
  static constexpr std::uint64_t kGenStampMask = 0x7FFF;

  /// Publishes generation 1, laid out for `initial_holders` (clamped to
  /// [min_holders, max_holders]). Throws std::invalid_argument for
  /// initial_holders == 0 or min_holders > max_holders. Immediately
  /// usable from any thread.
  explicit ElasticRenamingService(std::uint64_t initial_holders,
                                  ElasticOptions options = {});
  /// Requires external quiescence (no calls in flight on any thread) —
  /// the same contract as the other services' reset().
  ~ElasticRenamingService();

  /// Publish a generation with double / half / exactly `holders` holders
  /// (clamped to [min_holders, max_holders]). False when the target equals
  /// the current size, the clamp makes it a no-op, or no tag slot is free
  /// (kMaxGroups generations already in flight). Safe concurrently with
  /// acquire/release.
  bool grow();
  bool shrink();
  bool resize(std::uint64_t holders);

  /// One reclamation pass: unlink drained retirees, free quiesced limbo
  /// groups. Returns groups freed by this call. Also runs opportunistically
  /// (sampled) on the release path, so calling it is optional. Safe from
  /// any thread; takes the (cold) resize mutex. Cannot reclaim a group
  /// whose names sit in some thread's stash — that thread must call into
  /// the service (or flush_thread_cache()) once after the resize first.
  std::size_t reclaim();

  /// Bound on newly issued names: local capacity of the live generation
  /// times 2^kTagBits. Names issued by earlier, larger generations may
  /// exceed this until released (they stay valid; see release()).
  [[nodiscard]] std::uint64_t capacity() const {
    return live_local_capacity_.load(std::memory_order_acquire) << kTagBits;
  }
  /// Holder count the live generation is laid out for.
  [[nodiscard]] std::uint64_t holders() const {
    return live_holders_.load(std::memory_order_acquire);
  }
  /// Monotonic resize count (initial construction = 1).
  [[nodiscard]] std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Names currently held, summed over every in-flight generation.
  /// Approximate while calls are in flight, exact at quiescence.
  [[nodiscard]] std::uint64_t names_live() const;
  /// Linked generations (live + draining). 1 at rest.
  [[nodiscard]] std::size_t groups_in_flight() const;
  /// Cell-storage bytes across linked + limbo groups: the number that
  /// shrinking + reclamation drives back down.
  [[nodiscard]] std::uint64_t footprint_bytes() const;

  /// Resize event counters: snapshot reads of the `elastic.*` registry
  /// counters, exact at quiescence.
  [[nodiscard]] std::uint64_t grow_events() const {
    return metrics_registry().counter_value(grow_events_);
  }
  [[nodiscard]] std::uint64_t shrink_events() const {
    return metrics_registry().counter_value(shrink_events_);
  }
  [[nodiscard]] std::uint64_t reclaimed_groups() const {
    return metrics_registry().counter_value(reclaimed_groups_);
  }
  [[nodiscard]] const ElasticOptions& options() const { return options_; }

 private:
  // The namespace policy hooks (see renaming/service_core.h).
  friend class ServiceCore<ElasticRenamingService>;
  using ThreadNode = EpochDomain::Slot;
  struct ThreadExtra {
    /// The live group's tag when the stash was last retagged: only names
    /// carrying it are stashed, so a stash never mixes generations.
    std::uint32_t expected_tag = 0;
    /// Release-path maintenance cadence.
    std::uint32_t sample = 0;
  };
  static constexpr const char* kMetricPrefix = "elastic";
  /// A stale stash's names are still held in a retired group: flush them
  /// through the tag table so that group can drain.
  static constexpr bool kStaleStashHeld = true;

  ThreadNode& register_node() { return domain_.register_thread(); }
  void retire_node(ThreadNode& node) { domain_.retire(node); }
  [[nodiscard]] std::size_t node_count() const { return domain_.slots(); }
  [[nodiscard]] std::uint64_t stash_generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Re-pins the stash to the live tag. The tag and the generation are
  /// read separately; a resize racing between the two loads only costs
  /// one extra flush on the next call (the stale pairing fails the
  /// generation check again and self-heals).
  void retag_stash(PerThread& per) {
    per.extra.expected_tag = live_tag_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool plausible(sim::Name name) const { return name >= 0; }
  /// Only live-generation names are stashed: the tag must match the
  /// stash's and the local index the live bound. A name from a retired-
  /// but-draining generation takes the shared path, so retirees drain.
  [[nodiscard]] bool stashable(const PerThread& per, sim::Name name) const;
  EpochDomain::Guard pin(PerThread& per) {
    return EpochDomain::Guard(domain_, *per.node);
  }
  /// Under pin(): the name's group is linked, its stamp matches, and the
  /// cell is taken.
  [[nodiscard]] bool is_held(sim::Name name) const;
  sim::Name claim_one(PerThread& per, ShardGroup::ProbeStats& stats);
  std::uint64_t claim_many(PerThread& per, std::uint64_t want, sim::Name* out,
                           ShardGroup::ProbeStats& stats, bool* budget_hit);
  std::uint64_t release_batch(const sim::Name* names, std::uint64_t count,
                              PerThread& per);
  /// reclaim_cell already took each reaped cell off its group's count.
  void after_reap(PerThread& /*per*/, std::size_t /*reclaimed*/) {}
  /// Sampled maintenance drives reclamation (and auto-shrink) forward
  /// without a background thread and without taxing every release; a
  /// flush or a reap runs it eagerly.
  void released(PerThread& per, bool eager) {
    if (eager || (++per.extra.sample & 63u) == 0) maintenance();
  }
  /// Routes an expired name back into its generation's group via the tag
  /// table (the reap driver holds an epoch pin).
  bool reclaim_cell(sim::Name name);

  struct LimboEntry {
    std::unique_ptr<ShardGroup> group;
    std::uint64_t unlink_epoch;
  };

  /// Resize if the generation still equals `seen_gen`; returns true when
  /// the service resized (by this call or a concurrent one) so the caller
  /// should re-probe. Prevents a stampede of threads that all saw the
  /// same pressure from growing once each.
  bool grow_from(std::uint64_t seen_gen);
  /// Any fully served claim ends the miss streak: pressure must be
  /// *sustained* (uninterrupted misses) to trigger an automatic grow.
  void end_miss_streak() {
    if (miss_streak_.load(std::memory_order_relaxed) != 0) {
      miss_streak_.store(0, std::memory_order_relaxed);
    }
  }

  bool resize_locked(std::uint64_t target);
  std::size_t reclaim_locked();
  int find_free_tag_locked() const;
  /// Sampled release-path maintenance: reclamation + auto-shrink check.
  void maintenance();

  /// The grow threshold claim_one compares the miss streak against: the
  /// controller's hysteresis knob when attached, else the option.
  [[nodiscard]] std::uint32_t effective_grow_threshold() const {
    return controller() != nullptr ? controller()->grow_miss_threshold()
                                   : options_.grow_miss_threshold;
  }
  /// Likewise for the auto-shrink low-watermark streak (maintenance()).
  [[nodiscard]] std::uint32_t effective_shrink_threshold() const {
    return controller() != nullptr ? controller()->shrink_low_threshold()
                                   : options_.shrink_low_threshold;
  }

  ElasticOptions options_;
  std::uint64_t min_holders_;
  EpochDomain domain_;
  ScheduleCache schedules_;

  /// RCU-published pointers: the live group (acquire path) and the tag
  /// table (release path). Dereferenced only under an epoch pin.
  // mo: acquire, release, relaxed -- RCU pointer: release-publish on swap,
  // acquire-load before any deref (under an epoch pin); relaxed only for
  // pointer-identity checks under resize_mu_, which wrote the pointer.
  std::atomic<ShardGroup*> live_group_{nullptr};
  // mo: acquire, release, relaxed -- tag table: release-publish with the
  // swap, acquire-load before deref on the release path; relaxed for
  // nullptr slot scans under resize_mu_ (use sites carry mo:relaxed-ok —
  // the std::array wrapper hides the element type from the decl index).
  std::array<std::atomic<ShardGroup*>, kMaxGroups> groups_{};

  /// Lock-free mirrors of the live group's geometry so capacity()/holders()
  /// never dereference a pointer that a concurrent resize might retire —
  /// and so the name-cache fast paths can validate a name's tag and range
  /// without pinning the epoch.
  // mo: acquire, release -- geometry mirror: release-published with the
  // group swap, acquire-read by the name-cache range checks.
  std::atomic<std::uint64_t> live_local_capacity_{0};
  // mo: release, relaxed -- release-published with the group swap; relaxed
  // reads feed holders()/maintenance() sizing hints, never a deref.
  std::atomic<std::uint64_t> live_holders_{0};
  // mo: acquire, release -- published with the swap; acquire-read to stamp
  // per-thread stashes with the tag they must match.
  std::atomic<std::uint32_t> live_tag_{0};

  // mo: acquire, release, relaxed -- resize ticket: release-incremented
  // after each swap, acquire-read to detect a missed swap; relaxed inside
  // maintenance(), which holds resize_mu_ and so cannot race a writer.
  std::atomic<std::uint64_t> generation_{0};
  // mo: relaxed -- contended-acquire streak heuristic; a lost update only
  // delays a grow decision, it cannot corrupt state.
  std::atomic<std::uint32_t> miss_streak_{0};
  /// Consecutive low-watermark observations (maintenance() only, under
  /// resize_mu_); plain int would do but keeps the header self-consistent.
  // mo: relaxed -- written only under resize_mu_; atomic for the header's
  // self-consistency, not for cross-thread ordering.
  std::atomic<std::uint32_t> low_streak_{0};

  /// The resize and reclamation metrics (the op metrics are the core's).
  telemetry::MetricId grow_events_ = 0;
  telemetry::MetricId shrink_events_ = 0;
  telemetry::MetricId reclaimed_groups_ = 0;
  telemetry::MetricId epoch_advances_ = 0;
  telemetry::MetricId quiesce_ticks_ = 0;  // histogram

  /// Serializes resize + reclamation bookkeeping (cold path only).
  /// SimMutex, not std::mutex: the critical sections contain sim points
  /// (the scenario engine suspends workers *inside* a resize to test the
  /// publication order), and a blocking lock would deadlock the
  /// serialized schedule — see platform/sim_point.h. Identical to
  /// std::mutex in normal builds.
  mutable SimMutex resize_mu_;
  std::vector<std::unique_ptr<ShardGroup>> linked_;  // live + draining
  std::vector<LimboEntry> limbo_;  // unlinked, awaiting final quiescence
};

extern template class ServiceCore<ElasticRenamingService>;

}  // namespace loren
