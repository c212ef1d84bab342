// RenamingService: sharded long-lived loose renaming as a service.
//
// The ConcurrentRenamer is one ReBatching object over one arena: every
// thread probes the same B_0, and under churn all acquisitions funnel
// through one probe geometry and one set of hot lines. The service instead
// runs one ShardGroup (renaming/shard_group.h), built once and never
// resized: S shards (a power of two) of one ReBatching layout sized for
// n/S holders, each shard a word-aligned window of a single
// word-packed BitmapArena (64 cells per word, one word per cache line).
// A thread probes a *sticky* shard — initially its home shard, a cheap
// dense thread hash — so disjoint thread groups run on disjoint memory,
// and S is chosen so a shard holds at most 512 cells (eight words): under
// churn a thread's entire probe target is a few cache lines, which a
// single (1+eps)n-cell arena can never be. Each probe of the schedule
// claims any free cell of the word it lands in — one load and one
// fetch_or, the paper's TAS object 64 cells at a time (see
// tas/bitmap_arena.h). When a shard runs hot (wins start arriving late in
// the probe schedule) the thread migrates to a random shard; when a
// schedule misses outright it steals from the neighbours; and after all S
// schedules miss it falls back to a deterministic sweep of every cell, so
// acquire() fails only when the whole namespace is exhausted.
//
// Names are interleaved across shards — name = local * S + shard — so
// mapping a name back to its shard is a mask, not a division, and the
// namespace stays exactly [0, S * (1+eps)ceil(n/S) + O(S)).
//
// Guarantees (cf. the long-lived variant in Aspnes's notes, and [16, 20]
// in the paper's related work):
//   * uniqueness — names are handed out by per-cell TAS, so a name is
//     held by at most one caller at any time, globally across shards;
//   * namespace — every name is < capacity() = S * (1+eps)ceil(n/S) + O(S)
//     (the shard layout rounds its batches up);
//   * per-acquisition step bounds — while a shard serves at most n/S
//     concurrent holders, an acquisition that stays on its sticky shard
//     performs log2 log2 (n/S) + O(1) probes w.h.p.; migration/stealing
//     adds one schedule walk per visited shard.
//
// Hot-path engineering (measured by perfbench/'s reuse-churn and
// full-scatter workloads):
//   * one thread_local context per call — cached Xoshiro256, thread slot,
//     shard hints, and counter node behind a single TLS access, so the
//     generator is seeded once per thread, never per acquisition (the
//     paper-model ConcurrentRenamer caches its threads' coin streams the
//     same way);
//   * word-scan shards of at most 512 cells — a probe covers 64 cells
//     with one load and one RMW, and a sticky thread's probes stay in a
//     few cache lines;
//   * registered per-thread live counter — bookkeeping is a plain store
//     to a thread-owned cache line, not a locked RMW, and acquire/release
//     never serialize on one cell;
//   * shift/mask name decoding — release() does no division.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/registered_counter.h"
#include "renaming/service_core.h"
#include "renaming/shard_group.h"
#include "sim/env.h"

namespace loren {

/// The shared fields are documented on ServiceOptions
/// (renaming/service_core.h); the fixed service adds none.
struct RenamingServiceOptions : ServiceOptions {
  RenamingServiceOptions() { seed = 0x53ED; }
};

/// The op surface — acquire, release, acquire_many, release_many,
/// flush_thread_cache, the lease ops and the telemetry accessors — is
/// ServiceCore's (renaming/service_core.h); this class is its fixed
/// namespace policy.
class RenamingService : public ServiceCore<RenamingService> {
 public:
  /// Serves up to `n` concurrent holders from a ~(1+eps)n namespace.
  /// Throws std::invalid_argument for n == 0. The constructed service is
  /// immediately usable from any thread.
  explicit RenamingService(std::uint64_t n,
                           RenamingServiceOptions options = {});
  ~RenamingService();

  /// O(1) full reset: epoch-bumps the shard group's arena, zeroes the live
  /// counter, drops every lease, and invalidates every thread's stash
  /// (their contents are discarded on the owning thread's next call — the
  /// epoch bump already freed the cells). Not safe concurrently with
  /// acquire/release — quiesce first.
  void reset();

  /// Geometry accessors: fixed at construction, safe from any thread.
  /// Every issued name is < capacity(); each shard is laid out for
  /// shard_holders() concurrent holders.
  [[nodiscard]] std::uint64_t capacity() const {
    return group_.local_capacity();
  }
  [[nodiscard]] std::uint64_t num_shards() const { return group_.shards(); }
  [[nodiscard]] std::uint64_t shard_holders() const {
    return group_.shard_layout().n();
  }
  /// Approximate while calls are in flight, exact at quiescence (after
  /// the workers have been joined or otherwise synchronized). Names
  /// parked in thread stashes count as live — they are unavailable to
  /// every other thread; flush_thread_cache() on each thread drains them.
  [[nodiscard]] std::uint64_t names_live() const {
    const std::int64_t live = live_.sum();
    return live > 0 ? static_cast<std::uint64_t>(live) : 0;
  }
  /// The shard acquire() tries first on this thread before any migration
  /// (for tests).
  [[nodiscard]] std::uint64_t home_shard() const {
    return thread_slot() & (group_.shards() - 1);
  }

 private:
  // The namespace policy hooks (see renaming/service_core.h).
  friend class ServiceCore<RenamingService>;
  using ThreadNode = RegisteredCounter::Node;
  struct ThreadExtra {};
  struct NoPin {};
  static constexpr const char* kMetricPrefix = "service";
  /// reset() epoch-bumped the stashed cells free: discard, never release.
  static constexpr bool kStaleStashHeld = false;

  ThreadNode& register_node() { return live_.register_thread(); }
  void retire_node(ThreadNode& node) { live_.retire(node); }
  [[nodiscard]] std::size_t node_count() const { return live_.nodes(); }
  [[nodiscard]] std::uint64_t stash_generation() const {
    // mo:relaxed-ok(invalidation stamp compare; see cache_gen_'s contract)
    return cache_gen_.load(std::memory_order_relaxed);
  }
  void retag_stash(PerThread& /*per*/) {}
  [[nodiscard]] bool plausible(sim::Name name) const {
    return name >= 0 && static_cast<std::uint64_t>(name) < capacity();
  }
  [[nodiscard]] bool stashable(const PerThread& /*per*/,
                               sim::Name /*name*/) const {
    return true;
  }
  NoPin pin(PerThread& /*per*/) { return {}; }
  [[nodiscard]] bool is_held(sim::Name name) const {
    return group_.is_held(static_cast<std::uint64_t>(name));
  }
  sim::Name claim_one(PerThread& per, ShardGroup::ProbeStats& stats);
  std::uint64_t claim_many(PerThread& per, std::uint64_t want, sim::Name* out,
                           ShardGroup::ProbeStats& stats, bool* budget_hit);
  std::uint64_t release_batch(const sim::Name* names, std::uint64_t count,
                              PerThread& per);
  /// Reaped cells went back through reclaim_cell, which has no thread
  /// context: the reaping thread's counter node takes the decrement.
  void after_reap(PerThread& per, std::size_t reclaimed) {
    RegisteredCounter::add(*per.node, -static_cast<std::int64_t>(reclaimed));
  }
  void released(PerThread& /*per*/, bool /*eager*/) {}
  bool reclaim_cell(sim::Name name) {
    return name >= 0 && group_.release_local(static_cast<std::uint64_t>(name));
  }

  /// The whole namespace: built once, never resized.
  ShardGroup group_;
  RegisteredCounter live_;
  /// Stash-invalidation generation: reset() bumps it, and a stash tagged
  /// with an older value discards its contents on its owner's next call
  /// (the epoch bump already freed those cells). Starts at 1 so a fresh
  /// stash (gen 0) always re-tags before serving.
  // mo: relaxed -- invalidation stamp: readers only compare it against
  // their stash tag; reset() already requires external quiescence, so the
  // bump never races the arena epoch bump it trails.
  std::atomic<std::uint64_t> cache_gen_{1};
};

extern template class ServiceCore<RenamingService>;

}  // namespace loren
