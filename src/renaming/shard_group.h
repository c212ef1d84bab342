// ShardGroup: the sharded namespace under both renaming services.
//
// A shard group is S shards (a power of two) of one ReBatching geometry —
// a BatchLayout for holders/S concurrent holders, planned once into a
// per-batch probe plan (CachedSchedule) that every shard shares — over a
// *single* word-packed BitmapArena. RenamingService holds one group for
// its whole life; the ElasticRenamingService publishes, retires and
// reclaims one group per generation. One allocation per group, not one
// per shard, so a retired generation is freed with one deallocation and a
// group's footprint appears/disappears atomically from the service's
// accounting.
//
// Shard si owns the arena window [base(si), base(si) + stride), where
// stride is the layout's cell count and base(si) = si * round_up(stride,
// 64): every window starts on a word boundary, so no two shards ever share
// a 64-cell word (or, in the padded layout, a cache line), and the last
// word of a window carries dead tail bits past stride that the window
// clamp in BitmapArena keeps unclaimable.
//
// The probing discipline: a thread probes its *sticky* shard with the
// word-scan schedule, never re-probing a word the same walk already saw
// full; a late win (at or past kMigrateThreshold) moves the hint to a
// random shard, a full miss steals ringward, and after every schedule
// missed a deterministic sweep of every cell is the exhaustion
// backstop. Names are group-local — (cell << shard_shift) | shard, so
// decoding is a shift and a mask and the namespace is exactly
// S * stride — and the elastic service adds its group tag on top
// (elastic_service.h), which is also where uniqueness across generations
// is argued.
//
// The striped live counter is the elastic service's drain detector:
// acquisitions increment it inside an epoch pin, so once the service has
// (a) unpublished the group from the live pointer and (b) seen the retire
// epoch quiesce, the counter is monotonically non-increasing, and zero
// means drained — no name from this generation is still held, so the
// group can be unlinked and, after a second quiescence, freed. The fixed
// service never resizes and keeps its own registered counter instead.
#pragma once

#include <cstdint>
#include <memory>

#include "platform/rng.h"
#include "platform/striped_counter.h"
#include "renaming/schedule_cache.h"
#include "tas/bitmap_arena.h"

namespace loren {

/// Cell cap of an auto-sized shard: 512 cells is eight 64-cell words.
inline constexpr std::uint64_t kMaxShardCells = 512;

/// The auto-sharding heuristic shared by both services: the smallest
/// power-of-two shard count such that (a) hardware threads get distinct
/// home shards and (b) a shard's layout has at most kMaxShardCells (512)
/// cells, clamped so every shard still serves >= 64 holders (tiny shards
/// overflow constantly and every acquisition degenerates to stealing).
/// The shard count fixes each shard's holder count, and with it the
/// per-acquisition step counts and the namespace size, so the policy is
/// pinned by tests.
///
/// `hw_threads` is the hardware thread count to shard for; 0 means
/// "unknown" (std::thread::hardware_concurrency() is allowed to return 0)
/// and is treated as 1 — left unclamped it would silently disable the
/// distinct-home-shards growth condition. Injectable so the policy is
/// unit-testable without faking the host's topology.
std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               std::uint32_t hw_threads);
/// Convenience overload: shard for this host (hardware_concurrency()).
std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params);

/// Resolves a requested shard count: 0 = auto_shard_count, otherwise
/// rounded up to a power of two and clamped so a shard never serves less
/// than one holder. One policy for both services. The three-argument form
/// uses this host's hardware_concurrency().
std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params);
std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params,
                              std::uint32_t hw_threads);

class ShardGroup {
 public:
  /// `shards` must be a power of two; `schedule` is the plan for this
  /// group's per-shard holder count (schedule->layout.n() == holders/S).
  /// The substrate is one padded BitmapArena of shards word-aligned
  /// windows.
  ShardGroup(std::uint32_t tag, std::uint64_t generation, std::uint64_t holders,
             std::uint64_t shards,
             std::shared_ptr<const CachedSchedule> schedule);

  /// Per-call accounting, accumulated across calls so one struct can span
  /// a multi-round acquisition: word probes issued (shared-memory loads;
  /// schedule slots skipped by the full-word memo are not counted), the
  /// claiming fetch_ors next to them (the schedule walk's, seed probes of
  /// a batch included, apart from the run claims of batches and sweeps;
  /// lost ones counted in both), observable lost races (load-before-RMW
  /// paths only — a lost single-RMW test_and_set is indistinguishable
  /// from "already taken"), how far the batched ring walk and the
  /// backstop sweep went, and how often the sticky hint moved (a late
  /// win or a steal).
  struct ProbeStats {
    std::uint32_t probes = 0;
    std::uint32_t claims = 0;
    std::uint32_t run_claims = 0;
    std::uint32_t lost_races = 0;
    std::uint32_t ring_shards = 0;
    std::uint32_t sweep_shards = 0;
    std::uint32_t migrations = 0;
  };

  /// Walk the shard ring starting at *sticky (updated in place: migrate to
  /// a random shard on late wins, move to the winning shard when
  /// stealing). Returns the group-local name, or -1 when every shard's
  /// schedule missed.
  std::int64_t try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                           ProbeStats& stats);

  /// Deterministic sweep of every cell (ring order from *sticky): fails
  /// with -1 only when zero cells in the group are free. `sweep_budget`
  /// bounds the walk to that many shards (0 = unbounded): a truncated
  /// sweep that found nothing returns kSweepBudgetTruncated (-2), which
  /// callers must NOT treat as exhaustion pressure (a bounded scan giving
  /// up is not evidence the group is full).
  static constexpr std::int64_t kSweepBudgetTruncated = -2;
  std::int64_t sweep_acquire(std::uint32_t* sticky, std::uint64_t sweep_budget,
                             ProbeStats& stats);

  /// Batched acquisition: claims up to `k` group-local names into `out`,
  /// returning the number claimed. Walks the shard ring from *sticky like
  /// try_acquire: per visited shard one probe-schedule walk wins a *seed*
  /// cell and the rest of the demand is run-claimed linearly from the seed
  /// (forward to the window end, then wrapping once to the cells before
  /// it; one fetch_or per word — see BitmapArena::try_claim_run). A
  /// shortfall then falls back to the deterministic sweep, so returning
  /// < k means the group had fewer than k free cells when scanned — the
  /// per-batch exhaustion signal. `sweep_budget` bounds the backstop sweep
  /// (0 = unbounded); a budget-truncated shortfall sets *sweep_budget_hit
  /// so the caller can keep it out of the pressure signals.
  std::uint64_t try_acquire_many(Xoshiro256& rng, std::uint32_t* sticky,
                                 std::uint64_t k, std::int64_t* out,
                                 std::uint64_t sweep_budget,
                                 bool* sweep_budget_hit, ProbeStats& stats);

  /// Frees a group-local name; false when it is not currently taken
  /// (single-RMW validation, concurrent double releases cannot both
  /// succeed).
  bool release_local(std::uint64_t local) {
    if (local >= local_capacity()) return false;
    return arena_.try_release(cell_index(local));
  }

  /// True iff `local` is currently taken (a plain acquire load, no RMW).
  /// The release path of the thread-local name cache uses this to
  /// validate a name before stashing it instead of freeing its cell.
  [[nodiscard]] bool is_held(std::uint64_t local) const {
    if (local >= local_capacity()) return false;
    return arena_.read(cell_index(local)) == 1;
  }

  /// O(1) reset of every cell (the arena epoch bump). Requires external
  /// quiescence; the live counter and retirement state are untouched.
  void reset() { arena_.reset(); }

  /// Bookkeeping around the arena ops (the elastic service calls these
  /// inside the same epoch pin as the arena op itself — see the preamble).
  void note_acquired() { live_.add(1); }
  void note_released() { live_.add(-1); }
  /// Batch variants: one striped add for the whole batch.
  void note_acquired_n(std::int64_t n) { live_.add(n); }
  void note_released_n(std::int64_t n) { live_.add(-n); }
  [[nodiscard]] std::int64_t live() const { return live_.sum(); }

  /// Marks the group retiring; `epoch` is the domain epoch returned by the
  /// advance() that followed the live-pointer swap. `ticks` (optional) is
  /// the retirement timestamp in telemetry::trace_ticks() units — the
  /// service's reclaim pass turns it into the quiescence-wait histogram.
  void retire(std::uint64_t epoch, std::uint64_t ticks = 0) {
    retire_ticks_.store(ticks, std::memory_order_relaxed);
    retire_epoch_.store(epoch, std::memory_order_relaxed);
    retired_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool retired() const {
    return retired_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t retire_epoch() const {
    return retire_epoch_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t retire_ticks() const {
    return retire_ticks_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t tag() const { return tag_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Concurrent holders this generation is laid out for.
  [[nodiscard]] std::uint64_t holders() const { return holders_; }
  [[nodiscard]] std::uint64_t shards() const { return shard_mask_ + 1; }
  /// Group-local namespace bound: every local name is < this.
  [[nodiscard]] std::uint64_t local_capacity() const {
    return shard_stride_ << shard_shift_;
  }
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return arena_.footprint_bytes();
  }
  [[nodiscard]] const BatchLayout& shard_layout() const {
    return schedule_->layout;
  }

 private:
  /// Window-geometry access for tests/shard_group_test.cpp.
  friend struct ShardGroupPeer;

  /// Wins arriving at or past this schedule position mean the shard is
  /// running hot (expected position under the analysis' load is O(1)).
  /// Positions count every slot, probed or skipped by the full-word memo.
  static constexpr std::uint64_t kMigrateThreshold = 8;

  /// First arena cell of shard `si`'s window.
  [[nodiscard]] std::uint64_t base(std::uint64_t si) const {
    return si * shard_window_;
  }
  /// Arena cell of a group-local name (local < local_capacity()).
  [[nodiscard]] std::uint64_t cell_index(std::uint64_t local) const {
    return base(local & shard_mask_) + (local >> shard_shift_);
  }
  [[nodiscard]] std::int64_t encode(std::uint64_t si,
                                    std::uint64_t cell) const {
    return static_cast<std::int64_t>((cell << shard_shift_) | si);
  }

  /// Where a sticky hint moves after a late win: a uniformly random
  /// shard. Moving to the next shard in ring order instead lets threads
  /// that migrate often catch up with one another and travel the ring as
  /// a bunch, where each one's releases and claims land in the 64-cell
  /// words the others are probing.
  std::uint32_t late_win_shard(Xoshiro256& rng) const {
    return static_cast<std::uint32_t>(rng.next() & shard_mask_);
  }

  /// Walk shard `si`'s probe schedule, batch by batch, skipping slots on
  /// words this walk already saw full. Returns the group-local name, or
  /// -1 on a full miss; sets `late` when the win arrived at or past
  /// kMigrateThreshold.
  std::int64_t probe(std::uint64_t si, Xoshiro256& rng, bool* late,
                     ProbeStats& stats);

  /// Run-claim over shard `si`'s window-relative cells [from, to),
  /// encoding wins as group-local names directly into `out`. Returns the
  /// number claimed.
  std::uint64_t claim_run(std::uint64_t si, std::uint64_t from,
                          std::uint64_t to, std::uint64_t k, std::int64_t* out,
                          ProbeStats& stats);

  /// One backstop-sweep step: claims up to `k` cells anywhere in shard
  /// `si`'s window (counted in stats.sweep_shards). Returns the count.
  std::uint64_t sweep_shard(std::uint64_t si, std::uint64_t k,
                            std::int64_t* out, ProbeStats& stats);

  std::uint32_t tag_;
  std::uint64_t generation_;
  std::uint64_t holders_;
  std::uint64_t shard_stride_;  // cells per shard
  std::uint64_t shard_window_;  // stride rounded up to a whole word
  std::uint64_t shard_mask_;    // shards - 1 (power of two)
  std::uint32_t shard_shift_;   // log2(shards)
  std::shared_ptr<const CachedSchedule> schedule_;
  BitmapArena arena_;
  StripedCounter live_;
  // mo: acquire, release -- retirement flag: retire() release-stores it
  // last so an acquire reader that sees true also sees epoch and ticks.
  std::atomic<bool> retired_{false};
  // mo: relaxed -- payload ordered by the retired_ release/acquire pair;
  // never read before retired() observes true.
  std::atomic<std::uint64_t> retire_epoch_{0};
  // mo: relaxed -- payload ordered by the retired_ release/acquire pair;
  // feeds the quiescence-wait histogram only.
  std::atomic<std::uint64_t> retire_ticks_{0};
};

}  // namespace loren
