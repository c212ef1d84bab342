// ShardGroup: one generation of the elastic namespace.
//
// A shard group is the unit the ElasticRenamingService publishes, retires,
// and reclaims: a fixed probe geometry (BatchLayout for n_g/S holders per
// shard, flattened once and shared via ScheduleCache) over a *single*
// word-packed BitmapArena carved into S shard segments. One allocation per
// group — not one per shard — so the epoch-based resize protocol frees a
// retired generation with one deallocation, and a group's whole footprint
// appears/disappears atomically from the service's accounting.
//
// Within a group the probing discipline is the RenamingService one
// (service.h): sticky shard, ring migration on late wins, ring stealing
// on schedule misses, deterministic sweep as the exhaustion backstop.
// Names are group-local here — (cell << shard_shift) | shard — and gain
// their group tag only at the service layer (elastic_service.h), which is
// also where uniqueness across generations is argued.
//
// The striped live counter is the group's drain detector: acquisitions
// increment it inside an epoch pin, so once the service has (a) unpublished
// the group from the live pointer and (b) seen the retire epoch quiesce,
// the counter is monotonically non-increasing, and zero means drained —
// no name from this generation is still held, so the group can be
// unlinked and, after a second quiescence, freed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "platform/rng.h"
#include "platform/striped_counter.h"
#include "renaming/schedule_cache.h"
#include "tas/arena_segment.h"

namespace loren {

class ShardGroup {
 public:
  /// `shards` must be a power of two; `schedule` is the plan for this
  /// group's per-shard holder count (schedule->layout.n() == holders/S).
  /// The substrate is one BitmapArena of shards * stride cells, carved
  /// into shard segments.
  ShardGroup(std::uint32_t tag, std::uint64_t generation, std::uint64_t holders,
             std::uint64_t shards, ArenaLayout arena_layout,
             std::shared_ptr<const CachedSchedule> schedule);

  /// Optional per-call observability (telemetry detailed mode): probe
  /// counts, observable lost races (load-before-RMW paths only — a lost
  /// single-RMW test_and_set is indistinguishable from "already taken"),
  /// and how far the batched ring walk / backstop sweep went. All fields
  /// accumulate, so one struct can span a multi-round acquisition.
  struct ProbeStats {
    std::uint32_t probes = 0;
    std::uint32_t lost_races = 0;
    std::uint32_t ring_shards = 0;
    std::uint32_t sweep_shards = 0;
  };

  /// Walk the shard ring starting at *sticky (updated in place: migrate to
  /// a random shard on late wins, move to the winning shard when
  /// stealing). Returns the group-local name, or -1 when every shard's
  /// schedule missed.
  std::int64_t try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                           ProbeStats* stats = nullptr);

  /// Deterministic sweep of every cell (ring order from *sticky): fails
  /// with -1 only when zero cells in the group are free. `sweep_budget`
  /// bounds the walk to that many shards (0 = unbounded): a truncated
  /// sweep that found nothing returns kSweepBudgetTruncated (-2), which
  /// the elastic service must NOT treat as exhaustion pressure (a
  /// bounded scan giving up is not evidence the group is full).
  static constexpr std::int64_t kSweepBudgetTruncated = -2;
  std::int64_t sweep_acquire(std::uint32_t* sticky,
                             std::uint64_t sweep_budget = 0,
                             ProbeStats* stats = nullptr);

  /// Batched acquisition: claims up to `k` group-local names into `out`,
  /// returning the number claimed. One probe-schedule walk finds a seed
  /// cell per visited shard; the rest of that shard's demand is taken by
  /// a linear run-claim around the seed (one word at a time — see
  /// BitmapArena::try_claim_run). Walks the shard ring from *sticky like
  /// try_acquire, then falls back to the deterministic sweep
  /// (renaming/batch_claim.h holds the shared walk), so a shortfall
  /// (return < k) means the group had fewer than k free cells when
  /// scanned — the per-batch exhaustion signal the elastic service's
  /// grow-on-shortfall policy consumes. `sweep_budget` bounds the
  /// backstop sweep (0 = unbounded); a budget-truncated shortfall sets
  /// *sweep_budget_hit so the caller can keep it out of the pressure
  /// signals (see batch_claim.h).
  std::uint64_t try_acquire_many(Xoshiro256& rng, std::uint32_t* sticky,
                                 std::uint64_t k, std::int64_t* out,
                                 std::uint64_t sweep_budget = 0,
                                 bool* sweep_budget_hit = nullptr,
                                 ProbeStats* stats = nullptr);

  /// Frees a group-local name; false when it is not currently taken
  /// (single-RMW validation, concurrent double releases cannot both
  /// succeed).
  bool release_local(std::uint64_t local);

  /// True iff `local` is currently taken (a plain acquire load, no RMW).
  /// The release path of the thread-local name cache uses this to
  /// validate a name before stashing it instead of freeing its cell.
  [[nodiscard]] bool is_held(std::uint64_t local) const {
    if (local >= local_capacity()) return false;
    return segments_[local & shard_mask_].read(local >> shard_shift_) == 1;
  }

  /// Bookkeeping around the arena ops (the service calls these inside the
  /// same epoch pin as the arena op itself — see shard_group.h preamble).
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
  /// Same pressure threshold as RenamingService: wins at or past this
  /// probe position mean the shard is running hot.
  static constexpr std::ptrdiff_t kMigrateThreshold = 8;

  std::int64_t probe_segment(std::uint64_t si, Xoshiro256& rng, bool* late,
                             ProbeStats* stats = nullptr);

  /// Run-claim over shard `si`'s window [from, to), encoding wins as
  /// group-local names directly into `out`. Returns the number claimed.
  std::uint64_t claim_encoded(std::uint64_t si, std::uint64_t from,
                              std::uint64_t to, std::uint64_t k,
                              std::int64_t* out,
                              std::uint32_t* lost_races = nullptr);

  std::uint32_t tag_;
  std::uint64_t generation_;
  std::uint64_t holders_;
  std::uint64_t shard_stride_;  // cells per shard
  std::uint64_t shard_mask_;    // shards - 1 (power of two)
  std::uint32_t shard_shift_;   // log2(shards)
  std::shared_ptr<const CachedSchedule> schedule_;
  /// One allocation of shards * stride cells that the segments window
  /// into.
  BitmapArena arena_;
  std::vector<ArenaSegment> segments_;
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
