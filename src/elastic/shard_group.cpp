#include "elastic/shard_group.h"

#include <stdexcept>

#include "platform/sim_point.h"
#include "renaming/batch_claim.h"

namespace loren {

ShardGroup::ShardGroup(std::uint32_t tag, std::uint64_t generation,
                       std::uint64_t holders, std::uint64_t shards,
                       ArenaLayout arena_layout,
                       std::shared_ptr<const CachedSchedule> schedule)
    : tag_(tag),
      generation_(generation),
      holders_(holders),
      shard_stride_(schedule->layout.total()),
      shard_mask_(shards - 1),
      shard_shift_(0),
      schedule_(std::move(schedule)),
      arena_(shard_stride_ * shards, arena_layout) {
  if (shards == 0 || (shards & (shards - 1)) != 0) {
    throw std::invalid_argument("ShardGroup: shards must be a power of two");
  }
  for (std::uint64_t s = shards; s > 1; s >>= 1) ++shard_shift_;
  segments_.reserve(shards);
  for (std::uint64_t i = 0; i < shards; ++i) {
    segments_.emplace_back(arena_, i * shard_stride_, shard_stride_);
  }
}

std::int64_t ShardGroup::probe_segment(std::uint64_t si, Xoshiro256& rng,
                                       bool* late, ProbeStats* stats) {
  ArenaSegment& seg = segments_[si];
  const FlatProbeSchedule::Slot* const first = schedule_->schedule.begin();
  std::uint32_t* const lost =
      stats != nullptr ? &stats->lost_races : nullptr;
  // Word-granular probe schedule: each slot's random draw nominates a
  // word, and the 64-way scan claims any free cell in it (clamped to this
  // shard's window). A probe fails only when its whole word is full, so a
  // schedule walk covers up to 64x the cells at the same probe budget.
  for (const auto* slot = first; slot != schedule_->schedule.end(); ++slot) {
    const std::uint64_t x = slot->offset + rng.below(slot->size);
    const std::int64_t cell = seg.try_claim_word(x, lost);
    if (cell >= 0) {
      *late = (slot - first) >= kMigrateThreshold;
      if (stats != nullptr) {
        stats->probes += static_cast<std::uint32_t>(slot - first) + 1;
      }
      return static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(cell) << shard_shift_) | si);
    }
  }
  if (stats != nullptr) {
    stats->probes +=
        static_cast<std::uint32_t>(schedule_->schedule.end() - first);
  }
  return -1;
}

std::int64_t ShardGroup::try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                                     ProbeStats* stats) {
  const std::uint64_t S = shard_mask_ + 1;
  for (std::uint64_t k = 0; k < S; ++k) {
    const std::uint64_t si = (*sticky + k) & shard_mask_;
    bool late = false;
    const std::int64_t local = probe_segment(si, rng, &late, stats);
    if (local >= 0) {
      if (k != 0) {
        *sticky = static_cast<std::uint32_t>(si);
      } else if (late) {
        *sticky = late_win_shard(rng, shard_mask_);
      }
      return local;
    }
  }
  return -1;
}

std::int64_t ShardGroup::sweep_acquire(std::uint32_t* sticky,
                                       std::uint64_t sweep_budget,
                                       ProbeStats* stats) {
  const std::uint64_t S = shard_mask_ + 1;
  const std::uint64_t cap =
      sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
  for (std::uint64_t k = 0; k < cap; ++k) {
    const std::uint64_t si = (*sticky + k) & shard_mask_;
    LOREN_SIM_POINT("group.sweep");
    if (stats != nullptr) ++stats->sweep_shards;
    // One-cell run-claim: word-at-a-time snapshots (64 cells per load),
    // so the backstop fails only when the shard really had zero free
    // cells when scanned.
    std::uint64_t cell = 0;
    if (segments_[si].try_claim_run(
            0, shard_stride_, 1, &cell,
            stats != nullptr ? &stats->lost_races : nullptr) == 1) {
      *sticky = static_cast<std::uint32_t>(si);
      return static_cast<std::int64_t>((cell << shard_shift_) | si);
    }
  }
  return cap < S ? kSweepBudgetTruncated : -1;
}

std::uint64_t ShardGroup::claim_encoded(std::uint64_t si, std::uint64_t from,
                                        std::uint64_t to, std::uint64_t k,
                                        std::int64_t* out,
                                        std::uint32_t* lost_races) {
  return claim_encode_inplace(
      [&](std::uint64_t* raw) {
        return segments_[si].try_claim_run(from, to, k, raw, lost_races);
      },
      shard_shift_, si, out);
}

std::uint64_t ShardGroup::try_acquire_many(Xoshiro256& rng,
                                           std::uint32_t* sticky,
                                           std::uint64_t k, std::int64_t* out,
                                           std::uint64_t sweep_budget,
                                           bool* sweep_budget_hit,
                                           ProbeStats* stats) {
  std::uint32_t* const lost =
      stats != nullptr ? &stats->lost_races : nullptr;
  BatchWalkStats walk;
  const std::uint64_t got = batch_claim_ring(
      shard_mask_, shard_shift_, shard_stride_, sticky, rng, k, out,
      [&](std::uint64_t si, bool* late) {
        return probe_segment(si, rng, late, stats);
      },
      [&](std::uint64_t si, std::uint64_t from, std::uint64_t to,
          std::uint64_t budget, std::int64_t* dst) {
        return claim_encoded(si, from, to, budget, dst, lost);
      },
      sweep_budget, sweep_budget_hit, stats != nullptr ? &walk : nullptr);
  if (stats != nullptr) {
    stats->ring_shards += walk.ring_shards;
    stats->sweep_shards += walk.sweep_shards;
  }
  return got;
}

bool ShardGroup::release_local(std::uint64_t local) {
  if (local >= local_capacity()) return false;
  const std::uint64_t si = local & shard_mask_;
  const std::uint64_t cell = local >> shard_shift_;
  return segments_[si].try_release(cell);
}

}  // namespace loren
