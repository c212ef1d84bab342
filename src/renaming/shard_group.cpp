#include "renaming/shard_group.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "platform/sim_point.h"

namespace loren {

namespace {

std::uint64_t shard_cells(std::uint64_t n, std::uint64_t shards,
                          const BatchLayoutParams& params) {
  const std::uint64_t holders = (n + shards - 1) / shards;
  return BatchLayout(holders, params).total();
}

}  // namespace

std::uint64_t auto_shard_count(std::uint64_t n, const BatchLayoutParams& params,
                               std::uint32_t hw_threads) {
  // hardware_concurrency() may legitimately return 0 ("unknown"). Treat
  // it as 1 — the conservative reading, made explicit here rather than
  // left to the accident that `shards < 0u` is unsatisfiable (the clamp
  // pins the hw==0 contract down so it is documented and, with hw
  // injectable, unit-tested; the cell cap below still drives the shard
  // count up for large namespaces).
  const std::uint64_t hw = std::max<std::uint32_t>(1u, hw_threads);
  // Grow while (a) hardware threads would share home shards or (b) a
  // shard exceeds the cell cap — a sticky thread's whole probe target
  // stays a few cache lines — but never shard below 64 holders.
  std::uint64_t shards = 1;
  while (n / (shards * 2) >= 64 &&
         (shards < hw || shard_cells(n, shards, params) > kMaxShardCells)) {
    shards <<= 1;
  }
  return shards;
}

std::uint64_t auto_shard_count(std::uint64_t n,
                               const BatchLayoutParams& params) {
  return auto_shard_count(n, params, std::thread::hardware_concurrency());
}

std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params,
                              std::uint32_t hw_threads) {
  if (requested == 0) return auto_shard_count(n, params, hw_threads);
  std::uint64_t shards = 1;
  while (shards < requested) shards <<= 1;  // round up to a power of two
  while (shards > 1 && shards > n) shards >>= 1;
  return shards;
}

std::uint64_t shard_count_for(std::uint64_t n, std::uint64_t requested,
                              const BatchLayoutParams& params) {
  return shard_count_for(n, requested, params,
                         std::thread::hardware_concurrency());
}

ShardGroup::ShardGroup(std::uint32_t tag, std::uint64_t generation,
                       std::uint64_t holders, std::uint64_t shards,
                       std::shared_ptr<const CachedSchedule> schedule)
    : tag_(tag),
      generation_(generation),
      holders_(holders),
      shard_stride_(schedule->layout.total()),
      shard_window_((shard_stride_ + BitmapArena::kBitsPerWord - 1) /
                    BitmapArena::kBitsPerWord * BitmapArena::kBitsPerWord),
      shard_mask_(shards - 1),
      shard_shift_(0),
      schedule_(std::move(schedule)),
      arena_(shard_window_ * shards) {
  if (shards == 0 || (shards & (shards - 1)) != 0) {
    throw std::invalid_argument("ShardGroup: shards must be a power of two");
  }
  for (std::uint64_t s = shards; s > 1; s >>= 1) ++shard_shift_;
}

std::int64_t ShardGroup::probe(std::uint64_t si, Xoshiro256& rng, bool* late,
                               ProbeStats& stats) {
  static_assert(BitmapArena::kBitsPerWord == 64,
                "the full-word memo is one bit per 64-cell word");
  const std::uint64_t lo = base(si);
  const std::uint64_t hi = lo + shard_stride_;
  // Word-granular probe schedule: each slot's random draw nominates a
  // word, and the 64-way scan claims any free cell in it (clamped to this
  // shard's window). A probe fails only when its whole word is full, so a
  // schedule walk covers up to 64x the cells at the same probe budget.
  //
  // The full-word memo (docs/protocols.md, "Full-word memo"): `full` holds
  // the window-relative words this walk has seen full (windows are
  // word-aligned, so a draw's word is x / 64). A draw on a known-full word
  // is skipped with no load, and once every word a batch spans is known
  // full the rest of its budget is skipped without drawing. `pos` counts
  // every slot, skipped or probed, so the migration rule is unchanged.
  std::uint64_t full = 0;
  std::uint64_t pos = 0;
  std::uint32_t issued = 0;
  for (const CachedSchedule::Batch& b : schedule_->batches) {
    std::uint64_t left = b.budget;
    while (left != 0 && (b.words == 0 || (b.words & ~full) != 0)) {
      --left;
      const std::uint64_t x = b.offset + rng.below(b.size);
      const std::uint64_t w = x / BitmapArena::kBitsPerWord;
      const std::uint64_t bit = w < 64 ? std::uint64_t{1} << w : 0;
      if ((full & bit) == 0) {
        ++issued;
        const std::int64_t cell =
            arena_.try_claim_in_word(lo + x, lo, hi, &stats.lost_races,
                                     &stats.claims);
        if (cell >= 0) {
          stats.probes += issued;
          *late = pos >= kMigrateThreshold;
          return encode(si, static_cast<std::uint64_t>(cell) - lo);
        }
        full |= bit;
      }
      ++pos;
    }
    pos += left;
  }
  stats.probes += issued;
  return -1;
}

std::int64_t ShardGroup::try_acquire(Xoshiro256& rng, std::uint32_t* sticky,
                                     ProbeStats& stats) {
  const std::uint64_t S = shard_mask_ + 1;
  for (std::uint64_t k = 0; k < S; ++k) {
    const std::uint64_t si = (*sticky + k) & shard_mask_;
    bool late = false;
    const std::int64_t local = probe(si, rng, &late, stats);
    if (local >= 0) {
      if (k != 0) {
        *sticky = static_cast<std::uint32_t>(si);
        ++stats.migrations;
      } else if (late) {
        *sticky = late_win_shard(rng);
        ++stats.migrations;
      }
      return local;
    }
  }
  return -1;
}

std::int64_t ShardGroup::sweep_acquire(std::uint32_t* sticky,
                                       std::uint64_t sweep_budget,
                                       ProbeStats& stats) {
  const std::uint64_t S = shard_mask_ + 1;
  const std::uint64_t cap =
      sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
  for (std::uint64_t k = 0; k < cap; ++k) {
    const std::uint64_t si = (*sticky + k) & shard_mask_;
    std::int64_t local = 0;
    if (sweep_shard(si, 1, &local, stats) == 1) {
      *sticky = static_cast<std::uint32_t>(si);
      return local;
    }
  }
  return cap < S ? kSweepBudgetTruncated : -1;
}

std::uint64_t ShardGroup::claim_run(std::uint64_t si, std::uint64_t from,
                                    std::uint64_t to, std::uint64_t k,
                                    std::int64_t* out, ProbeStats& stats) {
  const std::uint64_t lo = base(si);
  // Claim raw arena indices straight into the caller's slots, then encode
  // in place: uint64/int64 alias legally and every index fits either, so
  // no scratch buffer is needed.
  auto* raw = reinterpret_cast<std::uint64_t*>(out);
  const std::uint64_t got =
      arena_.try_claim_run(lo + from, lo + to, k, raw, &stats.lost_races,
                           &stats.run_claims);
  for (std::uint64_t i = 0; i < got; ++i) out[i] = encode(si, raw[i] - lo);
  return got;
}

std::uint64_t ShardGroup::sweep_shard(std::uint64_t si, std::uint64_t k,
                                      std::int64_t* out, ProbeStats& stats) {
  LOREN_SIM_POINT("group.sweep");
  ++stats.sweep_shards;
  // A run-claim over the whole window: word-at-a-time snapshots (64 cells
  // per load), so the backstop comes up short only when the shard really
  // had too few free cells when scanned.
  return claim_run(si, 0, shard_stride_, k, out, stats);
}

std::uint64_t ShardGroup::try_acquire_many(Xoshiro256& rng,
                                           std::uint32_t* sticky,
                                           std::uint64_t k, std::int64_t* out,
                                           std::uint64_t sweep_budget,
                                           bool* sweep_budget_hit,
                                           ProbeStats& stats) {
  const std::uint64_t S = shard_mask_ + 1;
  std::uint64_t got = 0;
  // Phase 1 — schedule-seeded run claims: k names for ~one schedule walk.
  // The origin is captured up front: the hint moves during the walk, and
  // indexing the ring off the live hint would revisit probed shards.
  const std::uint32_t origin = *sticky;
  std::uint64_t walked = 0;
  for (; walked < S && got < k; ++walked) {
    const std::uint64_t si = (origin + walked) & shard_mask_;
    bool late = false;
    const std::int64_t seed = probe(si, rng, &late, stats);
    if (seed < 0) continue;
    out[got++] = seed;
    const std::uint64_t x = static_cast<std::uint64_t>(seed) >> shard_shift_;
    if (got < k) {
      got += claim_run(si, x + 1, shard_stride_, k - got, out + got, stats);
    }
    if (got < k) got += claim_run(si, 0, x, k - got, out + got, stats);
    if (walked != 0) {
      *sticky = static_cast<std::uint32_t>(si);
      ++stats.migrations;
    } else if (late) {
      *sticky = late_win_shard(rng);
      ++stats.migrations;
    }
  }
  stats.ring_shards += static_cast<std::uint32_t>(walked);
  if (got == k) return got;
  // Phase 2 — deterministic sweep backstop from the (possibly moved) hint:
  // a shortfall past here is true (near-)exhaustion — or, with a budget
  // set, a deliberately truncated scan, reported via *sweep_budget_hit
  // and never to be mistaken for pressure.
  const std::uint64_t cap =
      sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
  const std::uint32_t origin2 = *sticky;
  std::uint64_t w = 0;
  for (; w < cap && got < k; ++w) {
    got += sweep_shard((origin2 + w) & shard_mask_, k - got, out + got, stats);
  }
  if (got < k && cap < S && sweep_budget_hit != nullptr) {
    *sweep_budget_hit = true;
  }
  return got;
}

}  // namespace loren
