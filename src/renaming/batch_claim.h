// The shared seed-and-run-claim ring walk behind every batched surface.
//
// RenamingService::acquire_many and ShardGroup::try_acquire_many run the
// same algorithm over different shard storage (per-shard BitmapArenas
// with per-shard schedules vs ArenaSegment windows of one group arena
// under a shared schedule): walk the shard ring from the caller's sticky
// hint; per visited shard, one probe-schedule walk wins a *seed* cell and
// the batch's remaining demand is run-claimed linearly from the seed
// (forward to the shard end, then wrapping once to the cells before it);
// if the schedule phase leaves a shortfall, a deterministic sweep of
// every shard backstops, so returning < k means the namespace really had
// fewer than k free cells when scanned. This header keeps exactly one
// copy of that walk; the services plug in via two callables. The claim
// callable bottoms out in BitmapArena::try_claim_run, so a k-cell run is
// claimed via assembled bit masks — one fetch_or per word — rather than
// k per-cell RMWs.
//
// The walk origin is captured before the loop: the sticky hint is
// updated *during* the walk (migrate on late wins, move to the serving
// shard when stealing), and indexing the ring off the live hint would
// revisit already-probed shards and skip others.
#pragma once

#include <cstdint>

#include "platform/rng.h"
#include "platform/sim_point.h"

namespace loren {

/// Where a sticky hint moves after a late win (the shard is running hot):
/// a uniformly random shard. Moving to the next shard in ring order
/// instead lets threads that migrate often catch up with one another and
/// travel the ring as a bunch, where each one's releases and claims land
/// in the 64-cell words the others are probing.
inline std::uint32_t late_win_shard(Xoshiro256& rng, std::uint64_t shard_mask) {
  return static_cast<std::uint32_t>(rng.next() & shard_mask);
}

/// Runs a raw cell-index claim into the caller's output slots, then
/// encodes in place as (cell << shard_shift) | si — the name layout both
/// services share. `raw_claim(raw)` must write up to its budget of
/// claimed cell indices to `raw` and return the count. uint64/int64
/// alias legally and every claimed index fits either, so no scratch
/// buffer is needed.
template <class RawClaim>
std::uint64_t claim_encode_inplace(RawClaim&& raw_claim,
                                   std::uint32_t shard_shift,
                                   std::uint64_t si, std::int64_t* out) {
  std::uint64_t* raw = reinterpret_cast<std::uint64_t*>(out);
  const std::uint64_t got = raw_claim(raw);
  for (std::uint64_t i = 0; i < got; ++i) {
    out[i] = static_cast<std::int64_t>((raw[i] << shard_shift) | si);
  }
  return got;
}

/// Claims up to `k` names into `out`, returning the count.
///
/// `probe(si, &late)` walks shard si's probe schedule and returns the
/// *encoded* name of one won cell (or -1 on a full miss), setting `late`
/// when the win arrived at or past the migration threshold. `claim(si,
/// from, to, budget, out)` linearly claims up to `budget` free cells of
/// shard si's window [from, to) and writes them *encoded* to `out`,
/// returning the count. Encoded names are (cell << shard_shift) | si for
/// both services, which is why the seed's cell index is recovered here
/// with one shift. A late seed moves *sticky to late_win_shard(rng).
///
/// `sweep_budget` bounds the phase-2 backstop to that many shard sweeps
/// (0 = unbounded, the historical full walk). When the budget truncates
/// the sweep while demand remains, `*sweep_budget_hit` is set so the
/// caller can distinguish "bounded scan gave up" from true exhaustion —
/// the two must not feed the same pressure signals (an elastic service
/// that grew on a truncated scan would reintroduce the spurious-grow
/// bug). `sweep_budget_hit` may be null when the budget is 0.
///
/// `walk_stats` (optional) reports how far the walk actually went — the
/// telemetry layer turns ring_shards into the `*.batch.ring_walk`
/// histogram and sweep_shards into the sweep counters (see
/// docs/observability.md).
struct BatchWalkStats {
  std::uint32_t ring_shards = 0;   // phase-1 shards visited
  std::uint32_t sweep_shards = 0;  // phase-2 backstop shards scanned
};

template <class Probe, class Claim>
std::uint64_t batch_claim_ring(std::uint64_t shard_mask,
                               std::uint32_t shard_shift,
                               std::uint64_t shard_stride,
                               std::uint32_t* sticky, Xoshiro256& rng,
                               std::uint64_t k, std::int64_t* out,
                               Probe&& probe, Claim&& claim,
                               std::uint64_t sweep_budget = 0,
                               bool* sweep_budget_hit = nullptr,
                               BatchWalkStats* walk_stats = nullptr) {
  const std::uint64_t S = shard_mask + 1;
  std::uint64_t got = 0;
  // Phase 1 — schedule-seeded run claims: k names for ~one schedule walk.
  const std::uint32_t origin = *sticky;
  std::uint64_t walked = 0;
  for (; walked < S && got < k; ++walked) {
    const std::uint64_t si = (origin + walked) & shard_mask;
    bool late = false;
    const std::int64_t seed = probe(si, &late);
    if (seed < 0) continue;
    out[got++] = seed;
    const std::uint64_t x = static_cast<std::uint64_t>(seed) >> shard_shift;
    if (got < k) got += claim(si, x + 1, shard_stride, k - got, out + got);
    if (got < k) got += claim(si, 0, x, k - got, out + got);
    if (walked != 0) {
      *sticky = static_cast<std::uint32_t>(si);
    } else if (late) {
      *sticky = late_win_shard(rng, shard_mask);
    }
  }
  if (walk_stats != nullptr) {
    walk_stats->ring_shards = static_cast<std::uint32_t>(walked);
  }
  // Phase 2 — deterministic sweep backstop: a shortfall past here is true
  // (near-)exhaustion — or, with a budget set, a deliberately truncated
  // scan (reported via *sweep_budget_hit, never mistaken for pressure).
  // Fresh origin: the hint may have moved in phase 1.
  if (got < k) {
    const std::uint64_t sweep_cap =
        sweep_budget == 0 || sweep_budget > S ? S : sweep_budget;
    const std::uint32_t origin2 = *sticky;
    std::uint64_t w = 0;
    for (; w < sweep_cap && got < k; ++w) {
      const std::uint64_t si = (origin2 + w) & shard_mask;
      LOREN_SIM_POINT("sweep.shard");
      got += claim(si, 0, shard_stride, k - got, out + got);
    }
    if (walk_stats != nullptr) {
      walk_stats->sweep_shards = static_cast<std::uint32_t>(w);
    }
    if (got < k && w == sweep_cap && sweep_cap < S &&
        sweep_budget_hit != nullptr) {
      *sweep_budget_hit = true;
    }
  }
  return got;
}

}  // namespace loren
