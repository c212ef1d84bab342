// Tests for ShardGroup, the sharded namespace under both services: the
// word-aligned shard windows of its one BitmapArena (every shard base a
// multiple of 64 cells, dead tail bits past the stride never issued), the
// probe / sweep / batched walks staying inside their own shard's window,
// the probe walk's full-word memo (per-batch word masks, skipped budgets,
// lone free cells, windows wider than 64 words), reset(), exact step
// counts at fixed fills, and the fixed service's capacity and shard count
// pinned for explicit shard counts. ServiceSteps pins exact counts one
// layer up, through both services' op pipelines.
// Runs in the TSan CI set.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "elastic/elastic_service.h"
#include "platform/rng.h"
#include "renaming/service.h"
#include "renaming/shard_group.h"
#include "tas/bitmap_arena.h"
#include "test_seed.h"

namespace loren {

struct ShardGroupPeer {
  static std::uint64_t base(const ShardGroup& g, std::uint64_t si) {
    return g.base(si);
  }
};

namespace {

constexpr std::uint64_t kWord = BitmapArena::kBitsPerWord;

/// A group of `shards` shards of `per_shard` holders each (eps = 0.5, the
/// services' default).
std::unique_ptr<ShardGroup> make_group(std::uint64_t per_shard,
                                       std::uint64_t shards) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  return std::make_unique<ShardGroup>(
      /*tag=*/0, /*generation=*/1, per_shard * shards, shards,
      std::make_shared<const CachedSchedule>(per_shard, params));
}

std::uint64_t stride_of(const ShardGroup& g) {
  return g.shard_layout().total();
}

std::uint64_t shard_shift(const ShardGroup& g) {
  std::uint32_t shift = 0;
  for (std::uint64_t s = g.shards(); s > 1; s >>= 1) ++shift;
  return shift;
}

/// Every issued name decodes to a cell inside its shard's [0, stride)
/// window — never a dead tail bit, never past the namespace — and no name
/// is issued twice.
void expect_in_window(const ShardGroup& g,
                      const std::vector<std::int64_t>& names) {
  const std::uint64_t shift = shard_shift(g);
  std::set<std::int64_t> seen;
  for (const std::int64_t name : names) {
    ASSERT_GE(name, 0);
    ASSERT_LT(static_cast<std::uint64_t>(name), g.local_capacity());
    EXPECT_LT(static_cast<std::uint64_t>(name) >> shift, stride_of(g))
        << "dead tail bit issued: " << name;
    EXPECT_TRUE(seen.insert(name).second) << "issued twice: " << name;
    EXPECT_TRUE(g.is_held(static_cast<std::uint64_t>(name)));
  }
}

// The window clamp the group relies on, on BitmapArena directly: two
// 100-cell windows that both straddle word boundaries.
TEST(BitmapArenaWindow, WordProbeAndRunClaimStayInsideTheWindow) {
  BitmapArena arena(256, ArenaLayout::kPacked);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::int64_t cell = arena.try_claim_in_word(28 + i, 28, 128);
    if (cell >= 0) {
      EXPECT_GE(cell, 28);
      EXPECT_LT(cell, 128);
    }
  }
  // The [128, 228) window is untouched by the probes above: a run-claim
  // takes all 100 of its cells, and only those.
  std::uint64_t out[128];
  EXPECT_EQ(arena.try_claim_run(128, 228, 128, out), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_GE(out[i], 128u);
    EXPECT_LT(out[i], 228u);
  }
  // Word probes on the words the windows share with their neighbours'
  // cells never step outside [lo, hi).
  EXPECT_EQ(arena.try_claim_in_word(255, 228, 256), 228);
  EXPECT_EQ(arena.try_claim_in_word(0, 0, 28), 0);
}

TEST(ShardGroupWindows, EveryShardBaseIsWordAligned) {
  for (const std::uint64_t per_shard : {1u, 64u, 96u, 200u, 256u}) {
    const auto g = make_group(per_shard, 8);
    const std::uint64_t stride = stride_of(*g);
    const std::uint64_t window = (stride + kWord - 1) / kWord * kWord;
    for (std::uint64_t si = 0; si < g->shards(); ++si) {
      EXPECT_EQ(ShardGroupPeer::base(*g, si) % kWord, 0u)
          << "per_shard " << per_shard << " shard " << si;
      EXPECT_EQ(ShardGroupPeer::base(*g, si), si * window);
    }
    // Windows never share a word, and the namespace is still exactly
    // S * stride (the padding is dead cells, never names).
    EXPECT_EQ(g->local_capacity(), stride * g->shards());
    EXPECT_EQ(g->footprint_bytes(),
              g->shards() * (window / kWord) * BitmapArena::kCacheLine);
  }
}

TEST(ShardGroupWindows, SchedulesFillExactlyTheNamespace) {
  const auto g = make_group(64, 4);
  ASSERT_NE(stride_of(*g) % kWord, 0u) << "want dead tail bits to exist";
  Xoshiro256 rng(
      test::stress_seed("SchedulesFillExactlyTheNamespace", 0x5EED));
  std::vector<std::int64_t> names;
  std::uint32_t sticky = 0;
  ShardGroup::ProbeStats stats;
  // Probe until every schedule misses, then let the sweep take the rest.
  for (std::int64_t n = g->try_acquire(rng, &sticky, stats); n >= 0;
       n = g->try_acquire(rng, &sticky, stats)) {
    names.push_back(n);
  }
  for (std::int64_t n = g->sweep_acquire(&sticky, 0, stats); n >= 0;
       n = g->sweep_acquire(&sticky, 0, stats)) {
    names.push_back(n);
  }
  EXPECT_EQ(names.size(), g->local_capacity());
  expect_in_window(*g, names);
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.sweep_shards, 0u);
}

TEST(ShardGroupWindows, SweepOfOneShardNeverReachesItsNeighbour) {
  const auto g = make_group(96, 4);
  const std::uint64_t stride = stride_of(*g);
  const std::uint64_t mask = g->shards() - 1;
  for (std::uint32_t si = 0; si < g->shards(); ++si) {
    // A one-shard sweep budget confines the backstop to shard si.
    std::vector<std::int64_t> names;
    ShardGroup::ProbeStats stats;
    std::uint32_t sticky = si;
    std::int64_t n = 0;
    while ((n = g->sweep_acquire(&sticky, 1, stats)) >= 0) {
      EXPECT_EQ(static_cast<std::uint64_t>(n) & mask, si);
      names.push_back(n);
    }
    EXPECT_EQ(n, ShardGroup::kSweepBudgetTruncated);
    // Exactly stride cells per shard: a window bleeding into a neighbour
    // would issue more here, or leave the neighbour fewer next round.
    EXPECT_EQ(names.size(), stride) << "shard " << si;
    expect_in_window(*g, names);
  }
  std::uint32_t sticky = 0;
  ShardGroup::ProbeStats stats;
  EXPECT_EQ(g->sweep_acquire(&sticky, 0, stats), -1);
}

TEST(ShardGroupWindows, BatchedWalkFillsExactlyTheNamespace) {
  const auto g = make_group(64, 8);
  Xoshiro256 rng(test::stress_seed("BatchedWalkFillsExactlyTheNamespace", 7));
  std::vector<std::int64_t> names(g->local_capacity() + 16);
  std::uint64_t got = 0;
  std::uint32_t sticky = 3;
  ShardGroup::ProbeStats stats;
  // Odd batch sizes so runs end mid-word and seeds land anywhere.
  while (got < names.size()) {
    const std::uint64_t k = std::min<std::uint64_t>(37, names.size() - got);
    const std::uint64_t round =
        g->try_acquire_many(rng, &sticky, k, names.data() + got, 0, nullptr,
                            stats);
    got += round;
    if (round < k) break;  // the sweep backstop found nothing more
  }
  names.resize(got);
  EXPECT_EQ(got, g->local_capacity());
  expect_in_window(*g, names);
  EXPECT_GT(stats.ring_shards, 0u);
  EXPECT_GT(stats.sweep_shards, 0u) << "the last batch needs the sweep";
}

TEST(ShardGroupWindows, BudgetTruncatedBatchIsFlagged) {
  const auto g = make_group(64, 4);
  const std::uint64_t stride = stride_of(*g);
  Xoshiro256 rng(11);
  // Fill shards 1..3 through their one-shard sweeps, leaving shard 0.
  for (std::uint32_t si = 1; si < g->shards(); ++si) {
    std::uint32_t sticky = si;
    ShardGroup::ProbeStats stats;
    while (g->sweep_acquire(&sticky, 1, stats) >= 0) {
    }
  }
  // Shard 0 alone serves the batch; the overflow is a truncated sweep.
  std::vector<std::int64_t> out(stride + 10);
  std::uint32_t sticky = 0;
  bool hit = false;
  ShardGroup::ProbeStats stats;
  const std::uint64_t got = g->try_acquire_many(
      rng, &sticky, out.size(), out.data(), /*sweep_budget=*/1, &hit, stats);
  out.resize(got);
  EXPECT_EQ(got, stride);
  EXPECT_TRUE(hit);
  expect_in_window(*g, out);
}

TEST(ShardGroupWindows, ReleaseAndResetFreeCells) {
  const auto g = make_group(64, 2);
  Xoshiro256 rng(3);
  std::uint32_t sticky = 0;
  ShardGroup::ProbeStats stats;
  const std::int64_t a = g->try_acquire(rng, &sticky, stats);
  ASSERT_GE(a, 0);
  EXPECT_TRUE(g->release_local(static_cast<std::uint64_t>(a)));
  EXPECT_FALSE(g->release_local(static_cast<std::uint64_t>(a)));
  EXPECT_FALSE(g->release_local(g->local_capacity()));
  EXPECT_FALSE(g->is_held(g->local_capacity()));

  std::vector<std::int64_t> out(g->local_capacity());
  EXPECT_EQ(g->try_acquire_many(rng, &sticky, out.size(), out.data(), 0,
                                nullptr, stats),
            g->local_capacity());
  g->reset();
  for (const std::int64_t n : out) {
    EXPECT_FALSE(g->is_held(static_cast<std::uint64_t>(n)));
  }
  EXPECT_EQ(g->try_acquire_many(rng, &sticky, out.size(), out.data(), 0,
                                nullptr, stats),
            g->local_capacity());
}

/// Claims every cell of `g` through the backstop sweep.
void fill(ShardGroup& g) {
  std::uint32_t sticky = 0;
  ShardGroup::ProbeStats stats;
  while (g.sweep_acquire(&sticky, 0, stats) >= 0) {
  }
}

/// try_acquire, then the sweep backstop when every schedule missed.
std::int64_t acquire_or_sweep(ShardGroup& g, Xoshiro256& rng,
                              std::uint32_t* sticky,
                              ShardGroup::ProbeStats& stats) {
  const std::int64_t n = g.try_acquire(rng, sticky, stats);
  return n >= 0 ? n : g.sweep_acquire(sticky, 0, stats);
}

// The per-batch plan's word masks: bit w set iff the batch spans cells of
// window word w, and 0 for a batch reaching past word 63.
TEST(CachedSchedulePlan, WordMasksSpanEachBatch) {
  BatchLayoutParams params;
  params.epsilon = 0.5;
  // 256 holders: B_0 = [0, 256), B_1 = [256, 320), B_2 = [320, 352),
  // B_3 = [352, 368).
  const CachedSchedule small(256, params);
  ASSERT_EQ(small.batches.size(), 4u);
  const std::uint64_t words[] = {0x0F, 0x10, 0x20, 0x20};
  std::uint64_t slots = 0;
  for (std::size_t i = 0; i < small.batches.size(); ++i) {
    const auto& b = small.batches[i];
    EXPECT_EQ(b.offset, small.layout.offset(i));
    EXPECT_EQ(b.size, small.layout.size(i));
    EXPECT_EQ(b.budget, static_cast<std::uint64_t>(small.layout.probes(i)));
    EXPECT_EQ(b.words, words[i]) << "batch " << i;
    slots += b.budget;
  }
  EXPECT_EQ(slots,
            static_cast<std::uint64_t>(small.layout.max_probes_main_phase()));
  // 4096 holders: B_0 is exactly words 0..63, every later batch lies past
  // word 63 and is not memoized.
  const CachedSchedule wide(4096, params);
  EXPECT_EQ(wide.batches.front().words, ~std::uint64_t{0});
  for (std::size_t i = 1; i < wide.batches.size(); ++i) {
    EXPECT_EQ(wide.batches[i].words, 0u) << "batch " << i;
  }
}

// A drained B_0 costs one probe per word, not t_0 probes: with words 0..4
// full and one free cell in word 5, the walk probes each of B_0's four
// words once, skips the rest of B_0's 129-slot budget, misses B_1's word
// 4 and wins in B_2 — a win at schedule position >= 129, so still late
// however few draws B_0 took to see its four words full. Repeated so that
// some walks see them in as few as four or five draws.
TEST(ShardGroupMemo, FullFirstBatchIsSkippedAfterOneProbePerWord) {
  const auto g = make_group(256, 1);
  ASSERT_EQ(stride_of(*g), 368u);
  ASSERT_EQ(g->shard_layout().probes(0), 129);
  fill(*g);
  constexpr std::uint64_t kFree = 5 * kWord + 7;  // cell 327, in B_2
  Xoshiro256 rng(test::stress_seed("FullFirstBatchIsSkipped", 0xB0));
  std::uint32_t sticky = 0;
  for (int trial = 0; trial < 64; ++trial) {
    ASSERT_TRUE(g->release_local(kFree));
    ShardGroup::ProbeStats stats;
    ASSERT_EQ(g->try_acquire(rng, &sticky, stats),
              static_cast<std::int64_t>(kFree));
    EXPECT_EQ(stats.probes, 6u) << "four B_0 words, word 4, then word 5";
    EXPECT_EQ(stats.migrations, 1u) << "the late-win rule counts slots";
  }
  // Everything is full: the walk misses after one probe per window word
  // (B_3 shares word 5 with B_2 and is skipped whole).
  ShardGroup::ProbeStats miss;
  EXPECT_EQ(g->try_acquire(rng, &sticky, miss), -1);
  EXPECT_EQ(miss.probes, 6u);
  EXPECT_EQ(miss.migrations, 0u);
}

// For every cell of a small multi-shard group, with all the others held,
// the walk plus its sweep backstop issue exactly that cell: the memo never
// hides a free cell.
TEST(ShardGroupMemo, LoneFreeCellIsAlwaysFound) {
  const auto g = make_group(64, 4);
  fill(*g);
  Xoshiro256 rng(test::stress_seed("LoneFreeCellIsAlwaysFound", 0x1));
  for (std::uint64_t name = 0; name < g->local_capacity(); ++name) {
    ASSERT_TRUE(g->release_local(name));
    std::uint32_t sticky =
        static_cast<std::uint32_t>(rng.below(g->shards()));
    ShardGroup::ProbeStats stats;
    ASSERT_EQ(acquire_or_sweep(*g, rng, &sticky, stats),
              static_cast<std::int64_t>(name));
  }
}

// A window wider than 64 words (one explicit shard, 4096 holders: 94
// words): words past 63 are never memoized, so every slot on them probes,
// and a lone free cell there is still found.
TEST(ShardGroupMemo, WideWindowWalksUnmemoizedWords) {
  const auto g = make_group(4096, 1);
  const BatchLayout& layout = g->shard_layout();
  ASSERT_GT(stride_of(*g), 64 * kWord);
  fill(*g);
  Xoshiro256 rng(test::stress_seed("WideWindowWalksUnmemoizedWords", 0x40));
  // All full: B_0 costs at most one probe per word, every later slot
  // (all past word 63) costs one probe.
  std::uint64_t late_slots = 0;
  for (std::uint64_t i = 1; i < layout.num_batches(); ++i) {
    late_slots += static_cast<std::uint64_t>(layout.probes(i));
  }
  std::uint32_t sticky = 0;
  ShardGroup::ProbeStats miss;
  EXPECT_EQ(g->try_acquire(rng, &sticky, miss), -1);
  EXPECT_GE(miss.probes, late_slots + 1);
  EXPECT_LE(miss.probes, late_slots + 64);
  // A lone free cell in each batch past word 63, first and last cell.
  for (std::uint64_t i = 1; i < layout.num_batches(); ++i) {
    for (const std::uint64_t cell :
         {layout.offset(i), layout.offset(i) + layout.size(i) - 1}) {
      ASSERT_GE(cell / kWord, 64u);
      ASSERT_TRUE(g->release_local(cell));
      ShardGroup::ProbeStats stats;
      EXPECT_EQ(acquire_or_sweep(*g, rng, &sticky, stats),
                static_cast<std::int64_t>(cell));
    }
  }
  // The last batch is two words, 92 and 93, with beta = 3 probes. A lone
  // free cell in word 93 is won by the walk itself unless all three draws
  // land on word 92: 7 times in 8. Were words past 63 memoized (aliased
  // onto B_0's bits), most of those probes would be skipped.
  const std::uint64_t last = layout.num_batches() - 1;
  ASSERT_EQ(layout.probes(last), 3);
  ASSERT_EQ(layout.size(last), 2 * kWord);
  const std::uint64_t lone = layout.offset(last) + layout.size(last) - 1;
  constexpr int kTrials = 200;
  int walk_wins = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ASSERT_TRUE(g->release_local(lone));
    ShardGroup::ProbeStats stats;
    const std::int64_t n = g->try_acquire(rng, &sticky, stats);
    if (n >= 0) {
      ASSERT_EQ(n, static_cast<std::int64_t>(lone));
      ++walk_wins;
    } else {
      ASSERT_EQ(g->sweep_acquire(&sticky, 0, stats),
                static_cast<std::int64_t>(lone));
    }
  }
  EXPECT_GE(walk_wins, kTrials * 3 / 4) << "expected ~7/8 of " << kTrials;
}

// Real threads racing single and batched claims over one group: every
// cell is issued at most once and all of them are issued.
TEST(ShardGroupThreads, ConcurrentClaimsIssueEachCellOnce) {
  constexpr int kThreads = 4;
  const auto g = make_group(64, 4);
  const std::uint64_t base_seed =
      test::stress_seed("ConcurrentClaimsIssueEachCellOnce", 0xC1A1);
  std::vector<std::atomic<int>> owner(g->local_capacity());
  for (auto& o : owner) o.store(-1);
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(mix_seed(base_seed, static_cast<std::uint64_t>(t)));
      std::uint32_t sticky = static_cast<std::uint32_t>(t);
      ShardGroup::ProbeStats stats;
      std::int64_t batch[13];
      while (true) {
        std::uint64_t got = 0;
        if ((t & 1) == 0) {
          std::int64_t n = g->try_acquire(rng, &sticky, stats);
          if (n < 0) n = g->sweep_acquire(&sticky, 0, stats);
          if (n >= 0) batch[got++] = n;
        } else {
          got = g->try_acquire_many(rng, &sticky, 13, batch, 0, nullptr,
                                    stats);
        }
        if (got == 0) break;
        for (std::uint64_t i = 0; i < got; ++i) {
          const auto n = static_cast<std::uint64_t>(batch[i]);
          int expected = -1;
          if (n >= owner.size() ||
              !owner[n].compare_exchange_strong(expected, t)) {
            violations.fetch_add(1);
          }
        }
        total.fetch_add(got);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(total.load(), g->local_capacity());
}

// Exact step counts on the live core: one thread, fixed seeds, 4 shards of
// 1024 holders at three starting fills (empty, a scattered half, a
// scattered 15/16). kStepAcquires names are then acquired and held, each
// by try_acquire and, when every schedule missed, the sweep. That is one
// sixteenth of the group's 4 x 1504 cells, so from 15/16 the run drains
// the group to full: the walk meets full words, migrates, steals, and the
// last acquisition needs the sweep. The ProbeStats totals and the most
// word loads any one acquisition issued are pinned exactly: a change to
// the probe walk, the full-word memo, the migration rule or the sweep
// moves them. docs/benchmarks.md sets them per acquire next to
// sim::simulate.
constexpr std::uint64_t kStepShards = 4;
constexpr std::uint64_t kStepHolders = 1024;
constexpr int kStepAcquires = 376;

struct StepCounts {
  std::uint64_t probes = 0, lost_races = 0, migrations = 0, sweep_shards = 0;
  std::uint64_t max_probes = 0;
  std::uint64_t claims = 0, run_claims = 0;  // fetch_ors: probes', sweeps'
};

/// Runs the step-count workload from `held_sixteenths` of the group's cells
/// held: every cell claimed, then a uniform random sample released (a
/// Fisher-Yates shuffle on the library's own generator, so the fill is the
/// same on every platform).
StepCounts step_counts(std::uint64_t held_sixteenths) {
  const auto g = make_group(kStepHolders, kStepShards);
  Xoshiro256 rng(0x57E9C0);
  if (held_sixteenths > 0) {
    fill(*g);
    std::vector<std::uint64_t> cells(g->local_capacity());
    for (std::uint64_t i = 0; i < cells.size(); ++i) cells[i] = i;
    for (std::uint64_t i = cells.size() - 1; i > 0; --i) {
      std::swap(cells[i], cells[rng.below(i + 1)]);
    }
    const std::uint64_t freed = cells.size() * (16 - held_sixteenths) / 16;
    for (std::uint64_t i = 0; i < freed; ++i) g->release_local(cells[i]);
  }
  StepCounts c;
  std::uint32_t sticky = 0;
  for (int i = 0; i < kStepAcquires; ++i) {
    ShardGroup::ProbeStats stats;
    EXPECT_GE(acquire_or_sweep(*g, rng, &sticky, stats), 0);
    c.probes += stats.probes;
    c.lost_races += stats.lost_races;
    c.migrations += stats.migrations;
    c.sweep_shards += stats.sweep_shards;
    c.claims += stats.claims;
    c.run_claims += stats.run_claims;
    c.max_probes = std::max<std::uint64_t>(c.max_probes, stats.probes);
  }
  std::printf("[ STEPS    ] held %2llu/16: probes %llu (max %llu) lost %llu "
              "migrations %llu sweep shards %llu claims %llu/%llu\n",
              static_cast<unsigned long long>(held_sixteenths),
              static_cast<unsigned long long>(c.probes),
              static_cast<unsigned long long>(c.max_probes),
              static_cast<unsigned long long>(c.lost_races),
              static_cast<unsigned long long>(c.migrations),
              static_cast<unsigned long long>(c.sweep_shards),
              static_cast<unsigned long long>(c.claims),
              static_cast<unsigned long long>(c.run_claims));
  return c;
}

TEST(ShardGroupSteps, ExactCountsAtFixedFills) {
  const auto g = make_group(kStepHolders, kStepShards);
  ASSERT_EQ(stride_of(*g), 1504u);  // 24 words per shard window
  struct Case {
    std::uint64_t held_sixteenths, probes, max_probes, migrations,
        sweep_shards, claims, run_claims;
  };
  // One thread never loses a race, so every claim wins: one fetch_or per
  // acquisition, the sweep's included.
  for (const Case k : {Case{0, 376, 1, 0, 0, 376, 0},
                       Case{8, 383, 3, 0, 0, 376, 0},
                       Case{15, 2803, 80, 120, 1, 375, 1}}) {
    const StepCounts c = step_counts(k.held_sixteenths);
    EXPECT_EQ(c.probes, k.probes) << k.held_sixteenths << "/16";
    EXPECT_EQ(c.max_probes, k.max_probes) << k.held_sixteenths << "/16";
    EXPECT_EQ(c.lost_races, 0u) << "one thread never loses a race";
    EXPECT_EQ(c.migrations, k.migrations) << k.held_sixteenths << "/16";
    EXPECT_EQ(c.sweep_shards, k.sweep_shards) << k.held_sixteenths << "/16";
    EXPECT_EQ(c.claims, k.claims) << k.held_sixteenths << "/16";
    EXPECT_EQ(c.run_claims, k.run_claims) << k.held_sixteenths << "/16";
  }
}

// Exact counts through the services: the same deterministic-step idea,
// one layer up. One fresh thread pinned to slot 0 (so the home shard, the
// per-thread generator and the stash identity depend on nothing but the
// seed) with a registry attached fills a namespace to 15/16 with
// acquire(), then churns kServiceRounds rounds of kServiceBatch random
// releases plus one acquire_many(kServiceBatch). Pinned: a hash of every
// issued name in issue order, the probe_len histogram's count and sum
// (word loads of every 256th single acquire plus every batch that
// reached the shared path) and the claiming fetch_ors of the same
// samples, lost races, migrations, swept shards, the batch ring-walk sum,
// names_live(), and for the elastic service its grow count and
// generation. A change to either service's op pipeline that
// moves a probe, a claim or a sample moves one of them. The leased cases
// run the same churn with leases on under a frozen clock (nothing ever
// expires) and pin the lease tallies too: every name opened, closed or
// tripped is one the op pipeline decided on, so a change to how leases
// are opened or closed that alters any name's outcome moves them.
constexpr int kServiceRounds = 200;
constexpr std::uint64_t kServiceBatch = 8;

/// The lease registry counters plus leases_live() (all 0 unleased).
struct LeaseSteps {
  std::uint64_t opened = 0, closed = 0, guard_trips = 0, live = 0;
};

/// Claiming fetch_ors over the sampled walks probe_len records: the
/// schedule walk's (seed probes included) and the run claims'.
struct ClaimSteps {
  std::uint64_t claims = 0, run_claims = 0;
};

struct ServiceSteps {
  std::uint64_t name_hash = 0;
  std::uint64_t probe_count = 0, probe_sum = 0, lost_races = 0;
  std::uint64_t migrations = 0, sweeps = 0, ring_walk = 0, live = 0;
  std::uint64_t grows = 0, generation = 0;
  ClaimSteps claims{};
  LeaseSteps lease{};
};

/// The leased cases' clock: it never moves, so no lease ever expires and
/// no heartbeat ever goes stale.
std::uint64_t frozen_clock() { return 1; }

/// Leasing for the leased cases (ttl 0, the default, leaves it off).
lease::LeaseOptions frozen_leases(bool on) {
  lease::LeaseOptions l;
  if (on) {
    l.ttl_ticks = 1000;
    l.grace = 100;
    l.clock = &frozen_clock;
  }
  return l;
}

/// What the churn does beyond fill-and-churn: fill past the live
/// group's capacity (forcing an elastic auto-grow) and/or resize to
/// double the holders before round kServiceRounds / 2; release each
/// round's names through one release_many, instead of one release()
/// each, that names the round's first name twice (it frees once; the
/// copy is rejected).
struct ServiceStepPlan {
  std::uint64_t fill_sixteenths = 15;
  bool resize_midway = false;
  bool release_many = false;
};

template <class Service>
ServiceSteps service_steps(Service& svc, telemetry::MetricsRegistry& reg,
                           const std::string& prefix,
                           std::uint64_t local_capacity,
                           const ServiceStepPlan& plan) {
  ServiceSteps s;
  s.name_hash = 0xcbf29ce484222325ull;  // FNV-1a over issued names
  const auto issue = [&s](sim::Name name) {
    ASSERT_GE(name, 0);
    s.name_hash =
        (s.name_hash ^ static_cast<std::uint64_t>(name)) * 0x100000001b3ull;
  };
  std::vector<sim::Name> held;
  const std::uint64_t fill = local_capacity * plan.fill_sixteenths / 16;
  for (std::uint64_t i = 0; i < fill; ++i) {
    held.push_back(svc.acquire());
    issue(held.back());
  }
  Xoshiro256 rng(0x5E12C5);
  for (int round = 0; round < kServiceRounds; ++round) {
    if constexpr (requires { svc.resize(0); }) {
      if (plan.resize_midway && round == kServiceRounds / 2) {
        EXPECT_TRUE(svc.resize(svc.holders() * 2));
      }
    }
    sim::Name released[kServiceBatch + 1];
    for (std::uint64_t r = 0; r < kServiceBatch; ++r) {
      const std::uint64_t i = rng.below(held.size());
      released[r] = held[i];
      if (!plan.release_many) {
        EXPECT_TRUE(svc.release(held[i]));
      }
      held[i] = held.back();
      held.pop_back();
    }
    if (plan.release_many) {
      released[kServiceBatch] = released[0];
      EXPECT_EQ(svc.release_many(released, kServiceBatch + 1), kServiceBatch);
    }
    sim::Name batch[kServiceBatch];
    EXPECT_EQ(svc.acquire_many(kServiceBatch, batch), kServiceBatch);
    for (const sim::Name name : batch) {
      held.push_back(name);
      issue(name);
    }
  }
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  const auto* probe = snap.histogram(prefix + ".acquire.probe_len");
  const auto* lost = snap.histogram(prefix + ".acquire.lost_races");
  const auto* ring = snap.histogram(prefix + ".batch.ring_walk");

  s.probe_count = probe != nullptr ? probe->count : 0;
  s.probe_sum = probe != nullptr ? probe->sum : 0;
  s.lost_races = lost != nullptr ? lost->sum : 0;
  s.ring_walk = ring != nullptr ? ring->sum : 0;
  s.claims.claims = reg.counter_value(reg.counter(prefix + ".acquire.claims"));
  s.claims.run_claims =
      reg.counter_value(reg.counter(prefix + ".acquire.run_claims"));
  s.migrations = reg.counter_value(reg.counter(prefix + ".shard.migrations"));
  s.sweeps = reg.counter_value(reg.counter(prefix + ".sweep.invocations"));
  s.live = svc.names_live();
  if constexpr (requires { svc.grow_events(); }) {
    s.grows = svc.grow_events();
    s.generation = svc.generation();
  }
  s.lease.opened = reg.counter_value(reg.counter("lease.opened"));
  s.lease.closed = reg.counter_value(reg.counter("lease.closed"));
  s.lease.guard_trips = reg.counter_value(reg.counter("lease.guard_trips"));
  s.lease.live = svc.leases_live();
  std::printf("[ STEPS    ] %s: hash %016llx probe_len %llu/%llu lost %llu "
              "migrations %llu sweeps %llu ring_walk %llu live %llu grows "
              "%llu gen %llu claims %llu/%llu lease %llu/%llu/%llu live "
              "%llu\n",
              prefix.c_str(), static_cast<unsigned long long>(s.name_hash),
              static_cast<unsigned long long>(s.probe_count),
              static_cast<unsigned long long>(s.probe_sum),
              static_cast<unsigned long long>(s.lost_races),
              static_cast<unsigned long long>(s.migrations),
              static_cast<unsigned long long>(s.sweeps),
              static_cast<unsigned long long>(s.ring_walk),
              static_cast<unsigned long long>(s.live),
              static_cast<unsigned long long>(s.grows),
              static_cast<unsigned long long>(s.generation),
              static_cast<unsigned long long>(s.claims.claims),
              static_cast<unsigned long long>(s.claims.run_claims),
              static_cast<unsigned long long>(s.lease.opened),
              static_cast<unsigned long long>(s.lease.closed),
              static_cast<unsigned long long>(s.lease.guard_trips),
              static_cast<unsigned long long>(s.lease.live));
  return s;
}

/// Runs `body` on a fresh thread pinned to dense slot 0.
template <class Body>
void on_fresh_slot0_thread(Body body) {
  std::thread([&body] {
    force_thread_slot(0);
    body();
  }).join();
}

ServiceSteps fixed_steps(bool cache, bool leased = false,
                         const ServiceStepPlan& plan = {}) {
  ServiceSteps s;
  on_fresh_slot0_thread([&] {
    telemetry::MetricsRegistry reg;
    RenamingServiceOptions opts;
    // What auto-sharding picks for n = 4096 on hosts of <= 16 threads,
    // pinned so the counts do not depend on the host.
    opts.shards = 16;
    opts.name_cache = cache;
    opts.telemetry.registry = &reg;
    opts.lease = frozen_leases(leased);
    RenamingService svc(4096, opts);
    s = service_steps(svc, reg, "service", svc.capacity(), plan);
  });
  return s;
}

ServiceSteps elastic_steps(bool cache, bool auto_grow,
                           const ServiceStepPlan& plan, bool leased = false) {
  ServiceSteps s;
  on_fresh_slot0_thread([&] {
    telemetry::MetricsRegistry reg;
    ElasticOptions opts;
    opts.shards = 16;
    opts.name_cache = cache;
    opts.auto_grow = auto_grow;
    opts.telemetry.registry = &reg;
    opts.lease = frozen_leases(leased);
    ElasticRenamingService svc(4096, opts);
    s = service_steps(svc, reg, "elastic",
                      svc.capacity() >> ElasticRenamingService::kTagBits, plan);
  });
  return s;
}

void expect_steps(const ServiceSteps& got, const ServiceSteps& want) {
  EXPECT_EQ(got.name_hash, want.name_hash);
  EXPECT_EQ(got.probe_count, want.probe_count);
  EXPECT_EQ(got.probe_sum, want.probe_sum);
  EXPECT_EQ(got.lost_races, want.lost_races);
  EXPECT_EQ(got.migrations, want.migrations);
  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(got.ring_walk, want.ring_walk);
  EXPECT_EQ(got.live, want.live);
  EXPECT_EQ(got.grows, want.grows);
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.claims.claims, want.claims.claims);
  EXPECT_EQ(got.claims.run_claims, want.claims.run_claims);
  EXPECT_EQ(got.lease.opened, want.lease.opened);
  EXPECT_EQ(got.lease.closed, want.lease.closed);
  EXPECT_EQ(got.lease.guard_trips, want.lease.guard_trips);
  EXPECT_EQ(got.lease.live, want.lease.live);
}

TEST(ServiceSteps, FixedCacheOff) {
  expect_steps(fixed_steps(false),
               ServiceSteps{0x08d890806e7a7b49,
                            222, 606, 0, 1528, 0, 259, 5520, 0, 0,
                            {278, 484}});
}

TEST(ServiceSteps, FixedCacheOn) {
  expect_steps(fixed_steps(true),
               ServiceSteps{0xd874804156435825,
                            222, 666, 0, 1533, 0, 245, 5520, 0, 0,
                            {264, 369}});
}

TEST(ServiceSteps, ElasticCacheOff) {
  expect_steps(elastic_steps(false, false, {}),
               ServiceSteps{0x23906968871723dd,
                            222, 680, 0, 1530, 0, 252, 5520, 0, 1,
                            {269, 445}});
}

TEST(ServiceSteps, ElasticCacheOn) {
  expect_steps(elastic_steps(true, false, {}),
               ServiceSteps{0x593818b73b3f3f95,
                            222, 628, 0, 1504, 0, 223, 5520, 0, 1,
                            {242, 334}});
}

// Filling to 17/16 of the live group forces an auto-grow (the exhausted
// sweep grows before failing); the explicit resize midway publishes a
// third generation while the churn's names span the first two.
TEST(ServiceSteps, ElasticAutoGrowAndResizeCacheOff) {
  expect_steps(elastic_steps(false, true, {17, true}),
               ServiceSteps{0xbd4de84d49153a65,
                            225, 386, 0, 1805, 16, 200, 6256, 2, 3,
                            {225, 218}});
}

TEST(ServiceSteps, ElasticAutoGrowAndResizeCacheOn) {
  expect_steps(elastic_steps(true, true, {17, true}),
               ServiceSteps{0x5ae594f45101cff5,
                            225, 386, 0, 1805, 16, 200, 6256, 2, 3,
                            {225, 212}});
}

// Leased: the same churn with every shared acquisition opening a lease
// and every shared release closing one, each round's releases batched
// into one release_many that names its first name twice. Stash hits and
// absorbs touch no lease count (an absorb rebinds), so cache on opens
// and closes fewer; the duplicate is a guard trip wherever both copies
// reach the shared release.
constexpr ServiceStepPlan kLeasedPlan{15, false, true};

TEST(ServiceSteps, FixedLeasedCacheOff) {
  expect_steps(fixed_steps(false, true, kLeasedPlan),
               ServiceSteps{0x08d890806e7a7b49,
                            222, 606, 0, 1528, 0, 259, 5520, 0, 0,
                            {278, 484}, {7120, 1600, 200, 5520}});
}

TEST(ServiceSteps, FixedLeasedCacheOn) {
  expect_steps(fixed_steps(true, true, kLeasedPlan),
               ServiceSteps{0x950187a585d37f8f,
                            222, 680, 0, 1513, 0, 217, 5520, 0, 0,
                            {238, 298}, {6320, 800, 0, 5520}});
}

TEST(ServiceSteps, ElasticLeasedCacheOff) {
  expect_steps(elastic_steps(false, false, kLeasedPlan, true),
               ServiceSteps{0x23906968871723dd,
                            222, 680, 0, 1530, 0, 252, 5520, 0, 1,
                            {269, 445}, {7120, 1600, 200, 5520}});
}

TEST(ServiceSteps, ElasticLeasedCacheOn) {
  expect_steps(elastic_steps(true, false, kLeasedPlan, true),
               ServiceSteps{0x1838ceead583d5ed,
                            222, 696, 0, 1512, 0, 222, 5520, 0, 1,
                            {238, 290}, {6320, 800, 0, 5520}});
}

// The fixed service's namespace for explicit shard counts: one group of
// word-aligned windows keeps the (cell << shift) | shard encoding, so
// capacity() and num_shards() match the per-shard-arena layout it
// replaced, value for value.
TEST(RenamingServiceGeometry, CapacityPinnedForExplicitShardCounts) {
  struct Case {
    std::uint64_t n, shards, capacity;
  };
  for (const Case c : {Case{256, 4, 368}, Case{768, 8, 1104},
                       Case{16384, 64, 23552},
                       Case{std::uint64_t{1} << 20, 4096, 1507328}}) {
    RenamingServiceOptions opts;
    opts.shards = c.shards;
    RenamingService service(c.n, opts);
    EXPECT_EQ(service.num_shards(), c.shards) << "n=" << c.n;
    EXPECT_EQ(service.capacity(), c.capacity) << "n=" << c.n;
  }
}

}  // namespace
}  // namespace loren
