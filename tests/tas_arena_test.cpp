// Tests for the TasArena substrate: both layouts, generation-stamped
// epoch reset, validated release, and real-thread TAS safety (at most one
// winner per cell per epoch regardless of interleaving).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "tas/tas_arena.h"

namespace loren {
namespace {

class TasArenaLayouts : public ::testing::TestWithParam<ArenaLayout> {};

TEST_P(TasArenaLayouts, FirstCallWins) {
  TasArena arena(4, GetParam());
  EXPECT_TRUE(arena.test_and_set(2));
  EXPECT_FALSE(arena.test_and_set(2));
  EXPECT_TRUE(arena.test_and_set(3));
  EXPECT_EQ(arena.read(2), 1u);
  EXPECT_EQ(arena.read(0), 0u);
}

TEST_P(TasArenaLayouts, EpochResetFreesEverythingInO1) {
  TasArena arena(8, GetParam());
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(arena.test_and_set(i));
  const std::uint64_t before = arena.epoch();
  arena.reset();
  EXPECT_EQ(arena.epoch(), before + 1);
  // Every stale-generation cell must be winnable again.
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(arena.read(i), 0u) << "cell " << i << " still taken after reset";
    EXPECT_TRUE(arena.test_and_set(i)) << "stale cell " << i << " not winnable";
    EXPECT_FALSE(arena.test_and_set(i));
  }
}

TEST_P(TasArenaLayouts, StaleStampIsNotTaken) {
  TasArena arena(2, GetParam());
  ASSERT_TRUE(arena.test_and_set(0));
  arena.reset();
  // The raw stamp survives (no O(m) zeroing happened)...
  EXPECT_NE(arena.raw_stamp(0), 0u);
  // ...but the logical view is free.
  EXPECT_EQ(arena.read(0), 0u);
}

TEST_P(TasArenaLayouts, TryReleaseValidates) {
  TasArena arena(4, GetParam());
  EXPECT_FALSE(arena.try_release(1)) << "never-won cell released";
  ASSERT_TRUE(arena.test_and_set(1));
  EXPECT_TRUE(arena.try_release(1));
  EXPECT_FALSE(arena.try_release(1)) << "double release succeeded";
  // Released cells are reacquirable (long-lived renaming).
  EXPECT_TRUE(arena.test_and_set(1));
  // A stale-epoch holder is not releasable after reset...
  arena.reset();
  EXPECT_FALSE(arena.try_release(1));
  // ...but is winnable.
  EXPECT_TRUE(arena.test_and_set(1));
}

TEST_P(TasArenaLayouts, WriteMatchesSeedSemantics) {
  TasArena arena(2, GetParam());
  arena.write(0, 1);
  EXPECT_EQ(arena.read(0), 1u);
  EXPECT_FALSE(arena.test_and_set(0));
  arena.write(0, 0);
  EXPECT_EQ(arena.read(0), 0u);
  EXPECT_TRUE(arena.test_and_set(0));
}

TEST_P(TasArenaLayouts, PaddedCellsDontShareCacheLines) {
  TasArena arena(16, GetParam());
  const std::uint64_t per_cell =
      arena.footprint_bytes() / arena.size();
  if (GetParam() == ArenaLayout::kPadded) {
    EXPECT_EQ(per_cell, TasArena::kCacheLine);
  } else {
    EXPECT_EQ(per_cell, sizeof(std::uint64_t));
  }
}

TEST_P(TasArenaLayouts, AtMostOneWinnerPerCellUnderRealThreads) {
  constexpr std::uint64_t kCells = 64;
  constexpr int kThreads = 8;
  for (int round = 0; round < 20; ++round) {
    TasArena arena(kCells, GetParam());
    std::vector<std::atomic<int>> winners(kCells);
    for (auto& w : winners) w.store(0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&arena, &winners] {
        for (std::uint64_t i = 0; i < kCells; ++i) {
          if (arena.test_and_set(i)) winners[i].fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (std::uint64_t i = 0; i < kCells; ++i) {
      EXPECT_EQ(winners[i].load(), 1) << "cell " << i << " round " << round;
    }
  }
}

TEST_P(TasArenaLayouts, WinPublishesDataToLosers) {
  // The acq_rel exchange must hand the winner's prior writes to any
  // thread that observes the cell taken (the release/acquire pairing the
  // memory-order weakening argument relies on).
  for (int round = 0; round < 200; ++round) {
    TasArena arena(1, GetParam());
    std::uint64_t payload = 0;
    std::thread writer([&] {
      payload = 42;
      ASSERT_TRUE(arena.test_and_set(0));
    });
    std::thread reader([&] {
      while (arena.read(0) == 0) {
      }
      EXPECT_EQ(payload, 42u);
    });
    writer.join();
    reader.join();
  }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, TasArenaLayouts,
                         ::testing::Values(ArenaLayout::kPadded,
                                           ArenaLayout::kPacked),
                         [](const auto& param_info) {
                           return param_info.param == ArenaLayout::kPadded
                                      ? "padded"
                                      : "packed";
                         });

TEST(TasArenaEnv, CoroutineAlgorithmsRunOnTheArena) {
  TasArena arena(8);
  Xoshiro256 rng(/*seed=*/7);
  ArenaEnv env(arena, rng, /*pid=*/0);
  EXPECT_EQ(env.execute_now(sim::OpKind::kTas, 3, 0), 1u);
  EXPECT_EQ(env.execute_now(sim::OpKind::kTas, 3, 0), 0u);
  EXPECT_EQ(env.execute_now(sim::OpKind::kRead, 3, 0), 1u);
  env.execute_now(sim::OpKind::kWrite, 3, 0);
  EXPECT_EQ(env.execute_now(sim::OpKind::kRead, 3, 0), 0u);
}

}  // namespace
}  // namespace loren
