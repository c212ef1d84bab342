// Tests for the thread-facing API: ConcurrentRenamer and
// AdaptiveConcurrentRenamer over real std::atomic cells and std::thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "renaming/concurrent.h"

namespace loren {
namespace {

using sim::Name;

TEST(ConcurrentRenamer, SingleThreadAllUnique) {
  constexpr std::uint64_t kN = 512;
  ConcurrentRenamer renamer(kN, 0.5);
  std::set<Name> names;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Name name = renamer.get_name();
    ASSERT_GE(name, 0);
    ASSERT_LT(name, static_cast<Name>(renamer.capacity()));
    ASSERT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  EXPECT_EQ(renamer.names_assigned(), kN);
}

TEST(ConcurrentRenamer, DirectPathAllUnique) {
  constexpr std::uint64_t kN = 512;
  ConcurrentRenamer renamer(kN, 0.5);
  std::set<Name> names;
  for (std::uint64_t i = 0; i < kN; ++i) {
    const Name name = renamer.get_name_direct();
    ASSERT_GE(name, 0);
    ASSERT_TRUE(names.insert(name).second);
  }
}

TEST(ConcurrentRenamer, MixedPathsShareTheNamespace) {
  ConcurrentRenamer renamer(64, 0.5);
  std::set<Name> names;
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(names.insert(renamer.get_name()).second);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(names.insert(renamer.get_name_direct()).second);
  }
  EXPECT_EQ(names.size(), 64u);
}

TEST(ConcurrentRenamer, MultiThreadedUniqueness) {
  constexpr std::uint64_t kN = 1024;
  constexpr int kThreads = 8;
  ConcurrentRenamer renamer(kN, 0.5);
  std::vector<std::vector<Name>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kN / kThreads; ++i) {
        got[t].push_back(renamer.get_name());
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<Name> all;
  for (const auto& v : got) {
    for (Name n : v) {
      ASSERT_GE(n, 0);
      ASSERT_TRUE(all.insert(n).second) << "duplicate name " << n;
    }
  }
  EXPECT_EQ(all.size(), kN);
}

TEST(ConcurrentRenamer, OversubscriptionFallsBackToBackup) {
  // Request every name in the namespace: the tail must come from the
  // backup sweep, and requests beyond capacity must return -1.
  ConcurrentRenamer renamer(32, 0.25);
  const std::uint64_t cap = renamer.capacity();
  std::set<Name> names;
  for (std::uint64_t i = 0; i < cap; ++i) {
    const Name n = renamer.get_name();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(names.insert(n).second);
  }
  EXPECT_EQ(renamer.get_name(), -1);
  EXPECT_EQ(renamer.get_name_direct(), -1);
}

// One thread, two fresh renamers with one seed: the coroutine walk
// (get_name over ArenaEnv) and the flat walk (get_name_direct) flip the
// thread's coins in the same order, so they issue the same names. The
// small layout (one probe per batch, beta = 1) is asked for its whole
// capacity plus one, so its tail comes from the backup sweep and its last
// call fails on both paths.
TEST(ConcurrentRenamer, CoroutineAndDirectWalksIssueTheSameNames) {
  struct Case {
    std::uint64_t n;
    double epsilon;
    BatchLayoutParams extra;
    bool oversubscribe;
  };
  for (const Case& c : {Case{1024, 0.5, {}, false},
                        Case{32, 0.05, {.beta = 1, .t0_override = 1}, true}}) {
    ConcurrentRenamer coroutine(c.n, c.epsilon, 0xE0, c.extra);
    ConcurrentRenamer direct(c.n, c.epsilon, 0xE0, c.extra);
    const std::uint64_t calls =
        c.oversubscribe ? coroutine.capacity() + 1 : c.n;
    std::vector<Name> via_coroutine, via_direct;
    for (std::uint64_t i = 0; i < calls; ++i) {
      via_coroutine.push_back(coroutine.get_name());
    }
    for (std::uint64_t i = 0; i < calls; ++i) {
      via_direct.push_back(direct.get_name_direct());
    }
    EXPECT_EQ(via_coroutine, via_direct) << "n=" << c.n;
    if (c.oversubscribe) {
      EXPECT_EQ(via_coroutine.back(), -1);
    }
  }
}

// A thread that leaves a renamer and comes back draws fresh coins rather
// than replaying the stream it started there: with the first name
// released, each return after a detour through another renamer would
// otherwise win that same cell again (batch 0 has n cells, so a fresh
// first coin repeats it with probability 1/n).
TEST(ConcurrentRenamer, ReturningToARenamerDrawsFreshCoins) {
  constexpr std::uint64_t kN = 1024;
  ConcurrentRenamer renamer(kN, 0.5);
  ConcurrentRenamer detour(kN, 0.5);
  const Name first = renamer.get_name();
  renamer.release(first);
  int repeats = 0;
  for (int round = 0; round < 8; ++round) {
    ASSERT_GE(detour.get_name(), 0);
    const Name again = renamer.get_name();
    ASSERT_GE(again, 0);
    repeats += again == first ? 1 : 0;
    renamer.release(again);
  }
  EXPECT_LE(repeats, 1);
}

TEST(ConcurrentRenamer, CapacityMatchesLayout) {
  ConcurrentRenamer renamer(100, 0.5);
  EXPECT_EQ(renamer.capacity(), BatchLayout(100, 0.5).total());
}

TEST(AdaptiveConcurrentRenamer, LowContentionSmallNames) {
  AdaptiveConcurrentRenamer renamer(1024);
  for (int i = 0; i < 4; ++i) {
    const Name n = renamer.get_name();
    ASSERT_GE(n, 0);
    EXPECT_LT(n, 64);  // k=4: names stay near the bottom of the stack
  }
}

TEST(AdaptiveConcurrentRenamer, NamesScaleWithContention) {
  AdaptiveConcurrentRenamer renamer(4096);
  std::set<Name> names;
  constexpr int k = 256;
  Name max_name = -1;
  for (int i = 0; i < k; ++i) {
    const Name n = renamer.get_name();
    ASSERT_GE(n, 0);
    ASSERT_TRUE(names.insert(n).second);
    max_name = std::max(max_name, n);
  }
  EXPECT_LT(max_name, 10 * k + 64);  // O(k) with the eps=1 constants
}

TEST(AdaptiveConcurrentRenamer, MultiThreaded) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 32;
  AdaptiveConcurrentRenamer renamer(4096);
  std::vector<std::vector<Name>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) got[t].push_back(renamer.get_name());
    });
  }
  for (auto& th : threads) th.join();
  std::set<Name> all;
  for (const auto& v : got) {
    for (Name n : v) {
      ASSERT_GE(n, 0);
      ASSERT_TRUE(all.insert(n).second);
    }
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(AdaptiveConcurrentRenamer, RejectsZeroCapacity) {
  EXPECT_THROW(AdaptiveConcurrentRenamer(0), std::invalid_argument);
}

}  // namespace
}  // namespace loren
