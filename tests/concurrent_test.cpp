// Tests for the thread-facing API: ConcurrentRenamer and
// AdaptiveConcurrentRenamer over real std::atomic cells and std::thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "renaming/concurrent.h"
#include "renaming/thread_ctx.h"
#include "sim/task.h"

namespace loren {
namespace {

using sim::Name;

// The hardware path compiles against the concrete env: a probe's awaiter
// holds an ArenaEnv*, so its calls bind statically (BasicDirectEnv is
// final), not through sim::Env's vtable.
static_assert(
    std::is_same_v<decltype(sim::tas(std::declval<ArenaEnv&>(), 0).env),
                   ArenaEnv*>);

/// Runs `body` on a fresh thread, which starts with an empty frame cache,
/// pinned to dense slot 0 so its coin stream does not depend on how many
/// threads the process made before.
template <class Body>
void on_fresh_slot0_thread(Body body) {
  std::thread([&body] {
    force_thread_slot(0);
    body();
  }).join();
}

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

// The probe look-ahead draws from a copy of the coin stream. An env that
// looks ahead before every claim and one that never does, over equal
// streams and equal arenas, claim the same cells and leave their streams
// in the same state.
TEST(ArenaEnvLookAhead, PrefetchDrawsConsumesNoCoins) {
  constexpr std::uint64_t kCells = 1000;
  TasArena ahead_cells(kCells), plain_cells(kCells);
  Xoshiro256 ahead_rng(0x1A), plain_rng(0x1A);
  ArenaEnv ahead(ahead_cells, ahead_rng, 0);
  ArenaEnv plain(plain_cells, plain_rng, 0);
  std::vector<std::uint64_t> ahead_won, plain_won;
  for (std::uint64_t call = 0; call < 4 * kCells; ++call) {
    ahead.prefetch_draws(0, kCells, call % 17);
    const std::uint64_t a = ahead.random_below(kCells);
    const std::uint64_t p = plain.random_below(kCells);
    if (ahead_cells.test_and_set(a)) ahead_won.push_back(a);
    if (plain_cells.test_and_set(p)) plain_won.push_back(p);
  }
  EXPECT_EQ(ahead_won, plain_won);
  EXPECT_EQ(ahead_rng.next(), plain_rng.next());
}

// The same through ReBatching: its ArenaEnv walk looks ahead, its sim::Env
// walk (run over an equal ArenaEnv through the vtable) does not. Calling
// past capacity runs every batch and the backup sweep.
TEST(ArenaEnvLookAhead, ArenaWalkIssuesTheSimEnvWalksNames) {
  ReBatching algo(1024, 0.5);
  TasArena ahead_cells(algo.end()), plain_cells(algo.end());
  Xoshiro256 ahead_rng(0xE0), plain_rng(0xE0);
  ArenaEnv ahead(ahead_cells, ahead_rng, 0);
  ArenaEnv plain(plain_cells, plain_rng, 0);
  for (std::uint64_t call = 0; call <= algo.layout().total(); ++call) {
    const Name a = sim::run_sync(algo.get_name(ahead));
    const Name p = sim::run_sync(algo.get_name(static_cast<sim::Env&>(plain)));
    ASSERT_EQ(a, p) << "call " << call;
  }
  EXPECT_EQ(ahead.steps(), plain.steps());
  EXPECT_EQ(ahead_rng.next(), plain_rng.next());
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

// get_name builds one coroutine frame per call, whatever batch it wins
// in: ReBatching walks every batch and the backup sweep in one body, and
// the probes await the TAS without a frame of their own. The frame goes
// back to the thread's recycler, so exactly one is cached afterwards.
TEST(ConcurrentRenamer, GetNameBuildsOneFrame) {
  ConcurrentRenamer renamer(1024, 0.5);
  std::size_t cached = 0;
  on_fresh_slot0_thread([&] {
    ASSERT_EQ(sim::detail::FrameCache::cached(), 0u);
    ASSERT_GE(renamer.get_name(), 0);
    cached = sim::detail::FrameCache::cached();
  });
  EXPECT_EQ(cached, 1u);
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

// Past max_contention the doubling race reaches an object beyond the
// preallocated cells: that ReBatching::get_name's ensure_locations throws
// std::length_error before its walk starts, try_get_name turns it into
// nullopt and get_name into std::runtime_error. (The stack's own
// max_object_index valve, the only other way to get no name, lies far
// past these cells.) With max_contention 4 the cells are R_1 and R_2, 8
// names; with seed 7 on slot 0 eight calls fill them all.
TEST(AdaptiveConcurrentRenamer, OverflowIsNulloptThenThrows) {
  AdaptiveConcurrentRenamer renamer(4, 1.0, 7);
  ASSERT_EQ(renamer.capacity(), 8u);
  on_fresh_slot0_thread([&] {
    std::set<Name> names;
    for (int i = 1; i <= 8; ++i) {
      const std::optional<Name> name = renamer.try_get_name();
      ASSERT_TRUE(name.has_value()) << "call " << i;
      ASSERT_LT(*name, 8);
      ASSERT_TRUE(names.insert(*name).second);
    }
    EXPECT_EQ(renamer.try_get_name(), std::nullopt);
    EXPECT_THROW(renamer.get_name(), std::runtime_error);
  });
}

TEST(AdaptiveConcurrentRenamer, RejectsZeroCapacity) {
  EXPECT_THROW(AdaptiveConcurrentRenamer(0), std::invalid_argument);
}

}  // namespace
}  // namespace loren
