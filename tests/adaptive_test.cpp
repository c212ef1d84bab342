// Tests for the adaptive algorithms (paper Section 5): AdaptiveReBatching
// (Theorem 5.1) and FastAdaptiveReBatching (Theorem 5.2). The key adaptive
// properties: names O(k) and step bounds depending only on the realized
// contention k, for any k, without knowing n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "renaming/adaptive.h"
#include "renaming/concurrent.h"
#include "renaming/fast_adaptive.h"
#include "renaming/object_stack.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "tas/tas_arena.h"

namespace loren {
namespace {

using sim::AlgoFactory;
using sim::Env;
using sim::Name;
using sim::ProcessId;
using sim::RunConfig;
using sim::RunResult;
using sim::Task;

AlgoFactory adaptive_factory(AdaptiveReBatching& algo) {
  return [&algo](Env& env, ProcessId) -> Task<Name> {
    co_return co_await algo.get_name(env);
  };
}

AlgoFactory fast_factory(FastAdaptiveReBatching& algo) {
  return [&algo](Env& env, ProcessId) -> Task<Name> {
    co_return co_await algo.get_name(env);
  };
}

// ------------------------------------------------------- object stack ----

TEST(ReBatchingStack, LazyConsecutiveNamespaces) {
  ReBatchingStack stack({.epsilon = 1.0}, 0, 20);
  EXPECT_EQ(stack.instantiated(), 0u);
  ReBatching& r3 = stack.object(3);
  EXPECT_EQ(stack.instantiated(), 3u);  // R_1, R_2 created on the way
  EXPECT_EQ(stack.object(1).base(), 0u);
  EXPECT_EQ(stack.object(2).base(), stack.object(1).end());
  EXPECT_EQ(r3.base(), stack.object(2).end());
  EXPECT_EQ(r3.layout().n(), 8u);  // n_3 = 2^3
}

TEST(ReBatchingStack, ObjectIndexOfRoundTrips) {
  ReBatchingStack stack({.epsilon = 1.0}, 0, 20);
  stack.object(6);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    const ReBatching& obj = stack.object(i);
    EXPECT_EQ(stack.object_index_of(static_cast<Name>(obj.base())), i);
    EXPECT_EQ(stack.object_index_of(static_cast<Name>(obj.end() - 1)), i);
  }
  EXPECT_EQ(stack.object_index_of(-1), 0u);
  EXPECT_EQ(stack.object_index_of(static_cast<Name>(stack.object(6).end())), 0u);
}

TEST(ReBatchingStack, BaseOffsetRespected) {
  ReBatchingStack stack({.epsilon = 1.0}, 500, 20);
  EXPECT_EQ(stack.object(1).base(), 500u);
  EXPECT_EQ(stack.object_index_of(499), 0u);
  EXPECT_EQ(stack.object_index_of(500), 1u);
}

TEST(ReBatchingStack, RejectsBadIndices) {
  ReBatchingStack stack({.epsilon = 1.0}, 0, 10);
  EXPECT_THROW(stack.object(0), std::out_of_range);
  EXPECT_THROW(stack.object(11), std::out_of_range);
  EXPECT_THROW(ReBatchingStack({.epsilon = 1.0}, 0, 0), std::invalid_argument);
  EXPECT_THROW(ReBatchingStack({.epsilon = 1.0}, 0, 41), std::invalid_argument);
}

// --------------------------------------------------- adaptive renaming ----

class AdaptiveContention : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveContention, NamesAreOrderK) {
  const ProcessId k = static_cast<ProcessId>(1) << GetParam();
  AdaptiveReBatching algo;
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = k, .seed = 42u + k, .strategy = &strat};
  const RunResult r = sim::simulate(adaptive_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, k);
  // Theorem 5.1: largest name <= 4(1+eps)k = 8k for eps=1. Our layout
  // prefix sums give the same constant up to rounding; use 10k + slack.
  EXPECT_LT(r.max_name, static_cast<Name>(10 * std::uint64_t{k} + 64))
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(KSweep, AdaptiveContention,
                         ::testing::Values(0, 1, 2, 4, 6, 8, 10));

TEST(Adaptive, SoloProcessGetsTinyNameFast) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    AdaptiveReBatching algo;
    sim::RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 1, .seed = seed, .strategy = &strat};
    const RunResult r = sim::simulate(adaptive_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    // Wins in R_1 (namespace size ~4): name < end of R_1.
    EXPECT_LT(r.max_name, static_cast<Name>(algo.stack().object(1).end()));
    EXPECT_LE(r.max_steps, 4u);
  }
}

TEST(Adaptive, StepsGrowSlowlyWithK) {
  // O((log log k)^2): the max steps at k=1024 should still be modest and
  // the growth from k=16 to k=1024 should be far below linear/logarithmic.
  auto max_steps_at = [](ProcessId k) {
    AdaptiveReBatching algo;
    sim::RandomStrategy strat;
    RunConfig cfg{.num_processes = k, .seed = 5, .strategy = &strat};
    const RunResult r = sim::simulate(adaptive_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    return r.max_steps;
  };
  const std::uint64_t at16 = max_steps_at(16);
  const std::uint64_t at1024 = max_steps_at(1024);
  EXPECT_LT(at1024, 4 * at16 + 64);  // wildly sublinear growth
}

TEST(Adaptive, AdversarialSchedulesStayCorrect) {
  for (int kind = 0; kind < 2; ++kind) {
    AdaptiveReBatching algo;
    std::unique_ptr<sim::Strategy> strat;
    if (kind == 0) {
      strat = std::make_unique<sim::CollisionAdversary>();
    } else {
      strat = std::make_unique<sim::LayeredStrategy>();
    }
    RunConfig cfg{.num_processes = 128, .seed = 9, .strategy = strat.get()};
    const RunResult r = sim::simulate(adaptive_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    EXPECT_EQ(r.finished, 128u);
  }
}

TEST(Adaptive, CrashTolerance) {
  AdaptiveReBatching algo;
  auto base = std::make_unique<sim::RandomStrategy>();
  sim::CrashDecorator strat(std::move(base), 32,
                            sim::CrashDecorator::Mode::kRandom, 7);
  RunConfig cfg{.num_processes = 128, .seed = 13, .strategy = &strat};
  const RunResult r = sim::simulate(adaptive_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.crashed, 32u);
}

// ----------------------------------------------- fast adaptive (Fig 2) ----

class FastAdaptiveContention : public ::testing::TestWithParam<int> {};

TEST_P(FastAdaptiveContention, NamesAreOrderK) {
  const ProcessId k = static_cast<ProcessId>(1) << GetParam();
  FastAdaptiveReBatching algo;
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = k, .seed = 7u + k, .strategy = &strat};
  const RunResult r = sim::simulate(fast_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, k);
  EXPECT_LT(r.max_name, static_cast<Name>(10 * std::uint64_t{k} + 64))
      << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(KSweep, FastAdaptiveContention,
                         ::testing::Values(0, 1, 2, 4, 6, 8, 10));

TEST(FastAdaptive, TotalStepsBeatAdaptivePerProcessTotals) {
  // Theorem 5.2 vs 5.1: total steps O(k log log k) vs Theta(k (log log k)^2).
  // The paper's proof constant t0 = ceil(17 ln(8e/eps)/eps) = 53 swamps the
  // asymptotic separation at reachable k (both algorithms spend ~t0 per
  // object visited in the race), so measure with the practical probe
  // budget; E6 reports both settings.
  constexpr ProcessId k = 4096;
  AdaptiveReBatching slow(AdaptiveReBatching::Options{
      .layout = {.epsilon = 1.0, .beta = 2, .t0_override = 4}});
  FastAdaptiveReBatching fast(
      FastAdaptiveReBatching::Options{.beta = 2, .t0_override = 4});
  sim::RandomStrategy s1, s2;
  RunConfig c1{.num_processes = k, .seed = 3, .strategy = &s1};
  RunConfig c2{.num_processes = k, .seed = 3, .strategy = &s2};
  const RunResult r_slow = sim::simulate(adaptive_factory(slow), c1);
  const RunResult r_fast = sim::simulate(fast_factory(fast), c2);
  EXPECT_TRUE(r_slow.renaming_correct());
  EXPECT_TRUE(r_fast.renaming_correct());
  EXPECT_LT(r_fast.total_steps, r_slow.total_steps);
}

TEST(FastAdaptive, SoloProcess) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FastAdaptiveReBatching algo;
    sim::RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 1, .seed = seed, .strategy = &strat};
    const RunResult r = sim::simulate(fast_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    EXPECT_LT(r.max_name, static_cast<Name>(algo.stack().object(1).end()));
  }
}

TEST(FastAdaptive, AdversarialSchedulesStayCorrect) {
  for (int seed = 1; seed <= 3; ++seed) {
    FastAdaptiveReBatching algo;
    sim::CollisionAdversary strat;
    RunConfig cfg{.num_processes = 256,
                  .seed = static_cast<std::uint64_t>(seed),
                  .strategy = &strat};
    const RunResult r = sim::simulate(fast_factory(algo), cfg);
    EXPECT_TRUE(r.renaming_correct());
    EXPECT_EQ(r.finished, 256u);
  }
}

TEST(FastAdaptive, CrashTolerance) {
  FastAdaptiveReBatching algo;
  auto base = std::make_unique<sim::RandomStrategy>();
  sim::CrashDecorator strat(std::move(base), 50,
                            sim::CrashDecorator::Mode::kRandom, 11);
  RunConfig cfg{.num_processes = 256, .seed = 21, .strategy = &strat};
  const RunResult r = sim::simulate(fast_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.crashed, 50u);
}

TEST(FastAdaptive, SharedStackAcrossBothPhases) {
  // Processes race and then descend: every assigned name must come from an
  // instantiated object and map back through object_index_of.
  FastAdaptiveReBatching algo;
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = 512, .seed = 4, .strategy = &strat};
  const RunResult r = sim::simulate(fast_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  for (const auto& p : r.processes) {
    ASSERT_GE(p.name, 0);
    EXPECT_GE(algo.stack().object_index_of(p.name), 1u);
  }
}

TEST(FastAdaptive, DeterministicGivenSeed) {
  FastAdaptiveReBatching a1, a2;
  sim::RandomStrategy s1, s2;
  RunConfig c1{.num_processes = 128, .seed = 55, .strategy = &s1};
  RunConfig c2{.num_processes = 128, .seed = 55, .strategy = &s2};
  const RunResult r1 = sim::simulate(fast_factory(a1), c1);
  const RunResult r2 = sim::simulate(fast_factory(a2), c2);
  for (std::size_t i = 0; i < r1.processes.size(); ++i) {
    EXPECT_EQ(r1.processes[i].name, r2.processes[i].name);
  }
}

// ------------------------------------------- real threads (hardware) ----
// The simulator tests above exercise the algorithms under controlled
// adversaries; these run the same adaptive code over std::thread workers
// and real std::atomic cells, where the interleavings are the machine's.

TEST(AdaptiveHardware, ConcurrentRenamerNamesAreUniqueAndBounded) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 64;  // realized contention k = 256
  AdaptiveConcurrentRenamer renamer(/*max_contention=*/1024);
  std::vector<std::vector<sim::Name>> got(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      for (unsigned i = 0; i < kPerThread; ++i) {
        got[t].push_back(renamer.get_name());
      }
    });
  }
  for (auto& th : pool) th.join();

  std::vector<sim::Name> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), std::size_t{kThreads} * kPerThread);
  for (const sim::Name n : all) {
    EXPECT_GE(n, 0);
    EXPECT_LT(static_cast<std::uint64_t>(n), renamer.capacity());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "adaptive renaming handed out a duplicate name under real threads";
}

TEST(AdaptiveHardware, SoloThreadGetsSmallName) {
  // Theorem 5.1 at k = 1: the solo process wins in R_1 w.h.p., so its
  // name is O(1) — far below the capacity provisioned for k = 256.
  for (int round = 0; round < 10; ++round) {
    AdaptiveConcurrentRenamer renamer(/*max_contention=*/256);
    const sim::Name n = renamer.get_name();
    ASSERT_GE(n, 0);
    EXPECT_LT(n, 32) << "solo acquisition should stay in the first objects";
  }
}

TEST(AdaptiveHardware, FastAdaptiveOverSharedArenaIsUniqueAndOrderK) {
  // FastAdaptiveReBatching has no dedicated hardware wrapper; drive the
  // coroutine directly over a shared packed TasArena, one ArenaEnv per
  // acquisition over the thread's own coin stream, as
  // AdaptiveConcurrentRenamer does.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 32;  // realized contention k = 128
  constexpr std::uint64_t kMaxObject = 12;
  FastAdaptiveReBatching algo(
      FastAdaptiveReBatching::Options{.max_object_index = kMaxObject});
  // Size the arena for the deepest object the race may touch.
  const std::uint64_t cells = algo.stack().object(kMaxObject).end();
  TasArena arena(cells, ArenaLayout::kPacked);

  std::vector<std::vector<sim::Name>> got(kThreads);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      Xoshiro256 rng(mix_seed(0xFA57, t));
      for (unsigned i = 0; i < kPerThread; ++i) {
        ArenaEnv env(arena, rng, t);
        got[t].push_back(sim::run_sync(algo.get_name(env)));
      }
    });
  }
  for (auto& th : pool) th.join();

  std::vector<sim::Name> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  for (const sim::Name n : all) ASSERT_GE(n, 0);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  // Namespace bound: names O(k) w.h.p. — the doubling race for k = 128
  // settles around R_8; far below the R_12 extent the arena allows.
  EXPECT_LT(all.back(), static_cast<sim::Name>(algo.stack().object(10).end()))
      << "largest name " << all.back() << " is not O(k) for k = 128";
}

// Both adaptive algorithms must assign small names to *late* low-contention
// bursts too: k processes, then the names should not depend on how large
// the stack could have grown.
TEST(Adaptive, RepeatedSmallBurstsKeepNamesSmall) {
  AdaptiveReBatching algo;
  sim::SimEnv env(8, 77);
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = 8, .seed = 77, .strategy = &strat};
  const RunResult r = sim::run_execution(env, adaptive_factory(algo), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_LT(r.max_name, 200);
}

}  // namespace
}  // namespace loren
