// Tests for the TAS substrates: ArenaEnv (BasicDirectEnv over a TasArena)
// and the read/write TAS protocols (two-process racing consensus,
// tournament tree, sifter). The RW protocols are hammered under adversarial simulated
// schedules across many seeds: safety (at most one winner) must never
// depend on the coin flips or the schedule.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/runner.h"
#include "sim/scheduler.h"
#include "renaming/rebatching.h"
#include "tas/direct_env.h"
#include "tas/rw_tas.h"
#include "tas/tas_arena.h"
#include "tas/tas_service.h"

namespace loren {
namespace {

using sim::AlgoFactory;
using sim::Env;
using sim::Name;
using sim::ProcessId;
using sim::RunConfig;
using sim::RunResult;
using sim::Task;

// ------------------------------------------------------------ ArenaEnv ----

TEST(ArenaEnv, ExecutesImmediately) {
  TasArena arena(4);
  Xoshiro256 rng(1);
  ArenaEnv env(arena, rng, 0);
  EXPECT_TRUE(env.immediate());
  EXPECT_EQ(env.execute_now(sim::OpKind::kTas, 1, 0), 1u);
  EXPECT_EQ(env.execute_now(sim::OpKind::kTas, 1, 0), 0u);
  EXPECT_EQ(env.steps(), 2u);
}

TEST(ArenaEnv, EnsureLocationsChecksCapacity) {
  TasArena arena(4);
  Xoshiro256 rng(1);
  ArenaEnv env(arena, rng, 0);
  EXPECT_NO_THROW(env.ensure_locations(4));
  EXPECT_THROW(env.ensure_locations(5), std::length_error);
}

TEST(ArenaEnv, PostIsForbidden) {
  TasArena arena(1);
  Xoshiro256 rng(1);
  ArenaEnv env(arena, rng, 0);
  EXPECT_THROW(env.post(sim::PendingOp{}), std::logic_error);
}

TEST(ArenaEnv, CoroutineRunsSynchronously) {
  TasArena arena(2);
  Xoshiro256 rng(1);
  ArenaEnv env(arena, rng, 0);
  auto algo = [](Env& e) -> Task<Name> {
    if (co_await sim::tas(e, 0)) co_return 0;
    co_return -1;
  };
  EXPECT_EQ(sim::run_sync(algo(env)), 0);
  EXPECT_EQ(sim::run_sync(algo(env)), -1);
}

// ----------------------------------------------- two-process RW TAS ----

/// Both processes run the protocol on the same object; returns the winner
/// count and whether both terminated.
AlgoFactory two_proc_factory() {
  return [](Env& env, ProcessId pid) -> Task<Name> {
    env.ensure_locations(2);
    const bool won = co_await two_process_rw_tas(env, 0, static_cast<int>(pid));
    co_return won ? 1 : 0;  // "name" encodes the outcome
  };
}

class TwoProcTasSeeds : public ::testing::TestWithParam<int> {};

TEST_P(TwoProcTasSeeds, AtMostOneWinnerEveryScheduleKind) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  std::vector<std::unique_ptr<sim::Strategy>> strategies;
  strategies.push_back(std::make_unique<sim::RoundRobinStrategy>());
  strategies.push_back(std::make_unique<sim::RandomStrategy>());
  strategies.push_back(std::make_unique<sim::LayeredStrategy>());
  strategies.push_back(std::make_unique<sim::CollisionAdversary>());
  for (auto& strat : strategies) {
    RunConfig cfg{.num_processes = 2,
                  .seed = seed,
                  .strategy = strat.get(),
                  .max_total_steps = 100000};
    const RunResult r = sim::simulate(two_proc_factory(), cfg);
    ASSERT_EQ(r.finished, 2u) << strat->name();
    const int winners = static_cast<int>(r.processes[0].name) +
                        static_cast<int>(r.processes[1].name);
    EXPECT_EQ(winners, 1) << strat->name() << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoProcTasSeeds, ::testing::Range(0, 50));

TEST(TwoProcTas, SoloProcessWins) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 1, .seed = seed, .strategy = &strat};
    const RunResult r = sim::simulate(
        [](Env& env, ProcessId) -> Task<Name> {
          env.ensure_locations(2);
          co_return (co_await two_process_rw_tas(env, 0, 0)) ? 1 : 0;
        },
        cfg);
    ASSERT_EQ(r.finished, 1u);
    EXPECT_EQ(r.processes[0].name, 1);  // solo always wins
    EXPECT_LE(r.processes[0].steps, 6u);  // constant solo cost
  }
}

TEST(TwoProcTas, ExpectedStepsAreConstant) {
  // Average steps per process across seeds should be a small constant even
  // under the adaptive adversary.
  double total = 0.0;
  const int kRuns = 200;
  for (int seed = 0; seed < kRuns; ++seed) {
    sim::CollisionAdversary strat;
    RunConfig cfg{.num_processes = 2,
                  .seed = static_cast<std::uint64_t>(seed) + 1000,
                  .strategy = &strat,
                  .max_total_steps = 100000};
    const RunResult r = sim::simulate(two_proc_factory(), cfg);
    total += static_cast<double>(r.total_steps);
  }
  EXPECT_LT(total / kRuns, 40.0);  // loose but catches livelock regressions
}

TEST(TwoProcTas, SurvivorWinsAfterOpponentCrash) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto base = std::make_unique<sim::RoundRobinStrategy>();
    sim::CrashDecorator strat(std::move(base), 1,
                              sim::CrashDecorator::Mode::kRandom,
                              /*interval=*/2);
    RunConfig cfg{.num_processes = 2,
                  .seed = seed,
                  .strategy = &strat,
                  .max_total_steps = 100000};
    const RunResult r = sim::simulate(two_proc_factory(), cfg);
    ASSERT_EQ(r.finished + r.crashed, 2u);
    // Safety: never two winners (a crashed process holds no outcome).
    int winners = 0;
    for (const auto& p : r.processes) {
      if (p.finished && p.name == 1) ++winners;
    }
    EXPECT_LE(winners, 1);
  }
}

// -------------------------------------------------------- tournaments ----

AlgoFactory service_rename_factory(TasService& service, std::uint64_t slots) {
  return [&service, slots](Env& env, ProcessId) -> Task<Name> {
    // Uniform probing through the service: heavy collision pressure.
    for (int tries = 0; tries < 4096; ++tries) {
      const std::uint64_t x = env.random_below(slots);
      if (co_await service.acquire(env, x)) co_return static_cast<Name>(x);
    }
    co_return -1;
  };
}

class ServiceKind : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ServiceKind, UniqueNamesUnderContention) {
  const int kind = std::get<0>(GetParam());
  const std::uint64_t seed = static_cast<std::uint64_t>(std::get<1>(GetParam()));
  constexpr ProcessId kProcs = 12;
  constexpr std::uint64_t kSlots = 16;
  std::unique_ptr<TasService> service;
  if (kind == 0) {
    service = std::make_unique<HardwareTasService>(0, kSlots);
  } else if (kind == 1) {
    service = std::make_unique<TournamentTasService>(0, kSlots, kProcs);
  } else {
    service = std::make_unique<SifterTasService>(0, kSlots, kProcs);
  }
  sim::RandomStrategy strat;
  RunConfig cfg{.num_processes = kProcs,
                .seed = seed,
                .strategy = &strat,
                .max_total_steps = 2'000'000};
  const RunResult r =
      sim::simulate(service_rename_factory(*service, kSlots), cfg);
  EXPECT_TRUE(r.renaming_correct()) << service->name();
  EXPECT_EQ(r.finished, kProcs) << service->name();
  EXPECT_LT(r.max_name, static_cast<Name>(kSlots));
}

INSTANTIATE_TEST_SUITE_P(KindsAndSeeds, ServiceKind,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range(0, 12)));

TEST(TournamentService, FootprintAndDepth) {
  TournamentTasService svc(0, 10, 8);
  EXPECT_EQ(svc.tree_depth(), 3u);          // 8 leaves
  EXPECT_EQ(svc.footprint(), 10u * 2 * 7);  // 7 internal nodes, 2 regs each
}

TEST(TournamentService, RoundsUpToPowerOfTwoLeaves) {
  TournamentTasService svc(0, 1, 5);
  EXPECT_EQ(svc.tree_depth(), 3u);  // 5 -> 8 leaves
}

TEST(SifterService, CostsLessThanPureTournamentUnderContention) {
  // The sifter's point: most processes lose in 2 register steps instead of
  // fighting through log n tournament rounds.
  constexpr ProcessId kProcs = 16;
  auto run = [&](TasService& svc) {
    sim::RandomStrategy strat;
    RunConfig cfg{.num_processes = kProcs,
                  .seed = 7,
                  .strategy = &strat,
                  .max_total_steps = 2'000'000};
    // All processes contend on one logical object; losers retry on their
    // own private slot so everyone finishes.
    const RunResult r = sim::simulate(
        [&svc](Env& env, ProcessId pid) -> Task<Name> {
          if (co_await svc.acquire(env, 0)) co_return 0;
          co_return static_cast<Name>(pid) + 1;
        },
        cfg);
    EXPECT_TRUE(r.renaming_correct());
    return r.total_steps;
  };
  TournamentTasService tournament(0, 1, kProcs);
  SifterTasService sifter(0, 1, kProcs);
  const std::uint64_t steps_tournament = run(tournament);
  const std::uint64_t steps_sifter = run(sifter);
  EXPECT_LT(steps_sifter, steps_tournament);
}

}  // namespace
}  // namespace loren
