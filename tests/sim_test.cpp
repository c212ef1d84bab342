// Tests for the simulation framework: Task coroutines, SimEnv semantics,
// scheduler strategies, the runner, crash injection, and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/env.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "sim/sim_env.h"
#include "sim/task.h"

namespace loren::sim {
namespace {

// ------------------------------------------------------------- Task ----

Task<int> immediate_value(int v) { co_return v; }

Task<int> nested_add(int a, int b) {
  const int x = co_await immediate_value(a);
  const int y = co_await immediate_value(b);
  co_return x + y;
}

Task<int> recursive_sum(int n) {
  if (n == 0) co_return 0;
  co_return n + co_await recursive_sum(n - 1);
}

TEST(TaskTest, ImmediateCompletion) {
  auto t = immediate_value(42);
  EXPECT_FALSE(t.done());  // lazily started
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

TEST(TaskTest, NestedAwaitRunsToCompletion) {
  auto t = nested_add(2, 3);
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 5);
}

TEST(TaskTest, DeepRecursionViaSymmetricTransfer) {
  auto t = recursive_sum(2000);
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 2000 * 2001 / 2);
}

Task<int> throwing_task() {
  throw std::runtime_error("boom");
  co_return 0;  // unreachable
}

TEST(TaskTest, ExceptionPropagates) {
  auto t = throwing_task();
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_THROW(t.result(), std::runtime_error);
}

Task<int> awaits_thrower() {
  const int v = co_await throwing_task();
  co_return v;
}

TEST(TaskTest, ExceptionPropagatesThroughNestedAwait) {
  auto t = awaits_thrower();
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_THROW(t.result(), std::runtime_error);
}

TEST(TaskTest, MoveSemantics) {
  auto t = immediate_value(7);
  Task<int> u = std::move(t);
  EXPECT_FALSE(t.valid());  // NOLINT(bugprone-use-after-move): move contract
  u.resume();
  EXPECT_EQ(u.result(), 7);
}

Task<int> awaits_empty() {
  Task<int> empty;
  co_return co_await empty;
}

TEST(TaskTest, AwaitingAnEmptyTaskThrows) {
  auto t = awaits_empty();
  t.resume();
  ASSERT_TRUE(t.done());
  EXPECT_THROW(t.result(), std::logic_error);
}

TEST(TaskTest, DestroyingSuspendedTaskIsSafe) {
  SimEnv env(1, 9);
  env.ensure_locations(4);
  auto algo = [](Env& e) -> Task<Name> {
    if (co_await tas(e, 0)) co_return 0;
    co_return -1;
  };
  {
    auto t = algo(env);
    env.set_current(0);
    t.resume();
    EXPECT_FALSE(t.done());
    // Task goes out of scope while suspended at the TAS awaiter.
  }
  SUCCEED();
}

// --------------------------------------------------- frame recycler ----
//
// Each case runs on a fresh thread, so it starts from an empty cache.

using detail::FrameCache;

template <class Body>
void on_fresh_thread(Body body) {
  std::thread(body).join();
}

TEST(FrameCacheTest, FreedFramesAreReusedAndBounded) {
  on_fresh_thread([] {
    EXPECT_EQ(FrameCache::cached(), 0u);
    {
      std::vector<Task<int>> tasks;
      for (int i = 0; i < 10; ++i) tasks.push_back(immediate_value(i));
    }
    // Ten frames of one size class freed: the cache keeps kDepth.
    EXPECT_EQ(FrameCache::cached(), FrameCache::kDepth);
    auto t = immediate_value(5);
    EXPECT_EQ(FrameCache::cached(), FrameCache::kDepth - 1);
    t.resume();
    EXPECT_EQ(t.result(), 5);
  });
}

TEST(FrameCacheTest, FramesFreedOutOfOrderAreReusedSafely) {
  on_fresh_thread([] {
    auto a = immediate_value(1);
    auto b = nested_add(2, 3);
    auto c = immediate_value(4);
    b = Task<int>{};
    a = Task<int>{};
    c = Task<int>{};
    EXPECT_EQ(FrameCache::cached(), 3u);
    // The three freed blocks come back in a different order and back
    // frames of a different shape (nested_add's child frames).
    auto d = nested_add(5, 6);
    auto e = immediate_value(7);
    d.resume();
    e.resume();
    EXPECT_EQ(d.result(), 11);
    EXPECT_EQ(e.result(), 7);
  });
}

Task<bool> claim(Env& env, Location loc) { co_return co_await tas(env, loc); }

TEST(FrameCacheTest, InterleavedProcessesFreeFramesOutOfOrder) {
  // Every probe is a child frame, and the random schedule finishes the
  // processes' probes in an order unrelated to their allocation, so
  // frames are freed non-LIFO and re-allocated from the cache mid-run.
  const AlgoFactory probing = [](Env& env, ProcessId) -> Task<Name> {
    env.ensure_locations(32);
    for (Location loc = 0;; loc = (loc + 1 + env.random_below(3)) % 32) {
      if (co_await claim(env, loc)) co_return static_cast<Name>(loc);
    }
  };
  on_fresh_thread([&probing] {
    RunResult runs[2];
    for (RunResult& r : runs) {
      RandomStrategy strat;
      RunConfig cfg{.num_processes = 24, .seed = 41, .strategy = &strat};
      r = simulate(probing, cfg);
      EXPECT_TRUE(r.renaming_correct());
      EXPECT_EQ(r.finished, 24u);
    }
    // The second run starts with a warm cache and must not notice.
    EXPECT_EQ(runs[0].total_steps, runs[1].total_steps);
    for (std::size_t i = 0; i < runs[0].processes.size(); ++i) {
      EXPECT_EQ(runs[0].processes[i].name, runs[1].processes[i].name);
    }
    EXPECT_GT(FrameCache::cached(), 0u);
  });
}

TEST(FrameCacheTest, TaskDestroyedOnAnotherThreadJoinsThatThreadsCache) {
  // Suspended two levels deep at a simulated TAS on one thread, then
  // destroyed on another: both frames land in the destroying thread's
  // cache, and that thread reuses them.
  SimEnv env(1, 3);
  env.ensure_locations(1);
  auto algo = [](Env& e) -> Task<Name> {
    if (co_await claim(e, 0)) co_return 0;
    co_return -1;
  };
  Task<Name> task;
  std::size_t creator_cached = 0;
  on_fresh_thread([&] {
    task = algo(env);
    env.set_current(0);
    task.resume();
    EXPECT_FALSE(task.done());
    creator_cached = FrameCache::cached();
  });
  EXPECT_EQ(creator_cached, 0u);
  on_fresh_thread([&task] {
    task = Task<Name>{};
    EXPECT_EQ(FrameCache::cached(), 2u);
    auto t = nested_add(1, 1);
    t.resume();
    EXPECT_EQ(t.result(), 2);
  });
}

TEST(FrameCacheTest, ThreadExitWithWarmCache) {
  struct Holder {
    Task<int> task;
  };
  bool warm = false;
  on_fresh_thread([&warm] {
    // Constructed before the cache, so destroyed after it at thread exit:
    // its frame is freed once the cache is gone and must go straight to
    // the allocator (ASan reports a leak or a bad free otherwise).
    thread_local Holder late;
    late.task = immediate_value(9);
    {
      auto t = nested_add(1, 2);
      t.resume();
      EXPECT_EQ(t.result(), 3);
    }
    warm = FrameCache::cached() > 0;
  });
  EXPECT_TRUE(warm);
}

// ------------------------------------------------------------ SimEnv ----

TEST(SimEnvTest, TasSemanticsFirstWins) {
  SimEnv env(2, 1);
  env.ensure_locations(1);
  PendingOp op{OpKind::kTas, 0, 0, nullptr, {}};
  EXPECT_EQ(env.execute(0, op), 1u);  // first access wins
  EXPECT_EQ(env.execute(1, op), 0u);  // later accesses lose
  EXPECT_EQ(env.cell(0), 1u);
}

TEST(SimEnvTest, ReadWriteSemantics) {
  SimEnv env(1, 1);
  env.ensure_locations(3);
  PendingOp w{OpKind::kWrite, 2, 77, nullptr, {}};
  env.execute(0, w);
  PendingOp r{OpKind::kRead, 2, 0, nullptr, {}};
  EXPECT_EQ(env.execute(0, r), 77u);
}

TEST(SimEnvTest, StepAccounting) {
  SimEnv env(2, 1);
  env.ensure_locations(2);
  PendingOp op{OpKind::kTas, 0, 0, nullptr, {}};
  env.execute(0, op);
  env.execute(0, op);
  env.execute(1, op);
  EXPECT_EQ(env.steps(0), 2u);
  EXPECT_EQ(env.steps(1), 1u);
  EXPECT_EQ(env.total_steps(), 3u);
  EXPECT_EQ(env.tas_count(), 3u);
  EXPECT_EQ(env.rw_count(), 0u);
}

TEST(SimEnvTest, GrowsOnDemand) {
  SimEnv env(1, 1);
  EXPECT_EQ(env.num_locations(), 0u);
  PendingOp op{OpKind::kTas, 100, 0, nullptr, {}};
  env.execute(0, op);
  EXPECT_GE(env.num_locations(), 101u);
}

TEST(SimEnvTest, RandomStreamsPerProcessAreDeterministic) {
  SimEnv a(2, 5), b(2, 5);
  a.set_current(0);
  b.set_current(0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.random_below(1000), b.random_below(1000));
  }
  a.set_current(1);
  // Different process => (almost surely) different stream.
  int same = 0;
  for (int i = 0; i < 32; ++i) same += a.random_below(1000) == b.random_below(1000);
  EXPECT_LE(same, 4);
}

TEST(SimEnvTest, DoublePostThrows) {
  SimEnv env(1, 1);
  env.set_current(0);
  env.post(PendingOp{});
  EXPECT_THROW(env.post(PendingOp{}), std::logic_error);
}

// --------------------------------------------------------- strategies ----

/// n processes, each TASes its own location then returns it: trivially
/// correct renaming used to exercise the runner.
AlgoFactory own_slot_algo() {
  return [](Env& env, ProcessId pid) -> Task<Name> {
    env.ensure_locations(pid + 1);
    if (co_await tas(env, pid)) co_return static_cast<Name>(pid);
    co_return -1;
  };
}

/// Everyone fights for location 0 first, loser takes own slot: creates
/// contention the adversaries can exploit.
AlgoFactory contended_algo() {
  return [](Env& env, ProcessId pid) -> Task<Name> {
    env.ensure_locations(1 + pid + 1);
    if (co_await tas(env, 0)) co_return 0;
    if (co_await tas(env, 1 + pid)) co_return static_cast<Name>(1 + pid);
    co_return -1;
  };
}

class StrategyParamTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Strategy> make() {
    switch (GetParam()) {
      case 0: return std::make_unique<RoundRobinStrategy>();
      case 1: return std::make_unique<RandomStrategy>();
      case 2: return std::make_unique<LayeredStrategy>();
      default: return std::make_unique<CollisionAdversary>();
    }
  }
};

TEST_P(StrategyParamTest, OwnSlotAllFinish) {
  auto strat = make();
  RunConfig cfg{.num_processes = 64, .seed = 11, .strategy = strat.get()};
  const RunResult r = simulate(own_slot_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, 64u);
  EXPECT_EQ(r.total_steps, 64u);  // one step each
  EXPECT_EQ(r.max_steps, 1u);
}

TEST_P(StrategyParamTest, ContendedUniqueNames) {
  auto strat = make();
  RunConfig cfg{.num_processes = 32, .seed = 13, .strategy = strat.get()};
  const RunResult r = simulate(contended_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, 32u);
  // Exactly one process wins location 0 in one step; the rest take two.
  EXPECT_EQ(r.total_steps, 1u + 2u * 31u);
}

TEST_P(StrategyParamTest, DeterministicGivenSeed) {
  auto s1 = make();
  auto s2 = make();
  RunConfig c1{.num_processes = 16, .seed = 21, .strategy = s1.get()};
  RunConfig c2{.num_processes = 16, .seed = 21, .strategy = s2.get()};
  const RunResult r1 = simulate(contended_algo(), c1);
  const RunResult r2 = simulate(contended_algo(), c2);
  ASSERT_EQ(r1.processes.size(), r2.processes.size());
  for (std::size_t i = 0; i < r1.processes.size(); ++i) {
    EXPECT_EQ(r1.processes[i].name, r2.processes[i].name);
    EXPECT_EQ(r1.processes[i].steps, r2.processes[i].steps);
  }
}

std::string strategy_param_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "RoundRobin";
    case 1: return "Random";
    case 2: return "Layered";
    default: return "Collision";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyParamTest,
                         ::testing::Values(0, 1, 2, 3), strategy_param_name);

TEST(LayeredStrategyTest, CountsLayers) {
  LayeredStrategy strat;
  RunConfig cfg{.num_processes = 8, .seed = 3, .strategy = &strat};
  const RunResult r = simulate(own_slot_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  // Every process takes exactly one step => exactly one layer formed.
  EXPECT_EQ(strat.layers_completed(), 1u);
}

TEST(CollisionAdversaryTest, SchedulesDoomedProbesFirst) {
  // With the contended algorithm, the adversary should make every process
  // waste its location-0 probe after the first winner.
  CollisionAdversary strat;
  RunConfig cfg{.num_processes = 16, .seed = 5, .strategy = &strat};
  const RunResult r = simulate(contended_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.total_steps, 1u + 2u * 15u);
}

// ------------------------------------------------------------ crashes ----

TEST(CrashTest, RandomCrashesAreTolerated) {
  auto base = std::make_unique<RoundRobinStrategy>();
  CrashDecorator strat(std::move(base), /*max_crashes=*/8,
                       CrashDecorator::Mode::kRandom, /*interval=*/3);
  RunConfig cfg{.num_processes = 32, .seed = 17, .strategy = &strat};
  const RunResult r = simulate(contended_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.crashed, 8u);
  EXPECT_EQ(r.finished, 24u);
}

TEST(CrashTest, BeforeWinCrashesWasteNoNames) {
  auto base = std::make_unique<RoundRobinStrategy>();
  CrashDecorator strat(std::move(base), /*max_crashes=*/4,
                       CrashDecorator::Mode::kBeforeWin);
  RunConfig cfg{.num_processes = 8, .seed = 19, .strategy = &strat};
  const RunResult r = simulate(own_slot_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.crashed, 4u);
  EXPECT_EQ(r.finished, 4u);
}

TEST(CrashTest, AllButOneCrash) {
  auto base = std::make_unique<RoundRobinStrategy>();
  CrashDecorator strat(std::move(base), /*max_crashes=*/31,
                       CrashDecorator::Mode::kRandom, /*interval=*/1);
  RunConfig cfg{.num_processes = 32, .seed = 23, .strategy = &strat};
  const RunResult r = simulate(contended_algo(), cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.crashed, 31u);
  EXPECT_EQ(r.finished, 1u);
}

// ------------------------------------------------------------- runner ----

TEST(RunnerTest, RejectsMissingStrategy) {
  RunConfig cfg{.num_processes = 2, .seed = 1, .strategy = nullptr};
  EXPECT_THROW(simulate(own_slot_algo(), cfg), std::invalid_argument);
}

TEST(RunnerTest, StepGuardFires) {
  // A process that loops forever on a lost TAS.
  AlgoFactory spin = [](Env& env, ProcessId) -> Task<Name> {
    env.ensure_locations(1);
    for (;;) {
      if (co_await tas(env, 0)) co_return 0;
    }
  };
  RoundRobinStrategy strat;
  RunConfig cfg{.num_processes = 2,
                .seed = 1,
                .strategy = &strat,
                .max_total_steps = 1000};
  EXPECT_THROW(simulate(spin, cfg), std::runtime_error);
}

TEST(RunnerTest, ProcessWithNoSharedStepsFinishesAtStart) {
  AlgoFactory local_only = [](Env&, ProcessId pid) -> Task<Name> {
    co_return static_cast<Name>(pid);
  };
  RoundRobinStrategy strat;
  RunConfig cfg{.num_processes = 4, .seed = 1, .strategy = &strat};
  const RunResult r = simulate(local_only, cfg);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.total_steps, 0u);
}

TEST(RunnerTest, DuplicateNamesDetected) {
  AlgoFactory dup = [](Env&, ProcessId) -> Task<Name> { co_return 7; };
  RoundRobinStrategy strat;
  RunConfig cfg{.num_processes = 3, .seed = 1, .strategy = &strat};
  const RunResult r = simulate(dup, cfg);
  EXPECT_FALSE(r.names_unique);
  EXPECT_FALSE(r.renaming_correct());
}

// Uniqueness is judged over the held names alone, whatever their values:
// the check sorts them, so neither 0 nor 2^40 needs a table that large.
constexpr Name kHugeName = Name{1} << 40;

/// Process `pid` takes one shared step, then returns names[pid].
AlgoFactory fixed_names(std::vector<Name> names) {
  return [names = std::move(names)](Env& env, ProcessId pid) -> Task<Name> {
    env.ensure_locations(pid + 1);
    co_await tas(env, pid);
    co_return names[pid];
  };
}

TEST(RunnerTest, ExtremeNamesAreUnique) {
  RoundRobinStrategy strat;
  RunConfig cfg{.num_processes = 3, .seed = 1, .strategy = &strat};
  const RunResult r = simulate(fixed_names({kHugeName, 0, 1}), cfg);
  EXPECT_TRUE(r.names_unique);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.max_name, kHugeName);
}

TEST(RunnerTest, DuplicateAtEitherExtremeDetected) {
  for (const std::vector<Name>& names :
       {std::vector<Name>{0, kHugeName, 0},
        std::vector<Name>{kHugeName, 0, kHugeName}}) {
    RoundRobinStrategy strat;
    RunConfig cfg{.num_processes = 3, .seed = 1, .strategy = &strat};
    const RunResult r = simulate(fixed_names(names), cfg);
    EXPECT_FALSE(r.names_unique);
    EXPECT_FALSE(r.renaming_correct());
    EXPECT_EQ(r.max_name, kHugeName);
  }
}

TEST(RunnerTest, CrashedAndNamelessProcessesHoldNoName) {
  // Two processes crash before their step, and at least two of the four
  // that return -1 finish without a name: none of them holds a name, so
  // their -1s are no duplicates.
  auto base = std::make_unique<RoundRobinStrategy>();
  CrashDecorator strat(std::move(base), /*max_crashes=*/2,
                       CrashDecorator::Mode::kRandom, /*interval=*/1);
  RunConfig cfg{.num_processes = 6, .seed = 29, .strategy = &strat};
  const RunResult r =
      simulate(fixed_names({kHugeName, -1, -1, 0, -1, -1}), cfg);
  EXPECT_EQ(r.crashed, 2u);
  EXPECT_EQ(r.finished, 4u);
  EXPECT_TRUE(r.names_unique);
  EXPECT_TRUE(r.renaming_correct());
  int nameless = 0;
  for (const ProcessOutcome& p : r.processes) {
    if (p.crashed) {
      EXPECT_EQ(p.name, -1);
    } else if (p.name == -1) {
      ++nameless;
    }
  }
  EXPECT_GE(nameless, 2);
}

}  // namespace
}  // namespace loren::sim
