// The simulator's memory per simulated process.
//
// Every E-series experiment and the paper-model benchmark hold n live
// processes at once, so the bytes each one costs (its coroutine frames,
// its parked op, its coin stream, its slot in the runner's tables) set how
// large an n fits. This binary replaces the global operator new/delete
// with a counting pair and checks two things:
//  - ReBatching's walk frame fits three FrameCache classes (192 bytes).
//    That is what the walk's single probe site buys; a second co_await
//    site grew it to 320. Frames are allocated in whole 64-byte classes,
//    so this is checked by class, not by byte.
//  - simulate() of ReBatching at n = 2^14 under RandomStrategy grows the
//    live heap by at most the two frames each process holds (measured on
//    the running toolchain) plus a budget for the rest: the parked op,
//    the coin stream and the runner's and env's per-process slots. That
//    budget is the figure measured with GCC 12.2 (-O2, the default
//    RelWithDebInfo build) plus 10%; a toolchain that lays a frame out a
//    class larger moves only the measured frame term. (An ASan+UBSan
//    build of GCC 12.2 reads the same figures.)
// Every figure is printed, so a toolchain that differs reports by how much.
//
// It is its own binary because the replaced allocator is process-wide.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "platform/rng.h"
#include "renaming/rebatching.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "sim/sim_env.h"
#include "tas/direct_env.h"
#include "tas/tas_arena.h"

namespace {

// Single-threaded accounting: simulate() runs on the calling thread.
std::size_t g_live = 0;
std::size_t g_peak = 0;
std::size_t g_largest = 0;

/// Every block carries its size in a header of max_align_t's alignment,
/// so unsized deletes can be counted too.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t bytes) noexcept {
  void* raw = std::malloc(bytes + kHeader);
  if (raw == nullptr) return nullptr;
  *static_cast<std::size_t*>(raw) = bytes;
  g_live += bytes;
  if (g_live > g_peak) g_peak = g_live;
  if (bytes > g_largest) g_largest = bytes;
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live -= *static_cast<std::size_t*>(raw);
  std::free(raw);
}

void* counted_new(std::size_t bytes) {
  if (void* p = counted_alloc(bytes)) return p;
  throw std::bad_alloc();
}

/// Restarts the peak and largest-block marks at the current live bytes.
std::size_t mark() {
  g_peak = g_live;
  g_largest = 0;
  return g_live;
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new[](std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t&) noexcept {
  return counted_alloc(bytes);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace loren {
namespace {

using sim::Env;
using sim::Name;
using sim::ProcessId;
using sim::Task;

constexpr ProcessId kN = ProcessId{1} << 14;
/// Three FrameCache classes: the walk frame's size with one probe site.
constexpr std::size_t kWalkFrameBudget = 3 * sim::detail::FrameCache::kGranule;
/// Peak heap growth per simulated process beyond its two frames: 144.8
/// bytes measured (GCC 12.2, -O2; 464.8 in all, of which the walk frame is
/// 192 and the factory's wrapper 128), plus 10%.
constexpr double kBudgetOtherBytesPerProcess = 159.3;

/// Heap bytes that `make()` allocates for a task it builds but does not
/// start: the task's frame, rounded to its FrameCache class. Runs on a
/// fresh thread, whose FrameCache is empty, so the frame comes from
/// operator new rather than from a recycled block. The calling thread
/// waits in join(), so the counters are never touched concurrently.
template <class Make>
std::size_t frame_bytes(Make make) {
  std::size_t bytes = 0;
  std::thread([&] {
    const std::size_t before = mark();
    auto task = make();
    bytes = g_peak - before;
  }).join();
  return bytes;
}

/// ReBatching's walk frame over sim::Env (the simulator) and ArenaEnv
/// (ConcurrentRenamer's hardware path).
std::size_t walk_frame_bytes(ReBatching& algo, bool arena) {
  if (arena) {
    TasArena cells(algo.end());
    Xoshiro256 rng(1);
    ArenaEnv env(cells, rng, 0);
    return frame_bytes([&] { return algo.get_name(env); });
  }
  sim::SimEnv env(1, 1);
  env.ensure_locations(algo.end());  // so get_name allocates no cells
  return frame_bytes([&] { return algo.get_name(static_cast<Env&>(env)); });
}

// The same factory shape as the benchmarks': a wrapper coroutine that
// awaits get_name, so each process holds two frames.
sim::AlgoFactory wrapper_factory(ReBatching& algo) {
  return [&algo](Env& env, ProcessId) -> Task<Name> {
    co_return co_await algo.get_name(env);
  };
}

TEST(SimFootprint, WalkFrameFitsThreeFrameCacheClasses) {
  ReBatching algo(kN, 0.5);
  for (const bool arena : {false, true}) {
    const std::size_t bytes = walk_frame_bytes(algo, arena);
    std::printf("[ FOOTPRINT] ReBatching walk frame over %s: %zu bytes "
                "(budget %zu)\n",
                arena ? "ArenaEnv" : "sim::Env", bytes, kWalkFrameBudget);
    EXPECT_GT(bytes, 0u);
    EXPECT_LE(bytes, kWalkFrameBudget);
  }
}

TEST(SimFootprint, ReBatchingBytesPerProcess) {
  ReBatching algo(kN, 0.5);
  const sim::AlgoFactory factory = wrapper_factory(algo);
  const std::size_t walk = walk_frame_bytes(algo, false);
  sim::SimEnv env(1, 1);
  const std::size_t wrapper = frame_bytes([&] { return factory(env, 0); });
  sim::RandomStrategy random;
  const sim::RunConfig cfg{.num_processes = kN, .seed = 3, .strategy = &random};
  const std::size_t before = mark();
  const sim::RunResult r = sim::simulate(factory, cfg);
  const double per_process =
      static_cast<double>(g_peak - before) / static_cast<double>(kN);
  const double other = per_process - static_cast<double>(walk + wrapper);
  std::printf("[ FOOTPRINT] simulate(ReBatching, n=%u, random): peak growth "
              "%zu bytes, %.1f bytes per process = frames %zu + %zu, "
              "other %.1f (budget %.1f)\n",
              kN, g_peak - before, per_process, walk, wrapper, other,
              kBudgetOtherBytesPerProcess);
  EXPECT_TRUE(r.renaming_correct());
  EXPECT_EQ(r.finished, kN);
  EXPECT_LE(other, kBudgetOtherBytesPerProcess);
}

TEST(SimFootprint, NameValuesSizeNoAllocation) {
  // Two processes holding 0 and 2^40: the uniqueness check must not size
  // anything by the name value.
  constexpr Name kHuge = Name{1} << 40;
  sim::RoundRobinStrategy strat;
  const sim::RunConfig cfg{.num_processes = 2, .seed = 1, .strategy = &strat};
  const sim::AlgoFactory factory = [](Env& env, ProcessId pid) -> Task<Name> {
    env.ensure_locations(pid + 1);
    co_await sim::tas(env, pid);
    co_return pid == 0 ? 0 : kHuge;
  };
  mark();
  const sim::RunResult r = sim::simulate(factory, cfg);
  EXPECT_TRUE(r.names_unique);
  EXPECT_EQ(r.max_name, kHuge);
  EXPECT_LT(g_largest, std::size_t{1} << 16);
}

}  // namespace
}  // namespace loren
