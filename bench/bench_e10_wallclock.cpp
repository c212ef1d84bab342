// E10 — practicality on real hardware (google-benchmark).
//
// Wall-clock benchmarks over std::atomic cells:
//   * BM_GetName / BM_GetNameDirect — acquisition latency, coroutine vs
//     hand-inlined fast path (the coroutine overhead ablation). Both draw
//     from the thread's cached coin stream and allocate nothing in the
//     steady state (the one frame per call comes from sim::Task's
//     per-thread recycler, and probes await the TAS with no frame of
//     their own), and the coroutine is compiled against ArenaEnv, so its
//     probes and coins are direct calls too. The gap is what is left of
//     the coroutine machinery: building and resuming that frame, and
//     walking the BatchLayout rather than the flattened schedule;
//   * BM_UniformProbe / BM_LinearScan — baselines at the same namespace;
//   * BM_Epsilon — how the namespace slack eps changes the cost (ablation
//     of the t0 = ceil(17 ln(8e/eps)/eps) constant);
//   * BM_Threaded — contended acquisition throughput with real threads.
//
// Acquisitions are measured in "fresh namespace" batches: each iteration
// claims one name; when the renamer is ~60% full the namespace is reset —
// an O(1) epoch bump on the TasArena substrate, so the refresh no longer
// perturbs the measurement the way the seed's reallocation did — and the
// numbers reflect the loaded-but-not-exhausted regime.
//
// The multithreaded service workloads live in perfbench/ (see
// docs/benchmarks.md).
#include <benchmark/benchmark.h>

#include <memory>

#include "platform/rng.h"
#include "renaming/concurrent.h"

namespace {

constexpr std::uint64_t kN = 1u << 14;

class RenamerPool {
 public:
  explicit RenamerPool(double epsilon)
      : renamer_(std::make_unique<loren::ConcurrentRenamer>(kN, epsilon)) {}

  loren::ConcurrentRenamer& get() {
    if (++used_ > kN * 6 / 10) {
      renamer_->reset();  // O(1) epoch bump (seed: O(m) reallocation)
      used_ = 0;
    }
    return *renamer_;
  }

 private:
  std::unique_ptr<loren::ConcurrentRenamer> renamer_;
  std::uint64_t used_ = 0;
};

void BM_GetName(benchmark::State& state) {
  RenamerPool pool(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.get().get_name());
  }
}
BENCHMARK(BM_GetName);

void BM_GetNameDirect(benchmark::State& state) {
  RenamerPool pool(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.get().get_name_direct());
  }
}
BENCHMARK(BM_GetNameDirect);

void BM_UniformProbe(benchmark::State& state) {
  // Baseline: uniform probing over the same-size namespace, hand-inlined.
  // Packed arena so cell density and the O(1) epoch refresh match what
  // the renamer benches above pay — the comparison isolates the probe
  // policy, not the reset strategy.
  const std::uint64_t m = loren::BatchLayout(kN, 0.5).total();
  loren::TasArena cells(m, loren::ArenaLayout::kPacked);
  loren::Xoshiro256 rng(1);
  std::uint64_t used = 0;
  for (auto _ : state) {
    if (++used > m * 6 / 10) {
      cells.reset();
      used = 0;
    }
    std::int64_t name = -1;
    for (;;) {
      const std::uint64_t x = rng.below(m);
      if (cells.test_and_set(x)) {
        name = static_cast<std::int64_t>(x);
        break;
      }
    }
    benchmark::DoNotOptimize(name);
  }
}
BENCHMARK(BM_UniformProbe);

void BM_Epsilon(benchmark::State& state) {
  // eps in {1/8, 1/4, 1/2, 1, 2} scaled by 1000 in the range arg.
  const double eps = static_cast<double>(state.range(0)) / 1000.0;
  RenamerPool pool(eps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.get().get_name_direct());
  }
  state.SetLabel("eps=" + std::to_string(eps) + " t0=" +
                 std::to_string(loren::BatchLayout(kN, eps).probes(0)));
}
BENCHMARK(BM_Epsilon)->Arg(125)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000);

// Contended acquire/release cycles with real threads (long-lived renaming
// steady state: at most `threads` names live at once, so the namespace
// never fills and no reset is needed mid-benchmark).
//
// The renamer is recreated by the Setup hook, which google-benchmark runs
// once per benchmark run before any thread starts (and Teardown after all
// threads join). The seed used a function-local `static`, so every run
// after the first measured a namespace still partially filled by earlier
// runs' leftover names (a thread that observed name -1 never released).
std::unique_ptr<loren::ConcurrentRenamer> g_threaded_renamer;

void ThreadedSetup(const benchmark::State&) {
  g_threaded_renamer = std::make_unique<loren::ConcurrentRenamer>(kN, 0.5);
}
void ThreadedTeardown(const benchmark::State&) { g_threaded_renamer.reset(); }

void BM_Threaded(benchmark::State& state) {
  loren::ConcurrentRenamer& renamer = *g_threaded_renamer;
  for (auto _ : state) {
    const auto name = renamer.get_name_direct();
    benchmark::DoNotOptimize(name);
    if (name >= 0) renamer.release(name);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Threaded)
    ->Setup(ThreadedSetup)
    ->Teardown(ThreadedTeardown)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
