// The self-relative performance bounds, as one serial ctest.
//
// Each case compares the stack against itself on this host, so its bound
// holds on any machine: a lease reaper that recovers every name a dead
// holder abandoned, an adaptive controller that matches the best fixed
// batch size on a rate-swinging trace, a shed gate that keeps the 10x-burst
// tail under 3x the ungoverned one, and detailed telemetry that costs at
// most 5% on the uncached hot path. The wall-clock cases run many
// interleaved rounds of short cells, rotate the variant order every round
// so drift in the host's speed hits every variant alike, and gate on the
// median over rounds; each prints its per-variant median and IQR.
//
// Registered RUN_SERIAL (CMakeLists.txt): a parallel ctest neighbour would
// steal the cores the variants are compared on. Under ASan, TSan,
// LOREN_SIM and LOREN_TELEMETRY the wall-clock cases skip with a printed
// reason, since the instrumentation changes what they compare; the lease
// case runs everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "control/adaptive_controller.h"
#include "platform/cacheline.h"
#include "platform/poisson.h"
#include "platform/rng.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOREN_BOUNDS_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOREN_BOUNDS_SANITIZED 1
#endif

namespace loren {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kEps = 0.5;
/// The control cells keep the legacy 60 ms: the swing trace's dynamics
/// depend on how many phases a cell spans.
constexpr int kCellMs = 60;
/// Rounds for the burst tail, whose two sides sit an order of magnitude
/// apart. The adaptive comparison sits 10-30% over its bound with +-25%
/// round-to-round spread: on a shared 4-vCPU x86 VM its median crossed
/// the bound in 4 of 8 runs over 9 rounds, 2 of 10 over 15, and none of
/// 20 over 61.
constexpr int kRounds = 9;
constexpr int kAdaptiveRounds = 61;
/// The telemetry ratio is per-op cost, which a 10 ms cell measures as
/// well as a 60 ms one, and it sits 1-3% under its bound: many short
/// pairs keep its median's spread inside that margin (on the VM above,
/// 61 pairs of 60 ms cells read 1.00-1.05 and crossed the bound once in
/// four runs; 301 pairs of 10 ms cells read 1.024-1.039 over twenty).
constexpr int kTelemetryCellMs = 10;
constexpr int kTelemetryPairs = 301;
constexpr unsigned kMaxBatch = 32;

/// Why the wall-clock cases cannot run in this build, or nullptr.
const char* wall_clock_skip_reason() {
#if defined(LOREN_SIM)
  return "LOREN_SIM build: every sim point is a scheduler hook, so "
         "wall-clock ratios measure the instrumentation";
#elif defined(LOREN_BOUNDS_SANITIZED)
  return "sanitizer build: instrumented atomics distort wall-clock ratios";
#elif defined(LOREN_TELEMETRY)
  return "LOREN_TELEMETRY build: every op also writes a trace event, so "
         "wall-clock ratios measure the trace rings";
#else
  return nullptr;
#endif
}

#define SKIP_UNLESS_WALL_CLOCK()                             \
  do {                                                       \
    if (const char* why = wall_clock_skip_reason()) {        \
      GTEST_SKIP() << why;                                   \
    }                                                        \
  } while (0)

struct alignas(kCacheLine) WorkerCount {
  std::uint64_t ops = 0;
  double seconds = 0;  // this worker's measured region, start to stop
};

/// Runs `body(thread_index, stop, count)` on `threads` workers for one
/// cell and returns items per second. The workers start together, once
/// every one of them is running, so the first one spawned never runs the
/// trace alone; each times exactly its own region, so spawn/join and the
/// main thread's sleep jitter stay out of the denominator.
template <class Body>
double run_cell(unsigned threads, int cell_ms, Body&& body) {
  std::atomic<bool> stop{false};
  std::atomic<unsigned> ready{0};
  std::vector<WorkerCount> counts(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < threads) {
        std::this_thread::yield();
      }
      const auto w0 = Clock::now();
      body(t, stop, counts[t]);
      counts[t].seconds =
          std::chrono::duration<double>(Clock::now() - w0).count();
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(cell_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  std::uint64_t ops = 0;
  double seconds = 0;
  for (const WorkerCount& c : counts) {
    ops += c.ops;
    seconds += c.seconds;
  }
  seconds /= threads;
  return seconds > 0 ? static_cast<double>(ops) / seconds : 0;
}

/// min(4, nproc): the churn cases' worker count.
unsigned churn_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Tight acquire/release; workers only release names they hold.
template <class R>
void churn_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t name = r.acquire();
    if (name < 0) continue;
    r.release(name);
    ++c.ops;
  }
}

struct Spread {
  double p25 = 0, median = 0, p75 = 0;
};

/// Quartiles by linear interpolation between order statistics.
Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

Spread report(const std::string& what, const std::vector<double>& samples) {
  const Spread s = spread_of(samples);
  std::printf("[ MEDIAN   ] %-22s %12.4g  IQR [%.4g, %.4g] over %zu\n",
              what.c_str(), s.median, s.p25, s.p75, samples.size());
  std::fflush(stdout);
  return s;
}

// ------------------------------------------------- closed-loop control --
// Both control cases share one workload: Poisson arrival ticks whose rate
// and live-window bound swing together between a calm and a hot phase
// every kSwingPhaseTicks ticks. Calm phases run at ~1/8 occupancy; hot
// phases bound the window past capacity, so the namespace pins at full
// and every further arrival is futile. A fixed-k service sweeps the full
// arena on each futile call; the adaptive one spends its retry budget,
// sheds (one relaxed load per rejected call) and stays shed until the
// next calm phase's first drain re-admits it.

constexpr std::uint64_t kSwingPhaseTicks = 4096;
constexpr unsigned kCtlThreads = 4;

/// The n = 4096 control service, uncached so every call takes the
/// governed shared path: kOff for the fixed-k baselines, kAdapt with
/// retry budget 4 and ~0.7 ms windows for the adaptive side.
std::unique_ptr<RenamingService> make_control_service(
    control::ControlMode mode) {
  RenamingServiceOptions opts;
  opts.epsilon = kEps;
  opts.name_cache = false;
  opts.control.mode = mode;
  opts.control.retry_budget = 4;
  opts.control.batch_max = kMaxBatch;
  // ~0.7 ms windows at contemporary TSC rates: several adaptation
  // rollovers per calm phase.
  opts.control.window = std::uint64_t{1} << 21;
  return std::make_unique<RenamingService>(std::uint64_t{1} << 12, opts);
}

constexpr std::size_t kMaxLatSamples = std::size_t{1} << 20;

/// One worker's per-call latencies in the hot phase. Bounded: past the
/// cap new samples overwrite ring-style.
struct LatencySamples {
  std::vector<std::uint64_t> hot;
  std::size_t wrap = 0;

  void note(std::uint64_t ns) {
    if (hot.size() < kMaxLatSamples) {
      hot.push_back(ns);
    } else {
      hot[wrap++ % kMaxLatSamples] = ns;
    }
  }
};

/// Exact p99 by nth_element (not bucketed: the burst ratio compares two
/// tails, and bucket edges would quantize the number under test).
double p99_ns(std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0;
  const std::size_t idx = std::min((v.size() * 99) / 100, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return static_cast<double>(v[idx]);
}

/// The swinging-demand worker. `limit()` is the per-call batch cap: the
/// constant k for a fixed variant, the controller's live batch_limit()
/// for the adaptive one, so a short return means saturation or shed,
/// never the clamp. `lat` non-null times every call and keeps the
/// hot-phase latencies.
template <class LimitFn>
void swing_demand_loop(RenamingService& r, const std::atomic<bool>& stop,
                       WorkerCount& c, std::uint64_t tseed, double calm_lambda,
                       double hot_lambda, std::size_t calm_live,
                       std::size_t hot_live, LimitFn limit,
                       LatencySamples* lat = nullptr) {
  Xoshiro256 rng(mix_seed(0xADA57, tseed));
  std::vector<std::int64_t> window;
  window.reserve(hot_live + kMaxBatch);
  std::int64_t names[kMaxBatch];
  std::uint64_t tick = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const bool hot = ((tick++ / kSwingPhaseTicks) & 1) != 0;
    std::uint64_t d = poisson_sample(hot ? hot_lambda : calm_lambda, rng);
    while (d > 0) {
      const std::uint64_t k =
          std::min(d, std::clamp<std::uint64_t>(limit(), 1, kMaxBatch));
      const auto t0 = lat != nullptr ? Clock::now() : Clock::time_point{};
      const std::uint64_t got = r.acquire_many(k, names);
      if (lat != nullptr && hot) {
        lat->note(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 t0)
                .count()));
      }
      window.insert(window.end(), names, names + got);
      c.ops += got;
      if (got < k) break;  // saturated (or shed): drop this tick's rest
      d -= k;
    }
    const std::size_t max_live = hot ? hot_live : calm_live;
    if (window.size() > max_live) {
      const std::size_t m = window.size() - max_live;
      r.release_many(window.data(), m);
      window.erase(window.begin(), window.begin() + m);
    }
  }
  if (!window.empty()) r.release_many(window.data(), window.size());
}

struct SwingWindows {
  std::size_t calm_live;
  std::size_t hot_live;
};

/// Calm: aggregate ~1/8 occupancy. Hot: each worker's bound alone
/// exceeds capacity, so the namespace pins at full.
SwingWindows swing_windows() {
  const std::uint64_t cap =
      make_control_service(control::ControlMode::kOff)->capacity();
  return {std::max<std::size_t>(cap / (8 * kCtlThreads), 8), cap};
}

// Rate swing Pois(8)/Pois(24): the adaptive service against the best of
// the fixed batch caps k in {1, 4, 16, 32}, all on the same trace. The
// controller must at least match whatever k a static tuning could have
// picked in hindsight; it wins by shedding the hot phases the fixed
// variants sweep straight through. The bound is about the first 60 ms of
// a fresh service: over 300 ms cells the fixed caps win (docs/benchmarks.md).
TEST(ControlBounds, AdaptiveMatchesBestFixedBatchSize) {
  SKIP_UNLESS_WALL_CLOCK();
  const SwingWindows w = swing_windows();
  const std::vector<std::string> names = {"fixed-k1", "fixed-k4", "fixed-k16",
                                          "fixed-k32", "adaptive"};
  const std::uint64_t fixed_k[] = {1, 4, 16, 32};
  std::vector<std::vector<double>> items(names.size());
  for (int round = 0; round < kAdaptiveRounds; ++round) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::size_t v =
          (i + static_cast<std::size_t>(round)) % names.size();
      const bool adapt = v == names.size() - 1;
      auto r = make_control_service(adapt ? control::ControlMode::kAdapt
                                          : control::ControlMode::kOff);
      control::AdaptiveController* ctl = r->controller();
      const std::uint64_t k = adapt ? 0 : fixed_k[v];
      items[v].push_back(run_cell(
          kCtlThreads, kCellMs,
          [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
            swing_demand_loop(*r, stop, c, t, 8.0, 24.0, w.calm_live,
                              w.hot_live, [ctl, k] {
                                return ctl != nullptr ? ctl->batch_limit() : k;
                              });
          }));
    }
  }
  double best_fixed = 0;
  std::string best_name;
  for (std::size_t v = 0; v + 1 < names.size(); ++v) {
    const double m = report(names[v] + " items/s", items[v]).median;
    if (m > best_fixed) {
      best_fixed = m;
      best_name = names[v];
    }
  }
  const double adaptive =
      report(names.back() + " items/s", items.back()).median;
  ASSERT_GT(best_fixed, 0);
  const double ratio = adaptive / best_fixed;
  std::printf("[ BOUND    ] adaptive / best fixed (%s) = %.3f (>= 1.0)\n",
              best_name.c_str(), ratio);
  EXPECT_GE(ratio, 1.0) << "adaptive lost to " << best_name;
}

// The 10x-burst probe: calm Pois(2) arrivals alternate with Pois(20)
// bursts past capacity, every acquire_many call timed, on the ungoverned
// service (control off, k = 32) and in kAdapt mode. Both sides time the
// same burst-phase trace: the ungoverned tail is pinned at sweep cost
// while a shed call costs a load, so the ratio of burst-phase p99s is a
// structural gap, not a machine speed. (The calm-phase p99 is no stable
// denominator: calm calls are ~100 ns when clean, so their tail is
// whatever scheduler preemption the reservoir happened to catch.)
TEST(ControlBounds, BurstTailStaysWithinThreeTimesUngoverned) {
  SKIP_UNLESS_WALL_CLOCK();
  const SwingWindows w = swing_windows();
  std::vector<double> ungoverned_p99, adaptive_p99, ratios;
  for (int round = 0; round < kRounds; ++round) {
    double p99[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      const bool adapt = ((i + round) & 1) != 0;
      auto r = make_control_service(adapt ? control::ControlMode::kAdapt
                                          : control::ControlMode::kOff);
      control::AdaptiveController* ctl = r->controller();
      std::vector<LatencySamples> lat(kCtlThreads);
      run_cell(kCtlThreads, kCellMs,
               [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
                 swing_demand_loop(*r, stop, c, t, 2.0, 20.0, w.calm_live,
                                   w.hot_live,
                                   [ctl] {
                                     return ctl != nullptr
                                                ? ctl->batch_limit()
                                                : std::uint64_t{kMaxBatch};
                                   },
                                   &lat[t]);
               });
      std::vector<std::uint64_t> hot;
      for (const LatencySamples& l : lat) {
        hot.insert(hot.end(), l.hot.begin(), l.hot.end());
      }
      p99[adapt ? 1 : 0] = p99_ns(hot);
    }
    ASSERT_GT(p99[0], 0) << "round " << round << ": no ungoverned burst calls";
    ungoverned_p99.push_back(p99[0]);
    adaptive_p99.push_back(p99[1]);
    ratios.push_back(p99[1] / p99[0]);
  }
  report("ungoverned burst p99 ns", ungoverned_p99);
  report("adaptive burst p99 ns", adaptive_p99);
  const double ratio = report("burst p99 ratio", ratios).median;
  std::printf("[ BOUND    ] median burst_p99_ratio = %.3f (<= 3.0)\n", ratio);
  EXPECT_LE(ratio, 3.0) << "10x-burst p99 blew past 3x the ungoverned tail";
}

// ----------------------------------------------------------- telemetry --

// Detailed-mode telemetry on the uncached hot path: the identical service
// without and with an attached MetricsRegistry, run back to back in pairs
// (alternating which side goes first, so drift cancels). The contract is
// off/on <= 1.05: the striped record path plus sampled latency histograms
// cost at most 5% (docs/observability.md).
TEST(TelemetryBounds, DetailedModeCostsAtMostFivePercent) {
  SKIP_UNLESS_WALL_CLOCK();
  const unsigned threads = churn_threads();
  auto make = [](telemetry::MetricsRegistry* reg) {
    RenamingServiceOptions opts;
    opts.epsilon = kEps;
    opts.name_cache = false;
    opts.telemetry.registry = reg;
    return std::make_unique<RenamingService>(std::uint64_t{1} << 14, opts);
  };
  auto measure = [&](bool on) {
    telemetry::MetricsRegistry reg;
    auto r = make(on ? &reg : nullptr);
    const double v = run_cell(
        threads, kTelemetryCellMs,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          churn_loop(*r, stop, c);
        });
    r.reset();  // the service detaches before the registry leaves scope
    return v;
  };
  std::vector<double> off, on, ratios;
  for (int pair = 0; pair < kTelemetryPairs; ++pair) {
    const bool on_first = (pair & 1) != 0;
    const double first = measure(on_first);
    const double second = measure(!on_first);
    off.push_back(on_first ? second : first);
    on.push_back(on_first ? first : second);
    ASSERT_GT(on.back(), 0);
    ratios.push_back(off.back() / on.back());
  }
  std::printf("[ THREADS  ] %u\n", threads);
  report("telemetry-off items/s", off);
  report("telemetry-on items/s", on);
  const double ratio = report("off/on ratio", ratios).median;
  std::printf("[ BOUND    ] median telemetry overhead = %.3f (<= 1.05)\n",
              ratio);
  EXPECT_LE(ratio, 1.05) << "detailed telemetry costs more than 5%";
}

// -------------------------------------------------------------- leases --

// Crash churn: churners run flat out on a leased n = 4096 service while a
// crasher keeps spawning holder threads that die holding 8 names each
// (cache off, nothing flushes: the crashed-holder model). Their heartbeats
// go stale after ttl + grace ticks and the churners' sampled reap polls
// recycle the cells; after a final drain, every abandoned name must have
// come back as an expired lease (docs/leases.md). A ratio of one run
// against itself, not a speed, so it runs in every build.
TEST(LeaseBounds, ReaperRecoversEveryAbandonedName) {
  RenamingServiceOptions opts;
  opts.epsilon = kEps;
  opts.name_cache = false;
  opts.lease.ttl_ticks = std::uint64_t{1} << 23;  // a few ms of TSC
  opts.lease.grace = std::uint64_t{1} << 21;
  auto svc = std::make_unique<RenamingService>(std::uint64_t{1} << 12, opts);
  std::atomic<bool> crash_stop{false};
  std::atomic<std::uint64_t> abandoned{0};
  std::thread crasher([&] {
    while (!crash_stop.load(std::memory_order_relaxed)) {
      std::thread holder([&] {
        std::int64_t held[8];
        abandoned.fetch_add(svc->acquire_many(8, held),
                            std::memory_order_relaxed);
        // ... and dies holding them.
      });
      holder.join();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const unsigned threads = churn_threads();
  run_cell(threads, kCellMs,
           [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
             churn_loop(*svc, stop, c);
           });
  crash_stop.store(true, std::memory_order_relaxed);
  crasher.join();
  // Names abandoned just before the stop still need ttl + grace to go
  // stale, so poll rather than reap once.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (svc->leases_live() > 0 && Clock::now() < deadline) {
    svc->reap_expired();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t lost = abandoned.load();
  ASSERT_GT(lost, 0u) << "the crasher abandoned nothing";
  const double recovery =
      static_cast<double>(svc->lease_expired()) / static_cast<double>(lost);
  std::printf("[ BOUND    ] lease_reap_recovery = %.3f over %llu abandoned "
              "(>= 0.99)\n",
              recovery, static_cast<unsigned long long>(lost));
  EXPECT_GE(recovery, 0.99) << "lease reaper failed to recover abandoned names";
}

}  // namespace
}  // namespace loren
