// Multithreaded acquire/release throughput matrix -> BENCH_throughput.json.
//
// This is the machine-readable perf trajectory for the hardware hot path:
// real std::thread workers hammering acquire/release on
//   * seed-direct      — a faithful replica of the seed's
//                        ConcurrentRenamer::get_name_direct hot path
//                        (packed cells, seq_cst everywhere, per-call
//                        reseed from a shared ticket, ticket/assigned on
//                        one cache line, reset by reallocation);
//   * arena-padded     — today's ConcurrentRenamer (padded TasArena,
//                        flattened schedule, striped counter);
//   * arena-packed     — same, packed arena (the density tradeoff);
//   * service-sharded  — RenamingService, >= 4 shards, padded;
//   * service-single   — RenamingService, 1 shard (isolates sharding from
//                        the other service-layer wins).
//
// Scenarios: uncontended (1 thread), full-churn (tight acquire/release),
// bursty (acquire 32, release 32), skewed-release (64-name working set,
// skewed victim choice), each at 1..max(4, hw_concurrency) threads, plus
// a single-threaded fill+reset pool scenario where the namespace is reset
// every time it hits 60% fill — an O(1) epoch bump vs the seed's O(m)
// reallocation — and a reset() microbenchmark.
//
// Batch workload engine (service-sharded and elastic only — the variants
// with acquire_many/release_many): batch-churn churns whole batches at
// fixed k (batched vs k singles — the derived batch_speedup_* ratio) and
// under a zipf batch-size mix; poisson-arrivals drives Pois(lambda)-sized
// arrival ticks against a bounded live window (platform/poisson.h);
// thread-churn retires workers mid-run so every acquisition runs on a
// fresh thread's cold service caches.
//
// Cached-churn scenario family (the thread-local name cache): hot-reuse
// (an 8-name working set churned release-then-reacquire — the stash's
// best case), zero-reuse (acquire 128, release_many 128 — the stash's
// adversarial case, where adaptation shrinks it to the floor), and
// zipf-handoff (zipf-sized batches exchanged across threads through
// shared slots — a mixed hit/spill pattern). Run for the sharded service
// with the cache on and off (derived cached_speedup_at_4_threads) and for
// the elastic service; the cached runs also report their aggregate
// cache_hit_rate.
//
// adaptive-vs-fixed-k: a rate-swinging Poisson trace (calm/hot phases
// where the hot phases pin the namespace at full) served by the same
// uncached sharded service at fixed batch sizes k in {1,4,16,32} with
// control off, and once in kAdapt mode where the controller clamps the
// batch and sheds at saturation (derived adaptive_speedup_vs_best_fixed_k,
// acceptance >= 1.0). adaptive-burst times every call through alternating
// baseline and 10x-arrival burst phases, once on the ungoverned service
// (control off, k=32) and once in kAdapt mode (derived burst_p99_ratio =
// shed-gated burst-phase p99 / ungoverned burst-phase p99, acceptance
// <= 3.0 — both sides are burst-phase tails of the identical trace, so
// the ratio is pinned by call cost, not by machine speed).
//
// burst-drain: a thread ramp 1 -> N -> 1 (one phase per step, each phase
// its own JSON row as burst-drain-up / burst-drain-down) where active
// workers hold a 64-name window. Run against the fixed sharded service
// (provisioned for peak forever) and the ElasticRenamingService starting
// at 64 holders with auto-grow + auto-shrink: the ramp up forces grow
// events, the drain forces shrink + reclamation, and the JSON records the
// resize trajectory (elastic_* derived keys).
//
// The worker loops are templated on the concrete renamer type so the
// hot path inlines; a type-erased harness (std::function per op) would
// tax every variant by a constant and compress the ratios.
//
// Usage: bench_throughput [--quick] [--out PATH] [--n N] [--duration-ms D]
// Regenerate the checked-in numbers from the repo root with
//   ./build/bench/bench_throughput --out BENCH_throughput.json
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "elastic/elastic_service.h"
#include "platform/cacheline.h"
#include "platform/poisson.h"
#include "platform/rng.h"
#include "renaming/batch_layout.h"
#include "renaming/concurrent.h"
#include "renaming/service.h"
#include "telemetry/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------------
// The seed baseline, replicated in full: the exact hot-path shape of the
// seed's ConcurrentRenamer::get_name_direct before the TasArena rework,
// kept here so the JSON trajectory always compares against the same fixed
// baseline.
class SeedRenamer {
 public:
  SeedRenamer(std::uint64_t n, double eps) : layout_(n, eps) { reset(); }

  std::int64_t acquire() {
    loren::Xoshiro256 rng(loren::mix_seed(
        0x10053, ticket_.fetch_add(1, std::memory_order_relaxed)));
    for (std::uint64_t i = 0; i < layout_.num_batches(); ++i) {
      const std::uint64_t b = layout_.size(i);
      const int t = layout_.probes(i);
      for (int j = 0; j < t; ++j) {
        const std::uint64_t x = layout_.offset(i) + rng.below(b);
        if (cells_[x].exchange(1, std::memory_order_seq_cst) == 0) {
          assigned_.fetch_add(1, std::memory_order_relaxed);
          return static_cast<std::int64_t>(x);
        }
      }
    }
    for (std::uint64_t u = 0; u < layout_.total(); ++u) {
      if (cells_[u].exchange(1, std::memory_order_seq_cst) == 0) {
        assigned_.fetch_add(1, std::memory_order_relaxed);
        return static_cast<std::int64_t>(u);
      }
    }
    return -1;
  }

  bool release(std::int64_t name) {
    // The seed's check-then-act (read then write) — including its race.
    if (name < 0 || cells_[name].load(std::memory_order_seq_cst) == 0) {
      return false;
    }
    assigned_.fetch_sub(1, std::memory_order_relaxed);
    cells_[name].store(0, std::memory_order_seq_cst);
    return true;
  }

  /// The seed bench pool's refresh: reallocate all m cells.
  void reset() {
    cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(layout_.total());
    for (std::uint64_t i = 0; i < layout_.total(); ++i) {
      cells_[i].store(0, std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

 private:
  loren::BatchLayout layout_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  // Deliberately adjacent (one cache line), as in the seed.
  std::atomic<std::uint32_t> ticket_{0};
  std::atomic<std::uint64_t> assigned_{0};
};

/// ConcurrentRenamer with the acquire/release-bool surface of the others.
struct RenamerAdapter {
  RenamerAdapter(std::uint64_t n, double eps, loren::ArenaLayout layout)
      : r(n, eps, 0x10053, {}, layout) {}
  std::int64_t acquire() { return r.get_name_direct(); }
  bool release(std::int64_t name) {
    r.release(name);  // workers only release names they hold
    return true;
  }
  void reset() { r.reset(); }
  loren::ConcurrentRenamer r;
};

struct Result {
  std::string scenario;
  std::string variant;
  unsigned threads;
  std::uint64_t ops = 0;  // acquire(+release) items completed
  /// Mean of the per-worker measured seconds (each worker times exactly
  /// its own measured region with steady_clock — the driver's
  /// spawn/sleep/join overhead used to leak into the denominator and
  /// drift it by up to 4% under scheduler jitter).
  double seconds = 0;
  /// Spread of the per-worker measured seconds: when max - min is large
  /// relative to the duration, the scheduler starved some workers and
  /// the row's items_per_sec deserves suspicion.
  double worker_seconds_min = 0;
  double worker_seconds_max = 0;
  std::uint64_t failed_acquires = 0;
  double items_per_sec() const { return seconds > 0 ? ops / seconds : 0; }
};

struct alignas(loren::kCacheLine) WorkerCount {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double seconds = 0;  // this worker's measured region, start to stop
};

void print_row(const Result& r);

// ------------------------------------------------------------- scenarios --
// Workers only ever release names they themselves hold, so a uniqueness
// violation would surface as a failed (double) release.

template <class R>
void churn_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t name = r.acquire();
    if (name < 0) {
      ++c.failed;
      continue;
    }
    r.release(name);
    ++c.ops;
  }
}

template <class R>
void bursty_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  constexpr int kBurst = 32;
  std::int64_t held[kBurst];
  while (!stop.load(std::memory_order_relaxed)) {
    int got = 0;
    for (int i = 0; i < kBurst; ++i) {
      const std::int64_t name = r.acquire();
      if (name < 0) {
        ++c.failed;
        break;
      }
      held[got++] = name;
    }
    for (int i = 0; i < got; ++i) r.release(held[i]);
    c.ops += static_cast<std::uint64_t>(got);
  }
}

template <class R>
void skewed_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                 std::uint64_t tseed) {
  constexpr std::uint64_t kWindow = 64;
  loren::Xoshiro256 rng(0xBEEF ^ tseed);
  std::vector<std::int64_t> held;
  held.reserve(kWindow);
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t name = r.acquire();
    if (name < 0) {
      ++c.failed;
      continue;
    }
    held.push_back(name);
    if (held.size() == kWindow) {
      // Skewed victim: min of two draws biases releases toward the oldest
      // held names, so freed cells are cold by the time probes rediscover
      // them (a worst case for cache reuse).
      const std::uint64_t a = rng.below(kWindow);
      const std::uint64_t b = rng.below(kWindow);
      const std::uint64_t victim = a < b ? a : b;
      r.release(held[victim]);
      held[victim] = held.back();
      held.pop_back();
    }
    ++c.ops;
  }
  for (const std::int64_t n : held) r.release(n);
}

/// Single-threaded one-shot pool: acquire into a fresh namespace, reset at
/// 60% fill — the regime of the E10 "fresh namespace" benches. The reset
/// cost is *inside* the measured loop: for the seed variant that is the
/// O(m) reallocation, for the arena variants an O(1)/O(shards) epoch bump.
template <class R>
void fill_reset_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                     std::uint64_t threshold) {
  std::uint64_t used = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (++used > threshold) {
      r.reset();
      used = 0;
    }
    if (r.acquire() < 0) ++c.failed;
    ++c.ops;
  }
}

// ------------------------------------------------- batch workload engine --
// Scenario-driven batched workloads for the variants that expose
// acquire_many/release_many (the sharded service and the elastic service):
//   * batch-churn       — whole-batch acquire/release churn; fixed k rows
//                         (batched vs k singles, the headline ratio) and a
//                         zipf-distributed batch-size mix;
//   * poisson-arrivals  — arrival ticks of Pois(lambda) names against a
//                         bounded live window (platform/poisson.h);
//   * thread-churn      — workers retire mid-run and fresh threads take
//                         over, so every service-side thread cache (dense
//                         thread slot, counter node, epoch slot) is cold.

constexpr unsigned kMaxBatchBench = 32;

/// Zipf(s) over [1, max]: mostly-small batch sizes with a heavy tail —
/// the connection-slot-block / worker-pool / fan-out mix. Sampled by
/// inverse CDF over a precomputed table.
class ZipfBatch {
 public:
  ZipfBatch(unsigned max, double s) {
    double norm = 0;
    for (unsigned v = 1; v <= max; ++v) norm += 1.0 / std::pow(v, s);
    double acc = 0;
    cdf_.reserve(max);
    for (unsigned v = 1; v <= max; ++v) {
      acc += 1.0 / std::pow(v, s);
      cdf_.push_back(acc / norm);
    }
  }

  unsigned sample(loren::Xoshiro256& rng) const {
    const double u = rng.uniform01();
    unsigned v = 1;
    while (v < cdf_.size() && cdf_[v - 1] < u) ++v;
    return v;
  }

 private:
  std::vector<double> cdf_;
};

/// Whole batches through acquire_many/release_many: one schedule walk +
/// one counter add per batch instead of per name.
template <class R>
void batch_churn_many_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                           const ZipfBatch* zipf, unsigned fixed_k,
                           std::uint64_t tseed) {
  loren::Xoshiro256 rng(loren::mix_seed(0x2A7C4, tseed));
  std::int64_t names[kMaxBatchBench];
  while (!stop.load(std::memory_order_relaxed)) {
    const unsigned k = zipf != nullptr ? zipf->sample(rng) : fixed_k;
    const std::uint64_t got = r.acquire_many(k, names);
    if (got < k) c.failed += k - got;
    if (got > 0) r.release_many(names, got);
    c.ops += got;
  }
}

/// The same demand served one name at a time — the baseline the batched
/// rows are compared against (derived batch_speedup_* keys).
template <class R>
void batch_churn_singles_loop(R& r, const std::atomic<bool>& stop,
                              WorkerCount& c, const ZipfBatch* zipf,
                              unsigned fixed_k, std::uint64_t tseed) {
  loren::Xoshiro256 rng(loren::mix_seed(0x2A7C5, tseed));
  std::int64_t names[kMaxBatchBench];
  while (!stop.load(std::memory_order_relaxed)) {
    const unsigned k = zipf != nullptr ? zipf->sample(rng) : fixed_k;
    unsigned got = 0;
    for (unsigned i = 0; i < k; ++i) {
      const std::int64_t name = r.acquire();
      if (name < 0) {
        ++c.failed;
        break;
      }
      names[got++] = name;
    }
    for (unsigned i = 0; i < got; ++i) r.release(names[i]);
    c.ops += got;
  }
}

/// Arrival ticks of Pois(lambda) names, released oldest-first once the
/// live window exceeds its bound — request fan-out against a finite pool.
/// `max_live` bounds the per-worker window and `max_batch` the per-tick
/// arrival; the driver sizes both from the worker's 1/threads share of
/// the namespace, so the aggregate peak demand (window + one in-flight
/// batch per worker) stays under n and a failed acquire would be a real
/// bug, not overcommit.
template <class R>
void poisson_arrivals_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                           std::uint64_t tseed, std::size_t max_live,
                           std::size_t max_batch) {
  constexpr double kLambda = 4.0;
  loren::Xoshiro256 rng(loren::mix_seed(0x90155, tseed));
  std::vector<std::int64_t> window;
  window.reserve(max_live + max_batch);
  std::int64_t names[kMaxBatchBench];
  while (!stop.load(std::memory_order_relaxed)) {
    std::uint64_t k = loren::poisson_sample(kLambda, rng);
    if (k == 0) continue;  // an empty arrival tick
    if (k > max_batch) k = max_batch;
    const std::uint64_t got = r.acquire_many(k, names);
    if (got < k) c.failed += k - got;
    window.insert(window.end(), names, names + got);
    c.ops += got;
    if (window.size() > max_live) {
      const std::size_t m = window.size() - max_live;
      r.release_many(window.data(), m);
      window.erase(window.begin(), window.begin() + m);
    }
  }
  if (!window.empty()) r.release_many(window.data(), window.size());
}

// ------------------------------------------- closed-loop control cells --
// The adaptive-vs-fixed-k family and the 10x-burst probe share one
// workload shape: Poisson arrival ticks whose rate AND live-window bound
// swing together between a calm phase and a hot phase every
// kSwingPhaseTicks ticks. Calm phases run at low occupancy (demand is
// served; batching amortizes). Hot phases bound the window past the
// namespace capacity, so the window pins at full and every further
// arrival is guaranteed futile — and what a variant pays for those
// futile calls is the whole experiment: a fixed-k service sweeps the
// (full) arena on every one, while the adaptive service spends its
// retry budget, sheds (a relaxed load per rejected call), and stays
// shed until the next calm phase's first drain re-admits it.

constexpr std::uint64_t kSwingPhaseTicks = 4096;
constexpr std::size_t kMaxLatSamples = std::size_t{1} << 20;

/// Per-worker per-call latency reservoirs for the burst probe, split by
/// phase. Bounded: past the cap new samples overwrite ring-style, so a
/// long run keeps a uniform-ish recent window instead of growing.
struct LatencySamples {
  std::vector<std::uint64_t> base;
  std::vector<std::uint64_t> burst;
  std::size_t base_wrap = 0;
  std::size_t burst_wrap = 0;

  void note(bool hot, std::uint64_t ns) {
    std::vector<std::uint64_t>& v = hot ? burst : base;
    std::size_t& wrap = hot ? burst_wrap : base_wrap;
    if (v.size() < kMaxLatSamples) {
      v.push_back(ns);
    } else {
      v[wrap++ % kMaxLatSamples] = ns;
    }
  }
};

/// p99 by nth_element (exact over the reservoir, not bucketed — the
/// burst ratio compares tails across phases of the same cell, so bucket
/// edges would quantize exactly the number under test). Reorders `v`.
double p99_ns(std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0;
  const std::size_t idx = std::min((v.size() * 99) / 100, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return static_cast<double>(v[idx]);
}

/// The swinging-demand worker. `limit()` is the per-call batch cap: the
/// constant k for the fixed variants, the controller's live
/// batch_limit() for the adaptive one — the client mirrors the
/// service's own internal clamp, so a short return always means
/// saturation (or shed), never the clamp. `lat` non-null turns on
/// per-call timing (the burst probe); the comparison family runs
/// untimed so no variant pays the clock calls.
template <class R, class LimitFn>
void swing_demand_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                       std::uint64_t tseed, double calm_lambda,
                       double hot_lambda, std::size_t calm_live,
                       std::size_t hot_live, LimitFn limit,
                       LatencySamples* lat = nullptr) {
  loren::Xoshiro256 rng(loren::mix_seed(0xADA57, tseed));
  std::vector<std::int64_t> window;
  window.reserve(hot_live + kMaxBatchBench);
  std::int64_t names[kMaxBatchBench];
  std::uint64_t tick = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const bool hot = ((tick++ / kSwingPhaseTicks) & 1) != 0;
    std::uint64_t d = loren::poisson_sample(hot ? hot_lambda : calm_lambda, rng);
    while (d > 0) {
      const std::uint64_t cap =
          std::clamp<std::uint64_t>(limit(), 1, kMaxBatchBench);
      const std::uint64_t k = std::min(d, cap);
      const auto t0 = lat != nullptr ? Clock::now() : Clock::time_point{};
      const std::uint64_t got = r.acquire_many(k, names);
      if (lat != nullptr) {
        lat->note(hot, static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - t0)
                               .count()));
      }
      window.insert(window.end(), names, names + got);
      c.ops += got;
      if (got < k) {
        c.failed += k - got;
        break;  // saturated (or shed): stop forcing this tick's demand
      }
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

/// Workers retire mid-run: each slot runs a short-lived thread to
/// completion and immediately starts a fresh one. Every fresh thread
/// arrives with cold thread-locals — a brand-new dense_thread_slot, an
/// unregistered counter node and epoch slot — so this measures on/off-
/// boarding (registration, home-shard hashing) under steady churn, the
/// pattern of a pool that rotates its workers. Registered nodes/slots
/// are never deregistered (the services' documented contract), so the
/// registries — and the cold-path scans over them (counter sums, epoch
/// quiescence checks) — grow with every lifetime; that accumulating cost
/// is part of what the row measures, which is exactly what a rotating
/// deployment pays. The run is duration-bounded, so so is the growth.
template <class R>
void thread_churn_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  constexpr int kOpsPerLife = 2000;
  while (!stop.load(std::memory_order_relaxed)) {
    WorkerCount inner;
    std::thread life([&] {
      std::int64_t names[4];
      for (int i = 0;
           i < kOpsPerLife && !stop.load(std::memory_order_relaxed); ++i) {
        const std::uint64_t got = r.acquire_many(4, names);
        if (got < 4) inner.failed += 4 - got;
        if (got > 0) r.release_many(names, got);
        inner.ops += got;
      }
      // The documented rotating-deployment contract: a worker flushes its
      // name stash before exiting, or the dead thread strands its stashed
      // names for the service's lifetime.
      r.flush_thread_cache();
    });
    life.join();
    c.ops += inner.ops;
    c.failed += inner.failed;
  }
}

// --------------------------------------------------- cached churn ----

/// Hot reuse: an 8-name working set, release-then-reacquire — the
/// steady-state churn pattern the thread-local stash turns into pure
/// thread-local work (the released name is the next one served).
template <class R>
void hot_reuse_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  constexpr int kWindow = 8;
  std::int64_t held[kWindow];
  int n = 0;
  std::size_t next = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (n < kWindow) {
      const std::int64_t name = r.acquire();
      if (name < 0) {
        ++c.failed;
        continue;
      }
      held[n++] = name;
    } else {
      r.release(held[next]);
      const std::int64_t name = r.acquire();
      if (name < 0) {
        held[next] = held[--n];
        ++c.failed;
        continue;
      }
      held[next] = name;
      next = (next + 1) % kWindow;
    }
    ++c.ops;
  }
  for (int i = 0; i < n; ++i) r.release(held[i]);
  r.flush_thread_cache();  // export the tail window's hit/miss counts
}

/// Adversarial zero-reuse: fill a 128-name block one acquire at a time
/// (the stash is empty past its capacity, so almost every acquire
/// misses), then release the whole block. The interesting number is the
/// *cached* service staying close to the uncached one while adaptation
/// walks the stash capacity down to the floor.
template <class R>
void zero_reuse_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c) {
  constexpr int kBlock = 128;
  std::int64_t held[kBlock];
  while (!stop.load(std::memory_order_relaxed)) {
    int got = 0;
    for (int i = 0; i < kBlock; ++i) {
      const std::int64_t name = r.acquire();
      if (name < 0) {
        ++c.failed;
        break;
      }
      held[got++] = name;
    }
    if (got > 0) r.release_many(held, got);
    c.ops += static_cast<std::uint64_t>(got);
  }
  r.flush_thread_cache();
}

/// Zipf handoff: zipf-sized batches are published into shared exchange
/// slots and whatever was parked there before — usually another thread's
/// names — is released. Releases feed the stash with foreign names, the
/// next batch pops them back: a mixed hit/spill pattern where names
/// migrate across threads through the shared path.
template <class R>
void zipf_handoff_loop(R& r, const std::atomic<bool>& stop, WorkerCount& c,
                       const ZipfBatch& zipf,
                       std::vector<std::atomic<std::int64_t>>& slots,
                       std::uint64_t tseed) {
  loren::Xoshiro256 rng(loren::mix_seed(0x21BF7, tseed));
  std::int64_t names[kMaxBatchBench];
  std::int64_t outgoing[kMaxBatchBench];
  while (!stop.load(std::memory_order_relaxed)) {
    const unsigned k = zipf.sample(rng);
    const std::uint64_t got = r.acquire_many(k, names);
    if (got < k) c.failed += k - got;
    unsigned nout = 0;
    for (std::uint64_t i = 0; i < got; ++i) {
      const std::int64_t prev =
          slots[rng.below(slots.size())].exchange(names[i],
                                                  std::memory_order_acq_rel);
      if (prev >= 0) outgoing[nout++] = prev;
    }
    if (nout > 0) r.release_many(outgoing, nout);
    c.ops += got;
  }
  r.flush_thread_cache();
}

/// Hit-rate bookkeeping for the cached rows (matched to Result rows by
/// (scenario, variant, threads)).
struct CacheStat {
  std::string scenario;
  std::string variant;
  unsigned threads;
  double hit_rate;
};

/// The cached-churn matrix for one service variant. Each cell reads the
/// service's aggregate cache statistics after its run (the worker loops
/// flush on exit, so the tail windows are included).
template <class MakeFn>
void bench_cached_scenarios(const std::string& vname, MakeFn make,
                            const std::vector<unsigned>& thread_counts,
                            int duration_ms, std::vector<Result>& out,
                            std::vector<CacheStat>& stats) {
  static const ZipfBatch zipf(kMaxBatchBench, 1.2);
  auto note_stats = [&](auto& r, const Result& res) {
    const double h = static_cast<double>(r->cache_hits());
    const double m = static_cast<double>(r->cache_misses());
    stats.push_back({res.scenario, res.variant, res.threads,
                     h + m > 0 ? h / (h + m) : 0.0});
  };
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads(
        "cached-churn-hot-reuse", vname, threads, duration_ms,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          hot_reuse_loop(*r, stop, c);
        }));
    print_row(out.back());
    note_stats(r, out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads(
        "cached-churn-zero-reuse", vname, threads, duration_ms,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          zero_reuse_loop(*r, stop, c);
        }));
    print_row(out.back());
    note_stats(r, out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    std::vector<std::atomic<std::int64_t>> slots(threads * 8);
    for (auto& s : slots) s.store(-1, std::memory_order_relaxed);
    out.push_back(run_threads(
        "cached-churn-zipf-handoff", vname, threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          zipf_handoff_loop(*r, stop, c, zipf, slots, t);
        }));
    // Names parked in the exchange slots at stop are still held; release
    // them so the service tears down clean.
    for (auto& s : slots) {
      const std::int64_t parked = s.load(std::memory_order_relaxed);
      if (parked >= 0) r->release(parked);
    }
    print_row(out.back());
    note_stats(r, out.back());
  }
}

// ------------------------------------------------------- burst/drain ----

/// One phase of the 1 -> N -> 1 thread ramp. Worker t participates in a
/// phase iff t < active; parked workers release their window and idle, so
/// a drain phase really does collapse the live-name demand (which is what
/// lets the elastic service shrink).
template <class R>
void burst_drain_worker(R& r, unsigned t, const std::atomic<unsigned>& active,
                        const std::atomic<bool>& stop,
                        std::atomic<std::uint64_t>& ops,
                        std::atomic<std::uint64_t>& failed) {
  constexpr std::size_t kWindow = 64;
  std::vector<std::int64_t> held;
  held.reserve(kWindow);
  std::size_t next = 0;  // ring index: steady churn, not a sawtooth
  while (!stop.load(std::memory_order_relaxed)) {
    if (t >= active.load(std::memory_order_relaxed)) {
      for (const std::int64_t n : held) r.release(n);
      held.clear();
      // A parked worker flushes its name stash: stranded stashed names
      // would hold retired elastic generations against draining (and keep
      // fixed-service cells out of circulation) for the whole drain phase.
      r.flush_thread_cache();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    if (held.size() < kWindow) {
      const std::int64_t name = r.acquire();
      if (name < 0) {
        failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      held.push_back(name);
    } else {
      // Full window: replace one name, oldest-first, so an active worker
      // keeps a steady ~kWindow live demand and the only drains are the
      // ramp's (parked workers releasing their whole window).
      r.release(held[next]);
      const std::int64_t name = r.acquire();
      if (name < 0) {
        held[next] = held.back();
        held.pop_back();
        failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      held[next] = name;
      next = (next + 1) % kWindow;
    }
    ops.fetch_add(1, std::memory_order_relaxed);
  }
  for (const std::int64_t n : held) r.release(n);
}

/// Runs the ramp [1, 2, ..., N, ..., 2, 1] (powers of two), one phase per
/// step of `phase_ms`; each phase is recorded as its own Result so the
/// JSON shows throughput across the whole burst and drain. The renamer is
/// taken by reference so the caller can inspect it afterwards (the
/// elastic service reports its resize trajectory).
template <class R>
void bench_burst_drain(const std::string& vname, R& renamer,
                       unsigned max_threads, int phase_ms,
                       std::vector<Result>& out) {
  std::vector<unsigned> ramp;
  for (unsigned u = 1; u < max_threads; u <<= 1) ramp.push_back(u);
  ramp.push_back(max_threads);
  const std::size_t peak_index = ramp.size() - 1;
  for (unsigned u = max_threads >> 1; u >= 1; u >>= 1) ramp.push_back(u);

  R* r = &renamer;
  std::atomic<unsigned> active{0};
  std::atomic<bool> stop{false};
  std::vector<std::atomic<std::uint64_t>> ops(max_threads);
  std::vector<std::atomic<std::uint64_t>> failed(max_threads);
  std::vector<std::thread> pool;
  pool.reserve(max_threads);
  for (unsigned t = 0; t < max_threads; ++t) {
    pool.emplace_back([&, t] {
      burst_drain_worker(*r, t, active, stop, ops[t], failed[t]);
    });
  }

  auto total = [&](std::vector<std::atomic<std::uint64_t>>& v) {
    std::uint64_t s = 0;
    for (auto& x : v) s += x.load(std::memory_order_relaxed);
    return s;
  };
  for (std::size_t p = 0; p < ramp.size(); ++p) {
    const std::uint64_t ops0 = total(ops);
    const std::uint64_t failed0 = total(failed);
    active.store(ramp[p], std::memory_order_relaxed);
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));
    const auto t1 = Clock::now();
    Result res{p <= peak_index ? "burst-drain-up" : "burst-drain-down", vname,
               ramp[p]};
    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    // The ramp's workers live across every phase; the phase window is the
    // only meaningful timebase, so the spread degenerates to it.
    res.worker_seconds_min = res.seconds;
    res.worker_seconds_max = res.seconds;
    res.ops = total(ops) - ops0;
    res.failed_acquires = total(failed) - failed0;
    out.push_back(res);
    print_row(out.back());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
}

/// Runs `body(thread_index, stop, count)` on `threads` workers for
/// `duration_ms`, then aggregates. Each worker times its own measured
/// region (steady_clock immediately around the body, nothing else), so
/// thread spawn/join and the driver's sleep jitter never inflate the
/// denominator; the row reports the mean worker seconds plus the min/max
/// spread so oversubscribed runs are legible as such.
template <class Body>
Result run_threads(std::string scenario, std::string variant, unsigned threads,
                   int duration_ms, Body&& body) {
  std::atomic<bool> stop{false};
  std::vector<WorkerCount> counts(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const auto w0 = Clock::now();
      body(t, stop, counts[t]);
      counts[t].seconds = std::chrono::duration<double>(Clock::now() - w0).count();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();

  Result res{std::move(scenario), std::move(variant), threads};
  double sum_seconds = 0;
  res.worker_seconds_min = counts.empty() ? 0 : counts[0].seconds;
  for (const auto& c : counts) {
    res.ops += c.ops;
    res.failed_acquires += c.failed;
    sum_seconds += c.seconds;
    if (c.seconds < res.worker_seconds_min) res.worker_seconds_min = c.seconds;
    if (c.seconds > res.worker_seconds_max) res.worker_seconds_max = c.seconds;
  }
  res.seconds = threads > 0 ? sum_seconds / threads : 0;
  return res;
}

void print_row(const Result& r) {
  std::printf("| %s | %s | %u | %.0f | %llu |\n", r.scenario.c_str(),
              r.variant.c_str(), r.threads, r.items_per_sec(),
              static_cast<unsigned long long>(r.failed_acquires));
  std::fflush(stdout);
}

/// Full scenario matrix for one variant. `make()` returns a fresh, empty
/// renamer; each (scenario, threads) cell gets its own instance so no cell
/// inherits another's fill level (the BM_Threaded bug this PR fixes).
template <class MakeFn>
void bench_variant(const std::string& vname, MakeFn make,
                   const std::vector<unsigned>& thread_counts, int duration_ms,
                   std::uint64_t n, std::vector<Result>& out) {
  {
    auto r = make();
    out.push_back(run_threads("uncontended", vname, 1, duration_ms,
                              [&](unsigned, const std::atomic<bool>& stop,
                                  WorkerCount& c) { churn_loop(*r, stop, c); }));
    print_row(out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads("full-churn", vname, threads, duration_ms,
                              [&](unsigned, const std::atomic<bool>& stop,
                                  WorkerCount& c) { churn_loop(*r, stop, c); }));
    print_row(out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads("bursty", vname, threads, duration_ms,
                              [&](unsigned, const std::atomic<bool>& stop,
                                  WorkerCount& c) { bursty_loop(*r, stop, c); }));
    print_row(out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads(
        "skewed-release", vname, threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          skewed_loop(*r, stop, c, t);
        }));
    print_row(out.back());
  }
  {
    auto r = make();
    const std::uint64_t threshold = n * 6 / 10;
    out.push_back(run_threads(
        "fill-reset-pool", vname, 1, duration_ms,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          fill_reset_loop(*r, stop, c, threshold);
        }));
    print_row(out.back());
  }
}

/// The batch scenario matrix for one variant with acquire_many/release_many.
/// Emits batch-churn (fixed k, batched vs singles, plus the zipf mix),
/// poisson-arrivals, and thread-churn rows under the shared JSON schema.
template <class MakeFn>
void bench_batch_scenarios(const std::string& vname, MakeFn make,
                           const std::vector<unsigned>& thread_counts,
                           int duration_ms, std::uint64_t n,
                           std::vector<Result>& out) {
  static const ZipfBatch zipf(kMaxBatchBench, 1.2);
  for (const unsigned k : {4u, 16u}) {
    for (unsigned threads : thread_counts) {
      {
        auto r = make();
        out.push_back(run_threads(
            "batch-churn", vname + "-many-k" + std::to_string(k), threads,
            duration_ms,
            [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
              batch_churn_many_loop(*r, stop, c, nullptr, k, t);
            }));
        print_row(out.back());
      }
      {
        auto r = make();
        out.push_back(run_threads(
            "batch-churn", vname + "-singles-k" + std::to_string(k), threads,
            duration_ms,
            [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
              batch_churn_singles_loop(*r, stop, c, nullptr, k, t);
            }));
        print_row(out.back());
      }
    }
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads(
        "batch-churn", vname + "-many-zipf", threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          batch_churn_many_loop(*r, stop, c, &zipf, 0, t);
        }));
    print_row(out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    // Per-worker demand sized from the worker's share of the namespace:
    // window (<= share/2) + one in-flight batch (<= share/4) stays under
    // the share, so aggregate demand stays under n (the long-lived
    // contract) and any failed acquire is a bug — on any host topology.
    const std::size_t share = std::max<std::size_t>(
        static_cast<std::size_t>(n) / threads, 8);
    const std::size_t max_live = std::clamp<std::size_t>(share / 2, 4, 256);
    const std::size_t max_batch =
        std::clamp<std::size_t>(share / 4, 1, kMaxBatchBench);
    out.push_back(run_threads(
        "poisson-arrivals", vname, threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          poisson_arrivals_loop(*r, stop, c, t, max_live, max_batch);
        }));
    print_row(out.back());
  }
  for (unsigned threads : thread_counts) {
    auto r = make();
    out.push_back(run_threads(
        "thread-churn", vname, threads, duration_ms,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          thread_churn_loop(*r, stop, c);
        }));
    print_row(out.back());
  }
}

// ------------------------------------------------------------- telemetry --

/// One bench cell's metric export: the registry snapshot taken right
/// after the run, keyed like a Result row. Feeds the JSON "metrics"
/// block (nonzero counters, histogram count/mean/p50/p99) so a bench
/// diff can compare probe-length distributions, not just items/sec.
struct MetricRow {
  std::string scenario;
  std::string variant;
  unsigned threads;
  loren::telemetry::MetricsSnapshot snap;
};

// ------------------------------------------------------------------ json --
std::string fmt1(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

/// First "model name" line of /proc/cpuinfo; "unknown" off-Linux. Bench
/// numbers are meaningless without knowing the part they ran on.
std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        model = colon + 1;
        while (!model.empty() && (model.front() == ' ' || model.front() == '\t')) {
          model.erase(model.begin());
        }
        while (!model.empty() && (model.back() == '\n' || model.back() == '"')) {
          model.pop_back();
        }
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

/// Physical core count: unique (physical id, core id) pairs from
/// /proc/cpuinfo. Containers and non-Linux hosts often omit the fields
/// (or the file); the logical count is the honest fallback — the JSON
/// then simply cannot claim more physical cores than logical ones.
unsigned physical_cores() {
  const unsigned logical = std::max(1u, std::thread::hardware_concurrency());
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return logical;
  char line[256];
  int phys = -1;
  int core = -1;
  std::set<std::pair<int, int>> seen;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "physical id", 11) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) phys = std::atoi(colon + 1);
    } else if (std::strncmp(line, "core id", 7) == 0) {
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) core = std::atoi(colon + 1);
    } else if (line[0] == '\n') {  // end of one processor stanza
      if (phys >= 0 && core >= 0) seen.insert({phys, core});
      phys = core = -1;
    }
  }
  if (phys >= 0 && core >= 0) seen.insert({phys, core});
  std::fclose(f);
  if (seen.empty()) return logical;
  return static_cast<unsigned>(seen.size());
}

void write_json(const std::string& path, std::uint64_t n, double eps,
                int duration_ms, const std::vector<unsigned>& thread_counts,
                const std::vector<Result>& results,
                const std::vector<std::pair<std::string, double>>& resets,
                std::uint64_t reset_cells,
                const std::vector<MetricRow>& metric_rows,
                const std::vector<std::pair<std::string, double>>& derived) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  const unsigned logical = std::max(1u, std::thread::hardware_concurrency());
  const unsigned physical = physical_cores();
  std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
  std::fprintf(f, "  \"hw_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  // Bench rows where threads > logical_cores measure timeslicing, not
  // parallel scaling; the per-thread-count oversubscribed flags below
  // make that machine-readable so CI diffs don't read oversubscription
  // artifacts as real scaling curves.
  std::fprintf(f, "  \"logical_cores\": %u,\n", logical);
  std::fprintf(f, "  \"physical_cores\": %u,\n", physical);
  std::fprintf(f, "  \"cpu_model\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"thread_counts\": [");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(f, "%s%u", i > 0 ? ", " : "", thread_counts[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"thread_counts_meta\": [");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(f, "%s{\"threads\": %u, \"oversubscribed\": %s}",
                 i > 0 ? ", " : "", thread_counts[i],
                 thread_counts[i] > logical ? "true" : "false");
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"n\": %llu,\n  \"epsilon\": %.3f,\n",
               static_cast<unsigned long long>(n), eps);
  std::fprintf(f, "  \"duration_ms\": %d,\n", duration_ms);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"variant\": \"%s\", \"threads\": "
                 "%u, \"ops\": %llu, \"seconds\": %.4f, "
                 "\"worker_seconds_min\": %.4f, \"worker_seconds_max\": %.4f, "
                 "\"items_per_sec\": %s, "
                 "\"failed_acquires\": %llu}%s\n",
                 r.scenario.c_str(), r.variant.c_str(), r.threads,
                 static_cast<unsigned long long>(r.ops), r.seconds,
                 r.worker_seconds_min, r.worker_seconds_max,
                 fmt1(r.items_per_sec()).c_str(),
                 static_cast<unsigned long long>(r.failed_acquires),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"reset\": [\n");
  for (std::size_t i = 0; i < resets.size(); ++i) {
    std::fprintf(f,
                 "    {\"variant\": \"%s\", \"cells\": %llu, "
                 "\"ns_per_reset\": %s}%s\n",
                 resets[i].first.c_str(),
                 static_cast<unsigned long long>(reset_cells),
                 fmt1(resets[i].second).c_str(),
                 i + 1 < resets.size() ? "," : "");
  }
  // Registry snapshots from the telemetry-on bench cells. Compact on
  // purpose — nonzero counters plus count/mean/p50/p99 per histogram
  // (log2-bucket quantiles, reported as inclusive bucket upper edges) —
  // so diffs can compare probe-length distributions without hauling 65
  // buckets per histogram around. bench_diff.py reads this block for
  // display only; it never thresholds on it.
  std::fprintf(f, "  ],\n  \"metrics\": [\n");
  for (std::size_t i = 0; i < metric_rows.size(); ++i) {
    const MetricRow& mr = metric_rows[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"variant\": \"%s\", "
                 "\"threads\": %u,\n     \"counters\": {",
                 mr.scenario.c_str(), mr.variant.c_str(), mr.threads);
    bool first = true;
    for (const auto& c : mr.snap.counters) {
      if (c.value == 0) continue;
      std::fprintf(f, "%s\"%s\": %llu", first ? "" : ", ", c.name.c_str(),
                   static_cast<unsigned long long>(c.value));
      first = false;
    }
    std::fprintf(f, "},\n     \"histograms\": {");
    first = true;
    for (const auto& h : mr.snap.histograms) {
      if (h.count == 0) continue;
      std::fprintf(f,
                   "%s\"%s\": {\"count\": %llu, \"mean\": %.1f, "
                   "\"p50\": %llu, \"p99\": %llu}",
                   first ? "" : ", ", h.name.c_str(),
                   static_cast<unsigned long long>(h.count), h.mean(),
                   static_cast<unsigned long long>(h.p50()),
                   static_cast<unsigned long long>(h.p99()));
      first = false;
    }
    std::fprintf(f, "}}%s\n", i + 1 < metric_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"derived\": {\n");
  for (std::size_t i = 0; i < derived.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.3f%s\n", derived[i].first.c_str(),
                 derived[i].second, i + 1 < derived.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t n = 1u << 14;
  int duration_ms = 300;
  bool quick = false;
  std::string out = "BENCH_throughput.json";
  const double eps = 0.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out PATH] [--n N] "
                   "[--duration-ms D]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) duration_ms = std::min(duration_ms, 60);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (hw > 4) thread_counts.push_back(hw);
  // 0 = auto sharding (shards chosen for distinct home shards per hardware
  // thread AND at most kMaxShardCells cells per shard; see
  // RenamingServiceOptions).
  const std::uint64_t service_shards = 0;

  using loren::ArenaLayout;
  auto make_service = [n, eps](std::uint64_t shards) {
    loren::RenamingServiceOptions opts;
    opts.epsilon = eps;
    opts.shards = shards;
    return std::make_unique<loren::RenamingService>(n, opts);
  };

  std::vector<Result> results;
  std::printf("# throughput matrix: n=%llu eps=%.2f hw=%u duration=%dms\n\n",
              static_cast<unsigned long long>(n), eps, hw, duration_ms);
  std::printf("| scenario | variant | threads | items/sec | failed |\n");
  std::printf("| --- | --- | --- | --- | --- |\n");

  bench_variant(
      "seed-direct", [&] { return std::make_unique<SeedRenamer>(n, eps); },
      thread_counts, duration_ms, n, results);
  bench_variant(
      "arena-padded",
      [&] { return std::make_unique<RenamerAdapter>(n, eps, ArenaLayout::kPadded); },
      thread_counts, duration_ms, n, results);
  bench_variant(
      "arena-packed",
      [&] { return std::make_unique<RenamerAdapter>(n, eps, ArenaLayout::kPacked); },
      thread_counts, duration_ms, n, results);
  bench_variant(
      "service-sharded",
      [&] { return make_service(service_shards); },
      thread_counts, duration_ms, n, results);
  bench_variant("service-single",
                [&] { return make_service(1); },
                thread_counts, duration_ms, n, results);

  // ---- the word-scan substrate, uncached -------------------------------
  // The sharded service with the name cache off: churn workloads
  // otherwise short-circuit into the stash and would measure
  // thread-local pops, not the BitmapArena substrate.
  auto make_service_uncached = [n, eps](std::uint64_t shards) {
    loren::RenamingServiceOptions opts;
    opts.epsilon = eps;
    opts.shards = shards;
    opts.name_cache = false;
    return std::make_unique<loren::RenamingService>(n, opts);
  };
  auto make_service_wordscan = [&] {
    return make_service_uncached(service_shards);
  };
  bench_variant("service-wordscan", make_service_wordscan, thread_counts,
                duration_ms, n, results);
  // full-churn-hot: the same churn loop against a namespace at a
  // *scattered* 15/16 occupancy — fill every cell, then release a random
  // 1/16 sample, so the free cells are spread over every shard and every
  // word. This is the regime where probes collide and the per-cell RMW /
  // per-cell sweep cost dominates: a near-empty namespace serves the
  // first probe either way (plain full-churn measures fixed per-op
  // overhead, not the substrate), and a *run-claimed* prefill would
  // leave one empty shard for the sticky hints to migrate into.
  {
    std::vector<std::int64_t> prefill;
    auto run_hot = [&](unsigned threads) {
      auto r = make_service_wordscan();
      const std::uint64_t cap = r->capacity();
      prefill.assign(cap, -1);
      const std::uint64_t held = r->acquire_many(cap, prefill.data());
      if (held < cap) {
        std::fprintf(stderr, "full-churn-hot prefill shortfall: %llu < %llu\n",
                     static_cast<unsigned long long>(held),
                     static_cast<unsigned long long>(cap));
      }
      // Partial Fisher-Yates: move a uniform random 1/16 sample to the
      // front, release exactly that sample.
      loren::Xoshiro256 rng(loren::mix_seed(0xF1F1, threads));
      const std::uint64_t free_target = std::max<std::uint64_t>(held / 16, 1);
      for (std::uint64_t i = 0; i < free_target; ++i) {
        std::swap(prefill[i], prefill[i + rng.below(held - i)]);
      }
      r->release_many(prefill.data(), free_target);
      results.push_back(run_threads(
          "full-churn-hot", "service-wordscan", threads, duration_ms,
          [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
            churn_loop(*r, stop, c);
          }));
      print_row(results.back());
    };
    for (unsigned threads : thread_counts) {
      run_hot(threads);
    }
  }

  // ---- batch workload engine: batch-churn / poisson-arrivals /
  // thread-churn for the variants with a batched surface ------------------
  bench_batch_scenarios(
      "service-sharded",
      [&] { return make_service(service_shards); },
      thread_counts, duration_ms, n, results);
  bench_batch_scenarios(
      "elastic",
      [&] {
        loren::ElasticOptions eopts;
        eopts.epsilon = eps;
        // Start at up to 1024 holders (clamped for small --n runs) with
        // headroom to n, so the steady batch workloads measure the hot
        // path, not a resize storm.
        const std::uint64_t start = std::min<std::uint64_t>(1024, n);
        eopts.min_holders = start;
        eopts.max_holders = n;
        return std::make_unique<loren::ElasticRenamingService>(start, eopts);
      },
      thread_counts, duration_ms, n, results);
  // The uncached substrate under the batch engine: run-claims are where
  // the word-packed masks collapse k RMWs into one fetch_or per word.
  bench_batch_scenarios("service-wordscan", make_service_wordscan,
                        thread_counts, duration_ms, n, results);

  // ---- cached churn: the thread-local name cache on / off --------------
  std::vector<CacheStat> cache_stats;
  bench_cached_scenarios(
      "service-cached",
      [&] { return make_service(service_shards); },
      thread_counts, duration_ms, results, cache_stats);
  bench_cached_scenarios(
      "service-uncached",
      [&] { return make_service_uncached(service_shards); },
      thread_counts, duration_ms, results, cache_stats);
  bench_cached_scenarios(
      "elastic-cached",
      [&] {
        loren::ElasticOptions eopts;
        eopts.epsilon = eps;
        const std::uint64_t start = std::min<std::uint64_t>(1024, n);
        eopts.min_holders = start;
        eopts.max_holders = n;
        return std::make_unique<loren::ElasticRenamingService>(start, eopts);
      },
      thread_counts, duration_ms, results, cache_stats);

  // ---- telemetry overhead guard: detailed mode on the uncached hot path --
  // The same uncached sharded service with and without an attached
  // MetricsRegistry, back to back per thread count so run-order drift
  // cancels. Name cache off on both sides: the stash would short-circuit
  // most operations past the instrumented arena path and flatter the
  // ratio. The attached-registry runs also export their registry
  // snapshots as the JSON `metrics` block (probe-length / latency
  // histograms, cache and sweep counters), and the 4-thread pair feeds
  // the telemetry_overhead_at_4_threads derived key (acceptance:
  // <= 1.05x, i.e. detailed mode costs at most 5% on this path).
  std::vector<MetricRow> metric_rows;
  {
    auto make_service_tel = [n, eps, service_shards](
                                loren::telemetry::MetricsRegistry* reg) {
      loren::RenamingServiceOptions opts;
      opts.epsilon = eps;
      opts.shards = service_shards;
      opts.name_cache = false;
      opts.telemetry.registry = reg;
      return std::make_unique<loren::RenamingService>(n, opts);
    };
    for (unsigned threads : thread_counts) {
      {
        auto r = make_service_uncached(service_shards);
        results.push_back(run_threads(
            "full-churn", "service-telemetry-off", threads, duration_ms,
            [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
              churn_loop(*r, stop, c);
            }));
        print_row(results.back());
      }
      {
        loren::telemetry::MetricsRegistry reg;
        auto r = make_service_tel(&reg);
        results.push_back(run_threads(
            "full-churn", "service-telemetry-on", threads, duration_ms,
            [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
              churn_loop(*r, stop, c);
            }));
        print_row(results.back());
        metric_rows.push_back(
            {"full-churn", "service-telemetry-on", threads, reg.snapshot()});
      }
    }
    // One elastic cell at the standard derived-key thread count, so the
    // metrics block also carries the elastic.* family (grow/shrink
    // cadence, quiescence waits) for bench diffs.
    {
      loren::telemetry::MetricsRegistry reg;
      loren::ElasticOptions eopts;
      eopts.epsilon = eps;
      const std::uint64_t start = std::min<std::uint64_t>(1024, n);
      eopts.min_holders = start;
      eopts.max_holders = n;
      eopts.name_cache = false;
      eopts.telemetry.registry = &reg;
      auto e = std::make_unique<loren::ElasticRenamingService>(start, eopts);
      const unsigned tel_threads = std::min(4u, thread_counts.back());
      results.push_back(run_threads(
          "full-churn", "elastic-telemetry-on", tel_threads, duration_ms,
          [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
            churn_loop(*e, stop, c);
          }));
      print_row(results.back());
      e->reclaim();
      metric_rows.push_back(
          {"full-churn", "elastic-telemetry-on", tel_threads, reg.snapshot()});
      e.reset();  // service detaches before the registry leaves scope
    }
  }

  // ---- burst/drain ramp: fixed peak provisioning vs elastic ------------
  const unsigned ramp_peak = thread_counts.back();
  const int phase_ms = std::max(duration_ms / 2, quick ? 30 : 100);
  {
    auto fixed = make_service(service_shards);
    bench_burst_drain("service-sharded", *fixed, ramp_peak, phase_ms, results);
  }
  std::uint64_t elastic_grows = 0, elastic_shrinks = 0, elastic_reclaims = 0,
                elastic_final_holders = 0;
  {
    loren::ElasticOptions eopts;
    eopts.epsilon = eps;
    eopts.min_holders = 64;
    eopts.max_holders = n;
    eopts.auto_grow = true;
    eopts.auto_shrink = true;
    loren::ElasticRenamingService elastic(64, eopts);
    bench_burst_drain("elastic", elastic, ramp_peak, phase_ms, results);
    elastic.reclaim();
    elastic_grows = elastic.grow_events();
    elastic_shrinks = elastic.shrink_events();
    elastic_reclaims = elastic.reclaimed_groups();
    elastic_final_holders = elastic.holders();
  }

  // ---- closed-loop control: adaptive batching/admission vs fixed k -----
  // A dedicated small namespace (independent of --n) so a hot phase's
  // futile full sweep has a real, repeatable cost; name cache off so
  // every call exercises the governed shared path. The fixed variants
  // run the identical service with control off — the pre-admission
  // regime where the unbounded sweep is the only backstop.
  const unsigned ctl_threads = 4;
  auto make_control_service = [eps](loren::control::ControlMode mode) {
    loren::RenamingServiceOptions opts;
    opts.epsilon = eps;
    opts.shards = 0;
    opts.name_cache = false;
    opts.control.mode = mode;
    opts.control.retry_budget = 4;
    opts.control.batch_max = kMaxBatchBench;
    // ~0.7ms windows at contemporary TSC rates: several adaptation
    // rollovers per calm phase, so the batch knob re-opens within a
    // couple of phases of a hot stretch ending.
    opts.control.window = std::uint64_t{1} << 21;
    return std::make_unique<loren::RenamingService>(1u << 12, opts);
  };
  const std::uint64_t swing_cap = make_control_service(
                                      loren::control::ControlMode::kOff)
                                      ->capacity();
  // Calm: aggregate ~1/8 occupancy. Hot: every worker's bound alone
  // exceeds capacity, so the namespace pins at full.
  const std::size_t swing_calm_live =
      std::max<std::size_t>(swing_cap / (8 * ctl_threads), 8);
  const std::size_t swing_hot_live = swing_cap;
  for (const unsigned k : {1u, 4u, 16u, 32u}) {
    auto r = make_control_service(loren::control::ControlMode::kOff);
    results.push_back(run_threads(
        "adaptive-vs-fixed-k", "service-fixed-k" + std::to_string(k),
        ctl_threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          swing_demand_loop(*r, stop, c, t, 8.0, 24.0, swing_calm_live,
                            swing_hot_live, [k] { return k; });
        }));
    print_row(results.back());
  }
  {
    auto r = make_control_service(loren::control::ControlMode::kAdapt);
    loren::control::AdaptiveController* ctl = r->controller();
    results.push_back(run_threads(
        "adaptive-vs-fixed-k", "service-adaptive", ctl_threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          swing_demand_loop(*r, stop, c, t, 8.0, 24.0, swing_calm_live,
                            swing_hot_live,
                            [ctl] { return ctl->batch_limit(); });
        }));
    print_row(results.back());
  }
  // The 10x-burst probe: baseline Pois(2) against a comfortable window,
  // bursts of Pois(20) against a bound past capacity, every call timed,
  // run twice — control off (fixed k=32, the pre-admission regime) and
  // kAdapt. burst_p99_ratio = p99(shed-gated burst calls) /
  // p99(ungoverned burst calls): both sides time the same burst-phase
  // trace, where the ungoverned tail is pinned at sweep cost while a
  // shed call costs a load — a structural gap, so the <= 3.0 CI bound
  // holds on any machine. (Comparing against the *calm*-phase p99 is
  // NOT stable: calm calls are ~100ns when clean, so the calm tail is
  // dominated by whether the reservoir happened to catch scheduler
  // preemption spikes — measured 20x run-to-run swings.)
  double burst_p99_base = 0;
  double burst_p99_burst = 0;
  double burst_p99_unshed = 0;
  for (const bool adapt : {false, true}) {
    auto r = make_control_service(adapt ? loren::control::ControlMode::kAdapt
                                        : loren::control::ControlMode::kOff);
    loren::control::AdaptiveController* ctl = r->controller();
    std::vector<LatencySamples> lat(ctl_threads);
    results.push_back(run_threads(
        "adaptive-burst", adapt ? "service-adaptive" : "service-fixed-k32",
        ctl_threads, duration_ms,
        [&](unsigned t, const std::atomic<bool>& stop, WorkerCount& c) {
          swing_demand_loop(*r, stop, c, t, 2.0, 20.0, swing_calm_live,
                            swing_hot_live,
                            [ctl] {
                              return ctl != nullptr ? ctl->batch_limit()
                                                    : std::uint64_t{32};
                            },
                            &lat[t]);
        }));
    print_row(results.back());
    std::vector<std::uint64_t> base;
    std::vector<std::uint64_t> burst;
    for (LatencySamples& l : lat) {
      base.insert(base.end(), l.base.begin(), l.base.end());
      burst.insert(burst.end(), l.burst.begin(), l.burst.end());
    }
    if (adapt) {
      burst_p99_base = p99_ns(base);
      burst_p99_burst = p99_ns(burst);
    } else {
      burst_p99_unshed = p99_ns(burst);
    }
  }


  // ---- crash-churn: leaseholder death and reap-driven recovery ----------
  // Long-lived churners run flat out while a crasher loop keeps spawning
  // short-lived holder threads that die holding names (cache off, no
  // release: nothing flushes — the crashed-holder model). With leasing
  // on, the dead holders' heartbeats go stale after ttl + grace TSC
  // ticks and the churners' sampled reap polls recycle the abandoned
  // cells; the unleased control run leaks every one of them. After a
  // final explicit drain, lease_reap_recovery = leases expired / names
  // abandoned — the smoke gate asserts >= 0.99.
  const unsigned crash_threads = std::min(4u, hw);
  std::uint64_t crash_abandoned = 0, crash_leaked = 0;
  double lease_reap_recovery = -1;
  for (const bool leased : {true, false}) {
    loren::RenamingServiceOptions crash_opts;
    crash_opts.epsilon = eps;
    crash_opts.shards = 0;
    crash_opts.name_cache = false;
    if (leased) {
      crash_opts.lease.ttl_ticks = std::uint64_t{1} << 23;  // a few ms of TSC
      crash_opts.lease.grace = std::uint64_t{1} << 21;
    }
    auto svc = std::make_unique<loren::RenamingService>(1u << 12, crash_opts);
    std::atomic<bool> crash_stop{false};
    std::atomic<std::uint64_t> abandoned{0};
    std::thread crasher([&] {
      while (!crash_stop.load(std::memory_order_relaxed)) {
        std::thread holder([&] {
          std::int64_t held[8];
          const std::uint64_t got = svc->acquire_many(8, held);
          abandoned.fetch_add(got, std::memory_order_relaxed);
          // ... and dies holding them.
        });
        holder.join();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    results.push_back(run_threads(
        "crash-churn", leased ? "service-leased" : "service-unleased",
        crash_threads, duration_ms,
        [&](unsigned, const std::atomic<bool>& stop, WorkerCount& c) {
          churn_loop(*svc, stop, c);
        }));
    print_row(results.back());
    crash_stop.store(true, std::memory_order_relaxed);
    crasher.join();
    if (leased) {
      // Final drain: names abandoned just before stop still need ttl +
      // grace to go stale, so poll rather than reap once.
      const auto drain_deadline = Clock::now() + std::chrono::seconds(2);
      while (svc->leases_live() > 0 && Clock::now() < drain_deadline) {
        svc->reap_expired();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      crash_abandoned = abandoned.load(std::memory_order_relaxed);
      lease_reap_recovery =
          crash_abandoned > 0 ? static_cast<double>(svc->lease_expired()) /
                                    static_cast<double>(crash_abandoned)
                              : 1.0;
    } else {
      crash_leaked = svc->names_live();
    }
  }

  // ---- reset microbenchmark: O(m) reallocation vs O(1) epoch bump ------
  const std::uint64_t m = loren::BatchLayout(n, eps).total();
  std::vector<std::pair<std::string, double>> resets;
  {
    SeedRenamer seed(n, eps);
    const int iters = quick ? 50 : 400;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) seed.reset();
    const auto t1 = Clock::now();
    resets.emplace_back(
        "seed-realloc",
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters);
  }
  {
    loren::TasArena arena(m, ArenaLayout::kPadded);
    const int iters = quick ? 50000 : 1000000;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) arena.reset();
    const auto t1 = Clock::now();
    resets.emplace_back(
        "arena-epoch",
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters);
  }
  std::printf("\n| reset variant | cells | ns/reset |\n| --- | --- | --- |\n");
  for (const auto& [name, ns] : resets) {
    std::printf("| %s | %llu | %.1f |\n", name.c_str(),
                static_cast<unsigned long long>(m), ns);
  }

  // ---- headline derived numbers ----------------------------------------
  auto items = [&](const std::string& sc, const std::string& v,
                   unsigned threads) -> double {
    for (const Result& r : results) {
      if (r.scenario == sc && r.variant == v && r.threads == threads) {
        return r.items_per_sec();
      }
    }
    return 0;
  };
  const unsigned peak = thread_counts.back();
  std::vector<std::pair<std::string, double>> derived;
  const double seed_peak = items("full-churn", "seed-direct", peak);
  if (seed_peak > 0) {
    derived.emplace_back("speedup_full_churn_sharded_vs_seed_at_peak_threads",
                         items("full-churn", "service-sharded", peak) / seed_peak);
    derived.emplace_back("speedup_full_churn_padded_vs_seed_at_peak_threads",
                         items("full-churn", "arena-padded", peak) / seed_peak);
  }
  const double seed_fill = items("fill-reset-pool", "seed-direct", 1);
  if (seed_fill > 0) {
    derived.emplace_back(
        "speedup_fill_reset_sharded_vs_seed",
        items("fill-reset-pool", "service-sharded", 1) / seed_fill);
  }
  derived.emplace_back("peak_threads", peak);
  // Batched acquisition vs k singles on the same demand (the acceptance
  // ratio for the batch pipeline: >= 1.3x at 4 threads).
  for (const unsigned k : {4u, 16u}) {
    const double singles = items(
        "batch-churn", "service-sharded-singles-k" + std::to_string(k), 4);
    if (singles > 0) {
      derived.emplace_back(
          "batch_speedup_k" + std::to_string(k) + "_at_4_threads",
          items("batch-churn", "service-sharded-many-k" + std::to_string(k),
                4) /
              singles);
    }
  }
  // Detailed-mode telemetry on the uncached hot path: off/on throughput
  // ratio, so >1 means the instrumentation costs something (acceptance:
  // <= 1.05 at 4 threads — the striped record path plus 1-in-16 latency
  // sampling must stay within 5%).
  const double tel_on4 = items("full-churn", "service-telemetry-on", 4);
  if (tel_on4 > 0) {
    derived.emplace_back(
        "telemetry_overhead_at_4_threads",
        items("full-churn", "service-telemetry-off", 4) / tel_on4);
  }
  // The thread-local name cache: hot-reuse churn with the stash vs the
  // identically configured uncached service (acceptance: >= 1.3x at 4
  // threads), plus the aggregate hit rates the cached rows observed.
  const double uncached_hot =
      items("cached-churn-hot-reuse", "service-uncached", 4);
  if (uncached_hot > 0) {
    derived.emplace_back(
        "cached_speedup_at_4_threads",
        items("cached-churn-hot-reuse", "service-cached", 4) / uncached_hot);
  }
  auto hit_rate = [&](const std::string& sc, const std::string& v,
                      unsigned threads) -> double {
    for (const CacheStat& s : cache_stats) {
      if (s.scenario == sc && s.variant == v && s.threads == threads) {
        return s.hit_rate;
      }
    }
    return 0;
  };
  derived.emplace_back("cache_hit_rate",
                       hit_rate("cached-churn-hot-reuse", "service-cached", 4));
  derived.emplace_back(
      "cache_hit_rate_zero_reuse",
      hit_rate("cached-churn-zero-reuse", "service-cached", 4));
  derived.emplace_back(
      "cache_hit_rate_zipf_handoff",
      hit_rate("cached-churn-zipf-handoff", "service-cached", 4));
  derived.emplace_back(
      "cache_hit_rate_elastic",
      hit_rate("cached-churn-hot-reuse", "elastic-cached", 4));
  // The elastic resize trajectory over the burst/drain ramp: grows on the
  // way up, shrinks + reclaims on the way down, holders back at the floor.
  derived.emplace_back("elastic_grow_events",
                       static_cast<double>(elastic_grows));
  derived.emplace_back("elastic_shrink_events",
                       static_cast<double>(elastic_shrinks));
  derived.emplace_back("elastic_reclaimed_groups",
                       static_cast<double>(elastic_reclaims));
  derived.emplace_back("elastic_final_holders",
                       static_cast<double>(elastic_final_holders));
  // Crash-churn recovery: every abandoned name's lease expired (>= 1.0
  // up to benign churner-preemption overshoot), against the unleased
  // control run's permanent leak.
  if (lease_reap_recovery >= 0) {
    derived.emplace_back("lease_reap_recovery", lease_reap_recovery);
    derived.emplace_back("crash_churn_abandoned",
                         static_cast<double>(crash_abandoned));
    derived.emplace_back("crash_churn_unleased_leak",
                         static_cast<double>(crash_leaked));
  }
  // Closed-loop control on the rate-swinging trace: the adaptive service
  // against the best of the fixed batch sizes (acceptance: >= 1.0 — the
  // controller must at least match whatever fixed k a static tuning
  // could have picked, and wins by shedding the saturated phases the
  // fixed variants sweep straight through), plus the 10x-burst latency
  // tail (acceptance: burst p99 <= 3x baseline p99).
  double best_fixed = 0;
  double best_fixed_k = 0;
  for (const unsigned k : {1u, 4u, 16u, 32u}) {
    const double v = items("adaptive-vs-fixed-k",
                           "service-fixed-k" + std::to_string(k), ctl_threads);
    if (v > best_fixed) {
      best_fixed = v;
      best_fixed_k = k;
    }
  }
  if (best_fixed > 0) {
    derived.emplace_back(
        "adaptive_speedup_vs_best_fixed_k",
        items("adaptive-vs-fixed-k", "service-adaptive", ctl_threads) /
            best_fixed);
    derived.emplace_back("adaptive_best_fixed_k", best_fixed_k);
  }
  if (burst_p99_unshed > 0 && burst_p99_burst > 0) {
    derived.emplace_back("burst_p99_ratio", burst_p99_burst / burst_p99_unshed);
    derived.emplace_back("adaptive_burst_p99_ns", burst_p99_burst);
    derived.emplace_back("unshed_burst_p99_ns", burst_p99_unshed);
    derived.emplace_back("adaptive_burst_p99_base_ns", burst_p99_base);
  }
  std::printf("\n");
  for (const auto& [k, vd] : derived) std::printf("%s = %.3f\n", k.c_str(), vd);

  write_json(out, n, eps, duration_ms, thread_counts, results, resets, m,
             metric_rows, derived);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
