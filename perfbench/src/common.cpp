// Helpers shared by the workloads: the slice monitor, registry deltas,
// the per-layer service ratios, the held-name bitmap and the simulator
// counts.
#include <cmath>
#include <thread>

#include "episode.h"
#include "platform/rng.h"
#include "renaming/rebatching.h"
#include "renaming/service.h"
#include "sim/runner.h"
#include "sim/scheduler.h"
#include "workloads.h"

namespace perfbench {

std::vector<std::unique_ptr<Worker>> make_workers(unsigned count, bool tracing,
                                                  const Window& window) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (unsigned i = 0; i < count; ++i) {
    workers.push_back(std::make_unique<Worker>(i, tracing, window));
  }
  return workers;
}

void measure_slices(const std::vector<std::unique_ptr<Worker>>& workers, Window& window,
                    const std::function<void()>& start, const MonitorHooks& hooks,
                    EpisodeResult& out) {
  const auto progress = [&workers] {
    std::uint64_t sum = 0;
    for (const auto& w : workers) sum += w->acquired.load(std::memory_order_relaxed);
    return sum;
  };
  if (hooks.on_start) hooks.on_start();
  const std::uint64_t t_start = now_ns();
  const std::uint64_t first = progress();
  std::uint64_t prev = first;
  window.start_ns.store(t_start, std::memory_order_release);
  start();
  std::uint64_t t_prev = t_start;
  std::vector<double>& rates = out.slice_rates;
  for (std::uint64_t k = 1; k <= window.slices; ++k) {
    const std::uint64_t due = t_start + k * kSliceNs;
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - std::min(due, now_ns())));
    const std::uint64_t cur = progress();
    const std::uint64_t t = now_ns();
    rates.push_back(static_cast<double>(cur - prev) * 1e9 / static_cast<double>(t - t_prev));
    prev = cur;
    t_prev = t;
    if (hooks.at_slice) hooks.at_slice();
  }
  out.seconds = static_cast<double>(t_prev - t_start) * 1e-9;
  out.names = prev - first;
}

void finish_episode(PassResult& out, const EpisodeResult& e,
                    const std::vector<std::unique_ptr<Worker>>& workers,
                    std::uint64_t slice_offset, std::uint64_t names_live,
                    const std::string& what) {
  out.setup_s.push_back(e.setup_s);
  if (names_live != 0) {
    out.error(what + ": names_live() = " + std::to_string(names_live) +
              " after the workers flushed");
  }
  for (const auto& w : workers) out.absorb(*w, slice_offset);
  out.slice_rates.insert(out.slice_rates.end(), e.slice_rates.begin(), e.slice_rates.end());
  out.seconds += e.seconds;
  out.names += e.names;
  if (out.seconds > 0) out.acquires_per_s = static_cast<double>(out.names) / out.seconds;
}

// ------------------------------------------------------ registry deltas --

double SnapshotDelta::counter(const std::string& name) const {
  const auto* a = after_.counter(name);
  const auto* b = before_.counter(name);
  const std::uint64_t va = a != nullptr ? a->value : 0;
  const std::uint64_t vb = b != nullptr ? b->value : 0;
  return va >= vb ? static_cast<double>(va - vb) : 0.0;
}

loren::telemetry::HistogramSnapshot SnapshotDelta::histogram(
    const std::string& name) const {
  loren::telemetry::HistogramSnapshot d;
  d.name = name;
  const auto* a = after_.histogram(name);
  if (a == nullptr) return d;
  d = *a;
  if (const auto* b = before_.histogram(name)) {
    d.count -= std::min(d.count, b->count);
    d.sum -= std::min(d.sum, b->sum);
    for (std::uint32_t i = 0; i < loren::telemetry::kHistogramBuckets; ++i) {
      d.buckets[i] -= std::min(d.buckets[i], b->buckets[i]);
    }
  }
  return d;
}

void service_layer_metrics(const SnapshotDelta& d, const std::string& prefix,
                           double names, PassResult& out) {
  const auto per_k = [names](double v) { return names > 0 ? v * 1000.0 / names : 0.0; };
  const auto acq = d.histogram(prefix + ".acquire.ticks");
  auto probes = d.histogram(prefix + ".acquire.probe_len");
  const auto lost = d.histogram(prefix + ".acquire.lost_races");
  const auto walk = d.histogram(prefix + ".batch.ring_walk");
  const auto sampled = static_cast<double>(acq.count);
  // probe_len is recorded for sampled shared-path acquisitions only; the
  // sampled stash hits (acquire.ticks samples without a probe_len record)
  // walked zero probes, so they join the distribution at 0.
  if (acq.count > probes.count) {
    probes.buckets[0] += acq.count - probes.count;
    probes.count = acq.count;
  }
  auto& L = out.layer;
  L["renaming.service.probes_per_acquire_mean"] =
      sampled > 0 ? static_cast<double>(probes.sum) / sampled : 0.0;
  L["renaming.service.probes_per_acquire_p99"] = static_cast<double>(probes.p99());
  L["renaming.service.sweeps_per_kacq"] = per_k(d.counter(prefix + ".sweep.invocations"));
  L["renaming.service.migrations_per_kacq"] = per_k(d.counter(prefix + ".shard.migrations"));
  L["renaming.service.ring_walk_mean"] = walk.mean();
  L["tas.lost_races_per_acquire"] =
      sampled > 0 ? static_cast<double>(lost.sum) / sampled : 0.0;
  const double hits = d.counter(prefix + ".cache.hits");
  const double misses = d.counter(prefix + ".cache.misses");
  L["renaming.stash.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["renaming.stash.spills_per_kacq"] = per_k(d.counter(prefix + ".stash.spills"));
  out.counters["registry.acquire_samples"] = sampled;
  out.counters["registry.probes"] = static_cast<double>(probes.sum);
  out.counters["registry.cache_hits"] = hits;
  out.counters["registry.cache_misses"] = misses;
}

double span_mean_ns(const std::vector<Span>& spans, std::uint32_t name) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const Span& s : spans) {
    if (s.name != name || s.end_ns < s.start_ns) continue;
    sum += static_cast<double>(s.end_ns - s.start_ns);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// ------------------------------------------------------------ HeldBitmap --

HeldBitmap::HeldBitmap(std::uint64_t bits)
    : bits_(bits), words_(new std::atomic<std::uint64_t>[(bits + 63) / 64]) {
  for (std::uint64_t i = 0; i < (bits + 63) / 64; ++i) {
    words_[i].store(0, std::memory_order_relaxed);
  }
}

void HeldBitmap::claim(std::int64_t name, Worker& w) {
  if (name < 0 || static_cast<std::uint64_t>(name) >= bits_) {
    w.error("held-name check: name " + std::to_string(name) + " out of range");
    return;
  }
  const auto u = static_cast<std::uint64_t>(name);
  const std::uint64_t bit = std::uint64_t{1} << (u % 64);
  if ((words_[u / 64].fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) {
    w.error("held-name check: name " + std::to_string(name) + " issued twice while held");
  }
}

void HeldBitmap::drop(std::int64_t name, Worker& w) {
  if (name < 0 || static_cast<std::uint64_t>(name) >= bits_) return;
  const auto u = static_cast<std::uint64_t>(name);
  const std::uint64_t bit = std::uint64_t{1} << (u % 64);
  if ((words_[u / 64].fetch_and(~bit, std::memory_order_acq_rel) & bit) == 0) {
    w.error("held-name check: name " + std::to_string(name) + " released while not held");
  }
}

// ----------------------------------------------------------- simulator --

SimCounts simulate_rebatching(std::uint64_t n, bool collision, std::uint64_t seed) {
  loren::ReBatching algo(
      n, loren::ReBatching::Options{.layout = loren::BatchLayoutParams{.epsilon = 0.5}});
  std::unique_ptr<loren::sim::Strategy> strategy;
  if (collision) {
    strategy = std::make_unique<loren::sim::CollisionAdversary>();
  } else {
    strategy = std::make_unique<loren::sim::RandomStrategy>();
  }
  const loren::sim::AlgoFactory factory =
      [&algo](loren::sim::Env& env, loren::sim::ProcessId) -> loren::sim::Task<loren::sim::Name> {
    co_return co_await algo.get_name(env);
  };
  const loren::sim::RunConfig config{
      .num_processes = static_cast<loren::sim::ProcessId>(n),
      .seed = seed,
      .strategy = strategy.get()};
  const std::uint64_t t0 = now_ns();
  const loren::sim::RunResult r = loren::sim::simulate(factory, config);
  SimCounts c;
  c.host_s = static_cast<double>(now_ns() - t0) * 1e-9;
  c.n = n;
  c.processes = r.processes.size();
  c.total_steps = r.total_steps;
  c.max_steps = r.max_steps;
  c.max_name = r.max_name;
  c.correct = r.renaming_correct() && r.finished == n &&
              r.max_name < static_cast<loren::sim::Name>(algo.layout().total());
  return c;
}

PaperCounts paper_counts(const std::string& workload) {
  // Fixed seeds: the counts are exact and the same on every run.
  constexpr std::uint64_t kRandomSeed = 0x5EED0001;
  constexpr std::uint64_t kCollisionSeed = 0x5EED0002;
  std::uint64_t n_random = kPaperN;
  std::uint64_t n_collision = std::uint64_t{1} << 12;
  if (workload != "paper-model") {
    const std::uint64_t n = workload == "reuse-churn"    ? kReuseN
                            : workload == "full-scatter" ? kScatterN
                                                         : kElasticStartHolders;
    const loren::BatchLayoutParams params{.epsilon = 0.5};
    const std::uint64_t shards = loren::shard_count_for(n, 0, params);
    n_random = n_collision = (n + shards - 1) / shards;
  }
  return {simulate_rebatching(n_random, false, kRandomSeed),
          simulate_rebatching(n_collision, true, kCollisionSeed)};
}

}  // namespace perfbench
