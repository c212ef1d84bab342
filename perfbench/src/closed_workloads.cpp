// The three closed-loop workloads: reuse-churn and full-scatter on
// RenamingService, and the timed half of paper-model on the paper's
// ReBatching executed over hardware TAS (ConcurrentRenamer).
#include <array>
#include <numeric>
#include <optional>

#include "episode.h"
#include "platform/rng.h"
#include "renaming/concurrent.h"
#include "renaming/service.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loren::sim::Name;
using loren::telemetry::MetricsRegistry;
using loren::telemetry::MetricsSnapshot;

constexpr std::size_t kReuseFifo = 8;
constexpr std::uint64_t kReuseWarmup = 1'000'000;  // cycles per worker

// Blocks of 120..136 names (mean 128), drawn from the seed: a fixed 128
// would alias the services' 1-in-256 telemetry sampling onto the same
// block position (always the first, stash-served acquire) in the traced
// pass.
constexpr std::size_t kScatterBlockMin = 120;
constexpr std::size_t kScatterBlockMax = 136;
constexpr std::size_t kScatterSizes = 4096;  // per-worker size sequence
constexpr std::uint64_t kScatterWarmup = 4;  // blocks per worker
constexpr std::uint64_t kFillChunk = 4096;

constexpr std::uint64_t kPaperWarmup = 100'000;

/// Per-call sampling: latency on a random 1/kLatencyEvery of calls, spans
/// on a sparser subset disjoint from it (so a span's own clock reads never
/// land inside a latency sample).
bool latency_sampled(Worker& w) { return w.sample(kLatencyEvery); }
bool span_sampled(Worker& w, bool latency) {
  return w.spans.enabled() && !latency && w.sample(kSpanEvery);
}

loren::RenamingServiceOptions service_options(std::uint64_t seed, MetricsRegistry* reg) {
  loren::RenamingServiceOptions o;
  o.seed = loren::mix_seed(seed, 1);
  o.telemetry.registry = reg;
  return o;
}

/// Releases one held name through RenamingService::release, checked.
void release_one(loren::RenamingService& svc, HeldBitmap* held, Worker& w, Name name,
                 bool lat, bool span, std::uint64_t parent, std::uint64_t op) {
  if (name < 0) return;
  if (held != nullptr) held->drop(name, w);
  bool ok = false;
  {
    ScopedSpan s(w.spans, span, kSpanRelease, parent, op);
    ok = timed(w, w.release_ns, lat, [&] { return svc.release(name); });
  }
  if (!ok) w.error("release(" + std::to_string(name) + ") returned false");
}

void flush(loren::RenamingService& svc, Worker& w) {
  ScopedSpan s(w.spans, w.spans.enabled(), kSpanFlush, 0, 0);
  svc.flush_thread_cache();
}

// ------------------------------------------------------------ reuse-churn --

/// A worker's held names in a ring, oldest at `head`.
template <class Names>
struct HeldRing {
  Names names;
  std::size_t head = 0;
  /// Puts `name` in place of the oldest held name and returns that one.
  Name rotate(Name name) {
    const Name oldest = names[head];
    names[head] = name;
    head = (head + 1) % names.size();
    return oldest;
  }
};

struct ReuseLoop {
  loren::RenamingService& svc;
  HeldBitmap* held;
  std::vector<PerWorker<HeldRing<std::array<Name, kReuseFifo>>>> fifo;

  ReuseLoop(loren::RenamingService& s, HeldBitmap* h, unsigned threads)
      : svc(s), held(h), fifo(threads) {
    for (auto& f : fifo) f.v.names.fill(-1);
  }

  Name acquire(Worker& w, bool lat, bool span, std::uint64_t parent, std::uint64_t op) {
    Name name = -1;
    {
      ScopedSpan s(w.spans, span, kSpanAcquire, parent, op);
      name = timed(w, w.acquire_ns, lat, [&] { return svc.acquire(); });
    }
    ++w.attempted;
    if (name < 0 || static_cast<std::uint64_t>(name) >= svc.capacity()) {
      w.error("acquire() returned " + std::to_string(name));
      return -1;
    }
    if (held != nullptr) held->claim(name, w);
    return name;
  }

  void prefill(Worker& w) {
    pin_to_cpu(w.id);
    for (Name& slot : fifo[w.id].v.names) slot = acquire(w, false, false, 0, 0);
  }

  void step(Worker& w) {
    const std::uint64_t op = ++w.ops;
    const bool lat = latency_sampled(w);
    const bool span = span_sampled(w, lat);
    ScopedSpan cycle(w.spans, span, kSpanCycle, 0, op);
    const Name name = acquire(w, lat, span, cycle.id(), op);
    if (name < 0) return;
    w.note_acquired(1);
    release_one(svc, held, w, fifo[w.id].v.rotate(name), lat, span, cycle.id(), op);
  }

  void teardown(Worker& w) {
    for (Name& slot : fifo[w.id].v.names) {
      release_one(svc, held, w, slot, false, false, 0, 0);
      slot = -1;
    }
    flush(svc, w);
  }
};

void service_span_metrics(PassResult& out) {
  auto& L = out.layer;
  L["renaming.service.acquire_ns_mean"] = span_mean_ns(out.spans, kSpanAcquire);
  L["renaming.service.release_ns_mean"] = span_mean_ns(out.spans, kSpanRelease);
  L["renaming.service.release_many_ns_mean"] = span_mean_ns(out.spans, kSpanReleaseMany);
  L["renaming.stash.flush_ns_mean"] = span_mean_ns(out.spans, kSpanFlush);
  L["telemetry.snapshot_ms"] = span_mean_ns(out.spans, kSpanSnapshot) * 1e-6;
}

// ----------------------------------------------------------- full-scatter --

/// The uniform random 1/16 of the namespace full-scatter frees after
/// filling it (generated from the seed alone).
std::vector<Name> scatter_victims(std::uint64_t seed, std::uint64_t capacity) {
  std::vector<std::uint32_t> idx(capacity);
  std::iota(idx.begin(), idx.end(), 0u);
  loren::Xoshiro256 rng(loren::mix_seed(seed, 2));
  const std::uint64_t m = capacity / 16;
  for (std::uint64_t i = 0; i < m; ++i) {
    std::swap(idx[i], idx[i + rng.below(capacity - i)]);
  }
  return {idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(m)};
}

/// Each worker's block sizes, cycled through during the run.
std::vector<std::vector<std::uint32_t>> scatter_block_sizes(std::uint64_t seed,
                                                            unsigned threads) {
  std::vector<std::vector<std::uint32_t>> sizes(threads);
  for (unsigned t = 0; t < threads; ++t) {
    loren::Xoshiro256 rng(loren::mix_seed(seed, 100 + t));
    for (std::size_t i = 0; i < kScatterSizes; ++i) {
      sizes[t].push_back(static_cast<std::uint32_t>(
          kScatterBlockMin + rng.below(kScatterBlockMax - kScatterBlockMin + 1)));
    }
  }
  return sizes;
}

struct ScatterState {
  std::array<Name, kScatterBlockMax> block;
  std::uint64_t index = 0;
};

struct ScatterLoop {
  loren::RenamingService& svc;
  HeldBitmap* held;
  std::vector<std::vector<std::uint32_t>> sizes;
  std::vector<PerWorker<ScatterState>> state;

  ScatterLoop(loren::RenamingService& s, HeldBitmap* h, unsigned threads, std::uint64_t seed)
      : svc(s), held(h), sizes(scatter_block_sizes(seed, threads)), state(threads) {}

  void prefill(Worker& w) { pin_to_cpu(w.id); }

  void step(Worker& w) {
    auto& block = state[w.id].v.block;
    const std::uint64_t bi = ++state[w.id].v.index;
    const bool traced_block = w.spans.enabled() && bi % 64 == 1;
    ScopedSpan blk(w.spans, traced_block, kSpanBlock, 0, bi);
    const std::size_t want = sizes[w.id][bi % kScatterSizes];
    std::size_t got = 0;
    for (std::size_t i = 0; i < want; ++i) {
      Name name = -1;
      {
        ScopedSpan s(w.spans, traced_block && i % 16 == 0, kSpanAcquire, blk.id(), bi);
        name = timed(w, w.acquire_ns, latency_sampled(w), [&] { return svc.acquire(); });
      }
      ++w.attempted;
      if (name < 0 || static_cast<std::uint64_t>(name) >= svc.capacity()) {
        w.error("acquire() returned " + std::to_string(name));
        continue;
      }
      if (held != nullptr) held->claim(name, w);
      block[got++] = name;
    }
    w.note_acquired(got);
    if (held != nullptr) {
      for (std::size_t i = 0; i < got; ++i) held->drop(block[i], w);
    }
    std::uint64_t freed = 0;
    {
      ScopedSpan s(w.spans, traced_block, kSpanReleaseMany, blk.id(), bi);
      // Every block's release is timed: blocks are few, and each
      // release_many covers ~128 names.
      freed = timed(w, w.release_ns, true,
                    [&] { return svc.release_many(block.data(), got); });
    }
    if (freed != got) {
      w.error("release_many freed " + std::to_string(freed) + " of " + std::to_string(got));
    }
  }

  void teardown(Worker& w) { flush(svc, w); }
};

// ------------------------------------------------------------ paper-model --

struct RenamerLoop {
  loren::ConcurrentRenamer& renamer;
  HeldBitmap* held;
  std::vector<PerWorker<HeldRing<std::vector<Name>>>> ring;

  RenamerLoop(loren::ConcurrentRenamer& r, HeldBitmap* h, unsigned threads)
      : renamer(r), held(h), ring(threads) {
    // Half the paper's n held in total: the regime its bounds cover.
    for (auto& held_ring : ring) held_ring.v.names.assign(kPaperN / 2 / threads, -1);
  }

  Name acquire(Worker& w, bool lat, bool span, std::uint64_t op) {
    Name name = -1;
    {
      ScopedSpan s(w.spans, span, kSpanGetName, 0, op);
      name = timed(w, w.acquire_ns, lat, [&] { return renamer.get_name(); });
    }
    ++w.attempted;
    if (name < 0 || static_cast<std::uint64_t>(name) >= renamer.capacity()) {
      w.error("get_name() returned " + std::to_string(name));
      return -1;
    }
    if (held != nullptr) held->claim(name, w);
    return name;
  }

  void release(Worker& w, Name name, bool lat, bool span, std::uint64_t op) {
    if (name < 0) return;
    if (held != nullptr) held->drop(name, w);
    ScopedSpan s(w.spans, span, kSpanRenamerRelease, 0, op);
    try {
      timed(w, w.release_ns, lat, [&] {
        renamer.release(name);
        return 0;
      });
    } catch (const std::exception& e) {
      w.error(std::string("release: ") + e.what());
    }
  }

  void prefill(Worker& w) {
    pin_to_cpu(w.id);
    for (Name& slot : ring[w.id].v.names) slot = acquire(w, false, false, 0);
  }

  void step(Worker& w) {
    const std::uint64_t op = ++w.ops;
    const bool lat = latency_sampled(w);
    const bool span = span_sampled(w, lat);
    const Name name = acquire(w, lat, span, op);
    if (name < 0) return;
    w.note_acquired(1);
    release(w, ring[w.id].v.rotate(name), lat, span, op);
  }

  void teardown(Worker& w) {
    for (Name& slot : ring[w.id].v.names) {
      release(w, slot, false, false, 0);
      slot = -1;
    }
  }
};

}  // namespace

PassResult run_reuse_churn(const PassConfig& cfg) {
  PassResult out(cfg.total_slices());
  const unsigned threads = closed_loop_threads();
  for (int rep = 0; rep < cfg.episodes; ++rep) {
    auto registry = cfg.traced ? std::make_unique<MetricsRegistry>() : nullptr;
    Window window(cfg.episode_seconds());
    auto workers = make_workers(threads, cfg.traced, window);
    TracedMonitor mon(registry.get(), window);

    if (rep == 0) out.rss_base_kib = current_rss_kib();
    const std::uint64_t t0 = now_ns();
    loren::RenamingService svc(kReuseN, service_options(cfg.seed, registry.get()));
    std::unique_ptr<HeldBitmap> held;
    if (cfg.traced) held = std::make_unique<HeldBitmap>(svc.capacity());
    ReuseLoop loop(svc, held.get(), threads);
    const EpisodeResult e = run_episode(loop, workers, window, t0, kReuseWarmup, mon.hooks());
    finish_episode(out, e, workers, rep * window.slices, svc.names_live(), "reuse-churn");
    if (registry != nullptr) {
      const MetricsSnapshot after = registry->snapshot();
      service_layer_metrics(SnapshotDelta(mon.before, after), "service",
                            static_cast<double>(e.names), out);
      out.absorb(mon.main, 0);
      service_span_metrics(out);
    }
  }
  return out;
}

PassResult run_full_scatter(const PassConfig& cfg) {
  PassResult out(cfg.total_slices());
  const unsigned threads = closed_loop_threads();
  for (int rep = 0; rep < cfg.episodes; ++rep) {
    auto registry = cfg.traced ? std::make_unique<MetricsRegistry>() : nullptr;
    Window window(cfg.episode_seconds());
    auto workers = make_workers(threads, cfg.traced, window);
    TracedMonitor mon(registry.get(), window);

    if (rep == 0) out.rss_base_kib = current_rss_kib();
    const std::uint64_t t0 = now_ns();
    auto svc = std::make_unique<loren::RenamingService>(
        kScatterN, service_options(cfg.seed, registry.get()));
    const std::uint64_t cap = svc->capacity();
    std::unique_ptr<HeldBitmap> held;
    if (cfg.traced) held = std::make_unique<HeldBitmap>(cap);
    Worker setup_worker(999, false, window);
    // Fill every name, then free a uniform random 1/16 of them.
    std::vector<Name> buf(kFillChunk);
    std::uint64_t filled = 0;
    for (;;) {
      const std::uint64_t got = svc->acquire_many(kFillChunk, buf.data());
      if (got == 0) break;
      filled += got;
      for (std::uint64_t i = 0; i < got; ++i) {
        if (buf[i] < 0 || static_cast<std::uint64_t>(buf[i]) >= cap) {
          setup_worker.error("fill: acquire_many issued " + std::to_string(buf[i]));
        } else if (held != nullptr) {
          held->claim(buf[i], setup_worker);
        }
      }
    }
    if (filled != cap) {
      setup_worker.error("fill: acquired " + std::to_string(filled) + " of " +
                         std::to_string(cap) + " names");
    }
    const std::vector<Name> victims = scatter_victims(cfg.seed, cap);
    std::vector<std::uint8_t> is_victim(cap, 0);
    for (const Name v : victims) {
      is_victim[static_cast<std::uint64_t>(v)] = 1;
      if (held != nullptr) held->drop(v, setup_worker);
    }
    if (svc->release_many(victims.data(), victims.size()) != victims.size()) {
      setup_worker.error("set-up: release_many of the victims fell short");
    }
    svc->flush_thread_cache();

    ScatterLoop loop(*svc, held.get(), threads, cfg.seed);
    const EpisodeResult e =
        run_episode(loop, workers, window, t0, kScatterWarmup, mon.hooks());
    std::optional<MetricsSnapshot> after;
    if (registry != nullptr) after = registry->snapshot();
    // Return the names the set-up held for the whole run.
    std::vector<Name> rest;
    rest.reserve(cap - victims.size());
    for (std::uint64_t i = 0; i < cap; ++i) {
      if (is_victim[i] == 0) rest.push_back(static_cast<Name>(i));
    }
    if (svc->release_many(rest.data(), rest.size()) != rest.size()) {
      setup_worker.error("teardown: release_many of the held names fell short");
    }
    svc->flush_thread_cache();
    finish_episode(out, e, workers, rep * window.slices, svc->names_live(), "full-scatter");
    out.absorb(setup_worker, 0);
    if (after) {
      service_layer_metrics(SnapshotDelta(mon.before, *after), "service",
                            static_cast<double>(e.names), out);
      out.absorb(mon.main, 0);
      service_span_metrics(out);
    }
    out.counters["service.capacity"] = static_cast<double>(cap);
    out.counters["service.shards"] = static_cast<double>(svc->num_shards());
  }
  return out;
}

PassResult run_paper_model(const PassConfig& cfg) {
  PassResult out(cfg.total_slices());
  const unsigned threads = closed_loop_threads();
  for (int rep = 0; rep < cfg.episodes; ++rep) {
    Window window(cfg.episode_seconds());
    auto workers = make_workers(threads, cfg.traced, window);
    if (rep == 0) out.rss_base_kib = current_rss_kib();
    const std::uint64_t t0 = now_ns();
    loren::ConcurrentRenamer renamer(kPaperN, 0.5, loren::mix_seed(cfg.seed, 3));
    std::unique_ptr<HeldBitmap> held;
    if (cfg.traced) held = std::make_unique<HeldBitmap>(renamer.capacity());
    RenamerLoop loop(renamer, held.get(), threads);
    const EpisodeResult e = run_episode(loop, workers, window, t0, kPaperWarmup);
    finish_episode(out, e, workers, rep * window.slices, renamer.names_assigned(),
                   "paper-model");
  }
  return out;
}

std::uint64_t closed_inputs_hash(const std::string& workload, std::uint64_t seed) {
  // reuse-churn's only generated input is the service seed, paper-model's
  // the renamer seed; full-scatter adds its victim set and block sizes.
  if (workload == "paper-model") return loren::mix_seed(seed, 3);
  std::uint64_t h = loren::mix_seed(seed, 1);
  if (workload == "full-scatter") {
    const loren::RenamingService svc(kScatterN, service_options(seed, nullptr));
    for (const Name v : scatter_victims(seed, svc.capacity())) {
      h = loren::mix_seed(h, static_cast<std::uint64_t>(v));
    }
    for (const auto& sizes : scatter_block_sizes(seed, closed_loop_threads())) {
      for (const std::uint32_t k : sizes) h = loren::mix_seed(h, k);
    }
  }
  return h;
}

}  // namespace perfbench
