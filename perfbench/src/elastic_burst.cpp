// elastic-burst: ElasticRenamingService with every optional layer on
// (auto-grow, auto-shrink, leases, an attached registry, control in
// kAdapt), driven open-loop by three generator threads whose Poisson
// arrivals alternate calm phases with 10x bursts, plus a fourth thread that
// regularly starts a short-lived holder which exits while holding names.

#include <cmath>
#include <deque>
#include <thread>

#include "episode.h"
#include "elastic/elastic_service.h"
#include "platform/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using loren::sim::Name;
using loren::telemetry::MetricsRegistry;
using loren::telemetry::MetricsSnapshot;

constexpr std::uint64_t kMaxHolders = std::uint64_t{1} << 16;
constexpr unsigned kGenerators = 3;
constexpr double kCalmRate = 2'000.0;  // arrivals per second per generator
constexpr double kBurstFactor = 10.0;
constexpr std::uint64_t kPeriodNs = 250'000'000;  // one calm phase + one burst
constexpr std::uint64_t kCalmNs = 200'000'000;
constexpr std::uint64_t kHoldNs = 5'000'000;
constexpr std::uint32_t kMaxBatch = 32;
constexpr double kZipfS = 1.5;
constexpr std::uint64_t kAbandonEveryNs = 20'000'000;
constexpr std::uint32_t kAbandonNames = 8;
constexpr double kLeaseTtlNs = 50e6;
constexpr double kLeaseGraceNs = 50e6;
constexpr std::uint64_t kHeldBits = std::uint64_t{1} << 22;
constexpr std::uint32_t kWarmupRounds = 16;
constexpr std::uint32_t kWarmupNames = 1024;

struct Arrival {
  std::uint64_t due_ns;  // offset from the start of the measured window
  std::uint32_t k;       // names requested
};

double uniform01(loren::Xoshiro256& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// One generator's arrivals over an episode of `seconds` (rounded to the
/// whole slices its window measures): a Poisson process whose rate is
/// kCalmRate in the calm part of every period and kBurstFactor times that
/// in its burst, each arrival asking for a zipf(kZipfS)-sized batch of at
/// most kMaxBatch names.
std::vector<Arrival> make_schedule(std::uint64_t seed, unsigned generator, double seconds) {
  loren::Xoshiro256 rng(loren::mix_seed(seed, 10 + generator));
  std::vector<double> cdf(kMaxBatch);
  double total = 0.0;
  for (std::uint32_t k = 1; k <= kMaxBatch; ++k) {
    total += std::pow(static_cast<double>(k), -kZipfS);
    cdf[k - 1] = total;
  }
  const std::uint64_t window = Window(seconds).slices * kSliceNs;
  std::vector<Arrival> out;
  std::uint64_t t = 0;
  while (t < window) {
    const std::uint64_t pos = t % kPeriodNs;
    const bool burst = pos >= kCalmNs;
    const double rate = burst ? kCalmRate * kBurstFactor : kCalmRate;
    const std::uint64_t boundary = t - pos + (burst ? kPeriodNs : kCalmNs);
    const double gap = -std::log(1.0 - uniform01(rng)) / rate * 1e9;
    if (static_cast<double>(t) + gap >= static_cast<double>(boundary)) {
      t = boundary;  // memoryless: restart at the phase edge with its rate
      continue;
    }
    t += static_cast<std::uint64_t>(gap);
    const double u = uniform01(rng) * total;
    std::uint32_t k = 1;
    while (k < kMaxBatch && cdf[k - 1] < u) ++k;
    if (t < window) out.push_back({t, k});
  }
  return out;
}

struct Held {
  std::uint64_t due_ns;
  std::uint32_t count;
  std::array<Name, kMaxBatch> names;
};

struct GeneratorState {
  std::deque<Held> pending;  // acquired batches, in release order
  std::size_t next = 0;      // next arrival in the schedule
  std::uint64_t max_cap = 0;  // largest capacity() seen (the name bound)
  std::uint64_t groups_max = 0;
  std::uint64_t footprint_max = 0;
  bool parked = false;  // schedule done and stash flushed
};

struct ElasticLoop {
  loren::ElasticRenamingService& svc;
  HeldBitmap* held;
  const std::vector<std::vector<Arrival>>& schedule;
  const Window& window;
  std::atomic<std::uint64_t> abandoned{0};
  std::vector<PerWorker<GeneratorState>> gen;  // indexed by worker id
  std::uint64_t abandon_ticks = 0;

  ElasticLoop(loren::ElasticRenamingService& s, HeldBitmap* h,
              const std::vector<std::vector<Arrival>>& sched, const Window& win)
      : svc(s), held(h), schedule(sched), window(win),
        gen(kGenerators) {}

  /// Warm-up: every generator grows the namespace past its start size and
  /// drains it again, kWarmupRounds times.
  void prefill(Worker& w) {
    if (w.id >= kGenerators) return;
    // One core per spinning generator, leaving the first core to the
    // abandoning holders and the monitor when the host has one to spare.
    pin_to_cpu(host_nproc() > kGenerators ? w.id + 1 : w.id);
    std::vector<Name> names(kWarmupNames);
    for (std::uint32_t r = 0; r < kWarmupRounds; ++r) {
      const std::uint32_t got = take(w, kWarmupNames, names.data(), false, 0, 0);
      if (held != nullptr) {
        for (std::uint32_t j = 0; j < got; ++j) held->drop(names[j], w);
      }
      if (svc.release_many(names.data(), got) != got) w.error("warm-up: release_many fell short");
    }
  }

  /// Acquires `k` names into `out` through acquire_many, each call capped
  /// at the controller's live batch_limit() (kAdapt clamps a larger
  /// request to it) and looping for the remainder. Checks every name.
  /// Returns how many it got; a call that returns none counts the rest as
  /// failed.
  std::uint32_t take(Worker& w, std::uint32_t k, Name* out, bool span, std::uint64_t parent,
                     std::uint64_t op) {
    GeneratorState& st = gen[w.id].v;
    w.attempted += k;
    std::uint32_t count = 0;
    while (count < k) {
      const std::uint64_t limit = std::max<std::uint32_t>(1, svc.controller()->batch_limit());
      const std::uint64_t want = std::min<std::uint64_t>(limit, k - count);
      const std::uint64_t cap_before = svc.capacity();
      std::uint64_t got = 0;
      {
        ScopedSpan s(w.spans, span, kSpanAcquireMany, parent, op);
        got = svc.acquire_many(want, out + count);
      }
      st.max_cap = std::max({st.max_cap, cap_before, svc.capacity()});
      for (std::uint64_t j = count; j < count + got; ++j) {
        if (out[j] < 0 || static_cast<std::uint64_t>(out[j]) >= st.max_cap) {
          w.error("acquire_many issued " + std::to_string(out[j]) + " >= capacity " +
                  std::to_string(st.max_cap));
        } else if (held != nullptr) {
          held->claim(out[j], w);
        }
      }
      count += static_cast<std::uint32_t>(got);
      if (got == 0) {
        w.error("acquire_many returned 0 of " + std::to_string(want));
        w.failed += k - count - 1;  // every missing name counts
        break;
      }
    }
    return count;
  }

  void step(Worker& w) {
    if (w.id < kGenerators) {
      generator_step(w);
    } else {
      abandon_step(w);
    }
  }

  void generator_step(Worker& w) {
    const std::uint64_t t0 = window.start_ns.load(std::memory_order_acquire);
    GeneratorState& st = gen[w.id].v;
    auto& q = st.pending;
    const auto& sched = schedule[w.id];
    std::size_t& i = st.next;
    const std::uint64_t next_arrival =
        i < sched.size() ? t0 + sched[i].due_ns : ~std::uint64_t{0};
    const std::uint64_t next_release = q.empty() ? ~std::uint64_t{0} : q.front().due_ns;
    if (next_arrival == ~std::uint64_t{0} && next_release == ~std::uint64_t{0}) {
      // Schedule done: park. A parked thread flushes its stash first, or
      // the reaper expires the stashed names' leases under it.
      if (!st.parked) svc.flush_thread_cache();
      st.parked = true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      return;
    }
    if (next_release <= next_arrival) {
      spin_until(next_release);
      release(w, q.front(), true);
      q.pop_front();
    } else {
      spin_until(next_arrival);
      arrive(w, sched[i], next_arrival);
      ++i;
    }
  }

  void arrive(Worker& w, const Arrival& a, std::uint64_t due) {
    GeneratorState& st = gen[w.id].v;
    const std::uint64_t start = now_ns();
    w.late_ns.record(start - due, w.window.slice_of(start));
    const std::uint64_t op = ++w.ops;
    const bool span = w.spans.enabled() && op % kLatencyEvery == 1;
    ScopedSpan arrival(w.spans, span, kSpanArrival, 0, op);
    Held h{};
    h.count = take(w, a.k, h.names.data(), span, arrival.id(), op);
    // Timed from the call, not from `due`: the lateness is recorded above
    // on its own, and a host stall would otherwise charge its whole
    // backlog to the service (see README.md).
    const std::uint64_t done = now_ns();
    w.acquire_ns.record(done - start, w.window.slice_of(done));
    w.note_acquired(h.count);
    if (span) {
      st.groups_max = std::max<std::uint64_t>(st.groups_max, svc.groups_in_flight());
      st.footprint_max = std::max(st.footprint_max, svc.footprint_bytes());
    }
    h.due_ns = done + kHoldNs;
    st.pending.push_back(h);
  }

  void release(Worker& w, const Held& h, bool measured) {
    if (held != nullptr) {
      for (std::uint32_t j = 0; j < h.count; ++j) held->drop(h.names[j], w);
    }
    const std::uint64_t op = ++w.ops;
    std::uint64_t freed = 0;
    const std::uint64_t start = now_ns();
    {
      ScopedSpan s(w.spans, measured && w.spans.enabled() && op % kLatencyEvery == 1,
                   kSpanReleaseMany, 0, op);
      freed = svc.release_many(h.names.data(), h.count);
    }
    if (measured) {
      const std::uint64_t t = now_ns();
      w.release_ns.record(t - start, w.window.slice_of(t));
    }
    if (freed != h.count) {
      w.error("release_many freed " + std::to_string(freed) + " of " + std::to_string(h.count));
    }
  }

  /// The fourth thread: every kAbandonEveryNs of the calm phases a holder
  /// thread takes kAbandonNames names and exits without releasing them;
  /// then one blocking reap pass. (Kept out of the bursts, where the
  /// short-lived thread would take a core from a busy generator.)
  void abandon_step(Worker& w) {
    const std::uint64_t t0 = window.start_ns.load(std::memory_order_acquire);
    std::uint64_t at = 0;
    do {
      at = ++abandon_ticks * kAbandonEveryNs;
    } while (at % kPeriodNs >= kCalmNs);
    sleep_until(t0 + at);
    std::thread holder([this, &w] {
      for (std::uint32_t j = 0; j < kAbandonNames; ++j) {
        ++w.attempted;
        const Name n = svc.acquire();
        if (n < 0) {
          w.error("abandoning holder: acquire() returned " + std::to_string(n));
        } else {
          abandoned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    holder.join();
    ScopedSpan s(w.spans, w.spans.enabled(), kSpanReap, 0, abandon_ticks);
    svc.reap_expired();
  }

  void teardown(Worker& w) {
    if (w.id >= kGenerators) return;
    for (const Held& h : gen[w.id].v.pending) release(w, h, false);
    gen[w.id].v.pending.clear();
    ScopedSpan s(w.spans, w.spans.enabled(), kSpanFlush, 0, 0);
    svc.flush_thread_cache();
  }
};

loren::ElasticOptions elastic_options(std::uint64_t seed, MetricsRegistry* registry) {
  loren::ElasticOptions o;
  o.max_holders = kMaxHolders;
  o.seed = loren::mix_seed(seed, 4);
  o.auto_grow = true;
  o.auto_shrink = true;
  o.telemetry.registry = registry;
  o.control.mode = loren::control::ControlMode::kAdapt;
  o.lease.ttl_ticks = static_cast<std::uint64_t>(kLeaseTtlNs * ticks_per_ns());
  o.lease.grace = static_cast<std::uint64_t>(kLeaseGraceNs * ticks_per_ns());
  return o;
}

std::uint64_t knob_moves(const std::vector<loren::control::AdaptiveController::WindowRecord>& h) {
  std::uint64_t moves = 0;
  for (std::size_t i = 1; i < h.size(); ++i) {
    moves += (h[i].batch != h[i - 1].batch) + (h[i].stash != h[i - 1].stash) +
             (h[i].grow != h[i - 1].grow) + (h[i].shrink != h[i - 1].shrink);
  }
  return moves;
}

}  // namespace

PassResult run_elastic_burst(const PassConfig& cfg) {
  PassResult out(cfg.total_slices());
  (void)ticks_per_ns();  // calibrate the lease clock before any timing
  // Every episode replays the same schedule.
  std::vector<std::vector<Arrival>> schedule;
  for (unsigned g = 0; g < kGenerators; ++g) {
    schedule.push_back(make_schedule(cfg.seed, g, cfg.episode_seconds()));
  }
  for (int rep = 0; rep < cfg.episodes; ++rep) {
    auto registry = std::make_unique<MetricsRegistry>();
    Window window(cfg.episode_seconds());
    auto workers = make_workers(kGenerators + 1, cfg.traced, window);
    std::unique_ptr<HeldBitmap> held;
    if (cfg.traced) held = std::make_unique<HeldBitmap>(kHeldBits);
    TracedMonitor mon(cfg.traced ? registry.get() : nullptr, window);

    if (rep == 0) out.rss_base_kib = current_rss_kib();
    const std::uint64_t t0 = now_ns();
    loren::ElasticRenamingService svc(kElasticStartHolders,
                                      elastic_options(cfg.seed, registry.get()));
    ElasticLoop loop(svc, held.get(), schedule, window);
    const EpisodeResult e = run_episode(loop, workers, window, t0, 0, mon.hooks());

    // Final drain: wait out ttl + grace so the abandoned holders' leases
    // go stale, then reap until every abandoned name came back.
    const std::uint64_t abandoned = loop.abandoned.load();
    const std::uint64_t drain_deadline =
        now_ns() + static_cast<std::uint64_t>(kLeaseTtlNs + kLeaseGraceNs) + 1'000'000'000;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::uint64_t>(kLeaseTtlNs + kLeaseGraceNs)));
    svc.reap_expired();
    while (svc.lease_expired() < abandoned && now_ns() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      svc.reap_expired();
    }
    const double expired = static_cast<double>(svc.lease_expired());
    const double recovered = abandoned == 0 ? 1.0 : expired / static_cast<double>(abandoned);
    if (svc.lease_guard_trips() != 0) {
      out.error("elastic-burst: " + std::to_string(svc.lease_guard_trips()) +
                " lease guard trips");
    }
    if (recovered < 0.99) {
      out.error("elastic-burst: lease recovered ratio " + std::to_string(recovered) +
                " (" + std::to_string(svc.lease_expired()) + " expired of " +
                std::to_string(abandoned) + " abandoned)");
    }
    finish_episode(out, e, workers, rep * window.slices, svc.names_live(), "elastic-burst");
    out.counters["lease.abandoned"] += static_cast<double>(abandoned);
    if (!cfg.traced) continue;
    const MetricsSnapshot after = registry->snapshot();
    const SnapshotDelta d(mon.before, after);
    const auto names = static_cast<double>(e.names);
    const auto per_k = [names](double v) { return names > 0 ? v * 1000.0 / names : 0.0; };
    service_layer_metrics(d, "elastic", names, out);
    out.absorb(mon.main, 0);
    auto& L = out.layer;
    L["renaming.service.acquire_ns_mean"] = span_mean_ns(out.spans, kSpanAcquireMany);
    L["renaming.service.release_many_ns_mean"] = span_mean_ns(out.spans, kSpanReleaseMany);
    L["renaming.stash.flush_ns_mean"] = span_mean_ns(out.spans, kSpanFlush);
    L["elastic.grows"] = d.counter("elastic.grow.events");
    L["elastic.shrinks"] = d.counter("elastic.shrink.events");
    L["elastic.reclaimed_groups"] = d.counter("elastic.reclaim.groups");
    L["elastic.epoch_advances"] = d.counter("elastic.epoch.advances");
    L["elastic.quiesce_ticks_p99"] =
        static_cast<double>(d.histogram("elastic.reclaim.quiesce_ticks").p99());
    std::uint64_t groups = 0;
    std::uint64_t footprint = 0;
    for (unsigned g = 0; g < kGenerators; ++g) {
      groups = std::max(groups, loop.gen[g].v.groups_max);
      footprint = std::max(footprint, loop.gen[g].v.footprint_max);
    }
    L["elastic.groups_in_flight_max"] = static_cast<double>(groups);
    L["elastic.footprint_mib_max"] = static_cast<double>(footprint) / (1024.0 * 1024.0);
    L["elastic.acquire_many_ns_mean"] = span_mean_ns(out.spans, kSpanAcquireMany);
    L["elastic.release_many_ns_mean"] = span_mean_ns(out.spans, kSpanReleaseMany);
    L["lease.opened_per_kacq"] = per_k(d.counter("lease.opened"));
    L["lease.renewals_per_kacq"] = per_k(d.counter("lease.renewals"));
    L["lease.expired"] = expired;
    L["lease.recovered_ratio"] = recovered;
    L["lease.guard_trips"] = static_cast<double>(svc.lease_guard_trips());
    L["lease.reap_late_ticks_p99"] =
        static_cast<double>(d.histogram("lease.reap_late_ticks").p99());
    L["lease.reap_ns_mean"] = span_mean_ns(out.spans, kSpanReap);
    const auto* ctrl = svc.controller();
    L["control.windows"] = static_cast<double>(ctrl->windows());
    L["control.knob_moves"] = static_cast<double>(knob_moves(ctrl->history()));
    L["control.shed_ratio"] =
        out.attempted > 0 ? d.counter("control.shed") / static_cast<double>(out.attempted) : 0.0;
    L["control.saturation_per_kacq"] = per_k(d.counter("control.saturation"));
    L["control.batch_limit_final"] = static_cast<double>(ctrl->batch_limit());
    L["telemetry.snapshot_ms"] = span_mean_ns(out.spans, kSpanSnapshot) * 1e-6;
  }
  return out;
}

std::uint64_t elastic_inputs_hash(std::uint64_t seed, double seconds) {
  std::uint64_t h = loren::mix_seed(seed, 4);
  for (unsigned g = 0; g < kGenerators; ++g) {
    for (const Arrival& a : make_schedule(seed, g, seconds)) {
      h = loren::mix_seed(h, a.due_ns * 64 + a.k);
    }
  }
  return h;
}

}  // namespace perfbench
