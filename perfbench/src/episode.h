// The episode runner every workload runs on: worker threads call
// Loop::step() until the measured window closes. In the closed loops
// (reuse-churn, full-scatter, paper-model) a step is one operation, sent
// only after the previous one returned; elastic-burst's generators step
// through their arrival schedule instead.
//
// An episode is one set-up and one measured window on a fresh service.
// Set-up runs from the caller's `setup_start_ns` (taken before the service
// was constructed) until every worker has prefilled and finished its
// warm-up steps, so it covers construction, prefill and warm-up. A pass
// runs several episodes and cuts each window into slices; percentiles are
// medians across all the slices, throughput is names over the measured
// time of all the episodes. Several service instances keep one instance's
// unlucky memory placement, and slices keep short host stalls, from
// moving the result.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "harness.h"
#include "telemetry/metrics.h"

namespace perfbench {

struct EpisodeResult {
  double setup_s = 0.0;
  std::vector<double> slice_rates;  // names acquired per second, per slice
  double seconds = 0.0;
  std::uint64_t names = 0;  // names acquired in the measured window
};

/// Callbacks the monitor runs on its own thread: `on_start` just before
/// the measured window opens, `at_slice` after each slice.
struct MonitorHooks {
  std::function<void()> on_start;
  std::function<void()> at_slice;
};

/// The traced pass's monitor hooks: a registry snapshot when the window
/// opens (the base of every per-layer delta) and one after every slice,
/// timed as a telemetry.snapshot span. With no registry (an untraced pass)
/// it does nothing.
struct TracedMonitor {
  TracedMonitor(loren::telemetry::MetricsRegistry* r, const Window& w)
      : registry(r), main(1000, r != nullptr, w) {}
  loren::telemetry::MetricsRegistry* registry;
  Worker main;  // the monitor thread's spans
  loren::telemetry::MetricsSnapshot before;

  MonitorHooks hooks() {
    if (registry == nullptr) return {};
    return {[this] { before = registry->snapshot(); },
            [this] {
              ScopedSpan s(main.spans, true, kSpanSnapshot, 0, 0);
              (void)registry->snapshot();
            }};
  }
};

/// Measures the progress of `workers` over `window`, slice by slice;
/// `start` releases them.
void measure_slices(const std::vector<std::unique_ptr<Worker>>& workers, Window& window,
                    const std::function<void()>& start, const MonitorHooks& hooks,
                    EpisodeResult& out);

std::vector<std::unique_ptr<Worker>> make_workers(unsigned count, bool tracing,
                                                  const Window& window);

/// Common tail of an episode: records its set-up time and slices, checks
/// that the service holds no names once the workers flushed, and folds the
/// workers in at `slice_offset`.
void finish_episode(PassResult& out, const EpisodeResult& e,
                    const std::vector<std::unique_ptr<Worker>>& workers,
                    std::uint64_t slice_offset, std::uint64_t names_live,
                    const std::string& what);

/// `Loop` provides prefill(Worker&), step(Worker&) and teardown(Worker&);
/// step() acquires and releases some names and may be called from
/// several threads at once (each with its own Worker). `window` is the one
/// the workers were made with.
template <class Loop>
EpisodeResult run_episode(Loop& loop, std::vector<std::unique_ptr<Worker>>& workers,
                          Window& window, std::uint64_t setup_start_ns,
                          std::uint64_t warmup_steps, const MonitorHooks& hooks = {}) {
  enum : int { kWait = 0, kRun = 1, kStop = 2 };
  std::atomic<std::size_t> ready{0};
  std::atomic<int> phase{kWait};
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (auto& wp : workers) {
    Worker* w = wp.get();
    threads.emplace_back([&loop, &ready, &phase, w, warmup_steps] {
      try {
        loop.prefill(*w);
        for (std::uint64_t k = 0; k < warmup_steps; ++k) loop.step(*w);
      } catch (const std::exception& e) {
        w->error(std::string("set-up: ") + e.what());
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (phase.load(std::memory_order_acquire) == kWait) std::this_thread::yield();
      try {
        while (phase.load(std::memory_order_relaxed) == kRun) loop.step(*w);
        loop.teardown(*w);
      } catch (const std::exception& e) {
        w->error(std::string("run: ") + e.what());
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < workers.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EpisodeResult r;
  r.setup_s = static_cast<double>(now_ns() - setup_start_ns) * 1e-9;
  measure_slices(
      workers, window, [&phase] { phase.store(kRun, std::memory_order_release); }, hooks, r);
  phase.store(kStop, std::memory_order_release);
  for (auto& t : threads) t.join();
  return r;
}

}  // namespace perfbench
