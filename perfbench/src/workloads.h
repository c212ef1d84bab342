// The four workloads, their configuration, and the helpers shared by the
// passes that run them. See perfbench/README.md for what each workload
// stresses and why.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/metrics.h"

namespace perfbench {

/// The holder counts the workloads size their namespaces for.
inline constexpr std::uint64_t kReuseN = 16384;
inline constexpr std::uint64_t kScatterN = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kElasticStartHolders = 256;
inline constexpr std::uint64_t kPaperN = std::uint64_t{1} << 16;

/// One pass of one workload: `episodes` set-ups, each on a fresh service
/// and measured for an equal share of `seconds`.
struct PassConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time, all episodes together
  bool traced = false;    // registry attached, spans, held-name bitmap
  int episodes = 1;

  [[nodiscard]] double episode_seconds() const { return seconds / episodes; }
  [[nodiscard]] std::uint64_t total_slices() const {
    return static_cast<std::uint64_t>(episodes) * Window(episode_seconds()).slices;
  }
};

PassResult run_reuse_churn(const PassConfig& cfg);
PassResult run_full_scatter(const PassConfig& cfg);
PassResult run_elastic_burst(const PassConfig& cfg);
PassResult run_paper_model(const PassConfig& cfg);

/// Hash of everything a workload generates from `seed` before timing
/// (service seeds, victim sets, arrival schedules), for the
/// reproducibility test.
std::uint64_t closed_inputs_hash(const std::string& workload, std::uint64_t seed);
std::uint64_t elastic_inputs_hash(std::uint64_t seed, double seconds);

/// The library's ReBatching (epsilon 0.5, default layout) renaming `n`
/// processes in the simulator, under the random or the collision
/// adversary, on a fixed seed.
SimCounts simulate_rebatching(std::uint64_t n, bool collision, std::uint64_t seed);

/// The paper-model counts a workload reports: paper-model simulates
/// n = 2^16 (random) and n = 2^12 (collision); a service workload
/// simulates the holder count each of its shards is laid out for.
struct PaperCounts {
  SimCounts random;
  SimCounts collision;
};
PaperCounts paper_counts(const std::string& workload);

/// Floor rows: the substrate, lease table and telemetry primitives driven
/// directly, the arenas filled to `occupancy`.
std::map<std::string, double> floor_rows(double occupancy, std::uint64_t seed);

// ----------------------------------------------------- registry deltas --

/// Difference of two registry snapshots, taken at the boundaries of a
/// measured window, so every ratio counts only that window's work.
class SnapshotDelta {
 public:
  SnapshotDelta(const loren::telemetry::MetricsSnapshot& before,
                const loren::telemetry::MetricsSnapshot& after)
      : before_(before), after_(after) {}
  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] loren::telemetry::HistogramSnapshot histogram(
      const std::string& name) const;

 private:
  const loren::telemetry::MetricsSnapshot& before_;
  const loren::telemetry::MetricsSnapshot& after_;
};

/// Per-layer values every service records the same way, from the
/// registry delta of a traced pass: `prefix` is "service" or "elastic".
void service_layer_metrics(const SnapshotDelta& d, const std::string& prefix,
                           double names, PassResult& out);

/// Mean duration (ns) of the recorded spans named `name`.
double span_mean_ns(const std::vector<Span>& spans, std::uint32_t name);

/// Shared-names bitmap for the traced pass: flags a name issued twice
/// while held, or released while not held.
class HeldBitmap {
 public:
  explicit HeldBitmap(std::uint64_t bits);
  void claim(std::int64_t name, Worker& w);
  void drop(std::int64_t name, Worker& w);

 private:
  std::uint64_t bits_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
};

}  // namespace perfbench
