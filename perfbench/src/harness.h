// Shared machinery of the benchmark: clocks, the sampled latency
// histogram, the span tracer, per-thread worker state, the run report and
// the small statistics helpers every workload uses.
//
// Nothing here touches the library; the workloads (workloads.h) drive the
// library's public surfaces and use these types to time and record them.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ time --

/// Nanoseconds on the steady clock (one vDSO call).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy-waits until `deadline_ns` on the steady clock. The open-loop
/// generators wait this way, each pinned to a core of its own: a sleeping
/// generator's core goes idle and its wake-up is late by the host's
/// (virtualized, load-dependent) wake latency, which moved the latency
/// tails between runs by up to 100x.
void spin_until(std::uint64_t deadline_ns);
/// Sleeps until `deadline_ns` on the steady clock.
void sleep_until(std::uint64_t deadline_ns);

/// Pins the calling thread to the `index`-th CPU it may run on (modulo
/// their count). Pinned workers do not migrate, so two of them never end
/// up time-sharing one core while another idles.
void pin_to_cpu(unsigned index);

/// TSC ticks per nanosecond of the library's telemetry clock
/// (telemetry::trace_ticks), measured once per process against the steady
/// clock. The lease TTL and the controller's latency target are set in
/// those ticks.
double ticks_per_ns();

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v);
/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q);

/// Log-linear latency histogram: exact below 32 ns, then 16 buckets per
/// power of two (6.25% relative width). Quantiles interpolate within the
/// bucket holding the target rank, so a percentile keeps its measured
/// digits instead of snapping to a bucket edge.
class LatencyHist {
 public:
  LatencyHist();
  void record(std::uint64_t ns) {
    ++counts_[bucket(ns)];
    ++count_;
  }
  void merge(const LatencyHist& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr unsigned kSubBits = 4;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits) * kSub + 2 * kSub;
  static std::size_t bucket(std::uint64_t v);
  static std::uint64_t bucket_low(std::size_t b);
  static std::uint64_t bucket_width(std::size_t b);

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

// --------------------------------------------------------------- tracing --

/// One span: a timed call into a library surface, recorded by the
/// benchmark around the call. `parent` is the id of the enclosing span (0
/// for a root); spans of one benchmark operation share `op`.
struct Span {
  std::uint32_t name = 0;  // a SpanName
  std::uint32_t thread = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// The span names the workloads record (a fixed table keeps spans small).
enum SpanName : std::uint32_t {
  kSpanCycle,         // bench.cycle: one acquire + release of a closed loop
  kSpanBlock,         // bench.block: one full-scatter block
  kSpanArrival,       // bench.arrival: one open-loop arrival
  kSpanAcquire,       // service.acquire
  kSpanRelease,       // service.release
  kSpanAcquireMany,   // service.acquire_many
  kSpanReleaseMany,   // service.release_many
  kSpanFlush,         // service.flush_thread_cache
  kSpanReap,          // service.reap_expired
  kSpanSnapshot,      // telemetry.snapshot
  kSpanGetName,       // renamer.get_name
  kSpanRenamerRelease,  // renamer.release
  kSpanCount,
};
const char* span_name(std::uint32_t name);

/// Per-thread, in-memory span buffer (bounded; spans past the cap are
/// counted, not kept). Written out once the run ends.
class SpanBuffer {
 public:
  static constexpr std::size_t kCap = 16384;
  SpanBuffer(bool enabled, std::uint32_t thread);
  /// Opens a span and returns its id (0 when tracing is off).
  std::uint64_t begin(std::uint32_t name, std::uint64_t parent, std::uint64_t op);
  void end(std::uint64_t id);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::uint64_t next_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Times one call as a span when `buf` is tracing and `on` is set.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buf, bool on, std::uint32_t name, std::uint64_t parent,
             std::uint64_t op)
      : buf_(buf), id_(on ? buf.begin(name, parent, op) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) buf_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanBuffer& buf_;
  std::uint64_t id_;
};

// ---------------------------------------------------------------- workers --

/// The measured window, cut into slices. Every percentile is computed per
/// slice and reported as a quantile across slices, so a short stall of the
/// host moves one slice, not the result. Throughput is names over the whole
/// measured time: on a shared host whose speed drifts, it spreads less from
/// run to run than the median slice rate does.
inline constexpr std::uint64_t kSliceNs = 500'000'000;

struct Window {
  explicit Window(double seconds)
      : slices(std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds * 1e9) / kSliceNs)) {}
  std::uint64_t slices;
  /// 0 until the monitor opens the window.
  std::atomic<std::uint64_t> start_ns{0};

  /// Slice holding time `t`, or `slices` when `t` lies outside the window.
  [[nodiscard]] std::uint64_t slice_of(std::uint64_t t) const {
    const std::uint64_t s = start_ns.load(std::memory_order_relaxed);
    if (s == 0 || t < s) return slices;
    const std::uint64_t i = (t - s) / kSliceNs;
    return i < slices ? i : slices;
  }
};

/// A latency distribution kept per slice of the window.
class SlicedLatency {
 public:
  explicit SlicedLatency(std::uint64_t slices) : slices_(slices) {}
  void record(std::uint64_t ns, std::uint64_t slice) {
    if (slice < slices_.size()) slices_[slice].record(ns);
  }
  /// Adds `other`'s slices into this one's from slice `offset` on.
  void merge(const SlicedLatency& other, std::uint64_t offset);
  /// Samples behind the percentiles.
  [[nodiscard]] std::uint64_t count() const;
  /// The `across`-quantile (by default the median), over non-empty slices,
  /// of each slice's q-quantile.
  [[nodiscard]] double quantile(double q, double across = 0.5) const;

 private:
  std::vector<LatencyHist> slices_;
};

/// One worker thread's private state. The progress word is single-writer
/// (the owning thread stores, the monitor loads), so progress costs a
/// plain store per op.
struct alignas(64) Worker {
  Worker(std::uint32_t index, bool tracing, const Window& w)
      : id(index), window(w), acquire_ns(w.slices), release_ns(w.slices),
        late_ns(w.slices), spans(tracing, index) {}
  std::uint32_t id;
  const Window& window;
  std::atomic<std::uint64_t> acquired{0};  // names acquired so far
  std::uint64_t ops = 0;                   // operations started (span op ids)
  std::uint64_t attempted = 0;             // names requested
  std::uint64_t failed = 0;                // failed names + failed releases
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL * (id + 1);  // sampling draws
  SlicedLatency acquire_ns;
  SlicedLatency release_ns;
  SlicedLatency late_ns;                   // open-loop generator lateness
  SpanBuffer spans;
  std::vector<std::string> errors;

  void note_acquired(std::uint64_t k) {
    acquired.store(acquired.load(std::memory_order_relaxed) + k,
                   std::memory_order_relaxed);
  }
  /// True on a random 1/`every` of calls (`every` a power of two). Random,
  /// not every k-th call, so samples never alias with the library's own
  /// periodic work: stash windows, telemetry sampling, lease and
  /// controller polls.
  bool sample(std::uint64_t every) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return (rng & (every - 1)) == 0;
  }
  void error(std::string msg) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }
};

/// Per-worker loop state, one cache line apart from its neighbours', so
/// the benchmark's own bookkeeping never false-shares between workers.
template <class T>
struct alignas(64) PerWorker {
  T v{};
};

/// Latency is sampled on a random one call in kLatencyEvery, spans on one
/// in kSpanEvery (both per thread).
inline constexpr std::uint64_t kLatencyEvery = 64;
inline constexpr std::uint64_t kSpanEvery = 4096;

/// Calls `f`, recording its latency in `h` (in the slice of its end) when
/// `on`.
template <class F>
auto timed(const Worker& w, SlicedLatency& h, bool on, F&& f) {
  if (!on) return f();
  const std::uint64_t t0 = now_ns();
  auto r = f();
  const std::uint64_t t1 = now_ns();
  h.record(t1 - t0, w.window.slice_of(t1));
  return r;
}

// ---------------------------------------------------------------- report --

/// What one pass of a workload measured, over all its episodes: slice k of
/// episode e is slice e * (slices per episode) + k here.
struct PassResult {
  explicit PassResult(std::uint64_t slices)
      : acquire_ns(slices), release_ns(slices), late_ns(slices) {}
  double acquires_per_s = 0.0;  // names / seconds
  std::vector<double> slice_rates;
  std::uint64_t names = 0;
  SlicedLatency acquire_ns;
  SlicedLatency release_ns;
  SlicedLatency late_ns;
  /// Resident set just before the first set-up (mem_mib's base).
  std::uint64_t rss_base_kib = 0;
  std::vector<double> setup_s;
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  /// Per-layer values this pass measured (traced passes).
  std::map<std::string, double> layer;
  /// Counter deltas and service facts written to the trace file.
  std::map<std::string, double> counters;

  /// Folds a finished worker into the pass, its slices from `slice_offset`
  /// on.
  void absorb(const Worker& w, std::uint64_t slice_offset);
  void error(std::string msg) {
    ++failed;
    errors.push_back(std::move(msg));
  }
};

/// Exact paper-model counts from the simulator.
struct SimCounts {
  std::uint64_t n = 0;
  std::uint64_t processes = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t max_steps = 0;
  std::int64_t max_name = -1;
  double host_s = 0.0;
  bool correct = false;
};

// ----------------------------------------------------------------- host --

/// Peak and current resident set of this process, in KiB (/proc).
std::uint64_t peak_rss_kib();
std::uint64_t current_rss_kib();
unsigned host_nproc();
std::string cpu_model();

/// min(4, nproc): the closed-loop thread count.
unsigned closed_loop_threads();

}  // namespace perfbench
