#include "harness.h"

#include <sched.h>

#include <bit>
#include <cmath>
#include <fstream>
#include <thread>

#include "telemetry/trace.h"

namespace perfbench {

namespace {

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::uint64_t status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stoull(line.substr(prefix.size()));
  }
  return 0;
}

}  // namespace

void spin_until(std::uint64_t deadline_ns) {
  while (now_ns() < deadline_ns) cpu_relax();
}

void sleep_until(std::uint64_t deadline_ns) {
  const std::uint64_t now = now_ns();
  if (now < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

void pin_to_cpu(unsigned index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return;
  unsigned seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == index % static_cast<unsigned>(count)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double ticks_per_ns() {
  static const double ratio = [] {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t k0 = loren::telemetry::trace_ticks();
    while (now_ns() - t0 < 20'000'000) cpu_relax();
    const std::uint64_t t1 = now_ns();
    const std::uint64_t k1 = loren::telemetry::trace_ticks();
    return static_cast<double>(k1 - k0) / static_cast<double>(t1 - t0);
  }();
  return ratio;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ------------------------------------------------------------ LatencyHist --

LatencyHist::LatencyHist() : counts_(kBuckets, 0) {}

std::size_t LatencyHist::bucket(std::uint64_t v) {
  if (v < 2 * kSub) return static_cast<std::size_t>(v);
  const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
  const std::uint64_t top = v >> shift;  // in [kSub, 2 kSub)
  return static_cast<std::size_t>(2 * kSub + (shift - 1) * kSub + (top - kSub));
}

std::uint64_t LatencyHist::bucket_low(std::size_t b) {
  if (b < 2 * kSub) return b;
  const std::uint64_t shift = (b - 2 * kSub) / kSub + 1;
  const std::uint64_t top = (b - 2 * kSub) % kSub + kSub;
  return top << shift;
}

std::uint64_t LatencyHist::bucket_width(std::size_t b) {
  if (b < 2 * kSub) return 1;
  return std::uint64_t{1} << ((b - 2 * kSub) / kSub + 1);
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
}

double LatencyHist::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const auto c = static_cast<double>(counts_[b]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double frac = (target - cum) / c;
      return static_cast<double>(bucket_low(b)) +
             frac * static_cast<double>(bucket_width(b));
    }
    cum += c;
  }
  return 0.0;
}

void SlicedLatency::merge(const SlicedLatency& other, std::uint64_t offset) {
  for (std::size_t i = 0; i < other.slices_.size() && offset + i < slices_.size(); ++i) {
    slices_[offset + i].merge(other.slices_[i]);
  }
}

std::uint64_t SlicedLatency::count() const {
  std::uint64_t n = 0;
  for (const LatencyHist& h : slices_) n += h.count();
  return n;
}

double SlicedLatency::quantile(double q, double across) const {
  std::vector<double> per_slice;
  for (const LatencyHist& h : slices_) {
    if (h.count() != 0) per_slice.push_back(h.quantile(q));
  }
  return perfbench::quantile(std::move(per_slice), across);
}

// ----------------------------------------------------------------- spans --

const char* span_name(std::uint32_t name) {
  static const char* const kNames[kSpanCount] = {
      "bench.cycle",           "bench.block",          "bench.arrival",
      "service.acquire",       "service.release",      "service.acquire_many",
      "service.release_many",  "service.flush_thread_cache",
      "service.reap_expired",  "telemetry.snapshot",   "renamer.get_name",
      "renamer.release",
  };
  return name < kSpanCount ? kNames[name] : "unknown";
}

SpanBuffer::SpanBuffer(bool enabled, std::uint32_t thread)
    : enabled_(enabled), thread_(thread) {
  if (enabled_) spans_.reserve(kCap);
}

std::uint64_t SpanBuffer::begin(std::uint32_t name, std::uint64_t parent,
                                std::uint64_t op) {
  if (!enabled_) return 0;
  if (spans_.size() >= kCap) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.name = name;
  s.thread = thread_;
  s.id = (static_cast<std::uint64_t>(thread_) << 40) | next_++;
  s.parent = parent;
  s.op = op;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

void SpanBuffer::end(std::uint64_t id) {
  const std::uint64_t t = now_ns();
  // Spans close in LIFO order, so the open span is near the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = t;
      return;
    }
  }
}

// ---------------------------------------------------------------- report --

void PassResult::absorb(const Worker& w, std::uint64_t slice_offset) {
  acquire_ns.merge(w.acquire_ns, slice_offset);
  release_ns.merge(w.release_ns, slice_offset);
  late_ns.merge(w.late_ns, slice_offset);
  attempted += w.attempted;
  failed += w.failed;
  for (const auto& e : w.errors) errors.push_back(e);
  spans.insert(spans.end(), w.spans.spans().begin(), w.spans.spans().end());
  spans_dropped += w.spans.dropped();
}

// ------------------------------------------------------------------ host --

std::uint64_t peak_rss_kib() { return status_kib("VmHWM"); }
std::uint64_t current_rss_kib() { return status_kib("VmRSS"); }

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

unsigned closed_loop_threads() { return std::min(4u, host_nproc()); }

}  // namespace perfbench
