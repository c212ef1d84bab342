// MetricsRegistry cold paths: metric interning, per-thread stripe
// registration, snapshot summation, exposition.
#include "telemetry/metrics.h"

#include <ostream>

// PerServiceTable / next_service_instance_id / ServiceDirectory are the
// generic per-(thread, instance) plumbing the services already use; the
// registry keys its thread-local stripe cache the same way — by
// process-unique instance id, never `this`, so a registry constructed at
// a dead registry's recycled address can never inherit stale stripe
// pointers — and finds a live registry to retire a stripe into through
// the same directory the services' exit flush uses.
#include "renaming/service_directory.h"
#include "renaming/thread_ctx.h"

namespace loren::telemetry {

namespace {

/// The calling thread's stripe per registry. Its destructor, at thread
/// exit, retires each stripe into its registry; a registry already
/// destroyed has left the directory, and the flush is a no-op.
struct StripeTable {
  PerServiceTable<MetricsRegistry::ThreadStripe*> stripes;

  StripeTable() = default;
  StripeTable(const StripeTable&) = delete;
  StripeTable& operator=(const StripeTable&) = delete;
  ~StripeTable() {
    stripes.for_each([](std::uint64_t id, MetricsRegistry::ThreadStripe*& s) {
      if (s != nullptr) ServiceDirectory::instance().flush(id, s);
    });
  }
};

StripeTable& tls_stripes() {
  thread_local StripeTable table;
  return table;
}

std::uint64_t pct_index(std::uint64_t count, double q) {
  // Index (1-based rank) of the q-quantile sample; clamped to [1, count].
  const double r = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(r);
  if (static_cast<double>(rank) < r) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  return rank;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  const std::uint64_t rank = pct_index(count, q);
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return bucket_upper_edge(b);
  }
  return bucket_upper_edge(kHistogramBuckets - 1);
}

const CounterSnapshot* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry() : id_(next_service_instance_id()) {
  ServiceDirectory::instance().register_service(id_, this,
                                                &MetricsRegistry::retire_stripe);
}

// Leaving the directory first blocks until in-flight retires drain; after
// it, an exiting thread's table finds the registry gone.
MetricsRegistry::~MetricsRegistry() {
  ServiceDirectory::instance().unregister_service(id_);
}

void MetricsRegistry::retire_stripe(void* registry, void* stripe) {
  static_cast<MetricsRegistry*>(registry)->stripes_.retire(
      *static_cast<ThreadStripe*>(stripe));
}

void MetricsRegistry::anchor_thread_stripes() { tls_stripes(); }

MetricId MetricsRegistry::intern(std::vector<std::string>& names,
                                 std::uint32_t cap, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<MetricId>(i);
  }
  if (names.size() >= cap) {
    // Overflow sink: the cap'th-and-later distinct names share the last
    // slot. Observability must degrade, not abort.
    return static_cast<MetricId>(cap - 1);
  }
  names.emplace_back(name);
  return static_cast<MetricId>(names.size() - 1);
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return intern(counter_names_, kMaxCounters, name);
}

MetricId MetricsRegistry::histogram(std::string_view name) {
  return intern(hist_names_, kMaxHistograms, name);
}

MetricsRegistry::ThreadStripe& MetricsRegistry::stripe() {
  ThreadStripe*& cached =
      tls_stripes().stripes.for_service(id_, [](ThreadStripe*&) {});
  if (cached == nullptr) cached = &stripes_.acquire();
  return *cached;
}

std::uint64_t MetricsRegistry::counter_value(MetricId c) const {
  std::uint64_t total = 0;
  stripes_.for_each([&](const ThreadStripe& s) {
    total += s.counters_[c].load(std::memory_order_relaxed);
  });
  return total;
}

HistogramSnapshot MetricsRegistry::histogram_value(MetricId h) const {
  HistogramSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (h < hist_names_.size()) out.name = hist_names_[h];
  }
  stripes_.for_each([&](const ThreadStripe& s) {
    const ThreadStripe::Hist& hs = s.hists_[h];
    out.count += hs.count.load(std::memory_order_relaxed);
    out.sum += hs.sum.load(std::memory_order_relaxed);
    for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
    }
  });
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.resize(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    snap.counters[i].name = counter_names_[i];
  }
  snap.histograms.resize(hist_names_.size());
  for (std::size_t i = 0; i < hist_names_.size(); ++i) {
    snap.histograms[i].name = hist_names_[i];
  }
  stripes_.for_each([&](const ThreadStripe& s) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].value +=
          s.counters_[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      const ThreadStripe::Hist& hs = s.hists_[i];
      HistogramSnapshot& out = snap.histograms[i];
      out.count += hs.count.load(std::memory_order_relaxed);
      out.sum += hs.sum.load(std::memory_order_relaxed);
      for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += hs.buckets[b].load(std::memory_order_relaxed);
      }
    }
  });
  return snap;
}

void MetricsRegistry::write_text(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& c : snap.counters) {
    os << c.name << ' ' << c.value << '\n';
  }
  for (const auto& h : snap.histograms) {
    os << h.name << "_count " << h.count << '\n';
    os << h.name << "_sum " << h.sum << '\n';
    os << h.name << "_p50 " << h.p50() << '\n';
    os << h.name << "_p99 " << h.p99() << '\n';
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& c : snap.counters) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape(os, c.name);
    os << "\":" << c.value;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& h : snap.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape(os, h.name);
    os << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"mean\":" << h.mean() << ",\"p50\":" << h.p50()
       << ",\"p99\":" << h.p99() << ",\"buckets\":[";
    bool bfirst = true;
    for (std::uint32_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      if (!bfirst) os << ',';
      bfirst = false;
      os << '[' << b << ',' << h.buckets[b] << ']';
    }
    os << "]}";
  }
  os << "}}";
}

std::size_t MetricsRegistry::thread_count() const { return stripes_.size(); }

}  // namespace loren::telemetry
