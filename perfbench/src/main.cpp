// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//   perfbench --inputs --workload <name> --seed <n> [--seconds <s>]
//
// --trace 0 runs the workload once with tracing off and prints the
// end-to-end metrics; --trace 1 runs an untraced and a traced pass of half
// the time each and prints the per-layer metrics, writing the traced
// pass's spans and counters to <trace-dir>. --inputs prints the hash of
// the generated inputs and the simulator counts, for the reproducibility
// test. The last line of stdout is always the JSON result; the exit code
// is non-zero when any correctness check failed.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"acquires_per_s", "1/s"},  {"acquire_p50_ns", "ns"}, {"acquire_p99_ns", "ns"},
    {"release_p50_ns", "ns"},   {"release_p99_ns", "ns"}, {"setup_s", "s"},
    {"mem_mib", "MiB"},         {"steps_max", "count"},  {"steps_mean", "count"},
    {"name_span_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"tas.cell_claim_ns", "ns"},
    {"tas.word_claim_ns", "ns"},
    {"tas.cell_win_ratio", "ratio"},
    {"tas.word_win_ratio", "ratio"},
    {"tas.release_ns", "ns"},
    {"tas.claim_run_ns_per_name", "ns"},
    {"tas.lost_races_per_acquire", "count"},
    {"renaming.service.acquire_ns_mean", "ns"},
    {"renaming.service.release_ns_mean", "ns"},
    {"renaming.service.release_many_ns_mean", "ns"},
    {"renaming.service.probes_per_acquire_mean", "count"},
    {"renaming.service.probes_per_acquire_p99", "count"},
    {"renaming.service.sweeps_per_kacq", "count"},
    {"renaming.service.migrations_per_kacq", "count"},
    {"renaming.service.ring_walk_mean", "count"},
    {"renaming.stash.hit_rate", "ratio"},
    {"renaming.stash.spills_per_kacq", "count"},
    {"renaming.stash.flush_ns_mean", "ns"},
    {"elastic.grows", "count"},
    {"elastic.shrinks", "count"},
    {"elastic.reclaimed_groups", "count"},
    {"elastic.epoch_advances", "count"},
    {"elastic.quiesce_ticks_p99", "ticks"},
    {"elastic.groups_in_flight_max", "count"},
    {"elastic.footprint_mib_max", "MiB"},
    {"elastic.acquire_many_ns_mean", "ns"},
    {"elastic.release_many_ns_mean", "ns"},
    {"lease.opened_per_kacq", "count"},
    {"lease.renewals_per_kacq", "count"},
    {"lease.expired", "count"},
    {"lease.recovered_ratio", "ratio"},
    {"lease.guard_trips", "count"},
    {"lease.reap_late_ticks_p99", "ticks"},
    {"lease.open_close_ns", "ns"},
    {"lease.reap_ns_mean", "ns"},
    {"control.windows", "count"},
    {"control.knob_moves", "count"},
    {"control.shed_ratio", "ratio"},
    {"control.saturation_per_kacq", "count"},
    {"control.batch_limit_final", "count"},
    {"telemetry.record_ns", "ns"},
    {"telemetry.snapshot_ms", "ms"},
    {"sim.host_ns_per_step", "ns"},
    {"sim.steps_max.random", "count"},
    {"sim.steps_max.collision", "count"},
    {"sim.steps_mean.random", "count"},
    {"sim.steps_mean.collision", "count"},
    {"bench.gen_late_p99_ns", "ns"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.samples", "count"},
    {"fail_ratio", "ratio"},
};

/// Episodes (set-up + measured share of --seconds) per untraced run;
/// setup_s is the median of their set-up times.
constexpr int kEpisodes = 5;

/// The p99s report the lower quartile across slices of each slice's p99,
/// the p50s the median. A slice's p99 has a heavy right tail of its own
/// (on full-scatter the 90th-percentile slice's release p99 read up to
/// 1.8x the median slice's), and runs where such slices neared half the
/// window moved the median-slice p99 by 30% between runs.
constexpr double kTailAcrossSlices = 0.25;

const char* const kWorkloads[] = {"reuse-churn", "full-scatter", "elastic-burst",
                                  "paper-model"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inputs = false;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--inputs]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--trace-dir") {
      a.trace_dir = value();
    } else if (k == "--inputs") {
      a.inputs = true;
    } else {
      usage("unknown argument " + k);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) usage("--seconds must be in (0, 120]");
  return a;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Threads a workload runs, and the floor rows' occupancy.
unsigned workload_threads(const std::string& w) {
  return w == "elastic-burst" ? 4u : closed_loop_threads();
}
double workload_occupancy(const std::string& w) {
  if (w == "full-scatter") return 15.0 / 16.0;
  if (w == "elastic-burst") return 0.25;
  if (w == "paper-model") return 1.0 / 3.0;
  return 0.002;  // reuse-churn: 4 x 8 names held in ~24.6k cells
}

PassResult run_pass(const std::string& w, const PassConfig& cfg) {
  if (w == "reuse-churn") return run_reuse_churn(cfg);
  if (w == "full-scatter") return run_full_scatter(cfg);
  if (w == "elastic-burst") return run_elastic_burst(cfg);
  return run_paper_model(cfg);
}

std::string counts_json(const SimCounts& c) {
  std::ostringstream o;
  o << "{\"n\":" << c.n << ",\"total_steps\":" << c.total_steps
    << ",\"max_steps\":" << c.max_steps << ",\"max_name\":" << c.max_name
    << ",\"correct\":" << (c.correct ? "true" : "false") << "}";
  return o.str();
}

void check_counts(const PaperCounts& pc, std::vector<std::string>& errors) {
  for (const SimCounts* c : {&pc.random, &pc.collision}) {
    if (!c->correct) {
      errors.push_back("simulator: renaming_correct() failed at n = " + std::to_string(c->n));
    }
  }
}

void write_trace(const Args& a, const std::string& facts, const PassResult& traced,
                 const std::map<std::string, double>& layer) {
  if (a.trace_dir.empty()) return;
  std::filesystem::create_directories(a.trace_dir);
  const std::string path =
      a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
  std::ofstream f(path);
  f << "{\"facts\":" << facts << ",\n\"layer\":{";
  bool first = true;
  for (const auto& [k, v] : layer) {
    f << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  f << "},\n\"counters\":{";
  first = true;
  for (const auto& [k, v] : traced.counters) {
    f << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  f << "},\n\"spans_dropped\":" << traced.spans_dropped << ",\n\"traceEvents\":[";
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span& s : traced.spans) t0 = std::min(t0, s.start_ns);
  first = true;
  for (const Span& s : traced.spans) {
    if (s.end_ns < s.start_ns) continue;
    f << (first ? "\n" : ",\n") << "{\"name\":" << quoted(span_name(s.name))
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
      << ",\"ts\":" << num(static_cast<double>(s.start_ns - t0) * 1e-3)
      << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
      << "}}";
    first = false;
  }
  f << "]}\n";
  std::fprintf(stderr, "perfbench: wrote %s (%zu spans)\n", path.c_str(), traced.spans.size());
}

int run(const Args& a) {
  const unsigned nproc = host_nproc();
  const unsigned threads = workload_threads(a.workload);
  if (threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s runs %u threads on %u CPUs: flagged oversubscribed; "
                 "do not compare its figures with an unflagged run\n",
                 a.workload.c_str(), threads, nproc);
  }
  if (a.inputs) {
    const std::uint64_t h = a.workload == "elastic-burst"
                                ? elastic_inputs_hash(a.seed, a.seconds / kEpisodes)
                                : closed_inputs_hash(a.workload, a.seed);
    const PaperCounts pc = paper_counts(a.workload);
    std::printf("{\"workload\":%s,\"seed\":%" PRIu64 ",\"inputs_hash\":\"%016" PRIx64
                "\",\"random\":%s,\"collision\":%s}\n",
                quoted(a.workload).c_str(), a.seed, h, counts_json(pc.random).c_str(),
                counts_json(pc.collision).c_str());
    return 0;
  }

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<const MetricDef*, double>> out;
  std::ostringstream facts;
  facts << "{\"workload\":" << quoted(a.workload) << ",\"seed\":" << a.seed
        << ",\"seconds\":" << num(a.seconds) << ",\"trace\":" << (a.trace ? 1 : 0)
        << ",\"nproc\":" << nproc << ",\"cpu_model\":" << quoted(cpu_model())
        << ",\"threads\":" << threads
        << ",\"oversubscribed\":" << (threads > nproc ? "true" : "false");
  const auto take = [&](PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    for (auto& e : p.errors) errors.push_back(std::move(e));
  };

  if (!a.trace) {
    PassResult p = run_pass(a.workload, {a.seed, a.seconds, false, kEpisodes});
    const PaperCounts pc = paper_counts(a.workload);
    check_counts(pc, errors);
    take(p);
    const auto span = [](const SimCounts& c) {
      return static_cast<double>(c.max_name + 1) / static_cast<double>(c.n);
    };
    const std::map<std::string, double> values = {
        {"acquires_per_s", p.acquires_per_s},
        {"acquire_p50_ns", p.acquire_ns.quantile(0.50)},
        {"acquire_p99_ns", p.acquire_ns.quantile(0.99, kTailAcrossSlices)},
        {"release_p50_ns", p.release_ns.quantile(0.50)},
        {"release_p99_ns", p.release_ns.quantile(0.99, kTailAcrossSlices)},
        {"setup_s", median(p.setup_s)},
        {"mem_mib",
         static_cast<double>(peak_rss_kib() - std::min(p.rss_base_kib, peak_rss_kib())) / 1024.0},
        {"steps_max", static_cast<double>(std::max(pc.random.max_steps, pc.collision.max_steps))},
        {"steps_mean", static_cast<double>(pc.random.total_steps + pc.collision.total_steps) /
                           static_cast<double>(pc.random.processes + pc.collision.processes)},
        {"name_span_ratio", std::max(span(pc.random), span(pc.collision))},
    };
    for (const MetricDef& m : kEndToEnd) out.emplace_back(&m, values.at(m.name));
    facts << ",\"samples\":{\"acquire\":" << p.acquire_ns.count()
          << ",\"release\":" << p.release_ns.count() << "},\"setup_s_runs\":[";
    for (std::size_t i = 0; i < p.setup_s.size(); ++i) {
      facts << (i ? "," : "") << num(p.setup_s[i]);
    }
    facts << "],\"slice_rates\":[";
    for (std::size_t i = 0; i < p.slice_rates.size(); ++i) {
      facts << (i ? "," : "") << num(p.slice_rates[i]);
    }
    facts << "],\"measured_s\":" << num(p.seconds) << "}";
  } else {
    PassResult plain = run_pass(a.workload, {a.seed, a.seconds / 2, false, 1});
    PassResult traced = run_pass(a.workload, {a.seed, a.seconds / 2, true, 1});
    const PaperCounts pc = paper_counts(a.workload);
    check_counts(pc, errors);
    take(plain);
    take(traced);
    std::map<std::string, double> layer;
    for (const MetricDef& m : kPerLayer) layer[m.name] = 0.0;
    for (const auto& [k, v] : traced.layer) layer[k] = v;
    for (const auto& [k, v] : floor_rows(workload_occupancy(a.workload), a.seed)) layer[k] = v;
    const auto mean_steps = [](const SimCounts& c) {
      return static_cast<double>(c.total_steps) / static_cast<double>(c.processes);
    };
    layer["sim.host_ns_per_step"] = (pc.random.host_s + pc.collision.host_s) * 1e9 /
                                    static_cast<double>(pc.random.total_steps +
                                                        pc.collision.total_steps);
    layer["sim.steps_max.random"] = static_cast<double>(pc.random.max_steps);
    layer["sim.steps_max.collision"] = static_cast<double>(pc.collision.max_steps);
    layer["sim.steps_mean.random"] = mean_steps(pc.random);
    layer["sim.steps_mean.collision"] = mean_steps(pc.collision);
    // Lateness of the untraced pass: the generators' own validity figure,
    // without the tracing's extra work in their loop.
    layer["bench.gen_late_p99_ns"] = plain.late_ns.quantile(0.99);
    layer["bench.trace_overhead_ratio"] =
        traced.acquires_per_s > 0 ? plain.acquires_per_s / traced.acquires_per_s : 0.0;
    layer["bench.samples"] =
        static_cast<double>(traced.acquire_ns.count() + traced.release_ns.count());
    layer["fail_ratio"] =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
    for (const MetricDef& m : kPerLayer) out.emplace_back(&m, layer.at(m.name));
    if (layer.size() != std::size(kPerLayer)) {
      errors.push_back("per-layer metric table and measured names disagree");
    }
    facts << ",\"samples\":{\"acquire\":" << traced.acquire_ns.count()
          << ",\"release\":" << traced.release_ns.count()
          << "},\"untraced_acquires_per_s\":" << num(plain.acquires_per_s)
          << ",\"traced_acquires_per_s\":" << num(traced.acquires_per_s) << "}";
    write_trace(a, facts.str(), traced, layer);
  }

  const bool correct = errors.empty() && failed == 0;
  for (const auto& e : errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  std::printf("# facts %s\n", facts.str().c_str());
  for (const auto& [m, v] : out) std::printf("%-44s %14s %s\n", m->name, num(v).c_str(), m->unit);
  std::ostringstream json;
  json << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":"
       << std::max<std::uint64_t>(attempted, 1) << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json << (i ? "," : "") << quoted(out[i].first->name) << ":{\"value\":"
         << num(out[i].second) << ",\"unit\":" << quoted(out[i].first->unit) << "}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
