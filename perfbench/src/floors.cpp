// Floor rows: the primitives under the services, driven directly so a
// traced run shows what one substrate claim, one lease open/close and one
// telemetry record cost on this host, at the workload's occupancy.
#include "lease/lease_table.h"
#include "platform/rng.h"
#include "tas/bitmap_arena.h"
#include "tas/tas_arena.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kFloorCells = std::uint64_t{1} << 20;
constexpr std::size_t kBatch = 4096;
constexpr int kReps = 5;
constexpr std::uint64_t kRunClaim = 128;

/// Fills `arena` so each cell is taken with probability `occupancy`.
template <class Arena>
void fill(Arena& arena, double occupancy, loren::Xoshiro256& rng) {
  const auto threshold = static_cast<std::uint64_t>(occupancy * 18446744073709551615.0);
  for (std::uint64_t i = 0; i < arena.size(); ++i) {
    if (rng.next() < threshold) (void)arena.test_and_set(i);
  }
}

std::vector<std::uint64_t> random_cells(loren::Xoshiro256& rng, std::uint64_t bound) {
  std::vector<std::uint64_t> v(kBatch);
  for (auto& x : v) x = rng.below(bound);
  return v;
}

}  // namespace

std::map<std::string, double> floor_rows(double occupancy, std::uint64_t seed) {
  std::map<std::string, double> rows;
  loren::Xoshiro256 rng(loren::mix_seed(seed, 20));

  // TasArena: one RMW per cell probed; wins are released again so the
  // occupancy stays put.
  {
    loren::TasArena arena(kFloorCells, loren::ArenaLayout::kPadded);
    fill(arena, occupancy, rng);
    std::vector<double> claim_ns, release_ns, run_ns;
    std::uint64_t attempts = 0;
    std::uint64_t wins = 0;
    std::vector<std::uint64_t> won;
    std::vector<std::uint64_t> run(kRunClaim);
    for (int rep = 0; rep < kReps; ++rep) {
      const auto cells = random_cells(rng, kFloorCells);
      won.clear();
      std::uint64_t t0 = now_ns();
      for (const std::uint64_t c : cells) {
        if (arena.test_and_set(c)) won.push_back(c);
      }
      claim_ns.push_back(static_cast<double>(now_ns() - t0) / kBatch);
      attempts += kBatch;
      wins += won.size();
      t0 = now_ns();
      for (const std::uint64_t c : won) (void)arena.try_release(c);
      if (!won.empty()) {
        release_ns.push_back(static_cast<double>(now_ns() - t0) /
                             static_cast<double>(won.size()));
      }
      const std::uint64_t begin = rng.below(kFloorCells / 2);
      t0 = now_ns();
      const std::uint64_t got = arena.try_claim_run(begin, kFloorCells, kRunClaim, run.data());
      if (got > 0) {
        run_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(got));
      }
      for (std::uint64_t j = 0; j < got; ++j) (void)arena.try_release(run[j]);
    }
    rows["tas.cell_claim_ns"] = median(claim_ns);
    rows["tas.cell_win_ratio"] = static_cast<double>(wins) / static_cast<double>(attempts);
    rows["tas.release_ns"] = median(release_ns);
    rows["tas.claim_run_ns_per_name"] = median(run_ns);
  }

  // BitmapArena: one word snapshot + one fetch_or per probe.
  {
    loren::BitmapArena arena(kFloorCells, loren::ArenaLayout::kPadded);
    fill(arena, occupancy, rng);
    std::vector<double> claim_ns;
    std::uint64_t attempts = 0;
    std::uint64_t wins = 0;
    std::vector<std::int64_t> won;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto hints = random_cells(rng, kFloorCells);
      won.clear();
      const std::uint64_t t0 = now_ns();
      for (const std::uint64_t h : hints) {
        const std::int64_t c = arena.try_claim_in_word(h, 0, kFloorCells);
        if (c >= 0) won.push_back(c);
      }
      claim_ns.push_back(static_cast<double>(now_ns() - t0) / kBatch);
      attempts += kBatch;
      wins += won.size();
      for (const std::int64_t c : won) (void)arena.try_release(static_cast<std::uint64_t>(c));
    }
    rows["tas.word_claim_ns"] = median(claim_ns);
    rows["tas.word_win_ratio"] = static_cast<double>(wins) / static_cast<double>(attempts);
  }

  // LeaseTable: one open + one close by the same holder.
  {
    loren::lease::LeaseOptions opts;
    opts.ttl_ticks = std::uint64_t{1} << 40;
    loren::lease::LeaseTable table(opts, nullptr);
    const loren::lease::Heartbeat& hb = table.register_thread();
    std::vector<double> ns;
    std::uint64_t name = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t now = table.now();
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < kBatch; ++i, ++name) {
        table.open(static_cast<loren::sim::Name>(name), now, &hb, nullptr);
        (void)table.close(static_cast<loren::sim::Name>(name), &hb, nullptr);
      }
      ns.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    }
    rows["lease.open_close_ns"] = median(ns);
  }

  // MetricsRegistry: one ThreadStripe::record into a histogram.
  {
    loren::telemetry::MetricsRegistry registry;
    const auto id = registry.histogram("floor.record");
    auto& stripe = registry.stripe();
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < 16 * kBatch; ++i) stripe.record(id, i & 1023);
      ns.push_back(static_cast<double>(now_ns() - t0) / (16 * kBatch));
    }
    rows["telemetry.record_ns"] = median(ns);
  }
  return rows;
}

}  // namespace perfbench
