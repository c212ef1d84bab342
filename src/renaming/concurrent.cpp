#include "renaming/concurrent.h"

#include <cmath>
#include <stdexcept>

#include "renaming/thread_ctx.h"

namespace loren {

using sim::Name;

namespace {

BatchLayoutParams with_epsilon(BatchLayoutParams p, double epsilon) {
  p.epsilon = epsilon;
  return p;
}

/// The calling thread's coin stream (see concurrent.h). One slot per
/// thread, reseeded when the thread switches instances. Instance ids only
/// grow, so a switch to an id above every id the thread has entered is a
/// first visit and seeds from (seed, thread slot) alone; a switch back to
/// an older instance also mixes in the thread's count of such returns, so
/// it never replays coins it flipped on an earlier visit.
struct CoinStream {
  std::uint64_t instance = 0;  // ids start at 1: 0 = never seeded
  std::uint64_t newest = 0;    // largest instance id entered so far
  std::uint64_t returns = 0;
  std::uint64_t slot = 0;
  Xoshiro256 rng{0};
};

CoinStream& coin_stream(std::uint64_t instance, std::uint64_t seed) {
  thread_local CoinStream s;
  if (s.instance != instance) [[unlikely]] {
    s.slot = dense_thread_slot();
    std::uint64_t stream = s.slot;
    if (instance <= s.newest) {
      stream = mix_seed(stream, ++s.returns);
    } else {
      s.newest = instance;
    }
    s.instance = instance;
    s.rng.reseed(mix_seed(seed, stream));
  }
  return s;
}

/// The coroutine walk's look-ahead, over the flat schedule: prefetches the
/// cells of the next probes on `slot`'s batch, at most
/// ReBatching::kLookAhead of them, drawn from `ahead`, a copy of the
/// thread's stream, so the stream itself does not move.
void prefetch_ahead(const TasArena& cells, const FlatProbeSchedule::Slot* slot,
                    const FlatProbeSchedule::Slot* last, Xoshiro256 ahead) {
  for (std::uint64_t k = 0; k < ReBatching::kLookAhead && slot + k != last &&
                            slot[k].offset == slot->offset;
       ++k) {
    cells.prefetch(slot->offset + ahead.below(slot->size));
  }
}

}  // namespace

ConcurrentRenamer::ConcurrentRenamer(std::uint64_t n, double epsilon,
                                     std::uint64_t seed,
                                     BatchLayoutParams extra,
                                     ArenaLayout arena_layout)
    : seed_(seed),
      id_(next_service_instance_id()),
      cells_(BatchLayout(n, with_epsilon(extra, epsilon)).total(), arena_layout),
      algo_(n, ReBatching::Options{.layout = with_epsilon(extra, epsilon)}),
      schedule_(algo_.layout()) {}

Name ConcurrentRenamer::get_name() {
  CoinStream& coins = coin_stream(id_, seed_);
  ArenaEnv env(cells_, coins.rng, static_cast<sim::ProcessId>(coins.slot));
  const Name name = sim::run_sync(algo_.get_name(env));
  if (name >= 0) assigned_.add(1);
  return name;
}

Name ConcurrentRenamer::get_name_direct() {
  Xoshiro256& rng = coin_stream(id_, seed_).rng;
  const FlatProbeSchedule::Slot* const first = schedule_.begin();
  const FlatProbeSchedule::Slot* const last = schedule_.end();
  std::uint64_t j = 0;  // probes made so far on the current batch
  for (const auto* slot = first; slot != last; ++slot, ++j) {
    if (slot != first && slot->offset != slot[-1].offset) j = 0;
    if (j % ReBatching::kLookAhead == 0) prefetch_ahead(cells_, slot, last, rng);
    const std::uint64_t x = slot->offset + rng.below(slot->size);
    // sim:exempt(forwards to the arena RMW, which carries the sim point)
    if (cells_.test_and_set(x)) {
      assigned_.add(1);
      return static_cast<Name>(x);
    }
  }
  for (std::uint64_t u = 0; u < schedule_.total(); ++u) {  // backup sweep
    // sim:exempt(forwards to the arena RMW, which carries the sim point)
    if (cells_.test_and_set(u)) {
      assigned_.add(1);
      return static_cast<Name>(u);
    }
  }
  return -1;
}

void ConcurrentRenamer::release(sim::Name name) {
  // Single-RMW validation: exchange the cell to free and check it really
  // was held. The seed's read()==0 check followed by write(0) let two
  // racing releases both pass the check and double-decrement assigned_.
  if (name < 0 || static_cast<std::uint64_t>(name) >= cells_.size() ||
      !cells_.try_release(static_cast<std::uint64_t>(name))) {
    throw std::invalid_argument("release: name is not currently held");
  }
  assigned_.add(-1);
}

void ConcurrentRenamer::reset() {
  cells_.reset();
  assigned_.reset();
}

namespace {

/// Cells needed so the adaptive stack can reach objects large enough for
/// max_contention: the doubling race stops at R_i with 2^i >= k w.h.p., and
/// we add two doubling levels of headroom.
std::uint64_t adaptive_capacity(std::uint64_t max_contention, double epsilon) {
  std::uint64_t top = 1;
  while ((std::uint64_t{1} << top) < max_contention) ++top;
  // The race touches power-of-two indices only; round up to one.
  std::uint64_t race_top = 1;
  while (race_top < top) race_top <<= 1;
  std::uint64_t total = 0;
  for (std::uint64_t i = 1; i <= race_top; ++i) {
    total += BatchLayout(std::uint64_t{1} << i, epsilon).total();
  }
  return total;
}

}  // namespace

AdaptiveConcurrentRenamer::AdaptiveConcurrentRenamer(
    std::uint64_t max_contention, double epsilon, std::uint64_t seed)
    : seed_(seed),
      id_(next_service_instance_id()),
      cells_(adaptive_capacity(max_contention, epsilon), ArenaLayout::kPacked),
      algo_(AdaptiveReBatching::Options{.layout = {.epsilon = epsilon}}) {
  if (max_contention == 0) {
    throw std::invalid_argument("max_contention must be >= 1");
  }
}

std::optional<Name> AdaptiveConcurrentRenamer::try_get_name() {
  CoinStream& coins = coin_stream(id_, seed_);
  ArenaEnv env(cells_, coins.rng, static_cast<sim::ProcessId>(coins.slot));
  try {
    const Name name = sim::run_sync(algo_.get_name(env));
    if (name < 0) return std::nullopt;
    return name;
  } catch (const std::length_error&) {
    // The doubling race outgrew the preallocated cells: contention exceeded
    // max_contention by far more than the w.h.p. slack.
    return std::nullopt;
  }
}

Name AdaptiveConcurrentRenamer::get_name() {
  if (auto name = try_get_name()) return *name;
  throw std::runtime_error(
      "AdaptiveConcurrentRenamer: contention exceeded configured capacity");
}

}  // namespace loren
