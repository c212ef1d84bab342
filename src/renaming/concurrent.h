// Thread-facing public API: loose renaming for real concurrent programs.
//
// These wrappers run the exact coroutine algorithms from this library over
// std::atomic cells (ArenaEnv), so the code paths measured against the
// simulated adversaries are the code paths that execute on hardware. A
// hand-inlined non-coroutine fast path is provided for the E10 overhead
// ablation and for users who want the minimal-latency variant.
//
// As in the paper's model (Section 2), a caller flips private local coins
// and pays only its TAS probes. Each thread keeps one cached coin stream
// (Xoshiro256), seeded from the renamer's seed and the thread's dense
// slot the first time it calls into an instance and kept for as long as
// it stays on that instance, so after its first call a thread's only
// shared RMWs are its probes, its release exchange and its own stripe of
// the assigned counter. Both walks draw from that stream in the same
// order, so on one thread get_name() and get_name_direct() issue the same
// names. ReBatching's coroutine is compiled against ArenaEnv itself, not
// just the virtual sim::Env, so each probe and each coin is a direct call
// into the TasArena and the stream. A call builds one coroutine frame (the
// walk over every batch and the backup sweep), taken from a per-thread
// recycler (sim/task.h), and the probes await the TAS directly, so a call
// allocates nothing in the steady state.
//
// The shared substrate is a TasArena (tas/tas_arena.h): cache-line-padded
// by default so concurrent probes never false-share, generation-stamped so
// reset() is O(1), with the minimal memory orders that keep TAS
// linearizable. The direct path walks a FlatProbeSchedule — the batch
// geometry precomputed into one (offset, size) array — and the assigned
// counter is striped so acquisition never serializes on a single cache
// line.
//
// Typical use (see examples/quickstart.cpp):
//
//   loren::ConcurrentRenamer renamer(max_threads, /*epsilon=*/0.5);
//   ...in each thread...
//   loren::sim::Name id = renamer.get_name();   // unique in [0, capacity)
#pragma once

#include <cstdint>
#include <optional>

#include "platform/striped_counter.h"
#include "renaming/adaptive.h"
#include "renaming/probe_schedule.h"
#include "renaming/rebatching.h"
#include "tas/tas_arena.h"

namespace loren {

/// Non-adaptive renaming: n known in advance, names in [0, capacity()).
/// All methods except the constructor and reset() are safe to call
/// concurrently.
class ConcurrentRenamer {
 public:
  explicit ConcurrentRenamer(std::uint64_t n, double epsilon = 0.5,
                             std::uint64_t seed = 0x10053,
                             BatchLayoutParams extra = {},
                             ArenaLayout arena_layout = ArenaLayout::kPadded);

  /// Wait-free unique name; log log n + O(1) shared-memory steps w.h.p.
  sim::Name get_name();

  /// Same algorithm, hand-inlined: a linear walk of the flattened probe
  /// schedule, with no coroutine frame to build or resume.
  sim::Name get_name_direct();

  /// Returns `name` to the namespace so later get_name calls can claim it
  /// again (long-lived renaming, cf. [16, 20] in the paper). The paper's
  /// w.h.p. step bounds are proved for the one-shot problem; with
  /// release/reacquire they hold per acquisition as long as at most n
  /// names are live at any moment. Releasing a name not currently held
  /// throws; the check is a single exchange, so two racing releases of
  /// the same name cannot both succeed.
  void release(sim::Name name);

  /// O(1) full-namespace reset (epoch bump; see TasArena::reset). Not
  /// safe concurrently with get_name/release — quiesce first. Replaces
  /// the seed's reset-by-reallocation between experiment rounds.
  void reset();

  [[nodiscard]] std::uint64_t capacity() const { return algo_.layout().total(); }
  [[nodiscard]] const BatchLayout& layout() const { return algo_.layout(); }
  [[nodiscard]] ArenaLayout arena_layout() const { return cells_.layout(); }
  /// Approximate while acquisitions are in flight, exact at quiescence.
  [[nodiscard]] std::uint64_t names_assigned() const {
    const std::int64_t live = assigned_.sum();
    return live > 0 ? static_cast<std::uint64_t>(live) : 0;
  }

 private:
  std::uint64_t seed_;
  /// Keys the threads' cached coin streams (process-unique, never reused,
  /// so a renamer built at a dead one's address starts fresh streams).
  std::uint64_t id_;
  TasArena cells_;
  ReBatching algo_;
  FlatProbeSchedule schedule_;
  StripedCounter assigned_;
};

/// Adaptive renaming: contention k unknown; names are O(k) w.h.p. Capacity
/// is bounded by `max_contention` (the largest k the preallocated cells can
/// serve; the paper's unbounded-space construction truncated for practice).
class AdaptiveConcurrentRenamer {
 public:
  explicit AdaptiveConcurrentRenamer(std::uint64_t max_contention,
                                     double epsilon = 1.0,
                                     std::uint64_t seed = 0x10053);

  /// Unique name of value O(k) w.h.p.; empty only beyond max_contention.
  std::optional<sim::Name> try_get_name();
  /// Convenience: throws std::runtime_error when try_get_name is empty.
  sim::Name get_name();

  [[nodiscard]] std::uint64_t capacity() const { return cells_.size(); }

 private:
  std::uint64_t seed_;
  std::uint64_t id_;  // keys the threads' coin streams, as above
  /// Packed layout: the adaptive construction stacks many ReBatching
  /// objects in one address space, so density beats padding here.
  TasArena cells_;
  AdaptiveReBatching algo_;
};

}  // namespace loren
