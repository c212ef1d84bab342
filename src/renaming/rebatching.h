// ReBatching (paper Section 4, Figure 1): non-adaptive loose renaming.
//
// n processes rename into a namespace of size ~(1+eps)n backed by one TAS
// object per name. A process walks the batches B_0..B_kappa in order,
// performing t_i independent uniformly random probes on batch B_i, and
// returns the index of the first TAS it wins. Processes that fail every
// batch (probability < 1/n^(beta-o(1)), Lemma 4.2) fall back to a
// sequential scan of all objects, so termination is deterministic while the
// step complexity is log2 log2 n + O(1) with high probability.
#pragma once

#include <concepts>
#include <cstdint>

#include "renaming/batch_layout.h"
#include "sim/env.h"
#include "sim/task.h"
#include "tas/tas_service.h"

namespace loren {

class TasArena;
template <class Memory>
class BasicDirectEnv;
using ArenaEnv = BasicDirectEnv<TasArena>;  // tas/tas_arena.h

/// The env types ReBatching's coroutine is compiled for (rebatching.cpp):
/// sim::Env, which the simulator and every other env pass as, and ArenaEnv,
/// ConcurrentRenamer's hardware env, whose probes and coins then bind
/// statically (BasicDirectEnv is final) instead of through virtual calls.
template <class E>
concept ReBatchingEnv = std::same_as<E, sim::Env> || std::same_as<E, ArenaEnv>;

/// Per-object instrumentation (simulation runs only; not thread-safe).
/// `entered[i]` counts TryGetName(i) calls, `failed[i]` counts calls that
/// returned -1 — so failed[i-1] is the paper's n_i of Lemma 4.2.
struct ReBatchingStats {
  std::vector<std::uint64_t> entered;
  std::vector<std::uint64_t> failed;
  std::uint64_t backup_entries = 0;

  void reset(std::uint64_t num_batches) {
    entered.assign(num_batches, 0);
    failed.assign(num_batches, 0);
    backup_entries = 0;
  }
};

class ReBatching {
 public:
  struct Options {
    BatchLayoutParams layout{};
    /// First cell / smallest name of this object. The adaptive algorithms
    /// stack many ReBatching objects in one address space.
    sim::Location base = 0;
    /// Run the sequential backup phase after a full miss (Figure 1 lines
    /// 5-7). The adaptive algorithms turn this off (Section 5.1).
    bool backup = true;
    /// When set, probes go through this service (e.g. read/write TAS);
    /// otherwise each probe is one hardware TAS on cell base+index.
    TasService* service = nullptr;
  };

  /// Probes fetched ahead on hardware: over ArenaEnv, the walk prefetches
  /// the cells of a batch's next min(kLookAhead, t_i - j) probes when it
  /// enters the batch and after every kLookAhead probes in it, so their
  /// cache misses overlap (ConcurrentRenamer::get_name_direct does the
  /// same). The offsets come from a copy of the coin stream, so no coin,
  /// step or name changes; the sim::Env walk does not prefetch at all.
  /// Of {4, 8, 16}, 4 read best on paper-model: 8 cut its p99 further but
  /// spent a median call's time on draws it never probes (docs/benchmarks.md).
  static constexpr std::uint64_t kLookAhead = 4;

  ReBatching(std::uint64_t n, Options options);
  ReBatching(std::uint64_t n, double epsilon)
      : ReBatching(n, Options{.layout = {.epsilon = epsilon}}) {}

  /// Figure 1, GetName(). Returns a name in [base, base+total()), or -1
  /// when backup is disabled and every batch failed. Not a coroutine:
  /// sizes the cells, then hands back the walk over every batch, so a
  /// call builds one frame.
  template <ReBatchingEnv E>
  sim::Task<sim::Name> get_name(E& env);

  /// Figure 1, TryGetName(i): t_i random probes on batch i, no backup.
  template <ReBatchingEnv E>
  sim::Task<sim::Name> try_get_name(E& env, std::uint64_t batch);

  [[nodiscard]] const BatchLayout& layout() const { return layout_; }
  [[nodiscard]] sim::Location base() const { return base_; }
  /// Smallest location past this object (== base + namespace size).
  [[nodiscard]] sim::Location end() const { return base_ + layout_.total(); }
  /// True iff `name` lies in this object's namespace (the paper's "u ∈ R_i").
  [[nodiscard]] bool owns(sim::Name name) const {
    return name >= 0 && static_cast<sim::Location>(name) >= base_ &&
           static_cast<sim::Location>(name) < end();
  }

  void attach_stats(ReBatchingStats* stats) {
    stats_ = stats;
    if (stats_ != nullptr) stats_->reset(layout_.num_batches());
  }

 private:
  /// The one coroutine body: Figure 1's probes on batches [first, last),
  /// then the backup sweep when `backup` is set. `kService` selects the
  /// probe (service_->acquire or one hardware TAS) at compile time, so the
  /// body has a single co_await.
  template <ReBatchingEnv E, bool kService>
  sim::Task<sim::Name> walk(E& env, std::uint64_t first, std::uint64_t last,
                            bool backup);

  BatchLayout layout_;
  sim::Location base_;
  bool backup_;
  TasService* service_;
  ReBatchingStats* stats_ = nullptr;
};

}  // namespace loren
