// Batch geometry of the ReBatching algorithm (paper Eq. (1) and Eq. (2)).
//
// The (1+eps)n TAS objects are arranged into kappa+1 disjoint batches
//   B_0 of size n,  B_i of size ceil(eps*n / 2^i)  for 1 <= i <= kappa,
// with kappa = ceil(log2 log2 n), and a process performs
//   t_0 = ceil(17 ln(8e/eps) / eps)  probes on B_0,
//   t_i = 1                          probes on B_i, 1 <= i <= kappa-1,
//   t_kappa = beta                   probes on the last batch.
// (The published text lost the eps symbols in PDF extraction; see
// docs/protocols.md, "Batch geometry", for why these are the paper's
// formulas.)
//
// For small n the asymptotic expressions degenerate; this class defines the
// layout for every n >= 1 (kappa = 0 means "only batch B_0") and exposes the
// invariants the analysis relies on so they can be property-tested.
#pragma once

#include <cstdint>
#include <vector>

namespace loren {

struct BatchLayoutParams {
  double epsilon = 1.0;  // namespace slack; m ~ (1+eps)n
  int beta = 3;          // probes on the last batch (paper: beta >= 3 gives
                         // O(n) expected total steps)
  /// Overrides t_0 when positive. The paper's constant 17/eps is chosen for
  /// proof convenience; the E2/E10 ablations show far smaller values work.
  int t0_override = 0;
};

class BatchLayout {
 public:
  BatchLayout(std::uint64_t n, const BatchLayoutParams& params);
  BatchLayout(std::uint64_t n, double epsilon)
      : BatchLayout(n, BatchLayoutParams{.epsilon = epsilon}) {}

  [[nodiscard]] std::uint64_t n() const { return n_; }
  [[nodiscard]] double epsilon() const { return params_.epsilon; }
  /// Highest batch index (the paper's kappa = ceil(log2 log2 n)).
  [[nodiscard]] std::uint64_t kappa() const { return sizes_.size() - 1; }
  [[nodiscard]] std::uint64_t num_batches() const { return sizes_.size(); }
  /// Size b_i of batch i.
  [[nodiscard]] std::uint64_t size(std::uint64_t i) const { return sizes_[i]; }
  /// Offset s_i of batch i within the object's location range.
  [[nodiscard]] std::uint64_t offset(std::uint64_t i) const { return offsets_[i]; }
  /// Probe budget t_i for batch i.
  [[nodiscard]] int probes(std::uint64_t i) const { return probes_[i]; }
  /// Total number of TAS objects (== namespace size of this object).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Sum of all probe budgets: the per-process step bound of the main phase,
  /// log2 log2 n + O(1).
  [[nodiscard]] int max_probes_main_phase() const { return probe_sum_; }

  /// The paper's survivor bound n*_i for 1 <= i <= kappa (Lemma 4.2), used
  /// by experiment E2: eps*n / 2^(2^i + i + delta) for i < kappa, log^2 n
  /// for i = kappa.
  [[nodiscard]] double survivor_bound(std::uint64_t i, double delta = 0.1) const;

 private:
  std::uint64_t n_;
  BatchLayoutParams params_;
  std::vector<std::uint64_t> sizes_;
  std::vector<std::uint64_t> offsets_;
  std::vector<int> probes_;
  std::uint64_t total_ = 0;
  int probe_sum_ = 0;
};

}  // namespace loren
