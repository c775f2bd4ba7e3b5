// Score-based structure learning — the *first* paradigm of paper §III
// (Chow–Liu [6], Cooper–Herskovits [7], Heckerman [12], Friedman's sparse
// candidate [9]): BIC-scored greedy hill climbing whose search space is
// pruned by the all-pairs-MI candidate-parent sets, exactly the use the
// paper's related-work section proposes for the primitives ("a parallel and
// efficient tool to help reduce the search space of other structure learning
// algorithms").
//
// The BIC score decomposes over families (node + parent set). Each family
// {v, parents...} is counted from the table's entry planes by
// BasicEntryPlanes::marginalize — the lattice-or-scatter cost rule the CI
// tests and the serving layer count with — and its score is cached, so the
// climb counts each family once. hill_climb decodes the table into planes
// once, on the caller's pool. Templated over KeyTraits like the rest of the
// learner layer: FamilyScorer / hill_climb work on narrow tables, the Wide
// aliases and explicit <WideKey> calls on two-word tables.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bn/dag.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/entry_planes.hpp"
#include "data/dataset.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// Decomposable family score: log-likelihood of X_v given its parents minus
/// the BIC complexity penalty (0.5 · log m · #free parameters), m the
/// family table's total count.
template <typename K>
class BasicFamilyScorer {
 public:
  using Planes = BasicEntryPlanes<K>;

  /// Borrows `planes`; they must outlive the scorer. Family counts run on
  /// the calling thread.
  explicit BasicFamilyScorer(const Planes& planes);

  /// BIC score of the family (v | parents). Parents need not be sorted;
  /// results are cached under the sorted set.
  [[nodiscard]] double family_score(std::size_t v,
                                    std::vector<std::size_t> parents) const;

  /// Total BIC of a DAG = Σ_v family_score(v, parents(v)).
  [[nodiscard]] double total_score(const Dag& dag) const;

  [[nodiscard]] std::uint64_t families_evaluated() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return cache_hits_; }

 private:
  const Planes& planes_;
  mutable std::map<std::pair<std::size_t, std::vector<std::size_t>>, double>
      cache_;
  mutable std::uint64_t evaluations_ = 0;
  mutable std::uint64_t cache_hits_ = 0;
};

extern template class BasicFamilyScorer<Key>;
extern template class BasicFamilyScorer<WideKey>;

using FamilyScorer = BasicFamilyScorer<Key>;
using WideFamilyScorer = BasicFamilyScorer<WideKey>;

struct HillClimbOptions {
  /// Cap on parents per node (keeps family tables dense and counts honest).
  std::size_t max_parents = 3;
  /// Per-node candidate parents (e.g. from sparse_candidates()); empty means
  /// every other node is a candidate (the unpruned search of §III).
  std::vector<std::vector<std::size_t>> candidate_parents;
  /// Stop after this many accepted moves (safety valve; greedy search on
  /// decomposable scores terminates on its own).
  std::size_t max_moves = 1000;
};

struct HillClimbResult {
  Dag dag;
  double score = 0.0;
  std::size_t moves = 0;               ///< accepted add/remove/reverse moves
  std::uint64_t families_evaluated = 0;
  std::uint64_t cache_hits = 0;
};

/// Greedy hill climbing over add-edge / remove-edge / reverse-edge moves,
/// starting from the empty graph. Builds the table's entry planes once on
/// `pool`; the climb itself runs on the calling thread. K is deduced from
/// the table.
template <typename K>
[[nodiscard]] HillClimbResult hill_climb(const BasicPotentialTable<K>& table,
                                         ThreadPool& pool,
                                         const HillClimbOptions& options = {});

/// Convenience: builds the table with the wait-free primitive and its entry
/// planes on `pool`, derives candidate parents from the all-pairs MI of those
/// planes (top-k per node), then climbs on the same planes. Narrow by
/// default; call hill_climb_sparse<WideKey>(...) for wide tables.
template <typename K = Key>
[[nodiscard]] HillClimbResult hill_climb_sparse(const Dataset& data,
                                                std::size_t candidates_per_node,
                                                ThreadPool& pool,
                                                HillClimbOptions options = {});

extern template HillClimbResult hill_climb<Key>(const BasicPotentialTable<Key>&,
                                                ThreadPool&,
                                                const HillClimbOptions&);
extern template HillClimbResult hill_climb<WideKey>(
    const BasicPotentialTable<WideKey>&, ThreadPool&, const HillClimbOptions&);
extern template HillClimbResult hill_climb_sparse<Key>(const Dataset&,
                                                       std::size_t, ThreadPool&,
                                                       HillClimbOptions);
extern template HillClimbResult hill_climb_sparse<WideKey>(const Dataset&,
                                                           std::size_t,
                                                           ThreadPool&,
                                                           HillClimbOptions);

}  // namespace wfbn
