// Probability queries over a potential table: normalized marginals,
// conditionals given evidence, and MAP states — the "use the table you just
// built" layer. The paper's footnote 2 observes that counts are normalized
// lazily at marginalization time; this module is where that happens.
//
// Every count comes from a counting index (core/counting_index.hpp): the
// AND-popcount lattice or the set-bit scatter over the table's entry planes,
// or one filtered sweep of the table where the planes do not pay. A
// conditional counts V ∪ E and slices it at the evidence states.
//
// An engine either owns an index it builds over a table (construction costs
// one plane build; queries then run on the calling thread) or is a cheap view
// over an index built elsewhere: the serving layer (src/serve) constructs a
// view per query over the index of whatever snapshot it just pinned.
//
// A template over the key type: QueryEngine (narrow) and WideQueryEngine
// answer the same query set at either key width.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/counting_index.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

template <typename K>
class BasicQueryEngine {
 public:
  using Table = BasicPotentialTable<K>;
  using Index = BasicCountingIndex<K>;

  /// Builds and owns a counting index over `table`, its planes built on a
  /// transient pool of `threads` workers. `table` must outlive the engine.
  explicit BasicQueryEngine(const Table& table, std::size_t threads = 1);

  /// Same, building the index's planes on `pool` (borrowed for the build).
  BasicQueryEngine(const Table& table, ThreadPool& pool);

  /// Serving constructor: a view over `index`, which must outlive the engine.
  explicit BasicQueryEngine(const Index& index) noexcept;

  /// Normalized marginal distribution P(V) as probabilities in the layout of
  /// MarginalTable::index_of over `variables`.
  [[nodiscard]] std::vector<double> marginal(
      std::span<const std::size_t> variables) const;

  /// Conditional distribution P(V | evidence). Throws DataError if the
  /// evidence has zero support in the data. Evidence variables must be
  /// disjoint from `variables`.
  [[nodiscard]] std::vector<double> conditional(
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence) const;

  /// P(evidence): fraction of observations consistent with the evidence.
  [[nodiscard]] double evidence_probability(
      std::span<const Evidence> evidence) const;

  /// Most probable joint state of `variables` (optionally given evidence),
  /// with its probability. Ties break toward the lower cell index.
  struct MapResult {
    std::vector<State> states;
    double probability = 0.0;
  };
  [[nodiscard]] MapResult most_probable(
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence = {}) const;

  [[nodiscard]] const Table& table() const noexcept { return index_->table(); }

 private:
  std::unique_ptr<const Index> owned_;  ///< null for a view
  const Index* index_;
};

extern template class BasicQueryEngine<Key>;
extern template class BasicQueryEngine<WideKey>;

using QueryEngine = BasicQueryEngine<Key>;
using WideQueryEngine = BasicQueryEngine<WideKey>;

}  // namespace wfbn
