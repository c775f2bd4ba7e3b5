// Dense marginal count table over a (small) subset of variables — the output
// of the marginalization primitive (paper Algorithm 3) and the input of the
// statistics tests (mutual information, conditional MI, G-test).
//
// Marginal tables are tiny (r^|V| cells for the pair/triple subsets the
// learning algorithm asks for), so they are always dense, and per-core
// partial tables are merged by plain cell-wise addition.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "table/key_codec.hpp"

namespace wfbn {

class MarginalTable {
 public:
  /// An all-zero table over `variables` (global variable indices, in the
  /// layout order produced by KeyProjector) with the given cardinalities.
  MarginalTable(std::vector<std::size_t> variables,
                std::vector<std::uint32_t> cardinalities);

  /// A table over `variables` holding `counts` (row-major, first variable
  /// fastest). Throws unless there is one count per cell.
  MarginalTable(std::vector<std::size_t> variables,
                std::vector<std::uint32_t> cardinalities,
                std::vector<std::uint64_t> counts);

  [[nodiscard]] const std::vector<std::size_t>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }
  [[nodiscard]] std::size_t cell_count() const noexcept { return counts_.size(); }

  /// Row-major (first variable fastest) cell index of a joint state.
  [[nodiscard]] std::uint64_t index_of(std::span<const State> states) const;

  void add(std::uint64_t cell, std::uint64_t delta) { counts_[cell] += delta; }

  [[nodiscard]] std::uint64_t count_at(std::uint64_t cell) const {
    return counts_[cell];
  }
  [[nodiscard]] std::uint64_t count_of(std::span<const State> states) const {
    return counts_[index_of(states)];
  }

  /// Sum of all cells (the number of represented observations).
  [[nodiscard]] std::uint64_t total() const noexcept;

  /// P(cell) = count/total; 0 when the table is empty.
  [[nodiscard]] double probability(std::uint64_t cell) const;

  /// Cell-wise addition; the merge step of Algorithm 3. Throws on shape
  /// mismatch.
  void merge(const MarginalTable& other);

  /// Marginalizes further: sums out every variable NOT in `keep` (indices
  /// into this table's variable list order are global variable ids).
  /// The paper's optimization for Eq. 1: P(x) and P(y) are derived from
  /// P(x,y) instead of re-scanning the potential table.
  [[nodiscard]] MarginalTable sum_out_to(std::span<const std::size_t> keep) const;

  [[nodiscard]] const std::vector<std::uint64_t>& raw_counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<std::size_t> variables_;
  std::vector<std::uint32_t> cardinalities_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace wfbn
