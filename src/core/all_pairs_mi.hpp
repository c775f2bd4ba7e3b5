// All-pairs mutual information (paper Algorithm 4): the statistics pass of
// the drafting phase. For every pair (i, j) the pair marginal P(x_i, x_j) is
// built from the potential table, and I(X_i;X_j) is evaluated from it (the
// single-variable marginals are derived from the pair table — Eq. 1's three
// marginalizations collapse into one, as §IV-C describes).
//
// Two strategies, both exact integer counting, so their MI matrices are
// bitwise identical (DESIGN.md ablation ABL-MI):
//  - kPairParallel  Algorithm 4 as published: pairs are block-distributed
//                   over the workers; each worker sweeps the whole table per
//                   pair. The reference the tests and bench/fig5 use.
//  - kFused         (default) a two-pass column kernel. Pass 1 is
//                   BasicEntryPlanes (core/entry_planes.hpp): one parallel
//                   sweep transposes the count-1 (light) entries into
//                   one-hot bit planes, one per (variable, state >= 1), and
//                   lists the count > 1 (heavy) entries. Pass 2 runs in
//                   parallel: the heavy list takes the per-entry pair update
//                   into worker-private pair tables; then, over the pair
//                   space, light cell (a>=1, b>=1) is
//                   popcount(plane_i^a & plane_j^b), row/column 0 and cell
//                   (0,0) follow from the per-plane light totals and the
//                   light entry count, and the heavy tables are added.
//                   Cost O(E·n + Σ(r_i−1)(r_j−1)·E/64 + H·n²) for E entries
//                   of which H are heavy — versus O(E·n²) for a per-entry
//                   pair update. Uncompressed tables (E ≈ m, nearly all
//                   light) gain the most; compressed ones (mostly heavy)
//                   keep the per-entry path. A caller that has the planes
//                   already (Cheng's learner, whose CI tests count from
//                   them) passes them in, and pass 1 is not repeated.
//
// A template over the key type; both strategies decode single variables
// through the codec's VarLeg recipe, so they work at both key widths.
#pragma once

#include <cstdint>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/entry_planes.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// Symmetric n×n matrix of pair statistics with a zero diagonal.
class MiMatrix {
 public:
  explicit MiMatrix(std::size_t n) : n_(n), cells_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return cells_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, double value) {
    cells_[i * n_ + j] = value;
    cells_[j * n_ + i] = value;
  }

  /// Pairs with MI above `threshold`, sorted by descending MI — the candidate
  /// edge list the drafting phase consumes.
  struct ScoredPair {
    std::size_t i, j;
    double mi;
  };
  [[nodiscard]] std::vector<ScoredPair> pairs_above(double threshold) const;

 private:
  std::size_t n_;
  std::vector<double> cells_;
};

/// Explicit values: they are printed in test names and logs, so they stay
/// stable when strategies are added or removed.
enum class AllPairsStrategy { kPairParallel = 0, kFused = 2 };

struct AllPairsOptions {
  std::size_t threads = 1;
  AllPairsStrategy strategy = AllPairsStrategy::kFused;
};

struct AllPairsStats {
  double total_seconds = 0.0;
  std::uint64_t pair_count = 0;
  /// Per-worker busy time; max over workers is the simulated-makespan input.
  /// kFused counts pass 1 (the plane build) and pass 2.
  std::vector<double> worker_seconds;
  /// Table entries each worker swept (kFused: in the plane build).
  std::vector<std::uint64_t> worker_entries_visited;
};

template <typename K>
class BasicAllPairsMi {
 public:
  using Codec = BasicKeyCodec<K>;
  using Table = BasicPotentialTable<K>;
  using Planes = BasicEntryPlanes<K>;

  explicit BasicAllPairsMi(AllPairsOptions options = {});

  /// MI of every unordered variable pair of `table`.
  [[nodiscard]] MiMatrix compute(const Table& table);
  [[nodiscard]] MiMatrix compute(const Table& table, ThreadPool& pool);

  /// Same, for the table `planes` were built from: kFused from pass 2. The
  /// planes hold no table to sweep, so kPairParallel needs compute(table).
  [[nodiscard]] MiMatrix compute(const Planes& planes, ThreadPool& pool);

  [[nodiscard]] const AllPairsStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AllPairsOptions& options() const noexcept { return options_; }

 private:
  void reset_stats(std::size_t n, std::size_t workers);
  MiMatrix compute_pair_parallel(const Table& table, ThreadPool& pool);
  MiMatrix compute_fused(const Planes& planes, ThreadPool& pool);

  AllPairsOptions options_;
  AllPairsStats stats_;
};

extern template class BasicAllPairsMi<Key>;
extern template class BasicAllPairsMi<WideKey>;

using AllPairsMi = BasicAllPairsMi<Key>;
using WideAllPairsMi = BasicAllPairsMi<WideKey>;

}  // namespace wfbn
