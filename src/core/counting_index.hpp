// The counting index of a served table: every marginal, conditional and
// pair MI the serving layer answers is counted here, and so is every
// QueryEngine answer (docs/SERVING.md, "Query path").
//
// Two layers, after the main-plus-delta layout of read-optimized stores
// (Krueger et al., "Fast updates on read-optimized databases using
// multi-core CPUs", VLDB 2011):
//   main   the BasicEntryPlanes of the table at the last rebuild, shared by
//          shared_ptr<const> across the versions that follow;
//   delta  the encoded keys of the rows ingested since, one immutable chunk
//          per batch, shared the same way.
// A marginal is main's count (the lattice or the scatter, whichever the
// planes' cost rule picks, plus main's heavy list) plus every delta key
// through the projector. The sum is exact: a row ingested since the rebuild
// is counted once, from the delta, whatever count its table entry reached —
// an incremented light entry is counted once from its plane and once from
// the delta. A conditional counts V ∪ E, V first, and slices the result at
// the evidence states.
//
// The fallback is one filtered sweep of the index's own table. It runs when
// the cells Π r over V ∪ E outnumber the table's entries, and for a table
// whose planes would pass the plane budget (a multiple of the table's own
// bytes; a variable with r = 256 costs 32 bytes per entry), which gets no
// main at all.
//
// The serving layer's TableStore builds an index for every published
// snapshot: a main at construction, then per ingest either the previous
// index's layers plus one delta chunk, or — once the delta passes a fixed
// share of main's entries — a main rebuilt from the new table.
//
// Read-only after construction: count() may run concurrently from any number
// of threads.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/entry_planes.hpp"
#include "data/dataset.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

/// One observed variable.
struct Evidence {
  std::size_t variable;
  State state;
};

template <typename K>
class BasicCountingIndex {
 public:
  using Codec = BasicKeyCodec<K>;
  using Table = BasicPotentialTable<K>;
  using Planes = BasicEntryPlanes<K>;
  using Chunk = std::vector<K>;  ///< the keys of one ingested batch's rows

  /// What an index counts from besides its table; shared between indexes.
  struct Layers {
    std::shared_ptr<const Planes> main;  ///< null: every count sweeps
    std::vector<std::shared_ptr<const Chunk>> delta;
    std::uint64_t delta_keys = 0;  ///< rows in the delta chunks
  };

  /// The layers of a rebuild: the planes of `table`, built on `pool`, and an
  /// empty delta; no main when the planes would pass the plane budget.
  [[nodiscard]] static Layers build(const Table& table, ThreadPool& pool);

  /// Counts `table` from `layers`, which must hold `table`'s rows (main's
  /// entries plus the delta's keys) when they have a main. `table` must
  /// outlive the index. Default layers sweep the table for every count.
  explicit BasicCountingIndex(const Table& table, Layers layers = {});

  /// Whether a delta of `rows` more keys would pass the rebuild share of
  /// main's entries. Never for an index without a main.
  [[nodiscard]] bool rebuild_due(std::uint64_t rows) const noexcept;

  /// This index's layers plus a delta chunk of `batch`'s keys: the layers of
  /// the table that folds `batch` into this one. An index without a main
  /// keeps none.
  [[nodiscard]] Layers extended(const Dataset& batch) const;

  /// Exact counts of `variables` over the rows matching `evidence`, in the
  /// layout of MarginalTable over `variables`. Evidence variables must be
  /// disjoint from `variables`; throws PreconditionError otherwise and on
  /// out-of-range or repeated variables or states.
  [[nodiscard]] MarginalTable count(std::span<const std::size_t> variables,
                                    std::span<const Evidence> evidence = {}) const;

  [[nodiscard]] const Table& table() const noexcept { return *table_; }
  [[nodiscard]] const Layers& layers() const noexcept { return layers_; }

 private:
  /// The fallback: one sweep of the table, filtered by `evidence`.
  [[nodiscard]] MarginalTable sweep(std::span<const std::size_t> variables,
                                    std::span<const Evidence> evidence) const;

  const Table* table_;
  Layers layers_;
};

extern template class BasicCountingIndex<Key>;
extern template class BasicCountingIndex<WideKey>;

using CountingIndex = BasicCountingIndex<Key>;
using WideCountingIndex = BasicCountingIndex<WideKey>;

}  // namespace wfbn
