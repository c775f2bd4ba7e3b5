// The unit of publication in the serving layer: an immutable, versioned
// potential table and the counting index every served answer is counted
// from (core/counting_index.hpp).
//
// A Snapshot is created once (by TableStore's constructor or its ingestion
// path), published through the wait-free cell in serve/snapshot_cell.hpp,
// and never mutated again. Readers pin whatever version the publish hands
// them for the duration of one query — the shared_ptr keeps superseded versions alive until their last
// in-flight reader drops out, so a publish never invalidates memory a
// concurrent query is counting from. The version number is what the result cache
// keys on (see serve/result_cache.hpp): answers computed against version v
// can never be served for version v+1.
//
// The index's layers — the planes of the last rebuild and the delta chunks
// ingested since — are shared by shared_ptr<const> with the snapshots before
// and after it, so a publish that only extends the delta copies no planes.
//
// A template over the key type: the serving layer publishes narrow and wide
// tables through the same machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "core/counting_index.hpp"
#include "table/potential_table.hpp"

namespace wfbn::serve {

template <typename K>
class BasicSnapshot {
 public:
  using Table = BasicPotentialTable<K>;
  using Index = BasicCountingIndex<K>;

  /// `layers` must hold `table`'s rows (see BasicCountingIndex); the default
  /// has no main, so every count sweeps the table.
  BasicSnapshot(Table table, std::uint64_t version,
                typename Index::Layers layers = {})
      : table_(std::move(table)),
        index_(table_, std::move(layers)),
        version_(version) {}

  BasicSnapshot(const BasicSnapshot&) = delete;
  BasicSnapshot& operator=(const BasicSnapshot&) = delete;

  [[nodiscard]] const Table& table() const noexcept { return table_; }

  /// Counts every answer served from this snapshot.
  [[nodiscard]] const Index& index() const noexcept { return index_; }

  /// 1-based publication counter; the initial table is version 1.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  Table table_;
  Index index_;  ///< refers to table_
  std::uint64_t version_;
};

/// How readers hold a snapshot: shared ownership, immutable payload.
template <typename K>
using BasicSnapshotPtr = std::shared_ptr<const BasicSnapshot<K>>;

using Snapshot = BasicSnapshot<Key>;
using SnapshotPtr = BasicSnapshotPtr<Key>;
using WideSnapshot = BasicSnapshot<WideKey>;
using WideSnapshotPtr = BasicSnapshotPtr<WideKey>;

}  // namespace wfbn::serve
