// TableStore: the versioned snapshot store at the heart of the serving layer.
//
// The store extends the paper's wait-free, single-writer philosophy from
// construction time to serving time. The reader side is a wait-free snapshot
// pin (serve/snapshot_cell.hpp) — readers are never blocked by an in-progress
// ingest, never observe a torn table, and keep their pinned version alive for
// as long as their query runs. The writer side folds an incoming observation batch into
// a *shadow copy* of the current snapshot with WaitFreeBuilder::append_shadow
// (reusing append()'s staged, strong-exception-guarantee kernel) and only
// then publishes the copy as version v+1 with one atomic swap. A failed
// ingest — bad batch, worker throw, injected fault — discards the shadow and
// leaves the served version untouched and retryable.
//
// Every snapshot carries a counting index (core/counting_index.hpp). The
// constructor builds its main, the entry planes of the initial table, on a
// pool of the ingest workers. Before each publish, ingest() either extends
// the previous snapshot's delta by the batch's keys or, once the delta has
// passed a fixed share of main's entries, rebuilds main from the shadow
// table on the ingest workers.
//
// Concurrency contract:
//  - current()/version(): safe from any thread, wait-free, O(1).
//  - ingest(): safe from any thread; concurrent ingestors are serialized by a
//    writer mutex that readers never touch.
//
// A template over the key type: TableStore serves narrow tables,
// WideTableStore serves two-word-key tables, through the identical
// publish/pin machinery. The Policy parameter threads the atomics backend
// (concurrent/atomics_policy.hpp) through the publish path — the snapshot
// cell and the publish counter — so the same publish/pin source that serves
// production traffic is what the wfcheck model checker interleaves.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "concurrent/atomics_policy.hpp"
#include "core/wait_free_builder.hpp"
#include "data/dataset.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_cell.hpp"

namespace wfbn::serve {

/// What one successful ingest()/publish did.
struct IngestStats {
  std::uint64_t published_version = 0;
  std::uint64_t batch_rows = 0;
  double shadow_seconds = 0.0;  ///< deep copy + wait-free fold into the shadow
  bool index_rebuilt = false;   ///< this publish rebuilt the index's main
  double total_seconds = 0.0;   ///< shadow + index + publish (and lock wait)
};

template <typename K, typename Policy = RealAtomics>
class BasicTableStore {
 public:
  using Table = BasicPotentialTable<K>;
  using Ptr = BasicSnapshotPtr<K>;

  /// Takes ownership of `initial` and publishes it as `initial_version`
  /// (defaults to 1 for a fresh store; recovery passes the restored durable
  /// version so ingestion resumes the version sequence instead of reissuing
  /// version numbers that already name different snapshots on disk).
  /// `ingest_options` configure the builder the ingestion path uses (worker
  /// count, pinning — see WaitFreeBuilderOptions); the index's main
  /// is built on options.threads workers.
  /// Throws PreconditionError when `initial_version` is 0.
  explicit BasicTableStore(Table initial,
                           WaitFreeBuilderOptions ingest_options = {},
                           std::uint64_t initial_version = 1);

  /// The currently served snapshot. Wait-free; never returns null.
  [[nodiscard]] Ptr current() const noexcept { return current_.load(); }

  /// Version of the currently served snapshot.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return current()->version();
  }

  /// Folds `batch` into a shadow copy of the current snapshot and publishes
  /// it as the next version. Throws (DataError on a mismatched batch,
  /// InjectedFault under test schedules, whatever the fold propagates)
  /// WITHOUT changing the served snapshot; the call may simply be retried.
  IngestStats ingest(const Dataset& batch);

  /// Snapshots published so far, including the initial one. Monotonic;
  /// equals the current version unless a publish is in flight.
  [[nodiscard]] std::uint64_t published_count() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// Ingests whose publish rebuilt the index's main. Monotonic.
  [[nodiscard]] std::uint64_t index_rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  BasicSnapshotCell<K, Policy> current_;
  // wfbn-lint: allow(policy-purity) writer-side only; wfcheck models the reader/writer interplay via current_
  std::mutex ingest_mutex_;              ///< serializes writers only
  BasicWaitFreeBuilder<K> builder_;      ///< guarded by ingest_mutex_
  typename Policy::template Atomic<std::uint64_t> publishes_{1};
  typename Policy::template Atomic<std::uint64_t> rebuilds_{0};
};

extern template class BasicTableStore<Key>;
extern template class BasicTableStore<WideKey>;

using TableStore = BasicTableStore<Key>;
using WideTableStore = BasicTableStore<WideKey>;

}  // namespace wfbn::serve
