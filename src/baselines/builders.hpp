// Table-construction baselines behind one interface, so the benches and the
// scaling simulator can sweep implementations uniformly.
//
// Design points, from most to least shared state:
//  - kSequential   one thread, one private table (the speedup denominator);
//  - kGlobalLock   P threads, one table, one mutex (worst case);
//  - kStriped      P threads, lock-striped chained map — the Intel TBB
//                  concurrent_hash_map stand-in the paper benchmarks against;
//  - kAtomic       P threads, shared open-addressing table with CAS claiming
//                  and fetch_add counts (lock-free, still shared cache lines);
//  - kWaitFree     the paper's primitive (partitioned ownership, SPSC routing).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

enum class BuilderKind {
  kSequential,
  kGlobalLock,
  kStriped,
  kAtomic,
  kWaitFree,
};

[[nodiscard]] std::string_view builder_kind_name(BuilderKind kind);

struct BuilderOptions {
  std::size_t threads = 1;
  /// Lock stripes for kStriped (TBB uses per-bucket locks; more stripes =
  /// finer locking).
  std::size_t stripes = 256;
  bool pin_threads = false;
};

struct BuilderRunStats {
  /// Wall-clock of the parallel construction region only (conversion of a
  /// shared map into the canonical PotentialTable is excluded — the paper
  /// times table construction, not representation shuffling).
  double build_seconds = 0.0;
  /// Per-worker busy time inside the region.
  std::vector<double> worker_seconds;
  /// Lock acquisitions (global-lock / striped builders; 0 otherwise). One of
  /// the contention-model inputs in src/sim.
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t updates = 0;
};

/// Interface every construction strategy implements.
class ITableBuilder {
 public:
  virtual ~ITableBuilder() = default;

  /// Builds the potential table of `data`. Implementations are reusable:
  /// each call starts from an empty table and refreshes stats().
  [[nodiscard]] virtual PotentialTable build(const Dataset& data) = 0;

  [[nodiscard]] virtual const BuilderRunStats& stats() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual BuilderKind kind() const noexcept = 0;
};

/// Factory over all builder kinds.
[[nodiscard]] std::unique_ptr<ITableBuilder> make_builder(BuilderKind kind,
                                                          BuilderOptions options);

}  // namespace wfbn
