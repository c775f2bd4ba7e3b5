// ServeEngine: the query-serving front end over a TableStore.
//
// One engine serves a mixed workload — normalized marginals, conditionals
// given evidence, pairwise mutual information — from whatever snapshot the
// store currently publishes. Per query it (1) pins the current snapshot with
// one wait-free load, (2) consults the sharded result cache under the key
// (kind, query payload, snapshot version), and (3) on a miss counts the
// answer inline from the snapshot's counting index (core/counting_index.hpp)
// and inserts it. Ingestion
// goes through the same engine so the publish and the cache invalidation of
// superseded versions stay paired.
//
// Thread safety: every public method may be called concurrently from any
// number of threads. serve_batch() additionally dispatches a whole workload
// across an existing ThreadPool, block-partitioning the queries over the
// workers (the same scheduling the wait-free builder applies to rows).
//
// A template over the key type: the cache key packs only (version, kind,
// query payload) — never the table key — so ServeEngine (narrow) and
// WideServeEngine share the ResultCache implementation unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/query.hpp"
#include "data/dataset.hpp"
#include "learn/ci_scheduler.hpp"
#include "serve/result_cache.hpp"
#include "serve/table_store.hpp"

namespace wfbn::serve {

enum class QueryKind : std::uint8_t {
  kMarginal,     ///< P(V) over `variables`
  kConditional,  ///< P(V | evidence)
  kPairMi,       ///< I(X_i; X_j) with variables = {i, j}
};

/// One request of a mixed workload.
struct ServeQuery {
  QueryKind kind = QueryKind::kMarginal;
  std::vector<std::size_t> variables;
  std::vector<Evidence> evidence;  ///< kConditional only
};

struct ServeResult {
  std::uint64_t version = 0;  ///< snapshot version that answered
  bool cache_hit = false;
  bool ok = true;             ///< false only from serve_batch (error captured)
  std::string error;          ///< populated when !ok
  /// The distribution in MarginalTable layout for kMarginal/kConditional;
  /// a single element — I(X_i;X_j) in nats — for kPairMi.
  std::vector<double> values;
};

enum class LearnAlgorithm : std::uint8_t {
  kCheng = 0,     ///< Cheng et al. three-phase constraint learner
  kPcStable = 1,  ///< PC-stable skeleton + orientation
  kChowLiu = 2,   ///< maximum-MI spanning tree
};

/// A "learn the structure" job served against the current snapshot — the
/// admin-class counterpart of a ServeQuery. Bounded by construction: the
/// cut-set / level caps limit the conditioning tables, `threads` the pool
/// the job may occupy, and `cancel` lets the caller abort a running job
/// cooperatively (the learner throws OperationCancelled at the next CI
/// test — a clean error, never a torn graph).
struct LearnRequest {
  LearnAlgorithm algorithm = LearnAlgorithm::kCheng;
  CiMethod method = CiMethod::kMiThreshold;
  double mi_threshold = 0.01;  ///< ε for kMiThreshold; min-MI for kChowLiu
  double alpha = 0.01;         ///< significance for kGTest
  std::size_t max_cutset_size = 6;  ///< kCheng
  std::size_t max_level = 3;        ///< kPcStable
  std::size_t threads = 1;          ///< workers for this job's pool
  const std::atomic<bool>* cancel = nullptr;  ///< borrowed, may be null
};

/// The learned CPDAG, version-stamped like every served answer. Skeleton
/// edges are (min, max) pairs in lexicographic order; directed edges are
/// (from, to) in the oriented DAG's lexicographic order.
struct LearnedStructure {
  std::uint64_t version = 0;  ///< snapshot version learned against
  std::size_t nodes = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> skeleton_edges;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> directed_edges;
  std::uint64_t ci_tests = 0;
  double seconds = 0.0;  ///< wall time of the learn job
  CiScheduleStats schedule;
};

template <typename K>
class BasicServeEngine {
 public:
  using Store = BasicTableStore<K>;
  using Table = BasicPotentialTable<K>;

  /// Borrows `store`; it must outlive the engine.
  explicit BasicServeEngine(Store& store);

  /// P(V). Throws PreconditionError on invalid variables.
  ServeResult marginal(std::span<const std::size_t> variables);

  /// P(V | evidence). Throws DataError on zero-support evidence; the failed
  /// answer is never cached.
  ServeResult conditional(std::span<const std::size_t> variables,
                          std::span<const Evidence> evidence);

  /// I(X_i; X_j) in nats, from the pair marginal of the current snapshot.
  ServeResult pair_mi(std::size_t i, std::size_t j);

  /// Dispatches one ServeQuery to the matching method above.
  ServeResult serve(const ServeQuery& query);

  /// Runs a mixed workload across `pool`, one contiguous block of queries
  /// per worker. Per-query failures are captured in the result (ok = false)
  /// instead of aborting the batch — a serving layer answers what it can.
  std::vector<ServeResult> serve_batch(std::span<const ServeQuery> queries,
                                       ThreadPool& pool);

  /// Learns a structure from the *pinned current snapshot*: the job keeps
  /// answering against one immutable table even if ingests publish newer
  /// versions mid-learn, and the result is stamped with that version. Runs
  /// on its own pool of request.threads workers through the parallel CI
  /// scheduler; interactive queries on other threads are untouched. Throws
  /// OperationCancelled when request.cancel is observed set, and propagates
  /// learner errors — callers (the network server) map exceptions to clean
  /// error responses.
  [[nodiscard]] LearnedStructure learn_structure(const LearnRequest& request);

  /// Publishes `batch` as the next snapshot version (TableStore::ingest) and
  /// invalidates cached answers of superseded versions. Throws without
  /// publishing on failure; the served version is untouched.
  IngestStats ingest(const Dataset& batch);

  /// Tells the engine a new version was published *around* it — e.g. by a
  /// DurableTableStore wrapping the same underlying store — so superseded
  /// cached answers can be reclaimed. Purely a memory-reclaim hook: the
  /// version-keyed cache is already correct without it.
  void note_published(std::uint64_t version);

  [[nodiscard]] CacheStats cache_stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] const Store& store() const noexcept { return *store_; }

 private:
  ServeResult answer(QueryKind kind, std::span<const std::size_t> variables,
                     std::span<const Evidence> evidence);
  [[nodiscard]] static std::vector<double> compute(
      const BasicCountingIndex<K>& index, QueryKind kind,
      std::span<const std::size_t> variables,
      std::span<const Evidence> evidence);

  /// Result-cache geometry: 16 shards of 4096 answers each.
  static constexpr std::size_t kCacheShards = 16;
  static constexpr std::size_t kCacheEntriesPerShard = 4096;

  Store* store_;
  ResultCache cache_;
};

extern template class BasicServeEngine<Key>;
extern template class BasicServeEngine<WideKey>;

using ServeEngine = BasicServeEngine<Key>;
using WideServeEngine = BasicServeEngine<WideKey>;

}  // namespace wfbn::serve
