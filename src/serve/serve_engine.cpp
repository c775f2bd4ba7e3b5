#include "serve/serve_engine.hpp"

#include <exception>
#include <utility>

#include "core/info_theory.hpp"
#include "learn/cheng.hpp"
#include "learn/chow_liu.hpp"
#include "learn/pc_stable.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wfbn::serve {

namespace {

/// Packs (version, kind, variables, evidence) into a flat word vector. Each
/// variable-length section is preceded by its length, so the encoding is
/// self-delimiting and two distinct queries can never pack identically.
CacheKey make_key(std::uint64_t version, QueryKind kind,
                  std::span<const std::size_t> variables,
                  std::span<const Evidence> evidence) {
  std::vector<std::uint64_t> words;
  words.reserve(4 + variables.size() + evidence.size());
  words.push_back(version);  // word 0: version (ResultCache relies on this)
  words.push_back(static_cast<std::uint64_t>(kind));
  words.push_back(static_cast<std::uint64_t>(variables.size()));
  for (const std::size_t v : variables) {
    words.push_back(static_cast<std::uint64_t>(v));
  }
  words.push_back(static_cast<std::uint64_t>(evidence.size()));
  for (const Evidence& e : evidence) {
    words.push_back((static_cast<std::uint64_t>(e.variable) << 8) |
                    static_cast<std::uint64_t>(e.state));
  }
  return CacheKey(std::move(words));
}

}  // namespace

template <typename K>
BasicServeEngine<K>::BasicServeEngine(Store& store)
    : store_(&store), cache_(kCacheShards, kCacheEntriesPerShard) {}

template <typename K>
std::vector<double> BasicServeEngine<K>::compute(
    const BasicCountingIndex<K>& index, QueryKind kind,
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) {
  switch (kind) {
    case QueryKind::kMarginal:
      return BasicQueryEngine<K>(index).marginal(variables);
    case QueryKind::kConditional:
      return BasicQueryEngine<K>(index).conditional(variables, evidence);
    case QueryKind::kPairMi: {
      WFBN_EXPECT(variables.size() == 2, "pair MI takes exactly two variables");
      // One pair marginal answers Eq. 1 — the single-variable marginals are
      // derived from the pair table (paper §IV-C).
      return {mutual_information(index.count(variables))};
    }
  }
  throw PreconditionError("unknown query kind");
}

template <typename K>
ServeResult BasicServeEngine<K>::answer(
    QueryKind kind, std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) {
  // Pin the snapshot once: version, cache key, and evaluation all refer to
  // this one table even if a publish lands mid-query.
  const BasicSnapshotPtr<K> snapshot = store_->current();
  ServeResult result;
  result.version = snapshot->version();

  const CacheKey key = make_key(snapshot->version(), kind, variables, evidence);
  if (std::optional<std::vector<double>> hit = cache_.lookup(key)) {
    result.cache_hit = true;
    result.values = std::move(*hit);
    return result;
  }

  result.values = compute(snapshot->index(), kind, variables, evidence);
  cache_.insert(key, result.values);
  return result;
}

template <typename K>
ServeResult BasicServeEngine<K>::marginal(
    std::span<const std::size_t> variables) {
  return answer(QueryKind::kMarginal, variables, {});
}

template <typename K>
ServeResult BasicServeEngine<K>::conditional(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) {
  return answer(QueryKind::kConditional, variables, evidence);
}

template <typename K>
ServeResult BasicServeEngine<K>::pair_mi(std::size_t i, std::size_t j) {
  const std::size_t pair[] = {i, j};
  return answer(QueryKind::kPairMi, pair, {});
}

template <typename K>
ServeResult BasicServeEngine<K>::serve(const ServeQuery& query) {
  return answer(query.kind, query.variables, query.evidence);
}

template <typename K>
std::vector<ServeResult> BasicServeEngine<K>::serve_batch(
    std::span<const ServeQuery> queries, ThreadPool& pool) {
  std::vector<ServeResult> results(queries.size());
  pool.run([&](std::size_t w) {
    const auto [lo, hi] =
        ThreadPool::block_range(queries.size(), pool.size(), w);
    for (std::size_t i = lo; i < hi; ++i) {
      try {
        results[i] = serve(queries[i]);
      } catch (const std::exception& e) {
        results[i].ok = false;
        results[i].error = e.what();
        results[i].version = store_->version();
      }
    }
  });
  return results;
}

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_pairs(
    const std::vector<Edge>& edges) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    out.emplace_back(static_cast<std::uint32_t>(e.from),
                     static_cast<std::uint32_t>(e.to));
  }
  return out;
}

void check_cancel(const std::atomic<bool>* cancel) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    throw OperationCancelled("learn job cancelled");
  }
}

}  // namespace

template <typename K>
LearnedStructure BasicServeEngine<K>::learn_structure(
    const LearnRequest& request) {
  WFBN_EXPECT(request.threads >= 1, "learn job needs at least one thread");
  const Timer timer;
  // Pin once: the whole job — MI matrix, every CI test, the result stamp —
  // reads this one immutable table, however many ingests land meanwhile.
  const BasicSnapshotPtr<K> snapshot = store_->current();
  const Table& table = snapshot->table();

  LearnedStructure learned;
  learned.version = snapshot->version();
  learned.nodes = table.codec().variable_count();

  ThreadPool pool(request.threads);
  CiOptions ci;
  ci.method = request.method;
  ci.mi_threshold = request.mi_threshold;
  ci.alpha = request.alpha;
  ci.cancel = request.cancel;

  switch (request.algorithm) {
    case LearnAlgorithm::kCheng: {
      ChengOptions options;
      options.ci = ci;
      options.max_cutset_size = request.max_cutset_size;
      const BasicChengLearner<K> learner(options, pool);
      ChengResult result = learner.learn(table);
      learned.skeleton_edges = edge_pairs(result.skeleton.edges());
      learned.directed_edges = edge_pairs(result.oriented.edges());
      learned.ci_tests = result.ci_tests;
      learned.schedule = result.schedule;
      break;
    }
    case LearnAlgorithm::kPcStable: {
      PcStableOptions options;
      options.ci = ci;
      options.max_level = request.max_level;
      const BasicPcStableLearner<K> learner(options, pool);
      PcStableResult result = learner.learn(table);
      learned.skeleton_edges = edge_pairs(result.skeleton.edges());
      learned.directed_edges = edge_pairs(result.oriented.edges());
      learned.ci_tests = result.ci_tests;
      learned.schedule = result.schedule;
      break;
    }
    case LearnAlgorithm::kChowLiu: {
      // The MI sweep is one parallel pass without per-test cancel points;
      // poll the token on either side so a cancelled job still returns
      // promptly relative to its own runtime.
      check_cancel(request.cancel);
      const ChowLiuResult result =
          chow_liu_learn(table, pool, request.mi_threshold);
      check_cancel(request.cancel);
      learned.skeleton_edges = edge_pairs(result.tree.edges());
      learned.directed_edges = edge_pairs(result.rooted.edges());
      break;
    }
  }
  learned.seconds = timer.seconds();
  return learned;
}

template <typename K>
IngestStats BasicServeEngine<K>::ingest(const Dataset& batch) {
  const IngestStats stats = store_->ingest(batch);
  // Reclaim answers of superseded versions. Version-keyed lookups already
  // guarantee they can never be served again; this only frees the memory.
  cache_.invalidate_before(stats.published_version);
  return stats;
}

template <typename K>
void BasicServeEngine<K>::note_published(std::uint64_t version) {
  cache_.invalidate_before(version);
}

template class BasicServeEngine<Key>;
template class BasicServeEngine<WideKey>;

}  // namespace wfbn::serve
