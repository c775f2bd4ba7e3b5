// Tests for the serving layer (src/serve): the versioned snapshot store, the
// sharded result cache, and the ServeEngine front end.
//
// The contracts under test mirror docs/SERVING.md:
//  1. Publication atomicity — a reader concurrent with any number of
//     publishes only ever observes complete versions, never a torn or
//     partially appended table.
//  2. Cache transparency — cached answers are byte-identical to an uncached
//     QueryEngine over the same snapshot, across version bumps.
//  3. Failure semantics — a failed publish (injected or real) leaves the
//     served version untouched and retryable; a failed cache insert degrades
//     to an uncached (still correct) answer.
//  4. Exact answers — every served marginal, conditional and pair MI equals
//     the counts of the raw rows of the version that answered it, whichever
//     layers of the counting index counted it (the served-answer oracle at
//     the end of this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/info_theory.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "raw_rows.hpp"
#include "scratch_dir.hpp"
#include "serve/persist/durable_store.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/snapshot_reader.hpp"
#include "serve/persist/snapshot_writer.hpp"
#include "serve/serve_engine.hpp"
#include "serve/table_store.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

using serve::CacheStats;
using serve::IngestStats;
using serve::QueryKind;
using serve::ServeEngine;
using serve::ServeQuery;
using serve::ServeResult;
using serve::SnapshotPtr;
using serve::TableStore;

PotentialTable build(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

std::map<Key, std::uint64_t> key_counts(const Dataset& data) {
  const KeyCodec codec = data.codec();
  std::map<Key, std::uint64_t> counts;
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    ++counts[codec.encode(data.row(i))];
  }
  return counts;
}

std::map<Key, std::uint64_t> table_counts(const PotentialTable& table) {
  std::map<Key, std::uint64_t> counts;
  table.partitions().for_each(
      [&](Key key, std::uint64_t c) { counts[key] += c; });
  return counts;
}

/// Exact bytewise equality of two double vectors (the cache-transparency
/// contract is bit-identical answers, not approximately-equal ones).
bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(TableStore, InitialSnapshotIsVersionOne) {
  const Dataset data = generate_uniform(2000, 8, 2, 0x51);
  TableStore store(build(data));
  const SnapshotPtr snap = store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.published_count(), 1u);
  EXPECT_EQ(table_counts(snap->table()), key_counts(data));
}

TEST(TableStore, IngestPublishesNextVersionAndPinsOldOnes) {
  const Dataset base = generate_uniform(2000, 8, 2, 0x52);
  const Dataset batch1 = generate_uniform(1500, 8, 2, 0x53);
  const Dataset batch2 = generate_uniform(1000, 8, 2, 0x54);
  TableStore store(build(base));

  // A reader that pinned version 1 keeps an intact version 1 across both
  // publishes — that is the whole point of snapshot serving.
  const SnapshotPtr pinned = store.current();
  const auto base_reference = key_counts(base);

  const IngestStats s1 = store.ingest(batch1);
  EXPECT_EQ(s1.published_version, 2u);
  EXPECT_EQ(s1.batch_rows, batch1.sample_count());
  const IngestStats s2 = store.ingest(batch2);
  EXPECT_EQ(s2.published_version, 3u);
  EXPECT_EQ(store.version(), 3u);
  EXPECT_EQ(store.published_count(), 3u);

  std::map<Key, std::uint64_t> combined = base_reference;
  for (const auto& [key, c] : key_counts(batch1)) combined[key] += c;
  for (const auto& [key, c] : key_counts(batch2)) combined[key] += c;
  EXPECT_EQ(table_counts(store.current()->table()), combined);
  EXPECT_EQ(store.current()->table().sample_count(),
            base.sample_count() + batch1.sample_count() + batch2.sample_count());

  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(table_counts(pinned->table()), base_reference);
}

TEST(TableStore, IngestRejectsMismatchedBatchWithoutPublishing) {
  const Dataset base = generate_uniform(2000, 8, 2, 0x55);
  TableStore store(build(base));
  const Dataset wrong_arity = generate_uniform(500, 9, 2, 0x56);
  EXPECT_THROW((void)store.ingest(wrong_arity), DataError);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(table_counts(store.current()->table()), key_counts(base));
}

// Contract 1: concurrent readers during a stream of >= 8 publishes observe
// only fully published versions. Completeness oracle: for version v the
// sample count must be exactly m0 + (v-1)·mb, and the partition counts must
// sum to the sample count (a torn/partial fold would break either). Run under
// TSan this also proves the publish edge orders the shadow fold's writes.
TEST(TableStore, ConcurrentReadersSeeOnlyCompleteVersions) {
  constexpr std::size_t kBaseRows = 1500;
  constexpr std::size_t kBatchRows = 800;
  constexpr std::size_t kBatches = 8;
  constexpr std::size_t kReaders = 3;

  const Dataset base = generate_uniform(kBaseRows, 8, 2, 0x61);
  TableStore store(build(base));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> observations{0};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const SnapshotPtr snap = store.current();
        const std::uint64_t v = snap->version();
        const std::uint64_t expected_m =
            kBaseRows + (v - 1) * static_cast<std::uint64_t>(kBatchRows);
        if (v < last_version || v > kBatches + 1 ||
            snap->table().sample_count() != expected_m ||
            snap->table().partitions().total_count() != expected_m) {
          violations.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        last_version = v;
        observations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t b = 0; b < kBatches; ++b) {
    const Dataset batch = generate_uniform(kBatchRows, 8, 2, 0x62 + b);
    const IngestStats stats = store.ingest(batch);
    EXPECT_EQ(stats.published_version, b + 2);
    // Give readers a beat on single-core hosts so they actually interleave
    // with distinct versions instead of only seeing the final one.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(store.version(), kBatches + 1);
}

// Contract 2: every cached answer is byte-identical to an uncached
// QueryEngine over the same table, and repeated queries are served from the
// cache.
TEST(ServeEngine, CachedAnswersMatchUncachedQueryEngine) {
  const Dataset data = generate_chain_correlated(6000, 8, 2, 0.8, 0x71);
  TableStore store(build(data));
  ServeEngine engine(store);
  const QueryEngine reference(store.current()->table(), 1);

  const std::vector<std::vector<std::size_t>> marginals = {
      {0}, {3}, {0, 1}, {2, 5}, {0, 1, 2}};
  const std::vector<Evidence> evidence = {{1, 0}};

  for (int round = 0; round < 2; ++round) {
    const bool expect_hit = round == 1;
    for (const std::vector<std::size_t>& vars : marginals) {
      const ServeResult served = engine.marginal(vars);
      EXPECT_EQ(served.version, 1u);
      EXPECT_EQ(served.cache_hit, expect_hit);
      EXPECT_TRUE(bytes_equal(served.values, reference.marginal(vars)));
    }
    const std::size_t cond_vars[] = {0};
    const ServeResult cond = engine.conditional(cond_vars, evidence);
    EXPECT_EQ(cond.cache_hit, expect_hit);
    EXPECT_TRUE(bytes_equal(cond.values,
                            reference.conditional(cond_vars, evidence)));
    const ServeResult mi = engine.pair_mi(0, 1);
    EXPECT_EQ(mi.cache_hit, expect_hit);
    ASSERT_EQ(mi.values.size(), 1u);
    const double expected_mi =
        mutual_information(testing_support::raw_marginal(data, {0, 1}));
    EXPECT_EQ(mi.values[0], expected_mi);
  }

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, marginals.size() + 2);
  EXPECT_EQ(stats.misses, marginals.size() + 2);
  EXPECT_EQ(stats.insertions, marginals.size() + 2);
}

TEST(ServeEngine, PublishInvalidatesAndRecomputesAgainstNewVersion) {
  const Dataset base = generate_chain_correlated(4000, 8, 2, 0.8, 0x72);
  const Dataset batch = generate_chain_correlated(4000, 8, 2, 0.8, 0x73);
  TableStore store(build(base));
  ServeEngine engine(store);

  const std::size_t vars[] = {0, 1};
  const ServeResult before = engine.marginal(vars);
  EXPECT_EQ(before.version, 1u);
  EXPECT_FALSE(before.cache_hit);
  EXPECT_TRUE(engine.marginal(vars).cache_hit);

  const IngestStats ingest = engine.ingest(batch);
  EXPECT_EQ(ingest.published_version, 2u);
  EXPECT_GT(engine.cache_stats().invalidated_entries, 0u);

  const ServeResult after = engine.marginal(vars);
  EXPECT_EQ(after.version, 2u);
  EXPECT_FALSE(after.cache_hit);  // version bump ⇒ the old entry cannot serve
  const QueryEngine reference(store.current()->table(), 1);
  EXPECT_TRUE(bytes_equal(after.values, reference.marginal(vars)));
  // The distributions genuinely differ between versions for this workload.
  EXPECT_FALSE(bytes_equal(before.values, after.values));
  EXPECT_TRUE(engine.marginal(vars).cache_hit);
}

TEST(ServeEngine, ZeroSupportEvidenceThrowsAndIsNeverCached) {
  // Two constant rows: evidence X0=1 has zero support.
  std::vector<State> cells = {0, 0, 0, 0};
  const Dataset data(2, {2, 2}, std::move(cells));
  TableStore store(build(data, 1));
  ServeEngine engine(store);
  const std::size_t vars[] = {1};
  const std::vector<Evidence> impossible = {{0, 1}};
  EXPECT_THROW((void)engine.conditional(vars, impossible), DataError);
  EXPECT_THROW((void)engine.conditional(vars, impossible), DataError);
  EXPECT_EQ(engine.cache_stats().insertions, 0u);
}

TEST(ServeEngine, ServeBatchDispatchesMixedWorkloadAcrossPool) {
  const Dataset data = generate_chain_correlated(5000, 8, 2, 0.8, 0x74);
  TableStore store(build(data));
  ServeEngine engine(store);
  const QueryEngine reference(store.current()->table(), 1);

  std::vector<ServeQuery> queries;
  queries.push_back({QueryKind::kMarginal, {0}, {}});
  queries.push_back({QueryKind::kMarginal, {1, 2}, {}});
  queries.push_back({QueryKind::kConditional, {0}, {Evidence{1, 0}}});
  queries.push_back({QueryKind::kPairMi, {0, 1}, {}});
  queries.push_back({QueryKind::kMarginal, {0}, {}});  // repeat of [0]
  // An invalid query must fail alone, not abort the batch.
  queries.push_back({QueryKind::kConditional, {0}, {Evidence{9, 0}}});

  ThreadPool pool(4);
  const std::vector<ServeResult> results = engine.serve_batch(queries, pool);
  ASSERT_EQ(results.size(), queries.size());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(results[i].ok) << "query " << i << ": " << results[i].error;
    EXPECT_EQ(results[i].version, 1u);
  }
  EXPECT_TRUE(bytes_equal(results[0].values, reference.marginal(queries[0].variables)));
  EXPECT_TRUE(bytes_equal(results[1].values, reference.marginal(queries[1].variables)));
  EXPECT_TRUE(bytes_equal(
      results[2].values,
      reference.conditional(queries[2].variables, queries[2].evidence)));
  EXPECT_TRUE(bytes_equal(results[4].values, results[0].values));
  EXPECT_FALSE(results[5].ok);
  EXPECT_FALSE(results[5].error.empty());
}

// Contract 3a: an injected fault at the publish point aborts the ingest
// without changing the served snapshot, and the ingest is retryable.
TEST(ServeFaults, FailedPublishLeavesServedVersionUntouchedAndRetryable) {
  const Dataset base = generate_uniform(3000, 8, 2, 0x81);
  const Dataset batch = generate_uniform(2000, 8, 2, 0x82);
  TableStore store(build(base));
  const auto base_reference = key_counts(base);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kServePublish, 1);
  EXPECT_THROW((void)store.ingest(batch), InjectedFault);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.published_count(), 1u);
  EXPECT_EQ(table_counts(store.current()->table()), base_reference);
  EXPECT_TRUE(store.current()->table().validate());

  // Retry with the schedule cleared: the same batch publishes cleanly.
  fault::reset();
  const IngestStats stats = store.ingest(batch);
  EXPECT_EQ(stats.published_version, 2u);
  std::map<Key, std::uint64_t> combined = base_reference;
  for (const auto& [key, c] : key_counts(batch)) combined[key] += c;
  EXPECT_EQ(table_counts(store.current()->table()), combined);
}

// Contract 3b: a cache-insert fault degrades to an uncached answer — the
// query still succeeds with the exact value, it is just recomputed next time.
TEST(ServeFaults, CacheInsertFaultDegradesToUncachedAnswer) {
  const Dataset data = generate_uniform(3000, 8, 2, 0x83);
  TableStore store(build(data));
  ServeEngine engine(store);
  const QueryEngine reference(store.current()->table(), 1);
  const std::size_t vars[] = {0, 1};

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kServeCache, 1);
  const ServeResult dropped = engine.marginal(vars);
  EXPECT_FALSE(dropped.cache_hit);
  EXPECT_TRUE(bytes_equal(dropped.values, reference.marginal(vars)));
  EXPECT_EQ(engine.cache_stats().dropped_inserts, 1u);
  EXPECT_EQ(engine.cache_stats().insertions, 0u);

  // The armed hit has fired; subsequent inserts land and hits resume.
  const ServeResult recomputed = engine.marginal(vars);
  EXPECT_FALSE(recomputed.cache_hit);
  EXPECT_TRUE(bytes_equal(recomputed.values, dropped.values));
  EXPECT_TRUE(engine.marginal(vars).cache_hit);
}

// Contract 3 under randomized schedules (the PR 1 fuzz harness pointed at the
// ingest/publish path): any schedule either publishes the exact combined
// table or throws a typed error with the served snapshot bit-identical to the
// pre-ingest state. Interleaved queries must always match an uncached engine
// over whatever version is being served.
TEST(ServeFaults, RandomFaultSchedulesThroughIngestPublishPath) {
  const Dataset base = generate_uniform(2500, 8, 2, 0x91);
  std::vector<Dataset> batches;
  for (std::uint64_t b = 0; b < 4; ++b) {
    batches.push_back(generate_uniform(1200, 8, 2, 0x92 + b));
  }

  WaitFreeBuilderOptions ingest_options;
  ingest_options.threads = 4;
  TableStore store(build(base), ingest_options);
  ServeEngine engine(store);

  std::map<Key, std::uint64_t> expected = key_counts(base);
  std::uint64_t expected_version = 1;
  Xoshiro256 meta_rng(0xFA03);
  int published = 0, faulted = 0;

  for (std::uint64_t round = 0; round < 60; ++round) {
    const Dataset& batch = batches[round % batches.size()];

    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(meta_rng());
    SCOPED_TRACE("round " + std::to_string(round) + " schedule={" + schedule +
                 "}");
    try {
      const IngestStats stats = engine.ingest(batch);
      ++expected_version;
      for (const auto& [key, c] : key_counts(batch)) expected[key] += c;
      ASSERT_EQ(stats.published_version, expected_version);
      ++published;
    } catch (const InjectedFault&) {
      ++faulted;
    }
    // Whatever happened, the served snapshot is exactly the expected state.
    const SnapshotPtr snap = store.current();
    ASSERT_EQ(snap->version(), expected_version);
    ASSERT_EQ(table_counts(snap->table()), expected);
    ASSERT_TRUE(snap->table().validate());

    // And a query through the (fault-armed!) serving path matches an
    // uncached reference engine bit for bit.
    const std::size_t vars[] = {round % 8};
    const ServeResult served = engine.marginal(vars);
    ASSERT_EQ(served.version, expected_version);
    ASSERT_TRUE(bytes_equal(served.values,
                            QueryEngine(snap->table(), 1).marginal(vars)));
  }
  EXPECT_GT(published, 0);
  EXPECT_GT(faulted, 0) << published << " published";
}

// ------------------------------------------------------- wide-key serving

// The key-trait-templated serve stack makes the same contracts hold past the
// 64-bit key limit: these round-trips run at n = 100 binary variables
// (joint state space 2^100), where narrow keys cannot even encode a row.

WidePotentialTable wide_build(const Dataset& data, std::size_t threads = 4) {
  WaitFreeBuilderOptions options;
  options.threads = threads;
  return WideWaitFreeBuilder(options).build(data);
}

// Contract 1 at wide keys: concurrent readers over a WideTableStore observe
// only complete versions (same completeness oracle as the narrow test).
TEST(WideTableStore, ConcurrentReadersSeeOnlyCompleteVersions) {
  constexpr std::size_t kBaseRows = 1200;
  constexpr std::size_t kBatchRows = 600;
  constexpr std::size_t kBatches = 6;
  constexpr std::size_t kReaders = 3;

  const Dataset base = generate_chain_correlated(kBaseRows, 100, 2, 0.8, 0xA1);
  serve::WideTableStore store(wide_build(base));
  EXPECT_EQ(store.version(), 1u);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> observations{0};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        const serve::WideSnapshotPtr snap = store.current();
        const std::uint64_t v = snap->version();
        const std::uint64_t expected_m =
            kBaseRows + (v - 1) * static_cast<std::uint64_t>(kBatchRows);
        if (v < last_version || v > kBatches + 1 ||
            snap->table().sample_count() != expected_m ||
            snap->table().total_count() != expected_m) {
          violations.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        last_version = v;
        observations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::size_t b = 0; b < kBatches; ++b) {
    const Dataset batch =
        generate_chain_correlated(kBatchRows, 100, 2, 0.8, 0xA2 + b);
    const IngestStats stats = store.ingest(batch);
    EXPECT_EQ(stats.published_version, b + 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(store.version(), kBatches + 1);
}

// Contract 2 at wide keys: every cached wide answer is byte-identical to an
// uncached WideQueryEngine over the same snapshot, across the full query mix
// (marginal, conditional, pair MI) — including a pair straddling the word
// boundary of the two-word codec.
TEST(WideServeEngine, CachedWideAnswersMatchUncached) {
  const Dataset data = generate_chain_correlated(4000, 100, 2, 0.8, 0xB1);
  serve::WideTableStore store(wide_build(data));
  serve::WideServeEngine engine(store);
  const WideQueryEngine reference(store.current()->table(), 1);

  const std::vector<std::vector<std::size_t>> marginals = {
      {0}, {50}, {99}, {0, 99}, {62, 63}};  // {62,63} spans the word boundary
  const std::vector<Evidence> evidence = {{1, 0}};

  for (int round = 0; round < 2; ++round) {
    const bool expect_hit = round == 1;
    for (const std::vector<std::size_t>& vars : marginals) {
      const ServeResult served = engine.marginal(vars);
      EXPECT_EQ(served.version, 1u);
      EXPECT_EQ(served.cache_hit, expect_hit);
      EXPECT_TRUE(bytes_equal(served.values, reference.marginal(vars)));
    }
    const std::size_t cond_vars[] = {0};
    const ServeResult cond = engine.conditional(cond_vars, evidence);
    EXPECT_EQ(cond.cache_hit, expect_hit);
    EXPECT_TRUE(bytes_equal(cond.values,
                            reference.conditional(cond_vars, evidence)));
    const ServeResult mi = engine.pair_mi(62, 63);
    EXPECT_EQ(mi.cache_hit, expect_hit);
    ASSERT_EQ(mi.values.size(), 1u);
    EXPECT_EQ(mi.values[0], mutual_information(
                                testing_support::raw_marginal(data, {62, 63})));
  }

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, marginals.size() + 2);
  EXPECT_EQ(stats.misses, marginals.size() + 2);
}

// Round-trip across a publish: the version bump invalidates wide cached
// answers and recomputation matches an uncached engine over the new snapshot.
TEST(WideServeEngine, PublishInvalidatesAndRecomputesWideAnswers) {
  const Dataset base = generate_chain_correlated(2500, 100, 2, 0.8, 0xB2);
  const Dataset batch = generate_chain_correlated(2500, 100, 2, 0.8, 0xB3);
  serve::WideTableStore store(wide_build(base));
  serve::WideServeEngine engine(store);

  const std::size_t vars[] = {62, 63};
  const ServeResult before = engine.marginal(vars);
  EXPECT_EQ(before.version, 1u);
  EXPECT_TRUE(engine.marginal(vars).cache_hit);

  const IngestStats ingest = engine.ingest(batch);
  EXPECT_EQ(ingest.published_version, 2u);
  EXPECT_EQ(store.current()->table().sample_count(),
            base.sample_count() + batch.sample_count());

  const ServeResult after = engine.marginal(vars);
  EXPECT_EQ(after.version, 2u);
  EXPECT_FALSE(after.cache_hit);
  const WideQueryEngine reference(store.current()->table(), 1);
  EXPECT_TRUE(bytes_equal(after.values, reference.marginal(vars)));
  EXPECT_TRUE(engine.marginal(vars).cache_hit);
}

// Contract 3 at wide keys: a failed wide publish leaves the served version
// untouched and retryable (the strong guarantee the unified kernel threads
// through both widths).
TEST(WideServeFaults, FailedWidePublishLeavesServedVersionUntouched) {
  const Dataset base = generate_chain_correlated(2000, 100, 2, 0.8, 0xC1);
  const Dataset batch = generate_chain_correlated(1500, 100, 2, 0.8, 0xC2);
  serve::WideTableStore store(wide_build(base));

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kServePublish, 1);
  EXPECT_THROW((void)store.ingest(batch), InjectedFault);
  EXPECT_EQ(store.version(), 1u);
  EXPECT_EQ(store.current()->table().sample_count(), base.sample_count());
  EXPECT_TRUE(store.current()->table().validate());

  fault::reset();
  const IngestStats stats = store.ingest(batch);
  EXPECT_EQ(stats.published_version, 2u);
  EXPECT_EQ(store.current()->table().sample_count(),
            base.sample_count() + batch.sample_count());
}

TEST(ResultCache, EvictionReclaimsSupersededVersionsFirst) {
  serve::ResultCache cache(1, 4);  // one shard, tiny capacity
  auto key = [](std::uint64_t version, std::uint64_t payload) {
    return serve::CacheKey({version, payload});
  };
  for (std::uint64_t p = 0; p < 4; ++p) {
    cache.insert(key(1, p), {static_cast<double>(p)});
  }
  EXPECT_EQ(cache.entry_count(), 4u);
  // The shard is full; inserting a version-2 key evicts the stale entries.
  cache.insert(key(2, 0), {42.0});
  EXPECT_EQ(cache.entry_count(), 1u);
  ASSERT_TRUE(cache.lookup(key(2, 0)).has_value());
  EXPECT_EQ(cache.stats().evicted_entries, 4u);
  EXPECT_FALSE(cache.lookup(key(1, 0)).has_value());
}

// ---------------------------------------------------------------- recovery
// Edge cases at the seam between the serving layer and the durability layer
// (the persist subsystem's own tests live in test_persist.cpp).

namespace persist = serve::persist;

using testing_support::ScratchDir;

ScratchDir recovery_dir(const std::string& name) {
  return ScratchDir("wfbn_serve_" + name);
}

TEST(ServeRecovery, EmptyStoreDirectoryIsAFreshStartNotAnError) {
  const ScratchDir scratch = recovery_dir("empty");
  const std::filesystem::path& dir = scratch.path();
  const auto recovery = persist::recover_store_dir<Key>(dir);
  EXPECT_FALSE(recovery.table.has_value());
  EXPECT_EQ(recovery.report.recovered_version, 0u);
  EXPECT_FALSE(recovery.report.manifest_valid);
  EXPECT_EQ(recovery.report.segments_scanned, 0u);
  EXPECT_TRUE(recovery.report.rejected.empty());
  // A directory that does not exist at all degrades the same way.
  const auto missing =
      persist::recover_store_dir<Key>(dir / "never_created");
  EXPECT_FALSE(missing.table.has_value());
  EXPECT_EQ(missing.report.recovered_version, 0u);
}

TEST(ServeRecovery, ManifestNamingMissingSegmentFallsBackToNewestPresent) {
  const Dataset data = generate_chain_correlated(3000, 8, 2, 0.8, 0xC1);
  const PotentialTable table = build(data);
  const ScratchDir scratch = recovery_dir("missing_segment");
  const std::filesystem::path& dir = scratch.path();
  persist::SnapshotWriter writer(dir);
  writer.write(serve::Snapshot(table, 1));
  writer.write(serve::Snapshot(table, 2));  // manifest now names version 2
  ASSERT_TRUE(std::filesystem::remove(dir / persist::segment_name(2)));

  const auto recovery = persist::recover_store_dir<Key>(dir);
  ASSERT_TRUE(recovery.table.has_value());
  EXPECT_EQ(recovery.report.recovered_version, 1u);
  EXPECT_TRUE(recovery.report.manifest_valid);
  EXPECT_EQ(recovery.report.manifest_version, 2u);
  ASSERT_FALSE(recovery.report.rejected.empty());
  EXPECT_EQ(recovery.report.rejected.front().version, 2u);
  EXPECT_EQ(recovery.report.rejected.front().reason,
            "manifest names a missing segment");
  EXPECT_EQ(table_counts(*recovery.table), table_counts(table));
}

TEST(ServeRecovery, BitFlipMidSectionIsRejectedAndFallsBackOneVersion) {
  const Dataset base = generate_chain_correlated(3000, 8, 2, 0.8, 0xC2);
  const Dataset more = generate_chain_correlated(5000, 8, 2, 0.8, 0xC3);
  const PotentialTable t1 = build(base);
  const PotentialTable t2 = build(more);
  const ScratchDir scratch = recovery_dir("bit_flip");
  const std::filesystem::path& dir = scratch.path();
  persist::SnapshotWriter writer(dir);
  writer.write(serve::Snapshot(t1, 1));
  writer.write(serve::Snapshot(t2, 2));

  // Flip one bit deep inside the newest segment's entry data. The section
  // checksum must catch it; recovery must fall back to version 1 rather
  // than serve a silently-wrong count table.
  const std::filesystem::path victim = dir / persist::segment_name(2);
  std::fstream file(victim,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::int64_t>(file.tellg());
  const std::int64_t offset = (size * 3) / 4;  // well past the header
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(offset);
  file.write(&byte, 1);
  file.close();

  const auto recovery = persist::recover_store_dir<Key>(dir);
  ASSERT_TRUE(recovery.table.has_value());
  EXPECT_EQ(recovery.report.recovered_version, 1u);
  ASSERT_FALSE(recovery.report.rejected.empty());
  EXPECT_EQ(recovery.report.rejected.front().version, 2u);
  EXPECT_EQ(table_counts(*recovery.table), table_counts(t1));
  EXPECT_TRUE(recovery.table->validate());
}

TEST(ServeRecovery, WideKeyRoundTripThroughPersistAndRecover) {
  const Dataset data = generate_chain_correlated(3000, 100, 2, 0.8, 0xC4);
  const WidePotentialTable table = wide_build(data);
  const ScratchDir scratch = recovery_dir("wide_rt");
  const std::filesystem::path& dir = scratch.path();
  persist::WideSnapshotWriter writer(dir);
  writer.write(serve::WideSnapshot(table, 3));

  const auto recovery = persist::recover_store_dir<WideKey>(dir);
  ASSERT_TRUE(recovery.table.has_value());
  EXPECT_EQ(recovery.report.recovered_version, 3u);
  EXPECT_EQ(recovery.table->sample_count(), table.sample_count());
  EXPECT_EQ(recovery.table->distinct_keys(), table.distinct_keys());
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> expected;
  table.partitions().for_each([&](WideKey key, std::uint64_t c) {
    expected[{key.lo, key.hi}] += c;
  });
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> actual;
  recovery.table->partitions().for_each([&](WideKey key, std::uint64_t c) {
    actual[{key.lo, key.hi}] += c;
  });
  EXPECT_EQ(actual, expected);
  EXPECT_TRUE(recovery.table->validate());
}

TEST(ServeRecovery, AsyncPersistNeverBlocksWaitFreeReaders) {
  // The durability wrapper must leave the wait-free read/publish contract
  // untouched: readers spin on current() across async persists and must
  // only ever observe complete, monotonically-versioned snapshots.
  const Dataset base = generate_chain_correlated(2000, 8, 2, 0.8, 0xC5);
  const Dataset batch = generate_chain_correlated(500, 8, 2, 0.8, 0xC6);
  const ScratchDir scratch = recovery_dir("readers");
  const std::filesystem::path& dir = scratch.path();
  persist::DurableTableStore store(dir, build(base));

  constexpr int kReaders = 4;
  constexpr int kIngests = 6;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed_torn{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotPtr snap = store.current();
        if (snap->version() < last_version ||
            snap->table().total_count() != snap->table().sample_count()) {
          observed_torn.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap->version();
      }
    });
  }
  for (int i = 0; i < kIngests; ++i) (void)store.ingest(batch);
  EXPECT_TRUE(store.flush());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(observed_torn.load(), 0u);
  EXPECT_EQ(store.version(), static_cast<std::uint64_t>(kIngests) + 1);
  EXPECT_EQ(store.last_durable_version(), store.version());
  EXPECT_EQ(store.persist_stats().failures, 0u);
}

// ------------------------------------------------ served-answer oracle

/// Counts of `vars` over the rows of `parts` that match `evidence`, first
/// variable fastest: no codec, no table, no index.
MarginalTable raw_counts(const std::vector<const Dataset*>& parts,
                         const std::vector<std::size_t>& vars,
                         const std::vector<Evidence>& evidence = {}) {
  const std::vector<std::uint32_t>& r = parts.front()->cardinalities();
  std::vector<std::uint32_t> cards;
  for (const std::size_t v : vars) cards.push_back(r[v]);
  MarginalTable out(vars, cards);
  for (const Dataset* part : parts) {
    for (std::size_t i = 0; i < part->sample_count(); ++i) {
      bool match = true;
      for (const Evidence& e : evidence) match = match && part->at(i, e.variable) == e.state;
      if (!match) continue;
      std::uint64_t cell = 0;
      std::uint64_t stride = 1;
      for (std::size_t k = 0; k < vars.size(); ++k) {
        cell += part->at(i, vars[k]) * stride;
        stride *= cards[k];
      }
      out.add(cell, 1);
    }
  }
  return out;
}

/// The distribution a served marginal or conditional must equal bit for bit.
std::vector<double> raw_distribution(const MarginalTable& counts) {
  const auto total = static_cast<double>(counts.total());
  std::vector<double> out(counts.cell_count());
  for (std::uint64_t c = 0; c < counts.cell_count(); ++c) {
    out[c] = static_cast<double>(counts.count_at(c)) / total;
  }
  return out;
}

/// The rows of version v: the base rows plus batches 1..v−1.
std::vector<const Dataset*> rows_of(std::uint64_t version, const Dataset& base,
                                    const std::vector<Dataset>& batches) {
  std::vector<const Dataset*> parts{&base};
  for (std::uint64_t b = 0; b + 1 < version; ++b) parts.push_back(&batches.at(b));
  return parts;
}

/// One served query and its raw-row answer for the rows of a version.
struct OracleQuery {
  QueryKind kind;
  std::vector<std::size_t> variables;
  std::vector<Evidence> evidence;

  [[nodiscard]] std::vector<double> expected(
      const std::vector<const Dataset*>& parts) const {
    const MarginalTable counts = raw_counts(parts, variables, evidence);
    if (kind == QueryKind::kPairMi) return {mutual_information(counts)};
    return raw_distribution(counts);
  }
};

/// Every single and pair marginal, every pair MI, P(X_i | X_j = s) for every
/// ordered pair and the state s of most rows, conditionals with two query or
/// two evidence variables, the triples {j + 1, i, j} of at most 4,096 cells,
/// and conditionals whose V ∪ E has more cells than the table has entries
/// (`wide_sets`).
std::vector<OracleQuery> oracle_queries(
    const Dataset& base, const std::vector<std::vector<std::size_t>>& wide_sets) {
  const std::size_t n = base.variable_count();
  std::vector<OracleQuery> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({QueryKind::kMarginal, {i}, {}});
    for (std::size_t j = i + 1; j < n; ++j) {
      out.push_back({QueryKind::kMarginal, {i, j}, {}});
      out.push_back({QueryKind::kPairMi, {i, j}, {}});
      const std::vector<std::uint32_t>& r = base.cardinalities();
      if (j + 1 < n && r[i] * r[j] * r[j + 1] <= 4096) {
        out.push_back({QueryKind::kMarginal, {j + 1, i, j}, {}});
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    const MarginalTable counts = raw_counts({&base}, {j});
    State mode = 0;
    for (std::uint64_t c = 1; c < counts.cell_count(); ++c) {
      if (counts.count_at(c) > counts.count_at(mode)) mode = static_cast<State>(c);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i != j) out.push_back({QueryKind::kConditional, {i}, {{j, mode}}});
    }
    // Two query variables, then two evidence terms, the evidence at the
    // states of the first row (so with support).
    const std::size_t k = (j + 1) % n;
    const std::size_t l = (j + 2) % n;
    out.push_back({QueryKind::kConditional, {l, j}, {{k, base.at(0, k)}}});
    out.push_back({QueryKind::kConditional, {j}, {{k, base.at(0, k)}, {l, base.at(0, l)}}});
  }
  for (const std::vector<std::size_t>& set : wide_sets) {
    // The first half is V, the rest evidence at the states of the first row.
    const auto half = static_cast<std::ptrdiff_t>(set.size() / 2);
    OracleQuery q{QueryKind::kConditional, {set.begin(), set.begin() + half}, {}};
    for (auto v = set.begin() + half; v != set.end(); ++v) {
      q.evidence.push_back({*v, base.at(0, *v)});
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Serves `q`; `version` receives the version that answered it.
template <typename K>
std::vector<double> serve_query(serve::BasicServeEngine<K>& engine,
                                const OracleQuery& q, std::uint64_t& version) {
  ServeQuery query;
  query.kind = q.kind;
  query.variables = q.variables;
  query.evidence = q.evidence;
  const ServeResult result = engine.serve(query);
  version = result.version;
  return result.values;
}

/// Serves every query from the store's current snapshot (version `version`)
/// and compares it with the raw rows of that version, at the detected SIMD
/// level and at the scalar level. Each level gets a fresh engine, so the
/// scalar pass counts every query instead of reading the first pass's
/// cached answers. Returns the mismatches.
template <typename K>
std::uint64_t check_every_answer(serve::BasicTableStore<K>& store,
                                 const std::vector<OracleQuery>& queries,
                                 std::uint64_t version, const Dataset& base,
                                 const std::vector<Dataset>& batches) {
  const std::vector<const Dataset*> parts = rows_of(version, base, batches);
  std::uint64_t mismatches = 0;
  for (const bool scalar : {false, true}) {
    std::optional<simd::ScopedForceLevel> force;
    if (scalar) force.emplace(simd::Level::kScalar);
    serve::BasicServeEngine<K> engine(store);
    for (const OracleQuery& q : queries) {
      std::uint64_t served_version = 0;
      const std::vector<double> served = serve_query(engine, q, served_version);
      if (served_version != version || served != q.expected(parts)) {
        ADD_FAILURE() << "version " << version << (scalar ? " scalar" : "")
                      << ": query of kind " << static_cast<int>(q.kind)
                      << " over " << q.variables.size() << " variables and "
                      << q.evidence.size() << " evidence terms";
        ++mismatches;
      }
    }
  }
  return mismatches;
}

template <typename K>
class ServedAnswerOracle : public ::testing::Test {
 protected:
  using Builder = BasicWaitFreeBuilder<K>;
  using Durable = serve::persist::BasicDurableTableStore<K>;
  using Engine = serve::BasicServeEngine<K>;

  static BasicPotentialTable<K> build_table(const Dataset& data) {
    WaitFreeBuilderOptions options;
    options.threads = 3;
    return Builder(options).build(data);
  }

  static serve::persist::DurableOptions durable_options() {
    serve::persist::DurableOptions options;
    options.ingest.threads = 2;
    options.async = false;
    return options;
  }

  static std::string width() { return KeyTraits<K>::kWidthName; }
};

using OracleWidths = ::testing::Types<Key, WideKey>;
TYPED_TEST_SUITE(ServedAnswerOracle, OracleWidths);

// Every version a durable store publishes — the initial main with an empty
// delta, a partial delta, a rebuilt main, the snapshot open() recovers and
// the versions ingested after it — answers every query exactly.
TYPED_TEST(ServedAnswerOracle, EveryVersionMatchesRawRows) {
  // r = 3 over 10 correlated variables: 3^10 states, so the table holds
  // light entries and repeated (heavy) ones.
  const Dataset base = generate_chain_correlated(2000, 10, 3, 0.5, 0xD1);
  std::vector<Dataset> batches;
  for (std::uint64_t b = 0; b < 8; ++b) {
    batches.push_back(generate_chain_correlated(90, 10, 3, 0.5, 0xD2 + b));
  }
  // V ∪ E of 3^8 cells: more than the table's entries, so these sweep.
  const std::vector<OracleQuery> queries =
      oracle_queries(base, {{0, 1, 2, 3, 4, 5, 6, 7}, {9, 8, 7, 6, 5, 4, 3, 2}});
  const ScratchDir scratch = recovery_dir("oracle_" + this->width());
  const std::filesystem::path& dir = scratch.path();

  bool saw_partial_delta = false;
  bool saw_rebuilt_main = false;
  {
    typename TestFixture::Durable store(dir, TestFixture::build_table(base),
                                        TestFixture::durable_options());
    const auto& initial = store.current()->index().layers();
    ASSERT_NE(initial.main, nullptr);
    EXPECT_EQ(initial.delta_keys, 0u);
    EXPECT_FALSE(initial.main->heavy().empty());
    EXPECT_GT(initial.main->light_count(), 0u);
    EXPECT_EQ(check_every_answer(store.store(), queries, 1, base, batches), 0u);
    for (std::size_t b = 0; b < 5; ++b) {
      const IngestStats stats = store.ingest(batches[b]);
      const auto& layers = store.current()->index().layers();
      ASSERT_NE(layers.main, nullptr);
      saw_partial_delta = saw_partial_delta || layers.delta_keys > 0;
      saw_rebuilt_main = saw_rebuilt_main || stats.index_rebuilt;
      EXPECT_EQ(stats.index_rebuilt, layers.delta_keys == 0);
      EXPECT_EQ(check_every_answer(store.store(), queries,
                                   stats.published_version, base, batches),
                0u);
    }
    EXPECT_GT(store.store().index_rebuilds(), 0u);
    ASSERT_TRUE(store.flush());
  }
  EXPECT_TRUE(saw_partial_delta);
  EXPECT_TRUE(saw_rebuilt_main);

  // Recovery builds a fresh main from the recovered table, and ingestion
  // goes on from it.
  const auto reopened =
      TestFixture::Durable::open(dir, TestFixture::durable_options());
  ASSERT_NE(reopened, nullptr);
  ASSERT_EQ(reopened->version(), 6u);
  ASSERT_NE(reopened->current()->index().layers().main, nullptr);
  EXPECT_EQ(check_every_answer(reopened->store(), queries, 6, base, batches), 0u);
  for (std::size_t b = 5; b < batches.size(); ++b) {
    const IngestStats stats = reopened->ingest(batches[b]);
    EXPECT_EQ(check_every_answer(reopened->store(), queries,
                                 stats.published_version, base, batches),
              0u);
  }
}

// Three r = 256 variables put the planes past the plane budget: the index
// has no main, before and after an ingest, and every answer is the sweep's.
TYPED_TEST(ServedAnswerOracle, OverBudgetTableSweepsEveryQuery) {
  const std::vector<std::uint32_t> cards = {256, 3, 256, 2, 256, 4};
  const Dataset base = generate_uniform(1500, cards, 0xD7);
  const std::vector<Dataset> batches = {generate_uniform(200, cards, 0xD8)};
  const std::vector<OracleQuery> queries = oracle_queries(base, {{0, 1, 2, 3}});
  const ScratchDir scratch = recovery_dir("oracle_budget_" + this->width());
  typename TestFixture::Durable store(scratch.path(),
                                      TestFixture::build_table(base),
                                      TestFixture::durable_options());
  EXPECT_EQ(store.current()->index().layers().main, nullptr);
  EXPECT_EQ(check_every_answer(store.store(), queries, 1, base, batches), 0u);
  const IngestStats stats = store.ingest(batches[0]);
  EXPECT_FALSE(stats.index_rebuilt);
  EXPECT_EQ(store.current()->index().layers().main, nullptr);
  EXPECT_TRUE(store.current()->index().layers().delta.empty());
  EXPECT_EQ(check_every_answer(store.store(), queries, 2, base, batches), 0u);
}

// Readers query while the ingest thread publishes, extending the delta and
// rebuilding main: each answer equals the raw rows of the version stamped on
// it. scripts/sanitize.sh thread test_serve runs this under TSan.
TYPED_TEST(ServedAnswerOracle, ReadersDuringPublishesMatchRawRows) {
  const Dataset base = generate_chain_correlated(1500, 8, 3, 0.8, 0xDA);
  std::vector<Dataset> batches;
  for (std::uint64_t b = 0; b < 12; ++b) {
    batches.push_back(generate_chain_correlated(25, 8, 3, 0.8, 0xDB + b));
  }
  const std::vector<OracleQuery> queries = oracle_queries(base, {});
  const ScratchDir scratch = recovery_dir("oracle_readers_" + this->width());
  typename TestFixture::Durable store(scratch.path(),
                                      TestFixture::build_table(base),
                                      TestFixture::durable_options());
  typename TestFixture::Engine engine(store.store());

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answers{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (std::size_t i = static_cast<std::size_t>(r) * 7;
           !stop.load(std::memory_order_acquire); i += 13) {
        const OracleQuery& q = queries[i % queries.size()];
        std::uint64_t version = 0;
        const std::vector<double> served = serve_query(engine, q, version);
        if (served != q.expected(rows_of(version, base, batches))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        answers.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (const Dataset& batch : batches) {
    (void)store.ingest(batch);
    engine.note_published(store.version());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(answers.load(), 0u);
  EXPECT_GT(store.store().index_rebuilds(), 0u);
  EXPECT_EQ(store.version(), batches.size() + 1);
}

}  // namespace
}  // namespace wfbn
