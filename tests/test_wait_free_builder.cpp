// Correctness tests for the wait-free table-construction primitive
// (Algorithms 1–2): the parallel build must produce exactly the counts a
// sequential scan produces, for every thread count, partition scheme, data
// shape, and the pipelined variant.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

std::map<Key, std::uint64_t> reference_counts(const Dataset& data) {
  const KeyCodec codec = data.codec();
  std::map<Key, std::uint64_t> counts;
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    ++counts[codec.encode(data.row(i))];
  }
  return counts;
}

void expect_equal_counts(const PotentialTable& table,
                         const std::map<Key, std::uint64_t>& reference) {
  EXPECT_EQ(table.distinct_keys(), reference.size());
  std::uint64_t visited = 0;
  bool all_match = true;
  table.partitions().for_each([&](Key key, std::uint64_t c) {
    ++visited;
    const auto it = reference.find(key);
    if (it == reference.end() || it->second != c) all_match = false;
  });
  EXPECT_TRUE(all_match);
  EXPECT_EQ(visited, reference.size());
}

TEST(WaitFreeBuilder, SingleThreadMatchesReference) {
  const Dataset data = generate_uniform(5000, 10, 2, 1);
  WaitFreeBuilder builder;
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
  EXPECT_TRUE(table.validate());
}

// The central property, swept over thread counts × schemes × variants.
struct BuilderConfig {
  std::size_t threads;
  PartitionScheme scheme;
  bool pipelined;
};

class BuilderEquivalence : public ::testing::TestWithParam<BuilderConfig> {};

TEST_P(BuilderEquivalence, ParallelBuildEqualsSequentialCounts) {
  const BuilderConfig config = GetParam();
  const Dataset data = generate_uniform(20000, 12, 3, 77);
  WaitFreeBuilderOptions options;
  options.threads = config.threads;
  options.scheme = config.scheme;
  options.pipelined = config.pipelined;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);

  expect_equal_counts(table, reference_counts(data));
  EXPECT_EQ(table.sample_count(), 20000u);
  EXPECT_TRUE(table.validate());
  EXPECT_TRUE(table.partitions().ownership_invariant_holds());

  // Instrumentation must account for every row exactly once.
  const BuildStats& stats = builder.stats();
  ASSERT_EQ(stats.workers.size(), config.threads);
  std::uint64_t rows = 0;
  std::uint64_t local = 0;
  std::uint64_t foreign = 0;
  std::uint64_t combined = 0;
  std::uint64_t pops = 0;
  for (const WorkerStats& w : stats.workers) {
    rows += w.rows_encoded;
    local += w.local_updates;
    foreign += w.foreign_pushes;
    combined += w.combined_rows;
    pops += w.stage2_pops;
  }
  EXPECT_EQ(rows, 20000u);
  // A slice of at least one probe window can absorb rows in its combiner.
  EXPECT_EQ(local + foreign + combined, 20000u);
  EXPECT_EQ(pops, foreign);  // every routed item is drained exactly once
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuilderEquivalence,
    ::testing::Values(
        BuilderConfig{1, PartitionScheme::kModulo, false},
        BuilderConfig{2, PartitionScheme::kModulo, false},
        BuilderConfig{3, PartitionScheme::kModulo, false},
        BuilderConfig{8, PartitionScheme::kModulo, false},
        BuilderConfig{32, PartitionScheme::kModulo, false},
        BuilderConfig{2, PartitionScheme::kRange, false},
        BuilderConfig{8, PartitionScheme::kRange, false},
        BuilderConfig{32, PartitionScheme::kRange, false},
        BuilderConfig{1, PartitionScheme::kModulo, true},
        BuilderConfig{2, PartitionScheme::kModulo, true},
        BuilderConfig{8, PartitionScheme::kModulo, true},
        BuilderConfig{32, PartitionScheme::kModulo, true},
        BuilderConfig{8, PartitionScheme::kRange, true}),
    [](const auto& param_info) {
      return std::to_string(param_info.param.threads) + "threads_" +
             (param_info.param.scheme == PartitionScheme::kModulo ? "modulo"
                                                            : "range") +
             (param_info.param.pipelined ? "_pipelined" : "_phased");
    });

TEST(WaitFreeBuilder, SkewedDataStillExact) {
  const Dataset data = generate_skewed(30000, 16, 2, 1e-4, 0.9, 5);
  WaitFreeBuilderOptions options;
  options.threads = 8;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
}

TEST(WaitFreeBuilder, CorrelatedDataStillExact) {
  const Dataset data = generate_chain_correlated(30000, 14, 2, 0.95, 6);
  WaitFreeBuilderOptions options;
  options.threads = 6;
  options.pipelined = true;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
}

TEST(WaitFreeBuilder, MixedCardinalitiesSupported) {
  const Dataset data =
      generate_uniform(10000, std::vector<std::uint32_t>{2, 5, 3, 7, 2, 4}, 8);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
}

TEST(WaitFreeBuilder, MoreThreadsThanRows) {
  const Dataset data = generate_uniform(5, 4, 2, 9);
  WaitFreeBuilderOptions options;
  options.threads = 16;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
  EXPECT_EQ(table.sample_count(), 5u);
}

TEST(WaitFreeBuilder, SingleRowDataset) {
  Dataset data(1, {2, 2, 2});
  data.set(0, 1, 1);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const State row[] = {0, 1, 0};
  EXPECT_EQ(table.count_of(row), 1u);
  EXPECT_EQ(table.distinct_keys(), 1u);
}

TEST(WaitFreeBuilder, EmptyDatasetRejected) {
  Dataset data(0, {2, 2});
  WaitFreeBuilder builder;
  EXPECT_THROW((void)builder.build(data), PreconditionError);
}

TEST(WaitFreeBuilder, DeterministicAcrossRepetitionsAndThreadCounts) {
  const Dataset data = generate_uniform(10000, 20, 2, 10);
  const auto reference = reference_counts(data);
  for (const std::size_t threads : {1u, 2u, 5u, 16u}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      WaitFreeBuilderOptions options;
      options.threads = threads;
      WaitFreeBuilder builder(options);
      expect_equal_counts(builder.build(data), reference);
    }
  }
}

TEST(WaitFreeBuilder, ReusedAcrossBuilds) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const Dataset first = generate_uniform(5000, 8, 2, 11);
  const Dataset second = generate_uniform(7000, 8, 2, 12);
  expect_equal_counts(builder.build(first), reference_counts(first));
  expect_equal_counts(builder.build(second), reference_counts(second));
  EXPECT_EQ(builder.stats().workers.size(), 4u);
}

TEST(WaitFreeBuilder, ExternalPoolOverridesConfiguredThreads) {
  const Dataset data = generate_uniform(4000, 8, 2, 13);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  ThreadPool pool(6);
  const PotentialTable table = builder.build(data, pool);
  EXPECT_EQ(table.partitions().partition_count(), 6u);
  EXPECT_EQ(builder.stats().workers.size(), 6u);
  expect_equal_counts(table, reference_counts(data));
}

TEST(WaitFreeBuilder, StatsExposeWaitFreeWorkSplit) {
  // With P partitions and uniform keys, ~1/P of rows are local: check the
  // foreign fraction is in a plausible band for P=4 (expected 75%).
  const Dataset data = generate_uniform(40000, 16, 2, 14);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  const double foreign_fraction =
      static_cast<double>(builder.stats().total_foreign_pushes()) / 40000.0;
  EXPECT_NEAR(foreign_fraction, 0.75, 0.05);
  EXPECT_GT(builder.stats().critical_path_seconds(), 0.0);
  EXPECT_GT(builder.stats().total_seconds, 0.0);
}

TEST(WaitFreeBuilder, AppendFoldsBatchesExactly) {
  // Building in two batches must equal building everything at once.
  const Dataset all = generate_uniform(30000, 10, 2, 15);
  std::vector<State> first_half(all.raw().begin(),
                                all.raw().begin() + 15000 * 10);
  std::vector<State> second_half(all.raw().begin() + 15000 * 10,
                                 all.raw().end());
  const Dataset batch1(15000, all.cardinalities(), std::move(first_half));
  const Dataset batch2(15000, all.cardinalities(), std::move(second_half));

  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  PotentialTable incremental = builder.build(batch1);
  builder.append(batch2, incremental);
  EXPECT_EQ(incremental.sample_count(), 30000u);
  EXPECT_TRUE(incremental.validate());
  expect_equal_counts(incremental, reference_counts(all));
  EXPECT_TRUE(incremental.partitions().ownership_invariant_holds());

  // Append stats account for the batch.
  std::uint64_t rows = 0;
  for (const WorkerStats& w : builder.stats().workers) rows += w.rows_encoded;
  EXPECT_EQ(rows, 15000u);
}

TEST(WaitFreeBuilder, AppendRejectsMismatchedCardinalities) {
  const Dataset base = generate_uniform(1000, 6, 2, 16);
  const Dataset bad = generate_uniform(1000, 6, 3, 16);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);
  EXPECT_THROW(builder.append(bad, table), DataError);
}

TEST(WaitFreeBuilder, AppendRejectsRebalancedTable) {
  const Dataset base = generate_uniform(5000, 8, 2, 17);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);
  table.partitions().rebalance();
  EXPECT_THROW(builder.append(base, table), DataError);
}

TEST(WaitFreeBuilder, InvalidOptionsRejected) {
  WaitFreeBuilderOptions zero_threads;
  zero_threads.threads = 0;
  EXPECT_THROW(WaitFreeBuilder{zero_threads}, PreconditionError);
  WaitFreeBuilderOptions negative_timeout;
  negative_timeout.stall_timeout_seconds = -1.0;
  EXPECT_THROW(WaitFreeBuilder{negative_timeout}, PreconditionError);
}

// ---------------------------------------------------------------------------
// Block routing fast path: strip encoding, the write-combining router, bulk
// drains and the multi-cursor probe must produce exactly the counts of a
// brute-force scan — codec.encode(row) per raw row into a std::map — for
// both key widths, both variants, both dispatch levels, and for append as
// well as build. The reference shares no code with the kernel beyond the
// per-row encode.

/// Key-width-agnostic (lo, hi) -> count map; a table matches its reference
/// iff the two maps are equal.
using CountMap = std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>;

template <typename K>
std::pair<std::uint64_t, std::uint64_t> words_of(K key) {
  if constexpr (std::is_same_v<K, WideKey>) {
    return {key.lo, key.hi};
  } else {
    return {key, 0};
  }
}

template <typename K>
CountMap snapshot_of(const BasicPotentialTable<K>& table) {
  CountMap counts;
  table.partitions().for_each(
      [&](K key, std::uint64_t c) { counts[words_of(key)] = c; });
  return counts;
}

/// Brute-force counts of `datasets`' rows, encoded row by row.
template <typename K>
CountMap brute_force_counts(std::initializer_list<const Dataset*> datasets) {
  CountMap counts;
  for (const Dataset* data : datasets) {
    const auto codec = KeyTraits<K>::make_codec(data->cardinalities());
    for (std::size_t i = 0; i < data->sample_count(); ++i) {
      ++counts[words_of<K>(codec.encode(data->row(i)))];
    }
  }
  return counts;
}

WaitFreeBuilderOptions four_workers(bool pipelined) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pipelined = pipelined;
  return options;
}

template <typename K>
class BlockRoutingOracle : public ::testing::Test {};

using OracleKeyTypes = ::testing::Types<Key, WideKey>;
TYPED_TEST_SUITE(BlockRoutingOracle, OracleKeyTypes);

TYPED_TEST(BlockRoutingOracle, BatchedBuildIsByteIdenticalToScalarBuild) {
  const Dataset data = generate_uniform(30000, 12, 3, 21);
  const CountMap reference = brute_force_counts<TypeParam>({&data});
  for (const bool pipelined : {false, true}) {
    BasicWaitFreeBuilder<TypeParam> builder(four_workers(pipelined));
    const auto table = builder.build(data);
    EXPECT_EQ(snapshot_of(table), reference) << "pipelined=" << pipelined;
    EXPECT_EQ(table.sample_count(), 30000u);

    const BuildStats& stats = builder.stats();
    // Buffering compresses flushes: strictly fewer than one per key.
    EXPECT_LT(stats.total_route_flushes(), stats.total_foreign_pushes());
    EXPECT_GT(stats.total_route_flushes(), 0u);
    EXPECT_GT(stats.total_bulk_pops(), 0u);
    // Every routed key is still drained exactly once, in bulk spans.
    std::uint64_t pops = 0;
    for (const WorkerStats& w : stats.workers) pops += w.stage2_pops;
    EXPECT_EQ(pops, stats.total_foreign_pushes());
    EXPECT_LE(stats.total_bulk_pops(), pops);
  }
}

TYPED_TEST(BlockRoutingOracle, SimdSweepMatchesBruteForceCounts) {
  const Dataset base = generate_uniform(30000, 12, 3, 25);
  const Dataset batch = generate_uniform(7001, 12, 3, 28);
  const CountMap built = brute_force_counts<TypeParam>({&base});
  const CountMap appended = brute_force_counts<TypeParam>({&base, &batch});
  // The forced leg runs the scalar encode reference even on an AVX2 host;
  // the native leg runs whatever the host resolves to. 7001 rows leave a
  // remainder sub-tile in the last strip of every worker's block.
  for (const bool forced : {true, false}) {
    std::optional<simd::ScopedForceLevel> force;
    if (forced) force.emplace(simd::Level::kScalar);
    const simd::Level expected_level =
        forced ? simd::Level::kScalar : simd::detected();
    for (const bool pipelined : {false, true}) {
      BasicWaitFreeBuilder<TypeParam> builder(four_workers(pipelined));
      auto table = builder.build(base);
      EXPECT_EQ(snapshot_of(table), built)
          << "forced=" << forced << " pipelined=" << pipelined;
      EXPECT_EQ(builder.stats().simd_level, expected_level);
      builder.append(batch, table);
      EXPECT_EQ(snapshot_of(table), appended)
          << "append forced=" << forced << " pipelined=" << pipelined;
      EXPECT_EQ(table.sample_count(), 37001u);
      EXPECT_EQ(builder.stats().simd_level, expected_level);
    }
  }
}

TYPED_TEST(BlockRoutingOracle, ForcedSimdDowngradeBuildsIdenticalTables) {
  const Dataset data = generate_uniform(20000, 10, 3, 26);
  BasicWaitFreeBuilder<TypeParam> native(four_workers(false));
  const auto native_table = native.build(data);

  simd::ScopedForceLevel force(simd::Level::kScalar);
  BasicWaitFreeBuilder<TypeParam> forced(four_workers(false));
  const auto forced_table = forced.build(data);
  // The downgrade is silent, reported, and bit-exact.
  EXPECT_EQ(forced.stats().simd_level, simd::Level::kScalar);
  EXPECT_EQ(snapshot_of(forced_table), snapshot_of(native_table));
}

TYPED_TEST(BlockRoutingOracle, BatchedAppendIsByteIdenticalToScalarAppend) {
  const Dataset base = generate_uniform(8000, 10, 2, 22);
  const Dataset batch = generate_uniform(6000, 10, 2, 23);
  BasicWaitFreeBuilder<TypeParam> builder(four_workers(false));
  auto table = builder.build(base);
  builder.append(batch, table);
  EXPECT_EQ(snapshot_of(table), brute_force_counts<TypeParam>({&base, &batch}));
  EXPECT_EQ(table.sample_count(), 14000u);
}

// ---------------------------------------------------------------------------
// Stage-1 pre-aggregation: a worker whose slice holds at least one probe
// window (4096 rows) counts its rows in a private combiner while they
// compress. The data above mostly does not compress, so these tests build
// data that does, or that changes its mind mid-slice, and check every build
// and append against brute-force counts, plus the premise: which workers
// combined.

constexpr std::size_t kWindow = 4096;  ///< the builder's probe window

/// Per worker, every scanned row is one table update, one routed item or
/// one combiner hit; over all workers every routed item is drained once.
void expect_conserved(const BuildStats& stats, std::uint64_t rows) {
  std::uint64_t scanned = 0;
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  for (const WorkerStats& w : stats.workers) {
    EXPECT_EQ(w.local_updates + w.foreign_pushes + w.combined_rows,
              w.rows_encoded);
    scanned += w.rows_encoded;
    pushed += w.foreign_pushes;
    popped += w.stage2_pops;
  }
  EXPECT_EQ(scanned, rows);
  EXPECT_EQ(popped, pushed);
}

void expect_every_worker_combined(const BuildStats& stats) {
  for (std::size_t w = 0; w < stats.workers.size(); ++w) {
    EXPECT_GT(stats.workers[w].combined_rows, 0u) << "worker " << w;
  }
}

/// Forward samples of SACHS (11 variables, 3 states): the benchmark's
/// compressing workload, where a 4096-row window hits its combiner on
/// about 60% of rows.
Dataset sachs_rows(std::size_t rows, std::uint64_t seed) {
  static const BayesianNetwork sachs =
      load_network(RepositoryNetwork::kSachs, 42);
  return forward_sample(sachs, rows, seed);
}

/// Rows of 24 binary variables in segments of `rows_per_segment`: a
/// compressing segment varies only the first 6 variables (64 keys), the
/// others all 24 (2^24 keys).
Dataset segmented_rows(std::initializer_list<bool> compressing,
                       std::size_t rows_per_segment, std::uint64_t seed) {
  constexpr std::size_t kVars = 24;
  std::vector<State> raw;
  for (const bool compresses : compressing) {
    const Dataset part = generate_uniform(rows_per_segment, kVars, 2, seed++);
    for (std::size_t i = 0; i < rows_per_segment; ++i) {
      const auto row = part.row(i);
      for (std::size_t j = 0; j < kVars; ++j) {
        raw.push_back(compresses && j >= 6 ? State{0} : row[j]);
      }
    }
  }
  const std::size_t rows = raw.size() / kVars;
  return Dataset(rows, std::vector<std::uint32_t>(kVars, 2), std::move(raw));
}

template <typename K>
class PreAggregationOracle : public ::testing::Test {};

TYPED_TEST_SUITE(PreAggregationOracle, OracleKeyTypes);

TYPED_TEST(PreAggregationOracle, SachsCombinesOnEveryWorkerInBuildAndAppend) {
  // At P=4: more than 4 windows per worker for the build, 1 for the append.
  const Dataset base = sachs_rows(4 * 4 * kWindow + 123, 51);
  const Dataset batch = sachs_rows(4 * kWindow + 7, 52);
  const CountMap built = brute_force_counts<TypeParam>({&base});
  const CountMap appended = brute_force_counts<TypeParam>({&base, &batch});
  for (const bool forced : {true, false}) {
    std::optional<simd::ScopedForceLevel> force;
    if (forced) force.emplace(simd::Level::kScalar);
    for (const bool pipelined : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "forced=" << forced << " pipelined=" << pipelined);
      BasicWaitFreeBuilder<TypeParam> builder(four_workers(pipelined));
      auto table = builder.build(base);
      EXPECT_EQ(snapshot_of(table), built);
      expect_conserved(builder.stats(), base.sample_count());
      expect_every_worker_combined(builder.stats());
      // Combining is what the build mostly did, not a side path.
      EXPECT_GT(builder.stats().total_combined_rows(),
                base.sample_count() / 2);

      builder.append(batch, table);
      EXPECT_EQ(snapshot_of(table), appended);
      EXPECT_EQ(table.sample_count(),
                base.sample_count() + batch.sample_count());
      expect_conserved(builder.stats(), batch.sample_count());
      expect_every_worker_combined(builder.stats());
    }
  }
}

TYPED_TEST(PreAggregationOracle, SkewedHotKeyAboveHalfTheRowsStaysExact) {
  // One key (all zeros) takes 60% of the rows; the rest spread over 2^20
  // keys, so combined counts and count-1 evictions travel side by side.
  const Dataset base = generate_skewed(40000, 20, 2, 1e-9, 0.6, 53);
  const Dataset batch = generate_skewed(20000, 20, 2, 1e-9, 0.6, 54);
  const CountMap built = brute_force_counts<TypeParam>({&base});
  std::uint64_t hottest = 0;
  for (const auto& [key, count] : built) hottest = std::max(hottest, count);
  ASSERT_GT(hottest, base.sample_count() / 2);  // the premise
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "pipelined=" << pipelined);
    BasicWaitFreeBuilder<TypeParam> builder(four_workers(pipelined));
    auto table = builder.build(base);
    EXPECT_EQ(snapshot_of(table), built);
    expect_conserved(builder.stats(), base.sample_count());
    expect_every_worker_combined(builder.stats());
    builder.append(batch, table);
    EXPECT_EQ(snapshot_of(table),
              brute_force_counts<TypeParam>({&base, &batch}));
    expect_conserved(builder.stats(), batch.sample_count());
  }
}

TYPED_TEST(PreAggregationOracle, SliceThatStopsCompressingAndTheReverse) {
  // Two workers; each slice is two segments of 3 windows.
  constexpr std::size_t kSegment = 3 * kWindow;
  WaitFreeBuilderOptions options;
  options.threads = 2;
  for (const bool pipelined : {false, true}) {
    options.pipelined = pipelined;
    SCOPED_TRACE(::testing::Message() << "pipelined=" << pipelined);
    {
      // Compresses, then stops: the head combines, the tail cannot.
      const Dataset data =
          segmented_rows({true, false, true, false}, kSegment, 55);
      BasicWaitFreeBuilder<TypeParam> builder(options);
      EXPECT_EQ(snapshot_of(builder.build(data)),
                brute_force_counts<TypeParam>({&data}));
      expect_conserved(builder.stats(), data.sample_count());
      for (const WorkerStats& w : builder.stats().workers) {
        EXPECT_GT(w.combined_rows, kSegment / 2);
        EXPECT_GT(w.local_updates + w.foreign_pushes, kSegment * 9 / 10);
      }
    }
    {
      // The reverse: the first window does not compress, so the worker runs
      // the uncombined path for the rest of its slice, compressing tail
      // included.
      const Dataset data =
          segmented_rows({false, true, false, true}, kSegment, 56);
      BasicWaitFreeBuilder<TypeParam> builder(options);
      EXPECT_EQ(snapshot_of(builder.build(data)),
                brute_force_counts<TypeParam>({&data}));
      expect_conserved(builder.stats(), data.sample_count());
      for (const WorkerStats& w : builder.stats().workers) {
        EXPECT_LT(w.combined_rows * 10, w.rows_encoded);
      }
    }
  }
}

TYPED_TEST(PreAggregationOracle, DegradedPoolEvictsIntoSeveralOwnedPartitions) {
  // The append pool loses its third spawn: two workers own two of the four
  // partitions each, so a worker's evictions land in both of its own
  // partitions as well as across the fabric.
  const Dataset base = sachs_rows(20000, 57);
  const Dataset batch = sachs_rows(2 * 2 * kWindow + 11, 58);
  BasicWaitFreeBuilder<TypeParam> builder(four_workers(false));
  auto table = builder.build(base);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 3);
  builder.append(batch, table);

  const BuildStats& stats = builder.stats();
  EXPECT_EQ(stats.requested_workers, 4u);
  ASSERT_EQ(stats.effective_workers, 2u);
  EXPECT_TRUE(table.partitions().ownership_invariant_holds());
  EXPECT_EQ(snapshot_of(table), brute_force_counts<TypeParam>({&base, &batch}));
  expect_conserved(stats, batch.sample_count());
  expect_every_worker_combined(stats);
  for (const WorkerStats& w : stats.workers) {
    EXPECT_GT(w.local_updates, 0u);
    EXPECT_GT(w.foreign_pushes, 0u);
  }
}

TYPED_TEST(PreAggregationOracle, UniformThirtyVariablesBypassesTheCombiner) {
  // 2^30 keys: no probe window finds a key twice, so every row takes the
  // uncombined path, one update or one routed key each.
  const Dataset data = generate_uniform(4 * 2 * kWindow, 30, 2, 59);
  const CountMap reference = brute_force_counts<TypeParam>({&data});
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "pipelined=" << pipelined);
    BasicWaitFreeBuilder<TypeParam> builder(four_workers(pipelined));
    EXPECT_EQ(snapshot_of(builder.build(data)), reference);
    expect_conserved(builder.stats(), data.sample_count());
    EXPECT_EQ(builder.stats().total_combined_rows(), 0u);
  }
}

TEST(WaitFreeBuilder, TotalHelpersSumPerWorkerRoutingCounters) {
  const Dataset data = generate_uniform(20000, 12, 2, 24);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  const BuildStats& stats = builder.stats();
  std::uint64_t flushes = 0;
  std::uint64_t bulk = 0;
  for (const WorkerStats& w : stats.workers) {
    flushes += w.route_flushes;
    bulk += w.bulk_pops;
  }
  EXPECT_EQ(stats.total_route_flushes(), flushes);
  EXPECT_EQ(stats.total_bulk_pops(), bulk);
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(bulk, 0u);
}

TEST(WaitFreeBuilder, BarrierSecondsIsMaxOverWorkers) {
  // With a skewed row split the fastest worker waits at the barrier for the
  // slowest; the reported crossing cost must reflect that wait, not worker
  // 0's (possibly zero) one.
  const Dataset data = generate_uniform(50000, 14, 2, 25);
  WaitFreeBuilderOptions options;
  options.threads = 8;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  EXPECT_GE(builder.stats().barrier_seconds, 0.0);
  // The max-over-workers barrier cost is bounded by the build itself.
  EXPECT_LE(builder.stats().barrier_seconds, builder.stats().total_seconds);
}

}  // namespace
}  // namespace wfbn
