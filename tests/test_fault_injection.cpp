// Deterministic fault-injection sweep over the concurrency layer: every
// registered failure point, under both builder variants, must yield either a
// typed error or a correct (possibly degraded) result — never a crash, a
// hang, or a corrupted table. Also verifies append()'s strong guarantee (a
// mid-append throw leaves the table bit-identical), graceful degradation on
// spawn/pin failure, and the pipelined stall watchdog.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "core/all_pairs_mi.hpp"
#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "learn/pc_stable.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/snapshot_reader.hpp"
#include "serve/persist/snapshot_writer.hpp"
#include "serve/snapshot.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

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

std::map<Key, std::uint64_t> snapshot(const PotentialTable& table) {
  std::map<Key, std::uint64_t> counts;
  table.partitions().for_each(
      [&](Key key, std::uint64_t c) { counts[key] += c; });
  return counts;
}

void expect_equal_counts(const PotentialTable& table,
                         const std::map<Key, std::uint64_t>& reference) {
  ASSERT_EQ(table.distinct_keys(), reference.size());
  EXPECT_EQ(snapshot(table), reference);
}

// ------------------------------------------------------- failure-point sweep

struct SweepConfig {
  fault::Point point;
  bool pipelined;
  std::uint64_t fire_on;
};

class FaultPointSweep : public ::testing::TestWithParam<SweepConfig> {};

// The oracle every failure point must satisfy: the build either throws a
// typed error or produces the exact reference table. Points that a variant
// never reaches (e.g. the barrier under the pipelined builder) simply never
// fire, which exercises the "correct result" arm.
TEST_P(FaultPointSweep, BuildThrowsTypedErrorOrStaysExact) {
  const SweepConfig config = GetParam();
  const Dataset data = generate_uniform(12000, 10, 2, 42);
  const auto reference = reference_counts(data);

  fault::ScopedFaultInjection injection;
  fault::arm(config.point, config.fire_on);

  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pipelined = config.pipelined;
  // Armed so that even an unexpected wedge surfaces as StallError, not a hang.
  options.stall_timeout_seconds = 5.0;
  WaitFreeBuilder builder(options);
  try {
    const PotentialTable table = builder.build(data);
    ASSERT_TRUE(table.validate());
    expect_equal_counts(table, reference);
  } catch (const InjectedFault&) {
    EXPECT_GE(fault::hits(config.point), config.fire_on);
  } catch (const StallError&) {
    // Acceptable: an injected fault can wedge a round; the watchdog's typed
    // error is exactly the defined behavior.
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoints, FaultPointSweep,
    ::testing::Values(
        SweepConfig{fault::Point::kThreadSpawn, false, 2},
        SweepConfig{fault::Point::kThreadSpawn, true, 2},
        SweepConfig{fault::Point::kPinThread, false, 1},
        SweepConfig{fault::Point::kPinThread, true, 1},
        SweepConfig{fault::Point::kSpscChunkAlloc, false, 1},
        SweepConfig{fault::Point::kSpscChunkAlloc, true, 1},
        SweepConfig{fault::Point::kStage1Row, false, 1},
        SweepConfig{fault::Point::kStage1Row, false, 5000},
        SweepConfig{fault::Point::kStage1Row, true, 1},
        SweepConfig{fault::Point::kStage1Row, true, 5000},
        SweepConfig{fault::Point::kBarrier, false, 1},
        SweepConfig{fault::Point::kBarrier, false, 3},
        SweepConfig{fault::Point::kBarrier, true, 1},
        SweepConfig{fault::Point::kStage2Drain, false, 1},
        SweepConfig{fault::Point::kStage2Drain, false, 500},
        SweepConfig{fault::Point::kStage2Drain, true, 1},
        SweepConfig{fault::Point::kPipelineDrain, false, 1},
        SweepConfig{fault::Point::kPipelineDrain, true, 1},
        SweepConfig{fault::Point::kPipelineDrain, true, 4},
        SweepConfig{fault::Point::kAppendCommit, false, 1},
        SweepConfig{fault::Point::kAppendCommit, true, 1}),
    [](const auto& p) {
      std::string name;
      for (const char c : std::string(fault::point_name(p.param.point))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name + (p.param.pipelined ? "Pipelined" : "Phased") + "Hit" +
             std::to_string(p.param.fire_on);
    });

// The downstream primitives honor the same oracle.
TEST(FaultInjection, MarginalizeThrowsTypedErrorOrStaysExact) {
  const Dataset data = generate_uniform(8000, 8, 3, 7);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const PotentialTable table = WaitFreeBuilder(options).build(data);
  const std::size_t vars[] = {1, 4};
  const Marginalizer marginalizer(4);
  const MarginalTable expected = table.marginalize_sequential(vars);

  for (const std::uint64_t fire_on : {1ull, 2ull, 4ull}) {
    fault::ScopedFaultInjection injection;
    fault::arm(fault::Point::kMarginalizeSweep, fire_on);
    try {
      const MarginalTable marginal = marginalizer.marginalize(table, vars);
      ASSERT_EQ(marginal.total(), expected.total());
      for (std::uint64_t cell = 0; cell < expected.cell_count(); ++cell) {
        ASSERT_EQ(marginal.count_at(cell), expected.count_at(cell));
      }
    } catch (const InjectedFault&) {
    }
    // The input table survives either way.
    ASSERT_TRUE(table.validate());
  }
}

TEST(FaultInjection, AllPairsMiThrowsTypedErrorOrCompletes) {
  const Dataset data = generate_uniform(5000, 6, 2, 8);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const PotentialTable table = WaitFreeBuilder(options).build(data);

  {
    fault::ScopedFaultInjection injection;
    fault::arm(fault::Point::kMiSweep, 2);
    AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kPairParallel});
    try {
      const MiMatrix mi = all_pairs.compute(table);
      for (std::size_t i = 0; i < mi.size(); ++i) {
        for (std::size_t j = 0; j < mi.size(); ++j) {
          ASSERT_GE(mi.at(i, j), 0.0);
        }
      }
    } catch (const InjectedFault&) {
    }
    ASSERT_TRUE(table.validate());
  }

  // The fused kernel's transpose pass hits kMiSweep once per partition:
  // a fault at any of those hits must surface as the typed error, and one
  // armed past the last hit must leave the result exact.
  const MiMatrix clean =
      AllPairsMi(AllPairsOptions{4, AllPairsStrategy::kFused}).compute(table);
  const std::size_t hits = table.partitions().partition_count();
  for (std::size_t fire_on = 1; fire_on <= hits + 1; ++fire_on) {
    fault::ScopedFaultInjection injection;
    fault::arm(fault::Point::kMiSweep, fire_on);
    AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
    if (fire_on <= hits) {
      EXPECT_THROW((void)all_pairs.compute(table), InjectedFault) << fire_on;
    } else {
      const MiMatrix mi = all_pairs.compute(table);
      for (std::size_t i = 0; i < mi.size(); ++i) {
        for (std::size_t j = 0; j < mi.size(); ++j) {
          ASSERT_EQ(mi.at(i, j), clean.at(i, j)) << i << "," << j;
        }
      }
    }
    ASSERT_TRUE(table.validate());
  }
}

TEST(FaultInjection, PcStablePlaneBuildThrowsTypedErrorOrCompletes) {
  // PC-stable decodes the table into bit planes once, at learn start, and
  // kMiSweep fires once per partition there: a fault at any of those hits
  // must abort the learn with the typed error, and one armed past the last
  // hit must leave the learned structure exact.
  const Dataset data = generate_chain_correlated(8000, 6, 2, 0.8, 0xA2);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  const PotentialTable table = WaitFreeBuilder(options).build(data);
  PcStableOptions pc;
  pc.ci.threads = 4;
  const PcStableResult clean = PcStableLearner(pc).learn(table);
  const std::size_t hits = table.partitions().partition_count();
  for (std::size_t fire_on = 1; fire_on <= hits + 1; ++fire_on) {
    fault::ScopedFaultInjection injection;
    fault::arm(fault::Point::kMiSweep, fire_on);
    if (fire_on <= hits) {
      EXPECT_THROW((void)PcStableLearner(pc).learn(table), InjectedFault) << fire_on;
    } else {
      const PcStableResult result = PcStableLearner(pc).learn(table);
      EXPECT_EQ(result.skeleton.edges(), clean.skeleton.edges());
      EXPECT_EQ(result.oriented.edges(), clean.oriented.edges());
      EXPECT_EQ(result.sepsets, clean.sepsets);
      EXPECT_EQ(result.ci_tests, clean.ci_tests);
    }
    ASSERT_TRUE(table.validate());
  }
}

// ------------------------------------------------ append: strong guarantee

class AppendStrongGuarantee
    : public ::testing::TestWithParam<std::pair<fault::Point, std::uint64_t>> {
};

TEST_P(AppendStrongGuarantee, MidAppendThrowLeavesTableBitIdentical) {
  const auto [point, fire_on] = GetParam();
  // Two workers concentrate foreign traffic into two queues so even the
  // chunk-allocation point (one hit per 2048 pushes into one queue) fires.
  // 2^20 keys: the batch does not compress, so every row still crosses the
  // key fabric (a 1024-key batch would combine into a few hundred items).
  const Dataset base = generate_uniform(6000, 20, 2, 21);
  const Dataset batch = generate_uniform(12000, 20, 2, 22);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);
  const auto before = snapshot(table);
  const std::uint64_t samples_before = table.sample_count();
  const std::size_t distinct_before = table.distinct_keys();

  fault::ScopedFaultInjection injection;
  fault::arm(point, fire_on);
  EXPECT_THROW(builder.append(batch, table), InjectedFault);
  EXPECT_GE(fault::hits(point), fire_on);  // the armed point itself fired

  // Bit-identical pre-call state: same keys, same counts, same sample count.
  EXPECT_EQ(table.sample_count(), samples_before);
  EXPECT_EQ(table.distinct_keys(), distinct_before);
  EXPECT_EQ(snapshot(table), before);
  ASSERT_TRUE(table.validate());

  // And the failure is transient: the same append succeeds once the fault
  // schedule is cleared, from exactly the pre-fault state.
  fault::reset();
  builder.append(batch, table);
  std::map<Key, std::uint64_t> combined = reference_counts(base);
  for (const auto& [key, count] : reference_counts(batch)) {
    combined[key] += count;
  }
  EXPECT_EQ(table.sample_count(), samples_before + batch.sample_count());
  expect_equal_counts(table, combined);
}

INSTANTIATE_TEST_SUITE_P(
    Points, AppendStrongGuarantee,
    ::testing::Values(
        std::make_pair(fault::Point::kStage1Row, std::uint64_t{1}),
        std::make_pair(fault::Point::kStage1Row, std::uint64_t{7000}),
        std::make_pair(fault::Point::kSpscChunkAlloc, std::uint64_t{1}),
        std::make_pair(fault::Point::kBarrier, std::uint64_t{1}),
        std::make_pair(fault::Point::kStage2Drain, std::uint64_t{100}),
        std::make_pair(fault::Point::kAppendCommit, std::uint64_t{1})),
    [](const auto& p) {
      std::string name;
      for (const char c : std::string(fault::point_name(p.param.first))) {
        if (std::isalnum(static_cast<unsigned char>(c))) name += c;
      }
      return name + "Hit" + std::to_string(p.param.second);
    });

// ------------------------------------- block-routing flush points

// The write-combining router has three flush sites: a full 64-key
// per-destination buffer mid-scan, the stage-1-end flush_all before the
// barrier, and the per-batch flush of the pipelined variant. All of them
// funnel into SpscQueue::push_block, whose chunk allocations fire
// kSpscChunkAlloc — so arming that point throws in the middle of a bulk
// flush. In the pipelined variant the partial flush at each batch boundary
// shifts the later 64-key flushes off the 2048-item chunk boundaries, so the
// later allocations (hits 2 and 3) land inside a block. A throw inside one
// push_block is pinned down directly by
// SpscQueueBulk.ThrowMidBlockKeepsThePublishedPrefix.
struct FlushConfig {
  bool pipelined;
  std::uint64_t fire_on;
};

// Printed instead of the raw bytes, whose padding would make the listed test
// names differ from run to run.
void PrintTo(const FlushConfig& config, std::ostream* os) {
  *os << (config.pipelined ? "pipelined" : "phased") << " hit "
      << config.fire_on;
}

class FlushPointSweep : public ::testing::TestWithParam<FlushConfig> {};

TEST_P(FlushPointSweep, ThrowMidFlushYieldsTypedErrorOrExactBuild) {
  const FlushConfig config = GetParam();
  // 2^20 keys, so no worker's slice compresses: the count-1 keys fill the
  // key fabric's chunks as the geometry below describes.
  const Dataset data = generate_uniform(24000, 20, 2, 42);
  const auto reference = reference_counts(data);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kSpscChunkAlloc, config.fire_on);

  WaitFreeBuilderOptions options;
  // Two workers concentrate ~6000 foreign keys into each of the two live
  // queues, so chunk allocation (one per 2048 pushes) is reached twice per
  // queue.
  options.threads = 2;
  options.pipelined = config.pipelined;
  options.stall_timeout_seconds = 5.0;
  WaitFreeBuilder builder(options);
  try {
    const PotentialTable table = builder.build(data);
    ASSERT_TRUE(table.validate());
    expect_equal_counts(table, reference);
  } catch (const InjectedFault&) {
    EXPECT_GE(fault::hits(fault::Point::kSpscChunkAlloc), config.fire_on);
  } catch (const StallError&) {
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FlushPointSweep,
    ::testing::Values(FlushConfig{false, 1}, FlushConfig{true, 1},
                      FlushConfig{true, 2}, FlushConfig{true, 3}),
    [](const auto& p) {
      return std::string("Buffer64") +
             (p.param.pipelined ? "Pipelined" : "Phased") + "Hit" +
             std::to_string(p.param.fire_on);
    });

/// append() stages into scratch partitions, so a bulk flush that throws
/// (keys already published stay queued, the rest of the block is dropped)
/// only ever corrupts the scratch — the live table must stay bit-identical,
/// and the same append must succeed once the schedule is cleared.
void expect_mid_flush_throw_keeps_table(const Dataset& base,
                                        const Dataset& batch) {
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);
  const auto before = snapshot(table);
  const std::uint64_t samples_before = table.sample_count();

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kSpscChunkAlloc, 1);
  EXPECT_THROW(builder.append(batch, table), InjectedFault);
  EXPECT_GE(fault::hits(fault::Point::kSpscChunkAlloc), 1u);

  EXPECT_EQ(table.sample_count(), samples_before);
  EXPECT_EQ(snapshot(table), before);
  ASSERT_TRUE(table.validate());

  fault::reset();
  builder.append(batch, table);
  std::map<Key, std::uint64_t> combined = reference_counts(base);
  for (const auto& [key, count] : reference_counts(batch)) {
    combined[key] += count;
  }
  expect_equal_counts(table, combined);
}

TEST(FaultInjection, ThrowMidFlushKeepsAppendStrongGuarantee) {
  // 2^20 keys: the batch does not compress, so each worker routes ~3000
  // count-1 keys into one queue and the first chunk refill throws.
  expect_mid_flush_throw_keeps_table(generate_uniform(6000, 20, 2, 24),
                                     generate_uniform(12000, 20, 2, 25));
}

TEST(FaultInjection, ThrowMidFlushKeepsCompressingAppendStrongGuarantee) {
  // One key holds 60% of the batch, so both workers combine; the other 40%
  // are count-1 evictions, still more than a chunk per queue.
  const Dataset batch = generate_skewed(24000, 20, 2, 1e-9, 0.6, 27);
  expect_mid_flush_throw_keeps_table(generate_uniform(6000, 20, 2, 26), batch);

  // The premise: the same append, unarmed, combines on both workers and
  // routes more than one chunk (2048 items) of keys into some queue.
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(generate_uniform(6000, 20, 2, 26));
  builder.append(batch, table);
  for (const WorkerStats& w : builder.stats().workers) {
    EXPECT_GT(w.combined_rows, batch.sample_count() / 4);
    EXPECT_GT(w.foreign_pushes, 2048u);
  }
}

// ------------------------------------------------- graceful degradation

TEST(FaultInjection, SpawnFailureDegradesToFewerWorkers) {
  const Dataset data = generate_uniform(10000, 10, 2, 31);
  const auto reference = reference_counts(data);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 3);  // third spawn attempt fails

  WaitFreeBuilderOptions options;
  options.threads = 6;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);

  expect_equal_counts(table, reference);
  ASSERT_TRUE(table.validate());
  const BuildStats& stats = builder.stats();
  EXPECT_EQ(stats.requested_workers, 6u);
  EXPECT_EQ(stats.effective_workers, 2u);
  EXPECT_TRUE(stats.degraded());
}

TEST(FaultInjection, AppendSurvivesDegradedPoolWithFewerWorkersThanPartitions) {
  const Dataset base = generate_uniform(8000, 10, 2, 32);
  const Dataset batch = generate_uniform(8000, 10, 2, 33);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  PotentialTable table = builder.build(base);  // 4 partitions

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 2);  // append pool degrades to 1 worker
  builder.append(batch, table);

  EXPECT_EQ(builder.stats().requested_workers, 4u);
  EXPECT_EQ(builder.stats().effective_workers, 1u);
  EXPECT_TRUE(builder.stats().degraded());
  EXPECT_TRUE(table.partitions().ownership_invariant_holds());

  std::map<Key, std::uint64_t> combined = reference_counts(base);
  for (const auto& [key, count] : reference_counts(batch)) {
    combined[key] += count;
  }
  expect_equal_counts(table, combined);
}

TEST(FaultInjection, FirstSpawnFailureCannotDegradeAndThrows) {
  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 1);
  EXPECT_THROW(ThreadPool{4}, InjectedFault);
}

TEST(FaultInjection, PinFailureDegradesToUnpinnedWorkers) {
  const Dataset data = generate_uniform(6000, 8, 2, 34);
  const auto reference = reference_counts(data);

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kPinThread, 2);

  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pin_threads = true;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);

  expect_equal_counts(table, reference);
  EXPECT_EQ(builder.stats().pin_failures, 1u);
  EXPECT_EQ(builder.stats().effective_workers, 4u);
  EXPECT_TRUE(builder.stats().degraded());
}

TEST(FaultInjection, PoolReportsDegradationAfterInjectedSpawnFailure) {
  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 4);
  ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.degradation().requested_threads, 8u);
  EXPECT_EQ(pool.degradation().spawned_threads, 3u);
  EXPECT_EQ(pool.degradation().failed_spawns, 1u);
  EXPECT_TRUE(pool.degradation().degraded());
  // The degraded pool still runs kernels on every surviving worker.
  std::vector<int> hits(pool.size(), 0);
  pool.run([&](std::size_t p) { hits[p] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

// ------------------------------------------------------ stall watchdog

TEST(FaultInjection, WedgedProducerSurfacesStallError) {
  const Dataset data = generate_uniform(40000, 10, 2, 51);
  fault::ScopedFaultInjection injection;
  // One worker sleeps 1.5s mid-scan; the others go idle, global progress
  // freezes, and the 100ms watchdog must fire long before the sleep ends.
  fault::arm(fault::Point::kStage1Row, 5000, fault::Action::kStall, 1500);

  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pipelined = true;
  options.stall_timeout_seconds = 0.1;
  WaitFreeBuilder builder(options);
  try {
    (void)builder.build(data);
    FAIL() << "expected StallError";
  } catch (const StallError& stall) {
    EXPECT_EQ(stall.worker_progress().size(), 4u);
    EXPECT_NE(std::string(stall.what()).find("stalled"), std::string::npos);
  }
}

TEST(FaultInjection, WedgedDrainEitherStallsTypedOrRecovers) {
  const Dataset data = generate_uniform(40000, 10, 2, 52);
  const auto reference = reference_counts(data);
  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kPipelineDrain, 3, fault::Action::kStall, 1500);

  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pipelined = true;
  options.stall_timeout_seconds = 0.1;
  WaitFreeBuilder builder(options);
  // Depending on where the wedge lands the build either aborts with the
  // typed stall error or rides it out; both are defined, a hang is not.
  try {
    const PotentialTable table = builder.build(data);
    expect_equal_counts(table, reference);
  } catch (const StallError& stall) {
    EXPECT_EQ(stall.worker_progress().size(), 4u);
  }
}

TEST(FaultInjection, WatchdogStaysQuietOnHealthyBuilds) {
  const Dataset data = generate_uniform(20000, 10, 2, 53);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pipelined = true;
  options.stall_timeout_seconds = 0.5;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  expect_equal_counts(table, reference_counts(data));
}

// --------------------------------------------------- wide-key schedule sweep

// The unified key-trait-templated kernel means every fault point above is
// also a wide-path fault point: the same WFBN_FAULT_POINT sites execute when
// the builder runs over two-word keys. This sweep arms random schedules
// (same generator the narrow fuzz harness uses) and drives them through a
// wide build at n = 100 binary variables — past the 64-bit key limit — with
// the same oracle: a typed error or the exact reference table, never a
// crash, hang, or corrupted result.

std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
wide_snapshot(const WidePotentialTable& table) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> counts;
  table.for_each([&](WideKey key, std::uint64_t c) {
    counts[{key.lo, key.hi}] += c;
  });
  return counts;
}

TEST(WideFaultInjection, RandomSchedulesThrowTypedErrorsOrStayExact) {
  const Dataset data = generate_chain_correlated(6000, 100, 2, 0.8, 61);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.stall_timeout_seconds = 5.0;
  const auto reference = wide_snapshot(WideWaitFreeBuilder(options).build(data));

  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(seed);
    for (const bool pipelined : {false, true}) {
      WaitFreeBuilderOptions faulted = options;
      faulted.pipelined = pipelined;
      WideWaitFreeBuilder builder(faulted);
      try {
        const WidePotentialTable table = builder.build(data);
        ASSERT_TRUE(table.validate()) << "schedule: " << schedule;
        EXPECT_EQ(wide_snapshot(table), reference) << "schedule: " << schedule;
      } catch (const InjectedFault&) {
      } catch (const StallError&) {
      }
    }
  }
}

TEST(WideFaultInjection, MidAppendThrowLeavesWideTableBitIdentical) {
  const Dataset base = generate_chain_correlated(4000, 100, 2, 0.8, 62);
  const Dataset batch = generate_chain_correlated(8000, 100, 2, 0.8, 63);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WideWaitFreeBuilder builder(options);

  WidePotentialTable reference_table = builder.build(base);
  const auto before = wide_snapshot(reference_table);
  const std::uint64_t samples_before = reference_table.sample_count();
  builder.append(batch, reference_table);
  const auto combined = wide_snapshot(reference_table);

  // Either/or oracle per point: with hash-based wide ownership some points
  // are traffic-dependent (e.g. chunk allocation needs a queue to overflow
  // its first chunk), so an armed point that is never reached must leave a
  // complete append — and one that fires must leave the table bit-identical
  // and the append retryable from exactly the pre-fault state.
  for (const auto& [point, fire_on] :
       {std::make_pair(fault::Point::kStage1Row, std::uint64_t{1}),
        std::make_pair(fault::Point::kStage1Row, std::uint64_t{5000}),
        std::make_pair(fault::Point::kSpscChunkAlloc, std::uint64_t{1}),
        std::make_pair(fault::Point::kStage2Drain, std::uint64_t{100}),
        std::make_pair(fault::Point::kAppendCommit, std::uint64_t{1})}) {
    WidePotentialTable table = builder.build(base);
    fault::ScopedFaultInjection injection;
    fault::arm(point, fire_on);
    bool fired = false;
    try {
      builder.append(batch, table);
    } catch (const InjectedFault&) {
      fired = true;
    }
    if (fired) {
      EXPECT_EQ(table.sample_count(), samples_before)
          << fault::point_name(point);
      EXPECT_EQ(wide_snapshot(table), before) << fault::point_name(point);
      ASSERT_TRUE(table.validate());
      fault::reset();
      builder.append(batch, table);  // transient: the retry lands whole
    }
    EXPECT_EQ(table.sample_count(), samples_before + batch.sample_count());
    EXPECT_EQ(wide_snapshot(table), combined) << fault::point_name(point);
    ASSERT_TRUE(table.validate());
  }
}

TEST(WideFaultInjection, SpawnFailureDegradesWideBuildToFewerWorkers) {
  const Dataset data = generate_chain_correlated(5000, 80, 2, 0.8, 64);
  WaitFreeBuilderOptions options;
  options.threads = 6;
  const auto reference = wide_snapshot(WideWaitFreeBuilder(options).build(data));

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kThreadSpawn, 3);
  WideWaitFreeBuilder builder(options);
  const WidePotentialTable table = builder.build(data);

  EXPECT_EQ(wide_snapshot(table), reference);
  EXPECT_EQ(builder.stats().requested_workers, 6u);
  EXPECT_EQ(builder.stats().effective_workers, 2u);
  EXPECT_TRUE(builder.stats().degraded());
}

// ------------------------------------------------------ framework basics

TEST(FaultInjection, DisabledPointsNeverFire) {
  fault::reset();
  ASSERT_FALSE(fault::enabled());
  // Unarmed + disabled: fire() is never reached via the macro; calling the
  // slow path directly must still be a no-op.
  fault::fire(fault::Point::kStage1Row);
  SUCCEED();
}

TEST(FaultInjection, ArmedPointFiresExactlyOnTheScheduledHit) {
  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kStage1Row, 3);
  fault::fire(fault::Point::kStage1Row);
  fault::fire(fault::Point::kStage1Row);
  EXPECT_THROW(fault::fire(fault::Point::kStage1Row), InjectedFault);
  // One-shot: later hits pass through again.
  fault::fire(fault::Point::kStage1Row);
  EXPECT_EQ(fault::hits(fault::Point::kStage1Row), 4u);
}

TEST(FaultInjection, RandomSchedulesAreDeterministicPerSeed) {
  fault::ScopedFaultInjection injection;
  const std::string a = fault::arm_random_schedule(1234);
  const std::string b = fault::arm_random_schedule(1234);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FaultInjection, PointNamesAreUniqueAndStable) {
  std::map<std::string, int> seen;
  for (int p = 0; p < fault::kPointCount; ++p) {
    ++seen[fault::point_name(static_cast<fault::Point>(p))];
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(fault::kPointCount));
  EXPECT_EQ(seen.count("unknown"), 0u);
}

// ------------------------------------------------------ persist/recover fuzz

TEST(PersistFaults, RandomFaultSchedulesNeverCorruptRecovery) {
  // 200 randomized schedules (now drawing from the persist.* points too)
  // against a write-two-versions-then-recover cycle. Whatever fires and
  // wherever it lands, recovery must surface a version whose counts are
  // bit-exact for that version — a crash may lose the tail, never truth.
  const Dataset base = generate_chain_correlated(1200, 8, 2, 0.8, 0x90);
  const Dataset more = generate_chain_correlated(2400, 8, 2, 0.8, 0x91);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  const PotentialTable t1 = builder.build(base);
  const PotentialTable t2 = builder.build(more);
  const std::map<Key, std::uint64_t> ref1 = snapshot(t1);
  const std::map<Key, std::uint64_t> ref2 = snapshot(t2);

  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "wfbn_persist_fuzz";
  std::filesystem::remove_all(root);

  int completed = 0;
  int faulted = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::filesystem::path dir = root / std::to_string(seed);
    std::filesystem::create_directories(dir);
    serve::persist::SnapshotWriter writer(dir);

    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + schedule);
    try {
      writer.write(serve::Snapshot(t1, 1));
      writer.write(serve::Snapshot(t2, 2));
      ++completed;
    } catch (const InjectedFault&) {
      ++faulted;  // simulated crash: no cleanup, recover from what's on disk
    }
    fault::reset();  // recovery below must not trip the same schedule

    const auto recovery = serve::persist::recover_store_dir<Key>(dir);
    const std::uint64_t v = recovery.report.recovered_version;
    ASSERT_LE(v, 2u);
    if (v == 0) {
      // Nothing durable yet: only possible when even version 1 never
      // finished its rename.
      ASSERT_FALSE(
          std::filesystem::exists(dir / serve::persist::segment_name(1)));
      continue;
    }
    ASSERT_TRUE(recovery.table.has_value());
    EXPECT_EQ(snapshot(*recovery.table), v == 2 ? ref2 : ref1);
    EXPECT_TRUE(recovery.table->validate());
  }
  // The schedule pool must actually exercise both arms.
  EXPECT_GT(completed, 0);
  EXPECT_GT(faulted, 0);
}

TEST(PersistFaults, RecoverChecksumFaultForcesFallbackOneVersion) {
  // recover.checksum is a degradation point: firing it makes exactly one
  // checksum comparison report a mismatch. Hit 1 is the manifest, hit 2 the
  // newest segment's header — forcing that one rejects version 2 and
  // recovery must fall back to version 1, recording the rejection.
  const Dataset base = generate_chain_correlated(1200, 8, 2, 0.8, 0x92);
  const Dataset more = generate_chain_correlated(2400, 8, 2, 0.8, 0x93);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  const PotentialTable t1 = builder.build(base);
  const PotentialTable t2 = builder.build(more);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "wfbn_recover_checksum";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::persist::SnapshotWriter writer(dir);
  writer.write(serve::Snapshot(t1, 1));
  writer.write(serve::Snapshot(t2, 2));

  fault::ScopedFaultInjection injection;
  fault::arm(fault::Point::kRecoverChecksum, 2);
  const auto recovery = serve::persist::recover_store_dir<Key>(dir);
  ASSERT_TRUE(recovery.table.has_value());
  EXPECT_EQ(recovery.report.recovered_version, 1u);
  EXPECT_TRUE(recovery.report.manifest_valid);  // hit 1 passed untouched
  ASSERT_FALSE(recovery.report.rejected.empty());
  EXPECT_EQ(recovery.report.rejected.front().version, 2u);
  EXPECT_EQ(recovery.report.rejected.front().reason,
            "segment header checksum mismatch");
  EXPECT_EQ(snapshot(*recovery.table), snapshot(t1));
  EXPECT_GE(fault::hits(fault::Point::kRecoverChecksum), 2u);
}

// ------------------------------------------------------ learner fault fuzz

TEST(LearnFaults, ArmedLearnPointsAbortTheLearnWithTypedErrors) {
  const Dataset data = generate_chain_correlated(8000, 6, 2, 0.8, 0xA0);
  WaitFreeBuilderOptions build_options;
  build_options.threads = 2;
  const PotentialTable table = WaitFreeBuilder(build_options).build(data);
  ChengOptions options;
  options.ci.threads = 2;

  for (const fault::Point point :
       {fault::Point::kLearnCiTest, fault::Point::kLearnSchedule}) {
    fault::ScopedFaultInjection injection;
    fault::arm(point, 1);
    EXPECT_THROW((void)ChengLearner(options).learn(table), InjectedFault)
        << fault::point_name(point);
    EXPECT_GE(fault::hits(point), 1u) << fault::point_name(point);
  }
}

TEST(LearnFaults, RandomSchedulesYieldTypedErrorOrBitIdenticalStructure) {
  // 200 randomized fault schedules (drawing from the learn.* points along
  // with every other registered point) against a full Cheng learn on a
  // parallel scheduler. The oracle is the scheduler's failure-atomicity
  // contract: either a typed error surfaces — InjectedFault from a fired
  // point, mid-batch, between batches, anywhere — or the learn completes
  // with a structure bit-identical to the unfaulted reference. A fault may
  // also degrade the learner-owned pool (spawn/pin points); determinism
  // across pool widths means even a degraded run must match exactly.
  const Dataset data = generate_chain_correlated(8000, 6, 2, 0.8, 0xA1);
  WaitFreeBuilderOptions build_options;
  build_options.threads = 2;
  const PotentialTable table = WaitFreeBuilder(build_options).build(data);
  ChengOptions options;
  options.ci.threads = 3;
  const ChengResult reference = ChengLearner(options).learn(table);

  int completed = 0;
  int faulted = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    fault::ScopedFaultInjection injection;
    const std::string schedule = fault::arm_random_schedule(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + schedule);
    try {
      const ChengResult result = ChengLearner(options).learn(table);
      EXPECT_EQ(result.skeleton.edges(), reference.skeleton.edges());
      EXPECT_EQ(result.oriented.edges(), reference.oriented.edges());
      EXPECT_EQ(result.sepsets, reference.sepsets);
      EXPECT_EQ(result.ci_tests, reference.ci_tests);
      ++completed;
    } catch (const InjectedFault&) {
      ++faulted;
    }
    // The input table is immutable through a learn, faulted or not.
    ASSERT_TRUE(table.validate());
  }
  // The schedule pool must exercise both arms of the oracle.
  EXPECT_GT(completed, 0);
  EXPECT_GT(faulted, 0);
}

}  // namespace
}  // namespace wfbn
