// Coverage for the smaller API surfaces: affinity helpers, builder stats,
// orientation-off paths, pinning, and assorted option plumbing.
#include <gtest/gtest.h>

#include "concurrent/affinity.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "learn/pc_stable.hpp"
#include "sim/cost_model.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

TEST(Affinity, ReportsAtLeastOneCore) {
  EXPECT_GE(hardware_cores(), 1u);
}

TEST(Affinity, PinningDoesNotCrashAndWrapsIndices) {
  // Pinning may be denied in a container; the call must simply return.
  (void)pin_current_thread(0);
  (void)pin_current_thread(hardware_cores() * 3 + 1);
  SUCCEED();
}

TEST(WaitFreeBuilder, PinnedBuildIsStillExact) {
  const Dataset data = generate_uniform(5000, 8, 2, 701);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  options.pin_threads = true;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  EXPECT_EQ(table.partitions().total_count(), 5000u);
}

TEST(BuildStats, CriticalPathAndAggregates) {
  const Dataset data = generate_uniform(20000, 10, 2, 702);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  const BuildStats& stats = builder.stats();
  EXPECT_GT(stats.critical_path_seconds(), 0.0);
  // Critical path is at least the busiest worker's stage-1 time.
  double max_stage1 = 0.0;
  for (const WorkerStats& w : stats.workers) {
    max_stage1 = std::max(max_stage1, w.stage1_seconds);
  }
  EXPECT_GE(stats.critical_path_seconds() + 1e-12, max_stage1);
  // 1024 distinct keys: every worker's 5000-row slice combines.
  EXPECT_EQ(stats.total_local_updates() + stats.total_foreign_pushes() +
                stats.total_combined_rows(),
            20000u);
}

TEST(Cheng, OrientationCanBeDisabled) {
  const Dataset data = generate_chain_correlated(20000, 4, 2, 0.8, 703);
  ChengOptions options;
  options.ci.threads = 2;
  options.orient = false;
  const ChengResult result = ChengLearner(options).learn(data);
  // Fallback orientation: every edge low → high.
  for (const Edge& e : result.oriented.edges()) {
    EXPECT_LT(e.from, e.to);
  }
  EXPECT_EQ(result.oriented.edge_count(), result.skeleton.edge_count());
}

TEST(PcStable, OrientationCanBeDisabled) {
  const Dataset data = generate_chain_correlated(20000, 4, 2, 0.8, 704);
  PcStableOptions options;
  options.ci.threads = 2;
  options.orient = false;
  const PcStableResult result = PcStableLearner(options).learn(data);
  for (const Edge& e : result.oriented.edges()) {
    EXPECT_LT(e.from, e.to);
  }
}

TEST(CostModel, PredictionsValidateInputs) {
  MachineModel model;  // defaults are fine for shape checks
  BuildStats empty;
  EXPECT_THROW((void)predict_wait_free_seconds(model, empty, 10),
               PreconditionError);
  EXPECT_THROW((void)predict_locked_seconds(model, 100, 10, 0, 64),
               PreconditionError);
  EXPECT_THROW((void)predict_locked_seconds(model, 100, 10, 4, 0),
               PreconditionError);
  EXPECT_THROW((void)predict_atomic_seconds(model, 100, 10, 0),
               PreconditionError);
  EXPECT_THROW((void)predict_sweep_seconds(model, {}, 2, 1.0),
               PreconditionError);
}

TEST(CostModel, DefaultModelHasDocumentedShape) {
  // Even without calibration, the default constants produce the qualitative
  // ordering the figures rely on.
  const MachineModel model;
  const double wait_free_ish =
      predict_atomic_seconds(model, 1000000, 30, 1);  // serial baseline proxy
  EXPECT_GT(predict_locked_seconds(model, 1000000, 30, 32, 256),
            wait_free_ish / 32.0);
}

TEST(WorkerStats, PipelinedStatsAccountForAllRows) {
  const Dataset data = generate_uniform(15000, 8, 2, 705);
  WaitFreeBuilderOptions options;
  options.threads = 3;
  options.pipelined = true;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  std::uint64_t rows = 0;
  std::uint64_t pops = 0;
  std::uint64_t foreign = 0;
  for (const WorkerStats& w : builder.stats().workers) {
    rows += w.rows_encoded;
    pops += w.stage2_pops;
    foreign += w.foreign_pushes;
  }
  EXPECT_EQ(rows, 15000u);
  EXPECT_EQ(pops, foreign);
}

}  // namespace
}  // namespace wfbn
