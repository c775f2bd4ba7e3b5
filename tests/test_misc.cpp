// Coverage for the smaller API surfaces: affinity helpers, builder stats,
// pinning, and assorted option plumbing.
#include <gtest/gtest.h>

#include "concurrent/affinity.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
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

}  // namespace
}  // namespace wfbn
