// Tests for the multicore cost model and the scaling simulator — the
// substitution for the paper's 32-core testbed. These tests pin down the
// *shape* properties the figures rely on (monotonicity, near-linear wait-free
// speedup, lock-baseline saturation/regression) rather than absolute times.
// The shape tests run on a fixed machine model, so their bounds do not move
// with the host's load or under a sanitizer; the calibration tests time the
// host.
#include <gtest/gtest.h>

#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "sim/cost_model.hpp"
#include "sim/scaling_sim.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

/// The shape tests' machine: the medians of five MachineModel::calibrate(
/// 50000, 7) runs on a 4-core x86-64 host with AVX2. The modeled cross-core
/// terms keep their defaults.
MachineModel fixed_model() {
  MachineModel model;
  model.t_encode_per_var = 1.0e-9;
  model.t_update = 1.2e-8;
  model.t_push = 2.6e-9;
  model.t_combine = 1.5e-9;
  model.t_pop = 1.2e-9;
  model.t_project_per_var = 3.4e-9;
  model.t_entry_visit = 1.4e-8;
  model.t_mutex = 9.4e-9;
  model.t_barrier_per_core = 1.1e-8;
  return model;
}

TEST(MachineModel, CalibrationProducesPlausibleCosts) {
  const MachineModel model = MachineModel::calibrate(50000, 7);
  // All measured costs must be positive and in a sane nanosecond band.
  for (const double cost :
       {model.t_encode_per_var, model.t_update, model.t_push, model.t_pop,
        model.t_combine,
        model.t_project_per_var, model.t_entry_visit, model.t_mutex,
        model.t_barrier_per_core}) {
    EXPECT_GT(cost, 0.0);
    EXPECT_LT(cost, 1e-5);  // < 10µs per op on any plausible machine
  }
  // A hashtable update costs more than a single encode multiply-add.
  EXPECT_GT(model.t_update, model.t_encode_per_var);
}

TEST(MachineModel, CalibrationRejectsTinySampleCounts) {
  EXPECT_THROW(MachineModel::calibrate(10), PreconditionError);
}

BuildStats stats_for(std::size_t threads, std::size_t samples = 20000) {
  const Dataset data = generate_uniform(samples, 20, 2, 7);
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  return builder.stats();
}

TEST(CostModel, WaitFreePredictionScalesDown) {
  const MachineModel model = fixed_model();
  const double t1 = predict_wait_free_seconds(model, stats_for(1), 20);
  const double t8 = predict_wait_free_seconds(model, stats_for(8), 20);
  const double t32 = predict_wait_free_seconds(model, stats_for(32), 20);
  EXPECT_GT(t1, t8);
  EXPECT_GT(t8, t32);
  // Near-linear: 8 cores between 4x and 8x, 32 cores between 12x and 32x.
  EXPECT_GT(t1 / t8, 4.0);
  EXPECT_LE(t1 / t8, 8.1);
  EXPECT_GT(t1 / t32, 12.0);
  EXPECT_LE(t1 / t32, 32.5);
}

TEST(CostModel, WaitFreePredictionLinearInRows) {
  const MachineModel model = fixed_model();
  const double small = predict_wait_free_seconds(model, stats_for(4, 10000), 20);
  const double large = predict_wait_free_seconds(model, stats_for(4, 40000), 20);
  EXPECT_NEAR(large / small, 4.0, 0.6);
}

TEST(CostModel, CombinedRowsArePricedAtTheCombinerHitCost) {
  // One worker that scanned 1000 rows: absorbing 600 of them in the
  // combiner replaces 600 table updates with 600 combiner hits.
  MachineModel model;
  model.t_update = 20e-9;
  model.t_combine = 2e-9;
  BuildStats routed;
  routed.workers.resize(1);
  routed.workers[0].rows_encoded = 1000;
  routed.workers[0].local_updates = 1000;
  BuildStats combined = routed;
  combined.workers[0].local_updates = 400;
  combined.workers[0].combined_rows = 600;
  const double saved = predict_wait_free_seconds(model, routed, 10) -
                       predict_wait_free_seconds(model, combined, 10);
  EXPECT_NEAR(saved, 600 * (model.t_update - model.t_combine), 1e-12);
}

TEST(CostModel, LockedBaselineSaturatesThenRegresses) {
  const MachineModel model = fixed_model();
  constexpr std::uint64_t kRows = 1000000;
  const double t1 = predict_locked_seconds(model, kRows, 30, 1, 256);
  std::vector<double> speedups;
  for (const std::size_t p : {2u, 4u, 8u, 16u, 32u, 64u}) {
    speedups.push_back(t1 / predict_locked_seconds(model, kRows, 30, p, 256));
  }
  // Speedup is bounded well below linear at 32 cores...
  EXPECT_LT(speedups[4], 16.0);
  // ...and the curve eventually turns down (paper Fig. 3b past 16 cores).
  double peak = 0.0;
  for (const double s : speedups) peak = std::max(peak, s);
  EXPECT_GT(peak, speedups.back());
}

TEST(CostModel, WaitFreeBeatsLockedAtScale) {
  const MachineModel model = fixed_model();
  const Dataset data = generate_uniform(50000, 30, 2, 8);
  WaitFreeBuilderOptions options;
  options.threads = 32;
  WaitFreeBuilder builder(options);
  (void)builder.build(data);
  const double wf = predict_wait_free_seconds(model, builder.stats(), 30);
  const double locked = predict_locked_seconds(model, 50000, 30, 32, 256);
  EXPECT_LT(wf, locked);
}

TEST(CostModel, AtomicBetweenWaitFreeAndLocked) {
  const MachineModel model = fixed_model();
  const double atomic32 = predict_atomic_seconds(model, 1000000, 30, 32);
  const double locked32 = predict_locked_seconds(model, 1000000, 30, 32, 256);
  EXPECT_LT(atomic32, locked32);  // no mutex round trip
  const double atomic1 = predict_atomic_seconds(model, 1000000, 30, 1);
  EXPECT_LT(atomic32, atomic1);   // still parallelizes
}

TEST(CostModel, SweepPredictionUsesMakespan) {
  const MachineModel model = fixed_model();
  const std::vector<std::uint64_t> balanced = {100, 100, 100, 100};
  const std::vector<std::uint64_t> imbalanced = {400, 0, 0, 0};
  const double t_balanced = predict_sweep_seconds(model, balanced, 2, 10);
  const double t_imbalanced = predict_sweep_seconds(model, imbalanced, 2, 10);
  EXPECT_NEAR(t_imbalanced / t_balanced, 4.0, 1e-9);
  // Sweeps scale linearly.
  EXPECT_NEAR(predict_sweep_seconds(model, balanced, 2, 20) / t_balanced, 2.0,
              1e-9);
}

TEST(ScalingSimulator, WaitFreeCurveHasNormalizedSpeedups) {
  const ScalingSimulator sim(fixed_model());
  const Dataset data = generate_uniform(20000, 16, 2, 9);
  const ScalingCurve curve = sim.wait_free_construction(data, {1, 2, 4, 8});
  ASSERT_EQ(curve.points.size(), 4u);
  EXPECT_DOUBLE_EQ(curve.points[0].speedup, 1.0);
  for (std::size_t k = 1; k < curve.points.size(); ++k) {
    EXPECT_GT(curve.points[k].speedup, curve.points[k - 1].speedup);
  }
}

TEST(ScalingSimulator, AllPairsMiCurveScales) {
  const ScalingSimulator sim(fixed_model());
  const Dataset data = generate_uniform(20000, 12, 2, 10);
  const ScalingCurve curve = sim.all_pairs_mi(data, {1, 4, 16});
  ASSERT_EQ(curve.points.size(), 3u);
  EXPECT_GT(curve.points[2].speedup, curve.points[1].speedup);
  EXPECT_GT(curve.points[1].speedup, 2.0);
}

TEST(ScalingSimulator, LockedCurveMatchesAnalyticModel) {
  const ScalingSimulator sim(fixed_model());
  const ScalingCurve curve = sim.locked_construction(100000, 30, {1, 8});
  EXPECT_DOUBLE_EQ(
      curve.points[0].seconds,
      predict_locked_seconds(sim.model(), 100000, 30, 1, 256));
  EXPECT_DOUBLE_EQ(
      curve.points[1].seconds,
      predict_locked_seconds(sim.model(), 100000, 30, 8, 256));
}

TEST(ScalingSimulator, HeadlineBandReproduced) {
  // The paper's headline: 23.5× at 32 cores for phase 1. Target band 15–32×
  // for the simulated pipeline (see EXPERIMENTS.md).
  const ScalingSimulator sim(fixed_model());
  const Dataset data = generate_uniform(50000, 30, 2, 11);
  const ScalingCurve build = sim.wait_free_construction(data, {1, 32});
  const ScalingCurve mi = sim.all_pairs_mi(data, {1, 32});
  const double pipeline_1 = build.points[0].seconds + mi.points[0].seconds;
  const double pipeline_32 = build.points[1].seconds + mi.points[1].seconds;
  const double speedup = pipeline_1 / pipeline_32;
  EXPECT_GT(speedup, 15.0);
  EXPECT_LT(speedup, 33.0);
}

TEST(ScalingSimulator, FillSpeedupsHandlesEmptyAndZero) {
  ScalingCurve empty{"x", {}};
  fill_speedups(empty);  // no crash
  ScalingCurve curve{"y", {{1, 2.0, 0.0}, {2, 1.0, 0.0}}};
  fill_speedups(curve);
  EXPECT_DOUBLE_EQ(curve.points[0].speedup, 1.0);
  EXPECT_DOUBLE_EQ(curve.points[1].speedup, 2.0);
}

}  // namespace
}  // namespace wfbn
