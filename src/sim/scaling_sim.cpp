#include "sim/scaling_sim.hpp"

#include <utility>

#include "concurrent/thread_pool.hpp"
#include "core/wait_free_builder.hpp"
#include "util/error.hpp"

namespace wfbn {

void fill_speedups(ScalingCurve& curve) {
  if (curve.points.empty()) return;
  const double base = curve.points.front().seconds;
  for (ScalingPoint& point : curve.points) {
    point.speedup = point.seconds > 0.0 ? base / point.seconds : 0.0;
  }
}

ScalingCurve ScalingSimulator::wait_free_construction(
    const Dataset& data, const std::vector<std::size_t>& cores,
    std::string label) const {
  WFBN_EXPECT(!cores.empty(), "need at least one core count");
  ScalingCurve curve{std::move(label), {}};
  for (const std::size_t p : cores) {
    WaitFreeBuilderOptions options;
    options.threads = p;
    WaitFreeBuilder builder(options);
    const PotentialTable table = builder.build(data);
    (void)table;
    const double seconds = predict_wait_free_seconds(
        model_, builder.stats(), data.variable_count());
    curve.points.push_back(ScalingPoint{p, seconds, 1.0});
  }
  fill_speedups(curve);
  return curve;
}

ScalingCurve ScalingSimulator::locked_construction(
    std::uint64_t rows, std::size_t variables,
    const std::vector<std::size_t>& cores, std::size_t stripes,
    std::string label) const {
  WFBN_EXPECT(!cores.empty(), "need at least one core count");
  ScalingCurve curve{std::move(label), {}};
  for (const std::size_t p : cores) {
    curve.points.push_back(ScalingPoint{
        p, predict_locked_seconds(model_, rows, variables, p, stripes), 1.0});
  }
  fill_speedups(curve);
  return curve;
}

ScalingCurve ScalingSimulator::atomic_construction(
    std::uint64_t rows, std::size_t variables,
    const std::vector<std::size_t>& cores, std::string label) const {
  WFBN_EXPECT(!cores.empty(), "need at least one core count");
  ScalingCurve curve{std::move(label), {}};
  for (const std::size_t p : cores) {
    curve.points.push_back(ScalingPoint{
        p, predict_atomic_seconds(model_, rows, variables, p), 1.0});
  }
  fill_speedups(curve);
  return curve;
}

ScalingCurve ScalingSimulator::all_pairs_mi(
    const Dataset& data, const std::vector<std::size_t>& cores,
    std::string label) const {
  WFBN_EXPECT(!cores.empty(), "need at least one core count");
  const std::size_t n = data.variable_count();
  const double pair_sweeps =
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  const std::size_t distinct = WaitFreeBuilder().build(data).distinct_keys();
  ScalingCurve curve{std::move(label), {}};
  for (const std::size_t p : cores) {
    // Algorithm 3 runs one core per partition; the cores sweep the distinct
    // keys evened out over them, as §IV-C allows.
    std::vector<std::uint64_t> per_core_entries(p, 0);
    for (std::size_t part = 0; part < p; ++part) {
      const auto [lo, hi] = ThreadPool::block_range(distinct, p, part);
      per_core_entries[part] = hi - lo;
    }
    const double seconds =
        predict_sweep_seconds(model_, per_core_entries, 2, pair_sweeps);
    curve.points.push_back(ScalingPoint{p, seconds, 1.0});
  }
  fill_speedups(curve);
  return curve;
}

}  // namespace wfbn
