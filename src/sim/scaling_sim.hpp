// Scaling-curve generation: reproduces the paper's Figures 3–5 on hardware
// with fewer cores than the 32-core testbed. For each simulated core count P
// the real (instrumented) primitives are executed with P workers — the
// per-worker operation counts are exact regardless of physical parallelism —
// and the cost model turns those counts into the makespan a P-core machine
// would observe. Lock-based baselines are analytic (see cost_model.hpp).
#pragma once

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "sim/cost_model.hpp"

namespace wfbn {

struct ScalingCurve {
  std::string label;
  std::vector<ScalingPoint> points;
};

/// Fills each point's speedup as points[0].seconds / point.seconds (so pass
/// cores lists starting at 1 to get paper-style speedup-vs-1-core).
void fill_speedups(ScalingCurve& curve);

class ScalingSimulator {
 public:
  explicit ScalingSimulator(MachineModel model) : model_(model) {}

  [[nodiscard]] const MachineModel& model() const noexcept { return model_; }

  /// Wait-free construction curve (Fig. 3/4 solid lines): runs the real
  /// builder with P workers per point, predicts from measured counts.
  [[nodiscard]] ScalingCurve wait_free_construction(
      const Dataset& data, const std::vector<std::size_t>& cores,
      std::string label = "wait-free") const;

  /// Lock-striped shared-table curve (Fig. 3/4 dashed lines, the TBB
  /// stand-in): analytic from (m, n, stripes).
  [[nodiscard]] ScalingCurve locked_construction(
      std::uint64_t rows, std::size_t variables,
      const std::vector<std::size_t>& cores, std::size_t stripes = 256,
      std::string label = "tbb-like") const;

  /// Atomic CAS shared-table curve (ablation).
  [[nodiscard]] ScalingCurve atomic_construction(
      std::uint64_t rows, std::size_t variables,
      const std::vector<std::size_t>& cores,
      std::string label = "atomic-cas") const;

  /// All-pairs MI curve (Fig. 5): builds the table once and predicts each
  /// point's pair sweeps from its distinct keys split evenly over P cores
  /// (ThreadPool::block_range). It prices Algorithm 4's per-pair sweep
  /// (kPairParallel), not the fused column kernel, so it overestimates
  /// kFused on uncompressed tables.
  [[nodiscard]] ScalingCurve all_pairs_mi(
      const Dataset& data, const std::vector<std::size_t>& cores,
      std::string label = "all-pairs-mi") const;

 private:
  MachineModel model_;
};

}  // namespace wfbn
