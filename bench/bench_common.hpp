// Shared helpers for the figure-reproduction benches.
//
// Every bench binary:
//  - runs argument-less with container-friendly sizes (minutes, not hours);
//  - accepts --scale paper for the full-size parameters of the paper
//    (m up to 10^7, n up to 50) and --cores / --samples overrides;
//  - prints both the *measured* wall-clock of the real multithreaded
//    implementation on this host and the *simulated* P-core makespan from
//    the calibrated cost model (see src/sim) — the latter reproduces the
//    figure shapes when the host has fewer cores than the paper's testbed.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/scaling_sim.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace wfbn::bench {

/// The paper's core-count sweep (x-axis of every figure).
inline std::vector<std::size_t> default_cores() { return {1, 2, 4, 8, 16, 32}; }

inline std::vector<std::size_t> to_sizes(const std::vector<std::int64_t>& v) {
  std::vector<std::size_t> out;
  out.reserve(v.size());
  for (const std::int64_t x : v) out.push_back(static_cast<std::size_t>(x));
  return out;
}

/// Registers the options shared by all figure benches.
inline void add_common_options(CliParser& cli) {
  cli.add_option("scale", "ci", "Experiment scale: ci (fast) or paper (full size)");
  cli.add_option("cores", "1,2,4,8,16,32", "Simulated core counts");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_flag("csv", "Also print CSV blocks for plotting");
}

/// Prints one curve as paper-style runtime and speedup rows.
inline void append_curve(TablePrinter& runtime, TablePrinter& speedup,
                         const std::string& series, const ScalingCurve& curve) {
  for (const ScalingPoint& point : curve.points) {
    runtime.add_row({series, std::to_string(point.cores),
                     TablePrinter::fmt(point.seconds * 1e3, 3)});
    speedup.add_row({series, std::to_string(point.cores),
                     TablePrinter::fmt(point.speedup, 2)});
  }
}

inline void print_tables(const TablePrinter& runtime, const TablePrinter& speedup,
                         const std::string& figure, bool csv) {
  runtime.print(figure + " — runtime");
  speedup.print(figure + " — speedup");
  if (csv) {
    std::printf("\n-- CSV (%s runtime) --\n%s", figure.c_str(),
                runtime.to_csv().c_str());
    std::printf("\n-- CSV (%s speedup) --\n%s", figure.c_str(),
                speedup.to_csv().c_str());
  }
}

/// A calibrated model shared by a bench run (calibration takes ~a second).
inline ScalingSimulator make_simulator() {
  std::printf("calibrating machine model on this host...\n");
  const MachineModel model = MachineModel::calibrate();
  std::printf(
      "  t_encode/var=%.2fns t_update=%.2fns t_push=%.2fns t_pop=%.2fns\n"
      "  t_combine=%.2fns t_project/var=%.2fns t_entry=%.2fns t_mutex=%.2fns\n"
      "  t_barrier/core=%.2fns\n"
      "  modeled: t_line_transfer=%.0fns coherence_quadratic=%.2fns\n",
      model.t_encode_per_var * 1e9, model.t_update * 1e9, model.t_push * 1e9,
      model.t_pop * 1e9, model.t_combine * 1e9, model.t_project_per_var * 1e9,
      model.t_entry_visit * 1e9, model.t_mutex * 1e9,
      model.t_barrier_per_core * 1e9, model.t_line_transfer * 1e9,
      model.coherence_quadratic * 1e9);
  return ScalingSimulator(model);
}

}  // namespace wfbn::bench
