// Ablations over the design decisions DESIGN.md §6 calls out:
//   ABL-MI     all-pairs MI scheduling strategy;
//   ABL-IMPL   all construction strategies side by side;
//   ABL-WIDE   64-bit vs two-word key codec on the same workload;
//   ABL-SPARSE MI-based candidate parents for the hill climb.
// The first line names the host (cores, SIMD level, THP mode).
#include <cstdio>

#include "../pipeline_e2e/bench_schema.hpp"
#include "baselines/builders.hpp"
#include "bench/bench_common.hpp"
#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "data/generators.hpp"
#include "learn/score.hpp"
#include "learn/sparse_candidate.hpp"
#include "util/timer.hpp"

namespace {

using namespace wfbn;
using namespace wfbn::bench;

void run_mi_strategy_ablation(std::size_t samples, std::uint64_t seed) {
  const Dataset data = generate_uniform(samples, 24, 2, seed);
  WaitFreeBuilderOptions build_options;
  build_options.threads = 4;
  WaitFreeBuilder builder(build_options);
  const PotentialTable table = builder.build(data);

  TablePrinter out({"strategy", "threads", "wall_ms"});
  const std::pair<const char*, AllPairsStrategy> strategies[] = {
      {"pair-parallel", AllPairsStrategy::kPairParallel},
      {"fused", AllPairsStrategy::kFused}};
  for (const auto& [label, strategy] : strategies) {
    for (const std::size_t p : {1u, 4u}) {
      AllPairsMi all_pairs(AllPairsOptions{p, strategy});
      (void)all_pairs.compute(table);
      out.add_row({label, std::to_string(p),
                   TablePrinter::fmt(all_pairs.stats().total_seconds * 1e3, 3)});
    }
  }
  out.print("ABL-MI — all-pairs MI: pair-parallel (Algorithm 4) vs fused column kernel");
}

void run_builder_ablation(std::size_t samples, std::uint64_t seed) {
  const Dataset data = generate_uniform(samples, 30, 2, seed);
  TablePrinter out({"builder", "threads", "wall_ms", "lock_acquisitions"});
  const BuilderKind kinds[] = {BuilderKind::kSequential, BuilderKind::kGlobalLock,
                               BuilderKind::kStriped, BuilderKind::kAtomic,
                               BuilderKind::kWaitFree};
  for (const BuilderKind kind : kinds) {
    BuilderOptions options;
    options.threads = kind == BuilderKind::kSequential ? 1 : 4;
    auto builder = make_builder(kind, options);
    (void)builder->build(data);
    out.add_row({std::string(builder->name()),
                 std::to_string(options.threads),
                 TablePrinter::fmt(builder->stats().build_seconds * 1e3, 3),
                 TablePrinter::fmt(builder->stats().lock_acquisitions)});
  }
  out.print("ABL-IMPL — construction strategies side by side");
}

void run_wide_key_ablation(std::size_t samples, std::uint64_t seed) {
  // ABL-WIDE: what the two-word codec costs on data the 64-bit path could
  // also handle (the price of lifting the 2^63 state-space limit).
  const Dataset data = generate_uniform(samples, 30, 2, seed);
  TablePrinter out({"codec", "threads", "build_ms"});
  for (const std::size_t p : {1u, 4u}) {
    WaitFreeBuilderOptions narrow_options;
    narrow_options.threads = p;
    WaitFreeBuilder narrow(narrow_options);
    Timer timer;
    (void)narrow.build(data);
    out.add_row({"64-bit", std::to_string(p),
                 TablePrinter::fmt(timer.milliseconds(), 3)});
    WaitFreeBuilderOptions wide_options;
    wide_options.threads = p;
    WideWaitFreeBuilder wide(wide_options);
    timer.reset();
    (void)wide.build(data);
    out.add_row({"128-bit", std::to_string(p),
                 TablePrinter::fmt(timer.milliseconds(), 3)});
  }
  out.print("ABL-WIDE — 64-bit vs two-word key codec (same workload)");
}

void run_sparse_candidate_ablation(std::uint64_t seed) {
  // ABL-SPARSE: the paper's §III claim — all-pairs MI as a search-space
  // pruner for score-based learners. Compare hill climbing with and without
  // MI-derived candidate-parent sets on a sampled CHILD network.
  const BayesianNetwork truth = load_network(RepositoryNetwork::kChild);
  const Dataset data = forward_sample(truth, 60000, seed, 4);
  ThreadPool pool(4);
  const PotentialTable table = WaitFreeBuilder().build(data, pool);

  TablePrinter out({"search space", "families evaluated", "moves", "BIC",
                    "skeleton F1", "climb_s"});
  auto report = [&](const char* label, const HillClimbOptions& options) {
    Timer timer;
    const HillClimbResult result = hill_climb(table, pool, options);
    const double seconds = timer.seconds();
    const SkeletonMetrics m =
        compare_skeletons(result.dag.skeleton(), truth.dag().skeleton());
    out.add_row({label, TablePrinter::fmt(result.families_evaluated),
                 TablePrinter::fmt(static_cast<std::uint64_t>(result.moves)),
                 TablePrinter::fmt(result.score, 1), TablePrinter::fmt(m.f1, 3),
                 TablePrinter::fmt(seconds, 3)});
  };

  report("all parents", HillClimbOptions{});

  AllPairsMi all_pairs(AllPairsOptions{4, AllPairsStrategy::kFused});
  HillClimbOptions pruned;
  pruned.candidate_parents = sparse_candidates(all_pairs.compute(table, pool), 5);
  report("top-5 MI candidates", pruned);

  out.print("ABL-SPARSE — MI-based search-space pruning (paper §III)");
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("ablation_design — design-decision ablations (DESIGN.md §6)");
  add_common_options(cli);
  cli.add_option("samples", "0", "Sample count (0 = scale preset)");
  if (!cli.parse(argc, argv)) return 0;

  std::size_t samples = static_cast<std::size_t>(cli.get_int("samples"));
  if (samples == 0) samples = cli.get("scale") == "paper" ? 2000000 : 100000;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const HostInfo host = HostInfo::probe();
  std::printf("host: %u cores, %s, simd=%s, thp=%s\n", host.nproc,
              host.cpu_model.c_str(), host.simd_level.c_str(),
              host.thp_mode.c_str());
  run_mi_strategy_ablation(samples, seed);
  run_builder_ablation(samples, seed);
  run_wide_key_ablation(samples, seed);
  run_sparse_candidate_ablation(seed);
  return 0;
}
