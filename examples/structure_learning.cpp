// End-to-end structure learning: sample a repository network (default ASIA),
// learn it back with any of the three learners built on the wait-free
// primitives — Cheng's three-phase algorithm, PC-stable, or BIC hill
// climbing — and compare the learned skeleton against the ground truth.
//
//   ./structure_learning --network alarm --learner cheng --samples 200000
#include <cstdio>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "learn/cheng.hpp"
#include "learn/pc_stable.hpp"
#include "learn/score.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace wfbn;

void report(const char* learner, const BayesianNetwork& truth, const Dag& dag,
            double seconds) {
  const SkeletonMetrics m = compare_skeletons(dag.skeleton(), truth.dag().skeleton());
  std::printf(
      "\n[%s] %.1f ms — %zu edges, precision=%.3f recall=%.3f F1=%.3f "
      "(tp=%zu fp=%zu fn=%zu), SHD=%zu\n",
      learner, seconds * 1e3, dag.edge_count(), m.precision, m.recall, m.f1,
      m.true_positives, m.false_positives, m.false_negatives,
      structural_hamming_distance(dag, truth.dag()));
}

void print_edges(const BayesianNetwork& truth, const Dag& dag) {
  std::printf("learned edges (oriented where evidence allows):\n");
  for (const Edge& e : dag.edges()) {
    const bool correct = truth.dag().skeleton().has_edge(e.from, e.to);
    std::printf("  %s -> %s%s\n", truth.name(e.from).c_str(),
                truth.name(e.to).c_str(), correct ? "" : "  (spurious)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("structure_learning — learn a repository network from samples");
  cli.add_option("network", "asia",
                 "asia|cancer|earthquake|survey|sachs|child|alarm");
  cli.add_option("learner", "cheng", "cheng|pc|hillclimb|all");
  cli.add_option("samples", "200000", "Training samples to draw");
  cli.add_option("threads", "4", "Worker threads for the primitives");
  cli.add_option("epsilon", "0.003", "MI threshold (nats) for CI decisions");
  cli.add_option("seed", "7", "Sampling seed");
  cli.add_flag("edges", "Print the learned edge list");
  if (!cli.parse(argc, argv)) return 0;

  RepositoryNetwork which = RepositoryNetwork::kAsia;
  for (const RepositoryNetwork candidate : all_repository_networks()) {
    if (repository_network_name(candidate) == cli.get("network")) {
      which = candidate;
    }
  }
  const BayesianNetwork truth = load_network(which);
  std::printf("network: %s (%zu nodes, %zu edges)\n",
              repository_network_name(which).c_str(), truth.node_count(),
              truth.dag().edge_count());

  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const double epsilon = cli.get_double("epsilon");
  const Dataset data = forward_sample(
      truth, samples, static_cast<std::uint64_t>(cli.get_int("seed")), threads);
  std::printf("sampled %zu observations with %zu threads\n", samples, threads);

  const std::string learner = cli.get("learner");
  const bool all = learner == "all";
  // Every learner runs on this one pool: the table build, the MI matrix and
  // the CI tests or family scores are all scheduled across it.
  ThreadPool pool(threads);
  Timer timer;

  if (all || learner == "cheng") {
    ChengOptions options;
    options.ci.mi_threshold = epsilon;
    timer.reset();
    const ChengResult result = ChengLearner(options, pool).learn(data);
    report("cheng", truth, result.oriented, timer.seconds());
    std::printf(
        "  phases: draft=%zu edges, thickening +%zu, thinning -%zu, CI "
        "tests=%llu\n",
        result.draft_edge_count, result.thickening_added,
        result.thinning_removed,
        static_cast<unsigned long long>(result.ci_tests));
    if (cli.get_bool("edges")) print_edges(truth, result.oriented);
  }
  if (all || learner == "pc") {
    PcStableOptions options;
    options.ci.mi_threshold = epsilon;
    timer.reset();
    const PcStableResult result = PcStableLearner(options, pool).learn(data);
    report("pc-stable", truth, result.oriented, timer.seconds());
    std::printf("  levels=%zu, CI tests=%llu\n", result.levels_run,
                static_cast<unsigned long long>(result.ci_tests));
    if (cli.get_bool("edges")) print_edges(truth, result.oriented);
  }
  if (all || learner == "hillclimb") {
    timer.reset();
    const HillClimbResult result = hill_climb_sparse(data, 5, pool);
    report("hillclimb(BIC, top-5 MI candidates)", truth, result.dag,
           timer.seconds());
    std::printf("  moves=%zu, families evaluated=%llu (cache hits %llu)\n",
                result.moves,
                static_cast<unsigned long long>(result.families_evaluated),
                static_cast<unsigned long long>(result.cache_hits));
    if (cli.get_bool("edges")) print_edges(truth, result.dag);
  }
  return 0;
}
