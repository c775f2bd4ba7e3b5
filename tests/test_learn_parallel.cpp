// Tests for the re-platformed learner layer: KeyTraits-templated learners
// (narrow/wide parity), the parallel CI scheduler (P=1 ≡ P=8 bit-identity),
// the marginal-reuse cache (raw-row equality, hits observed), cooperative
// cancellation, and ServeEngine::learn_structure against a live store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "learn/chow_liu.hpp"
#include "learn/ci_scheduler.hpp"
#include "learn/independence.hpp"
#include "learn/pc_stable.hpp"
#include "learn/score.hpp"
#include "serve/serve_engine.hpp"
#include "serve/table_store.hpp"
#include "raw_rows.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

using EdgeList = std::vector<std::pair<std::size_t, std::size_t>>;

EdgeList undirected_edges(const UndirectedGraph& graph) {
  EdgeList out;
  for (const Edge& e : graph.edges()) out.emplace_back(e.from, e.to);
  return out;
}

EdgeList directed_edges(const Dag& dag) {
  EdgeList out;
  for (const Edge& e : dag.edges()) out.emplace_back(e.from, e.to);
  return out;
}

Dataset chain_data() { return generate_chain_correlated(20000, 7, 2, 0.8, 91); }

template <typename K>
BasicPotentialTable<K> build_table(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  BasicWaitFreeBuilder<K> builder(options);
  return builder.build(data);
}

// ---------------------------------------------------------------------------
// Narrow/wide parity: the same dataset through both key widths must produce
// identical structures — the templated learners share one implementation.

TEST(LearnParity, ChengNarrowAndWideAgreeExactly) {
  const Dataset data = chain_data();
  const ChengOptions options;
  ThreadPool pool(4);
  const ChengResult narrow =
      ChengLearner(options, pool).learn(build_table<Key>(data));
  const ChengResult wide =
      WideChengLearner(options, pool).learn(build_table<WideKey>(data));
  EXPECT_EQ(undirected_edges(narrow.skeleton), undirected_edges(wide.skeleton));
  EXPECT_EQ(directed_edges(narrow.oriented), directed_edges(wide.oriented));
  EXPECT_EQ(narrow.sepsets, wide.sepsets);
  EXPECT_EQ(narrow.ci_tests, wide.ci_tests);
}

TEST(LearnParity, PcStableNarrowAndWideAgreeExactly) {
  const Dataset data = chain_data();
  PcStableOptions options;
  options.max_level = 2;
  ThreadPool pool(4);
  const PcStableResult narrow =
      PcStableLearner(options, pool).learn(build_table<Key>(data));
  const PcStableResult wide =
      WidePcStableLearner(options, pool).learn(build_table<WideKey>(data));
  EXPECT_EQ(undirected_edges(narrow.skeleton), undirected_edges(wide.skeleton));
  EXPECT_EQ(directed_edges(narrow.oriented), directed_edges(wide.oriented));
  EXPECT_EQ(narrow.sepsets, wide.sepsets);
  EXPECT_EQ(narrow.ci_tests, wide.ci_tests);
}

TEST(LearnParity, ChowLiuNarrowAndWideAgreeExactly) {
  const Dataset data = chain_data();
  ThreadPool pool(4);
  const ChowLiuResult narrow = chow_liu_learn(build_table<Key>(data), pool);
  const ChowLiuResult wide = chow_liu_learn(build_table<WideKey>(data), pool);
  EXPECT_EQ(undirected_edges(narrow.tree), undirected_edges(wide.tree));
  EXPECT_EQ(directed_edges(narrow.rooted), directed_edges(wide.rooted));
  EXPECT_EQ(narrow.total_mi, wide.total_mi);  // bit-identical, same sweeps
}

TEST(LearnParity, HillClimbSparseNarrowAndWideAgreeExactly) {
  const Dataset data = generate_chain_correlated(8000, 5, 2, 0.8, 92);
  ThreadPool pool(2);
  const HillClimbResult narrow = hill_climb_sparse(data, 3, pool);
  const HillClimbResult wide = hill_climb_sparse<WideKey>(data, 3, pool);
  EXPECT_EQ(directed_edges(narrow.dag), directed_edges(wide.dag));
  EXPECT_EQ(narrow.score, wide.score);
}

// ---------------------------------------------------------------------------
// Scheduler determinism: the frozen-phase collect-then-apply structure means
// one worker and many workers walk byte-identical decision sequences.

TEST(LearnScheduling, ChengIsBitIdenticalAcrossPoolWidths) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  const ChengOptions options;
  ThreadPool p1(1);
  ThreadPool p8(8);
  const ChengResult serial = ChengLearner(options, p1).learn(table);
  const ChengResult parallel = ChengLearner(options, p8).learn(table);
  EXPECT_EQ(undirected_edges(serial.skeleton),
            undirected_edges(parallel.skeleton));
  EXPECT_EQ(directed_edges(serial.oriented), directed_edges(parallel.oriented));
  EXPECT_EQ(serial.sepsets, parallel.sepsets);
  EXPECT_EQ(serial.ci_tests, parallel.ci_tests);
  EXPECT_EQ(serial.draft_edge_count, parallel.draft_edge_count);
  EXPECT_EQ(serial.thickening_added, parallel.thickening_added);
  EXPECT_EQ(serial.thinning_removed, parallel.thinning_removed);
  // The borrowed pool actually carried scheduled batches.
  EXPECT_GT(parallel.schedule.batches, 0u);
  EXPECT_GT(parallel.schedule.work_items, 0u);
}

TEST(LearnScheduling, PcStableIsBitIdenticalAcrossPoolWidths) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  PcStableOptions options;
  options.max_level = 2;
  ThreadPool p1(1);
  ThreadPool p8(8);
  const PcStableResult serial = PcStableLearner(options, p1).learn(table);
  const PcStableResult parallel = PcStableLearner(options, p8).learn(table);
  EXPECT_EQ(undirected_edges(serial.skeleton),
            undirected_edges(parallel.skeleton));
  EXPECT_EQ(directed_edges(serial.oriented), directed_edges(parallel.oriented));
  EXPECT_EQ(serial.sepsets, parallel.sepsets);
  EXPECT_EQ(serial.ci_tests, parallel.ci_tests);
}

TEST(LearnScheduling, SchedulerRunAnswersEveryTaskInSlotOrder) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  CiOptions ci;
  ThreadPool pool(4);
  const EntryPlanes planes(table, pool);
  const CiTester tester(planes, ci);
  CiScheduler scheduler(pool);
  std::vector<CiTask> tasks;
  for (std::size_t x = 0; x + 1 < 7; ++x) {
    tasks.push_back(CiTask{x, x + 1, {}});
    if (x + 2 < 7) tasks.push_back(CiTask{x, x + 2, {x + 1}});
  }
  const std::vector<CiDecision> decisions = scheduler.run(tester, tasks);
  ASSERT_EQ(decisions.size(), tasks.size());
  const CiTester reference(planes, ci);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const CiDecision expect = reference.test(tasks[i].x, tasks[i].y, tasks[i].z);
    EXPECT_EQ(decisions[i].independent, expect.independent) << "task " << i;
    EXPECT_EQ(decisions[i].statistic, expect.statistic) << "task " << i;
  }
  EXPECT_EQ(scheduler.stats().work_items, tasks.size());
  EXPECT_EQ(scheduler.stats().batches, 1u);
}

// ---------------------------------------------------------------------------
// Marginal-reuse cache: hit/miss/source accounting, and every answer — miss
// or hit, from any counting source — equal to raw-row counts.

TEST(MarginalReuse, CachedLearnSepsetsHoldOnRawRowCounts) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  const ChengOptions options;
  ThreadPool pool(4);
  const ChengResult result = ChengLearner(options, pool).learn(table);
  // Every recorded sepset separates its pair on counts taken from the rows.
  ASSERT_FALSE(result.sepsets.empty());
  for (const auto& [pair, z] : result.sepsets) {
    std::vector<std::size_t> joint = z;
    joint.push_back(pair.first);
    joint.push_back(pair.second);
    std::sort(joint.begin(), joint.end());
    const CiDecision raw =
        decide_from_joint(testing_support::raw_marginal(data, joint),
                          pair.first, pair.second, options.ci);
    EXPECT_TRUE(raw.independent) << pair.first << "-" << pair.second;
  }
  // Each test looks its marginal up once; each miss is counted by one source.
  const CiScheduleStats& s = result.schedule;
  EXPECT_EQ(s.cache_hits + s.cache_misses, result.ci_tests);
  EXPECT_EQ(s.misses_projected + s.misses_lattice + s.misses_scatter,
            s.cache_misses);
  EXPECT_GT(s.cache_misses, 0u);
}

TEST(MarginalReuse, TesterStatisticsMatchRawRowCountsOnMissAndHit) {
  const Dataset data = chain_data();
  ThreadPool pool(2);
  const EntryPlanes planes(build_table<Key>(data), pool);
  const CiTester cached(planes, CiOptions{});
  const std::vector<std::size_t> z{2};
  // Twice through the tester: miss then hit, same bits every time.
  const CiDecision first = cached.test(1, 3, z);
  const CiDecision second = cached.test(1, 3, z);
  const CiDecision reference = decide_from_joint(
      testing_support::raw_marginal(data, {1, 2, 3}), 1, 3, CiOptions{});
  EXPECT_EQ(first.statistic, second.statistic);
  EXPECT_EQ(first.statistic, reference.statistic);
  EXPECT_EQ(first.independent, reference.independent);
  EXPECT_EQ(cached.cache().stats().hits, 1u);
  EXPECT_EQ(cached.cache().stats().misses, 1u);
}

TEST(MarginalReuse, SymmetricTestsShareOneMarginalization) {
  const Dataset data = chain_data();
  ThreadPool pool(2);
  const EntryPlanes planes(build_table<Key>(data), pool);
  const CiTester tester(planes, CiOptions{});
  (void)tester.test(1, 2, {});
  (void)tester.test(2, 1, {});  // canonical {1,2} — must hit
  EXPECT_EQ(tester.cache().stats().misses, 1u);
  EXPECT_EQ(tester.cache().stats().hits, 1u);
}

TEST(MarginalReuse, PcStableLevelsReuseMarginalsAcrossDirections) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  PcStableOptions options;
  options.max_level = 2;
  ThreadPool pool(4);
  const PcStableResult result = PcStableLearner(options, pool).learn(table);
  // Level 0 alone tests both directions of every pair over the same
  // canonical {x, y} marginal, so reuse is guaranteed.
  EXPECT_GT(result.schedule.cache_hits, 0u);
  EXPECT_GT(result.schedule.cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Cancellation: a set token aborts with OperationCancelled, never a torn
// result.

TEST(LearnCancellation, PreSetTokenCancelsChengCleanly) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  std::atomic<bool> cancel{true};
  ChengOptions options;
  options.ci.cancel = &cancel;
  ThreadPool pool(4);
  EXPECT_THROW((void)ChengLearner(options, pool).learn(table),
               OperationCancelled);
}

TEST(LearnCancellation, PreSetTokenCancelsPcStableCleanly) {
  const Dataset data = chain_data();
  const PotentialTable table = build_table<Key>(data);
  std::atomic<bool> cancel{true};
  PcStableOptions options;
  options.ci.cancel = &cancel;
  ThreadPool pool(2);
  EXPECT_THROW((void)PcStableLearner(options, pool).learn(table),
               OperationCancelled);
}

// ---------------------------------------------------------------------------
// Serving: learn_structure pins one snapshot version and keeps serving.

TEST(ServeLearn, LearnStructureAnswersFromPinnedVersion) {
  const Dataset data = chain_data();
  serve::TableStore store(build_table<Key>(data));
  serve::ServeEngine engine(store);
  serve::LearnRequest request;
  request.algorithm = serve::LearnAlgorithm::kCheng;
  request.threads = 4;
  const serve::LearnedStructure learned = engine.learn_structure(request);
  EXPECT_EQ(learned.version, store.version());
  EXPECT_EQ(learned.nodes, 7u);
  EXPECT_FALSE(learned.skeleton_edges.empty());
  EXPECT_FALSE(learned.directed_edges.empty());
  EXPECT_GT(learned.ci_tests, 0u);
  // Direct learner on the same table must agree exactly.
  ThreadPool pool(4);
  const ChengResult direct =
      ChengLearner(ChengOptions{}, pool).learn(build_table<Key>(data));
  ASSERT_EQ(learned.skeleton_edges.size(),
            undirected_edges(direct.skeleton).size());
  ASSERT_EQ(learned.directed_edges.size(),
            directed_edges(direct.oriented).size());
}

TEST(ServeLearn, EveryAlgorithmServesAndStampsVersion) {
  const Dataset data = chain_data();
  serve::TableStore store(build_table<Key>(data));
  serve::ServeEngine engine(store);
  for (const serve::LearnAlgorithm algorithm :
       {serve::LearnAlgorithm::kCheng, serve::LearnAlgorithm::kPcStable,
        serve::LearnAlgorithm::kChowLiu}) {
    serve::LearnRequest request;
    request.algorithm = algorithm;
    request.threads = 2;
    const serve::LearnedStructure learned = engine.learn_structure(request);
    EXPECT_EQ(learned.version, store.version());
    EXPECT_EQ(learned.nodes, 7u);
    EXPECT_FALSE(learned.skeleton_edges.empty());
  }
}

TEST(ServeLearn, CancelledJobThrowsOperationCancelled) {
  const Dataset data = chain_data();
  serve::TableStore store(build_table<Key>(data));
  serve::ServeEngine engine(store);
  std::atomic<bool> cancel{true};
  serve::LearnRequest request;
  request.cancel = &cancel;
  EXPECT_THROW((void)engine.learn_structure(request), OperationCancelled);
}

TEST(ServeLearn, WideEngineLearnsTheSameStructure) {
  const Dataset data = chain_data();
  serve::BasicTableStore<WideKey> store(build_table<WideKey>(data));
  serve::WideServeEngine engine(store);
  serve::LearnRequest request;
  request.threads = 2;
  const serve::LearnedStructure wide = engine.learn_structure(request);

  serve::TableStore narrow_store(build_table<Key>(data));
  serve::ServeEngine narrow_engine(narrow_store);
  const serve::LearnedStructure narrow = narrow_engine.learn_structure(request);
  EXPECT_EQ(wide.skeleton_edges, narrow.skeleton_edges);
  EXPECT_EQ(wide.directed_edges, narrow.directed_edges);
  EXPECT_EQ(wide.ci_tests, narrow.ci_tests);
}

}  // namespace
}  // namespace wfbn
