// Tests for BIC family scoring and sparse-candidate hill climbing (the
// score-based paradigm of paper §III), and a raw-row oracle for every family
// score, whichever plane routine counted the family.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/score.hpp"
#include "raw_rows.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace wfbn {
namespace {

PotentialTable build(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

/// The entry planes of `data`'s table, built on a four-worker pool: what a
/// FamilyScorer counts from.
EntryPlanes planes_of(const Dataset& data) {
  ThreadPool pool(4);
  return EntryPlanes(build(data), pool);
}

TEST(FamilyScorer, RootScoreMatchesHandComputation) {
  // 10 rows of a binary variable: 4 zeros, 6 ones.
  std::vector<State> cells = {0, 0, 0, 0, 1, 1, 1, 1, 1, 1};
  const Dataset data(10, {2}, std::move(cells));
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  const double expected_ll = 4 * std::log(0.4) + 6 * std::log(0.6);
  const double expected = expected_ll - 0.5 * std::log(10.0) * 1.0;  // r−1 = 1
  EXPECT_NEAR(scorer.family_score(0, {}), expected, 1e-12);
}

TEST(FamilyScorer, ParentImprovesScoreOfDependentChild) {
  const Dataset data = generate_chain_correlated(50000, 2, 2, 0.9, 501);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  EXPECT_GT(scorer.family_score(1, {0}), scorer.family_score(1, {}));
}

TEST(FamilyScorer, ParentHurtsScoreOfIndependentChild) {
  // BIC penalty must reject a useless parent.
  const Dataset data = generate_uniform(50000, 2, 2, 502);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  EXPECT_LT(scorer.family_score(1, {0}), scorer.family_score(1, {}));
}

TEST(FamilyScorer, CacheAvoidsRecomputation) {
  const Dataset data = generate_uniform(5000, 4, 2, 503);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  const double first = scorer.family_score(2, {0, 3});
  const double second = scorer.family_score(2, {3, 0});  // same set, reordered
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(scorer.families_evaluated(), 1u);
  EXPECT_EQ(scorer.cache_hits(), 1u);
}

TEST(FamilyScorer, TotalScoreDecomposes) {
  const Dataset data = generate_chain_correlated(20000, 4, 2, 0.8, 504);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  Dag chain(4);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  chain.add_edge(2, 3);
  double manual = scorer.family_score(0, {});
  manual += scorer.family_score(1, {0});
  manual += scorer.family_score(2, {1});
  manual += scorer.family_score(3, {2});
  EXPECT_NEAR(scorer.total_score(chain), manual, 1e-9);
}

TEST(FamilyScorer, TrueStructureOutscoresAlternatives) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset data = forward_sample(truth, 150000, 505, 4);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);

  const double true_score = scorer.total_score(truth.dag());
  EXPECT_GT(true_score, scorer.total_score(Dag(5)));  // vs empty
  Dag wrong(5);  // a chain unrelated to the truth
  wrong.add_edge(0, 3);
  wrong.add_edge(3, 1);
  wrong.add_edge(1, 4);
  wrong.add_edge(4, 2);
  EXPECT_GT(true_score, scorer.total_score(wrong));
}

TEST(FamilyScorer, ValidatesArguments) {
  const Dataset data = generate_uniform(1000, 3, 2, 506);
  const EntryPlanes planes = planes_of(data);
  const FamilyScorer scorer(planes);
  EXPECT_THROW((void)scorer.family_score(0, {0}), PreconditionError);   // self
  EXPECT_THROW((void)scorer.family_score(0, {1, 1}), PreconditionError);
  EXPECT_THROW((void)scorer.family_score(9, {}), PreconditionError);
}

TEST(HillClimb, RecoversChainSkeleton) {
  const Dataset data = generate_chain_correlated(60000, 6, 2, 0.85, 507);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const HillClimbResult result = hill_climb(table, pool);
  UndirectedGraph expected(6);
  for (NodeId v = 0; v + 1 < 6; ++v) expected.add_edge(v, v + 1);
  const SkeletonMetrics m = compare_skeletons(result.dag.skeleton(), expected);
  EXPECT_DOUBLE_EQ(m.f1, 1.0) << "precision=" << m.precision
                              << " recall=" << m.recall;
  EXPECT_GT(result.moves, 0u);
}

TEST(HillClimb, EmptyGraphOnIndependentData) {
  const Dataset data = generate_uniform(30000, 6, 2, 508);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const HillClimbResult result = hill_climb(table, pool);
  EXPECT_EQ(result.dag.edge_count(), 0u);
  EXPECT_EQ(result.moves, 0u);
}

TEST(HillClimb, ScoreNeverDecreasesAndBeatsEmpty) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kSurvey);
  const Dataset data = forward_sample(truth, 80000, 509, 4);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const HillClimbResult result = hill_climb(table, pool);
  const EntryPlanes planes(table, pool);
  const FamilyScorer scorer(planes);
  EXPECT_GT(result.score, scorer.total_score(Dag(truth.node_count())));
  EXPECT_NEAR(result.score, scorer.total_score(result.dag), 1e-9);
}

TEST(HillClimb, SparseCandidatesPruneWithoutQualityLoss) {
  const BayesianNetwork truth = load_network(RepositoryNetwork::kCancer);
  const Dataset data = forward_sample(truth, 120000, 510, 4);

  ThreadPool pool(4);
  const PotentialTable table = build(data);
  const HillClimbResult full = hill_climb(table, pool);

  const HillClimbResult pruned = hill_climb_sparse(data, 3, pool);

  // Pruning evaluates fewer families but lands on an equally good skeleton.
  EXPECT_LE(pruned.families_evaluated, full.families_evaluated);
  const SkeletonMetrics m_full =
      compare_skeletons(full.dag.skeleton(), truth.dag().skeleton());
  const SkeletonMetrics m_pruned =
      compare_skeletons(pruned.dag.skeleton(), truth.dag().skeleton());
  EXPECT_GE(m_pruned.f1, m_full.f1 - 0.05);
  EXPECT_GE(m_pruned.f1, 0.8);
}

TEST(HillClimb, MaxParentsIsRespected) {
  // Star data: many variables copy variable 0.
  Dag star(5);
  for (NodeId v = 1; v < 5; ++v) star.add_edge(0, v);
  BayesianNetwork bn(std::move(star), std::vector<std::uint32_t>(5, 2));
  bn.randomize_cpts(511, 0.3);
  const Dataset data = forward_sample(bn, 50000, 512, 2);
  const PotentialTable table = build(data);
  HillClimbOptions options;
  options.max_parents = 1;
  ThreadPool pool(2);
  const HillClimbResult result = hill_climb(table, pool, options);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_LE(result.dag.parents(v).size(), 1u);
  }
}

TEST(HillClimb, AgreesWithChengOnChain) {
  const Dataset data = generate_chain_correlated(60000, 5, 2, 0.8, 513);
  const PotentialTable table = build(data);
  ThreadPool pool(4);
  const HillClimbResult hc = hill_climb(table, pool);
  UndirectedGraph expected(5);
  for (NodeId v = 0; v + 1 < 5; ++v) expected.add_edge(v, v + 1);
  EXPECT_EQ(hc.dag.skeleton().edges(), expected.edges());
}

// ---------------------------------------------------------------------------
// Raw-row oracle: every family score equals, bit for bit, the BIC of a
// marginal counted straight from the dataset rows — no codec, no table, no
// planes — whichever plane routine counted the family.

using testing_support::raw_marginal;

using Family = std::pair<std::size_t, std::vector<std::size_t>>;

/// {v, parents...} with the parents sorted: the variables, in layout order,
/// of the table the scorer counts for the family.
std::vector<std::size_t> family_vars(const Family& family) {
  std::vector<std::size_t> vars = family.second;
  std::sort(vars.begin(), vars.end());
  vars.insert(vars.begin(), family.first);
  return vars;
}

/// BIC of the family over raw-row counts, summed in the scorer's order.
double raw_row_bic(const Dataset& data, const Family& family) {
  const MarginalTable joint = raw_marginal(data, family_vars(family));
  const std::uint64_t r = data.cardinalities()[family.first];
  const std::uint64_t configs = joint.cell_count() / r;
  std::vector<std::uint64_t> config_totals(configs, 0);
  for (std::uint64_t cell = 0; cell < joint.cell_count(); ++cell) {
    config_totals[cell / r] += joint.count_at(cell);
  }
  double log_likelihood = 0.0;
  for (std::uint64_t cell = 0; cell < joint.cell_count(); ++cell) {
    const std::uint64_t c = joint.count_at(cell);
    if (c != 0) {
      log_likelihood += static_cast<double>(c) *
                        std::log(static_cast<double>(c) /
                                 static_cast<double>(config_totals[cell / r]));
    }
  }
  const double m = static_cast<double>(data.sample_count());
  return log_likelihood - 0.5 * std::log(m) * static_cast<double>(configs) *
                              (static_cast<double>(r) - 1.0);
}

/// The families of one oracle pass, parents in the (unsorted) order the
/// scorer receives them: every node as a root and with one to four random
/// parents, and for every ⌊n/3⌋-th node parent sets that grow up to 2^14
/// cells, whose lattice estimate passes the scatter's as the cells grow.
std::vector<Family> oracle_families(const Dataset& data, std::mt19937_64& rng) {
  const std::size_t n = data.variable_count();
  std::vector<Family> families;
  std::vector<std::size_t> others;
  for (std::size_t v = 0; v < n; ++v) {
    others.clear();
    for (std::size_t u = 0; u < n; ++u) {
      if (u != v) others.push_back(u);
    }
    families.push_back({v, {}});
    for (std::size_t k = 1; k <= 4; ++k) {
      std::shuffle(others.begin(), others.end(), rng);
      families.push_back(
          {v, {others.begin(), others.begin() + static_cast<std::ptrdiff_t>(k)}});
    }
    if (v % (n / 3) != 0) continue;
    std::shuffle(others.begin(), others.end(), rng);
    Family grow{v, {}};
    for (const std::size_t u : others) {
      grow.second.push_back(u);
      std::uint64_t cells = 1;
      for (const std::size_t w : family_vars(grow)) cells *= data.cardinalities()[w];
      if (cells > (1u << 14)) break;
      if (grow.second.size() >= 2) families.push_back(grow);
    }
  }
  return families;
}

enum class Mix { kAllLight, kAllHeavy, kMixed };

/// Scores the oracle families from planes built on P = 1 and 3 workers (so
/// worker ranges end in partly filled words), at the native SIMD level and
/// forced scalar, with a fresh scorer per pass. The cost rule must send
/// some families to the lattice and, where there are light entries, some to
/// the scatter: an all-heavy table has no light entry for either to count.
template <typename K>
void expect_scores_match_raw_rows(const Dataset& data, Mix mix) {
  std::mt19937_64 rng(data.variable_count() * 7919 + data.sample_count());
  const std::vector<Family> families = oracle_families(data, rng);
  std::vector<double> want;
  for (const Family& family : families) want.push_back(raw_row_bic(data, family));
  for (const std::size_t p : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(p);
    const BasicEntryPlanes<K> planes(BasicWaitFreeBuilder<K>().build(data, pool),
                                     pool);
    switch (mix) {
      case Mix::kAllLight:
        ASSERT_TRUE(planes.heavy().empty());
        break;
      case Mix::kAllHeavy:
        ASSERT_EQ(planes.light_count(), 0u);
        break;
      case Mix::kMixed:
        ASSERT_GT(planes.light_count(), 0u);
        ASSERT_FALSE(planes.heavy().empty());
        break;
    }
    for (const bool scalar : {false, true}) {
      std::optional<simd::ScopedForceLevel> force;
      if (scalar) force.emplace(simd::Level::kScalar);
      const BasicFamilyScorer<K> scorer(planes);
      std::size_t lattice = 0;
      std::size_t scatter = 0;
      for (std::size_t i = 0; i < families.size(); ++i) {
        const Family& family = families[i];
        ++(planes.cost(family_vars(family)).lattice ? lattice : scatter);
        const double got = scorer.family_score(family.first, family.second);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "P=" << p << " scalar=" << scalar << " family=" << i
            << " parents=" << family.second.size() << " got=" << got
            << " want=" << want[i];
      }
      EXPECT_GT(lattice, 0u) << "P=" << p << " scalar=" << scalar;
      if (mix != Mix::kAllHeavy) {
        EXPECT_GT(scatter, 0u) << "P=" << p << " scalar=" << scalar;
      }
    }
  }
}

template <typename K>
class FamilyScorerRawRowOracle : public ::testing::Test {};

using OracleKeyTypes = ::testing::Types<Key, WideKey>;
TYPED_TEST_SUITE(FamilyScorerRawRowOracle, OracleKeyTypes);

TYPED_TEST(FamilyScorerRawRowOracle, AllLightUniformTable) {
  // 2^30 joint states for 3000 rows: every row is its own count-1 entry.
  const Dataset data = generate_uniform(3000, 30, 2, 521);
  expect_scores_match_raw_rows<TypeParam>(data, Mix::kAllLight);
}

TYPED_TEST(FamilyScorerRawRowOracle, AllHeavyTable) {
  // m much larger than the 256 joint states: every key has count > 1.
  const Dataset data = generate_uniform(20000, 8, 2, 522);
  expect_scores_match_raw_rows<TypeParam>(data, Mix::kAllHeavy);
}

TYPED_TEST(FamilyScorerRawRowOracle, MixedAlarmSample) {
  const Dataset data =
      forward_sample(load_network(RepositoryNetwork::kAlarm, 42), 20000, 523);
  expect_scores_match_raw_rows<TypeParam>(data, Mix::kMixed);
}

}  // namespace
}  // namespace wfbn
