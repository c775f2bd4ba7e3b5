// Tests for the CI tester that backs Cheng's phases (MI-threshold and G-test
// decisions against data with known structure), and a raw-row oracle for
// every counting source the tester picks from: the cached superset, the
// AND-popcount lattice and the set-bit scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <random>
#include <vector>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/ci_scheduler.hpp"
#include "learn/independence.hpp"
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

/// The entry planes of `data`'s table, built on a two-worker pool as a
/// learner builds them once per learn.
EntryPlanes planes_of(const Dataset& data) {
  ThreadPool pool(2);
  return EntryPlanes(build(data), pool);
}

TEST(CiTester, DetectsMarginalDependenceOnChainData) {
  const Dataset data = generate_chain_correlated(30000, 4, 2, 0.9, 61);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  EXPECT_FALSE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 3, {}).independent);  // transitively dependent
  EXPECT_GT(tester.pair_mi(0, 1), tester.pair_mi(0, 3));
}

TEST(CiTester, DetectsIndependenceOnUniformData) {
  const Dataset data = generate_uniform(30000, 4, 2, 62);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(tester.test(i, j, {}).independent);
    }
  }
}

TEST(CiTester, ConditioningScreensOffChain) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 63);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  const std::size_t middle[] = {1};
  EXPECT_FALSE(tester.test(0, 2, {}).independent);
  EXPECT_TRUE(tester.test(0, 2, middle).independent);
}

TEST(CiTester, GTestMethodAgreesOnClearCases) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 64);
  const EntryPlanes planes = planes_of(data);
  CiOptions options;
  options.method = CiMethod::kGTest;
  options.alpha = 0.01;
  const CiTester tester(planes, options);
  const CiDecision dependent = tester.test(0, 1, {});
  EXPECT_FALSE(dependent.independent);
  EXPECT_LT(dependent.p_value, 1e-6);
  const std::size_t middle[] = {1};
  const CiDecision screened = tester.test(0, 2, middle);
  EXPECT_TRUE(screened.independent);
  EXPECT_GT(screened.p_value, 0.01);
}

TEST(CiTester, ColliderSignatureOnSampledData) {
  // X → Z ← Y: marginally independent, dependent given Z.
  Dag dag(3);
  dag.add_edge(0, 2);
  dag.add_edge(1, 2);
  BayesianNetwork bn(std::move(dag), {2, 2, 2});
  bn.set_cpt(2, Cpt::from_probabilities(
                    2, {2, 2},
                    {0.95, 0.05, 0.10, 0.90, 0.10, 0.90, 0.95, 0.05}));
  const Dataset data = forward_sample(bn, 80000, 65);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  const std::size_t z[] = {2};
  EXPECT_TRUE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 1, z).independent);
}

TEST(CiTester, CountsTests) {
  const Dataset data = generate_uniform(1000, 3, 2, 66);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  EXPECT_EQ(tester.tests_performed(), 0u);
  (void)tester.test(0, 1, {});
  (void)tester.test(0, 2, {});
  EXPECT_EQ(tester.tests_performed(), 2u);
}

TEST(CiTester, ValidatesArguments) {
  const Dataset data = generate_uniform(1000, 4, 2, 67);
  const EntryPlanes planes = planes_of(data);
  const CiTester tester(planes, CiOptions{});
  const std::size_t z_with_x[] = {0};
  EXPECT_THROW((void)tester.test(0, 0, {}), PreconditionError);
  EXPECT_THROW((void)tester.test(0, 1, z_with_x), PreconditionError);
  CiOptions bad;
  bad.mi_threshold = -1.0;
  EXPECT_THROW(CiTester(planes, bad), PreconditionError);
  CiOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(CiTester(planes, bad_alpha), PreconditionError);
}

TEST(CiTester, ThresholdControlsSensitivity) {
  const Dataset data = generate_chain_correlated(30000, 2, 2, 0.6, 68);
  const EntryPlanes planes = planes_of(data);
  CiOptions strict;
  strict.mi_threshold = 1.0;  // absurdly high: everything "independent"
  EXPECT_TRUE(CiTester(planes, strict).test(0, 1, {}).independent);
  CiOptions loose;
  loose.mi_threshold = 1e-6;
  EXPECT_FALSE(CiTester(planes, loose).test(0, 1, {}).independent);
}

// ---------------------------------------------------------------------------
// Raw-row oracle: every decision, statistic and p-value of the tester equals,
// bit for bit, decide_from_joint over a marginal counted straight from the
// dataset rows — no codec, no table, no planes — whichever source counted it.

using testing_support::raw_marginal;

/// Sets the states of rows [0, rows) to 0.
void zero_rows(Dataset& data, std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < data.variable_count(); ++j) data.set(i, j, 0);
  }
}

/// `data` with one more variable, of one state.
Dataset with_one_state_variable(const Dataset& data) {
  std::vector<std::uint32_t> cards = data.cardinalities();
  cards.push_back(1);
  Dataset out(data.sample_count(), cards);
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    for (std::size_t j = 0; j < data.variable_count(); ++j) {
      out.set(i, j, data.at(i, j));
    }
  }
  return out;
}

/// Cells of the marginal over `vars`.
std::uint64_t cells_of(const Dataset& data, const std::vector<std::size_t>& vars) {
  std::uint64_t cells = 1;
  for (const std::size_t v : vars) cells *= data.cardinalities()[v];
  return cells;
}

/// The queries of one oracle pass, each x, y, Z in the (unsorted) order the
/// tester receives them:
///   - random draws with |Z| = 0..6;
///   - a large set, then every subset that drops one member of its Z, then
///     the bare pair: candidates for projection from a cached superset;
///   - the one-state variable (the last one) in a pair and in a Z;
///   - growing sets up to 2^14 cells, whose lattice estimate passes the
///     scatter's as the cells grow.
std::vector<CiTask> oracle_queries(const Dataset& data, std::mt19937_64& rng) {
  const std::size_t n = data.variable_count();
  const std::size_t one_state = n - 1;
  std::vector<std::size_t> order(n - 1);
  for (std::size_t v = 0; v + 1 < n; ++v) order[v] = v;
  const auto draw = [&](std::size_t z_size) {
    std::shuffle(order.begin(), order.end(), rng);
    const auto z_end = order.begin() + 2 + static_cast<std::ptrdiff_t>(z_size);
    return CiTask{order[0], order[1], std::vector<std::size_t>(order.begin() + 2, z_end)};
  };
  std::vector<CiTask> queries;
  for (std::size_t z_size = 0; z_size <= 6; ++z_size) queries.push_back(draw(z_size));

  const CiTask large = draw(5);
  queries.push_back(large);
  for (std::size_t drop = 0; drop < large.z.size(); ++drop) {
    CiTask subset{large.y, large.x, {}};
    for (std::size_t i = large.z.size(); i-- > 0;) {
      if (i != drop) subset.z.push_back(large.z[i]);
    }
    queries.push_back(subset);
  }
  queries.push_back(CiTask{large.x, large.y, {}});

  const CiTask pair = draw(1);
  queries.push_back(CiTask{one_state, pair.x, {}});
  queries.push_back(CiTask{pair.x, pair.y, {one_state, pair.z[0]}});

  std::shuffle(order.begin(), order.end(), rng);
  CiTask grow{order[0], order[1], {}};
  for (std::size_t k = 2; k < order.size(); ++k) {
    std::vector<std::size_t> vars = grow.z;
    vars.push_back(grow.x);
    vars.push_back(grow.y);
    vars.push_back(order[k]);
    if (cells_of(data, vars) > (1u << 14)) break;
    grow.z.push_back(order[k]);
    if (grow.z.size() >= 4) queries.push_back(grow);
  }
  return queries;
}

enum class Mix { kAllLight, kAllHeavy, kMixed };

/// Runs the oracle queries through a CiScheduler on P workers, P = 1, 3, 4
/// and 16 (tables with P partitions, planes built on P workers, so worker
/// ranges end in partly filled words), under both methods, at the native
/// SIMD level and forced scalar. Heavy entries leave words unused: in the
/// all-heavy table every word of every range is. Both plane routines also
/// count every query directly. At P = 1 the queries run in order, so each
/// source the cost rule can pick must have answered some miss — the
/// scatter only where there are light entries, since on an all-heavy table
/// the lattice counts nothing; at P > 1 timing decides which source
/// answers, and the counts stay exact.
template <typename K>
void expect_matches_raw_rows(const Dataset& data, Mix mix) {
  const std::size_t n = data.variable_count();
  std::mt19937_64 rng(n * 7919 + data.sample_count());
  const std::vector<CiTask> queries = oracle_queries(data, rng);
  std::vector<std::vector<std::size_t>> joints;
  std::vector<MarginalTable> raw;
  for (const CiTask& q : queries) {
    std::vector<std::size_t> joint = q.z;
    joint.push_back(q.x);
    joint.push_back(q.y);
    std::sort(joint.begin(), joint.end());
    raw.push_back(raw_marginal(data, joint));
    joints.push_back(std::move(joint));
  }
  const std::size_t pool_sizes[] = {1, 3, 4, 16};
  for (const std::size_t p : pool_sizes) {
    WaitFreeBuilderOptions build;
    build.threads = p;
    ThreadPool pool(p);
    const BasicPotentialTable<K> table = BasicWaitFreeBuilder<K>(build).build(data, pool);
    const BasicEntryPlanes<K> planes(table, pool);
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
      for (std::size_t i = 0; i < joints.size(); ++i) {
        EXPECT_EQ(planes.marginalize_lattice(joints[i]).raw_counts(),
                  raw[i].raw_counts())
            << "lattice P=" << p << " scalar=" << scalar << " query=" << i;
        EXPECT_EQ(planes.marginalize_scatter(joints[i]).raw_counts(), raw[i].raw_counts())
            << "scatter P=" << p << " query=" << i;
      }
      for (const CiMethod method : {CiMethod::kMiThreshold, CiMethod::kGTest}) {
        CiOptions options;
        options.method = method;
        const BasicCiTester<K> tester(planes, options);
        BasicCiScheduler<K> scheduler(pool);
        const std::vector<CiDecision> got = scheduler.run(tester, queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const CiTask& q = queries[i];
          const CiDecision want = decide_from_joint(raw[i], q.x, q.y, options);
          const auto where = ::testing::Message()
                             << "P=" << p << " scalar=" << scalar
                             << " method=" << static_cast<int>(method)
                             << " query=" << i << " |Z|=" << q.z.size();
          EXPECT_EQ(got[i].independent, want.independent) << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].statistic),
                    std::bit_cast<std::uint64_t>(want.statistic))
              << where;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].p_value),
                    std::bit_cast<std::uint64_t>(want.p_value))
              << where;
        }
        const MarginalCacheStats stats = tester.cache().stats();
        EXPECT_EQ(stats.hits + stats.misses, queries.size());
        EXPECT_EQ(stats.projected + stats.lattice + stats.scatter, stats.misses);
        if (p == 1) {
          EXPECT_GT(stats.projected, 0u) << "scalar=" << scalar;
          EXPECT_GT(stats.lattice, 0u) << "scalar=" << scalar;
          if (mix != Mix::kAllHeavy) {
            EXPECT_GT(stats.scatter, 0u) << "scalar=" << scalar;
          }
        }
      }
    }
  }
}

template <typename K>
class CiTesterRawRowOracle : public ::testing::Test {};

using OracleKeyTypes = ::testing::Types<Key, WideKey>;
TYPED_TEST_SUITE(CiTesterRawRowOracle, OracleKeyTypes);

TYPED_TEST(CiTesterRawRowOracle, AllLightUniformTable) {
  // 2^30 joint states for 3000 rows: every row is its own count-1 entry,
  // the all-zero row included.
  Dataset data = generate_uniform(3000, 30, 2, 71);
  zero_rows(data, 1);
  expect_matches_raw_rows<TypeParam>(with_one_state_variable(data), Mix::kAllLight);
}

TYPED_TEST(CiTesterRawRowOracle, AllHeavyTable) {
  // SACHS-like compression, m much larger than the 256 joint states: every
  // key has count > 1, and the planes hold no entry at all.
  Dataset data = generate_uniform(20000, 8, 2, 72);
  zero_rows(data, 40);
  expect_matches_raw_rows<TypeParam>(with_one_state_variable(data), Mix::kAllHeavy);
}

TYPED_TEST(CiTesterRawRowOracle, MixedAlarmSample) {
  Dataset data = forward_sample(load_network(RepositoryNetwork::kAlarm, 42), 20000, 73);
  zero_rows(data, 1);
  expect_matches_raw_rows<TypeParam>(with_one_state_variable(data), Mix::kMixed);
}

}  // namespace
}  // namespace wfbn
