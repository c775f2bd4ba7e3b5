// Tests for the CI tester that backs Cheng's phases (MI-threshold and G-test
// decisions against data with known structure), and a raw-row oracle for the
// plane counting the tester does.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <vector>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/independence.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

PotentialTable build(const Dataset& data) {
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  return builder.build(data);
}

TEST(CiTester, DetectsMarginalDependenceOnChainData) {
  const Dataset data = generate_chain_correlated(30000, 4, 2, 0.9, 61);
  const PotentialTable table = build(data);
  CiOptions options;
  options.threads = 2;
  const CiTester tester(table, options);
  EXPECT_FALSE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 3, {}).independent);  // transitively dependent
  EXPECT_GT(tester.pair_mi(0, 1), tester.pair_mi(0, 3));
}

TEST(CiTester, DetectsIndependenceOnUniformData) {
  const Dataset data = generate_uniform(30000, 4, 2, 62);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(tester.test(i, j, {}).independent);
    }
  }
}

TEST(CiTester, ConditioningScreensOffChain) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 63);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t middle[] = {1};
  EXPECT_FALSE(tester.test(0, 2, {}).independent);
  EXPECT_TRUE(tester.test(0, 2, middle).independent);
}

TEST(CiTester, GTestMethodAgreesOnClearCases) {
  const Dataset data = generate_chain_correlated(60000, 3, 2, 0.85, 64);
  const PotentialTable table = build(data);
  CiOptions options;
  options.method = CiMethod::kGTest;
  options.alpha = 0.01;
  const CiTester tester(table, options);
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
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t z[] = {2};
  EXPECT_TRUE(tester.test(0, 1, {}).independent);
  EXPECT_FALSE(tester.test(0, 1, z).independent);
}

TEST(CiTester, CountsTests) {
  const Dataset data = generate_uniform(1000, 3, 2, 66);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  EXPECT_EQ(tester.tests_performed(), 0u);
  (void)tester.test(0, 1, {});
  (void)tester.test(0, 2, {});
  EXPECT_EQ(tester.tests_performed(), 2u);
}

TEST(CiTester, ValidatesArguments) {
  const Dataset data = generate_uniform(1000, 4, 2, 67);
  const PotentialTable table = build(data);
  const CiTester tester(table, CiOptions{});
  const std::size_t z_with_x[] = {0};
  EXPECT_THROW((void)tester.test(0, 0, {}), PreconditionError);
  EXPECT_THROW((void)tester.test(0, 1, z_with_x), PreconditionError);
  CiOptions bad;
  bad.threads = 0;
  EXPECT_THROW(CiTester(table, bad), PreconditionError);
  CiOptions bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(CiTester(table, bad_alpha), PreconditionError);
}

TEST(CiTester, ThresholdControlsSensitivity) {
  const Dataset data = generate_chain_correlated(30000, 2, 2, 0.6, 68);
  const PotentialTable table = build(data);
  CiOptions strict;
  strict.mi_threshold = 1.0;  // absurdly high: everything "independent"
  EXPECT_TRUE(CiTester(table, strict).test(0, 1, {}).independent);
  CiOptions loose;
  loose.mi_threshold = 1e-6;
  EXPECT_FALSE(CiTester(table, loose).test(0, 1, {}).independent);
}

// ---------------------------------------------------------------------------
// Raw-row oracle: every decision, statistic and p-value of the tester equals,
// bit for bit, decide_from_joint over a marginal counted straight from the
// dataset rows — no codec, no table, no planes.

/// Marginal of `vars` (sorted) counted from the rows, first variable fastest.
MarginalTable raw_marginal(const Dataset& data, const std::vector<std::size_t>& vars) {
  std::vector<std::uint32_t> cards;
  for (const std::size_t v : vars) cards.push_back(data.cardinalities()[v]);
  MarginalTable out(vars, cards);
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    std::uint64_t cell = 0;
    std::uint64_t stride = 1;
    for (std::size_t k = 0; k < vars.size(); ++k) {
      cell += data.at(i, vars[k]) * stride;
      stride *= cards[k];
    }
    out.add(cell, 1);
  }
  return out;
}

/// Sets the states of rows [0, rows) to 0.
void zero_rows(Dataset& data, std::size_t rows) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < data.variable_count(); ++j) data.set(i, j, 0);
  }
}

enum class Mix { kAllLight, kAllHeavy, kMixed };

/// Tests {x, y, Z} draws with |Z| = 0..6 under both methods at P = 1, 3, 4
/// and 16 (tables with P partitions, planes built on P workers), so worker
/// ranges end in partly filled words. Heavy entries leave words unused: in
/// the all-heavy table every word of every range is.
template <typename K>
void expect_matches_raw_rows(const Dataset& data, Mix mix) {
  const std::size_t n = data.variable_count();
  std::mt19937_64 rng(n * 7919 + data.sample_count());
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
    for (const CiMethod method : {CiMethod::kMiThreshold, CiMethod::kGTest}) {
      CiOptions options;
      options.method = method;
      const BasicCiTester<K> tester(planes, options);
      for (std::size_t z_size = 0; z_size <= 6; ++z_size) {
        std::vector<std::size_t> vars(n);
        for (std::size_t v = 0; v < n; ++v) vars[v] = v;
        std::shuffle(vars.begin(), vars.end(), rng);
        const std::size_t x = vars[0];
        const std::size_t y = vars[1];
        vars.resize(2 + z_size);
        const std::vector<std::size_t> z(vars.begin() + 2, vars.end());
        std::vector<std::size_t> joint = vars;
        std::sort(joint.begin(), joint.end());

        const CiDecision got = tester.test(x, y, z);
        const CiDecision want = decide_from_joint(raw_marginal(data, joint), x, y, options);
        const auto where = ::testing::Message()
                           << "P=" << p << " method=" << static_cast<int>(method)
                           << " |Z|=" << z_size << " x=" << x << " y=" << y;
        EXPECT_EQ(got.independent, want.independent) << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.statistic),
                  std::bit_cast<std::uint64_t>(want.statistic))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p_value),
                  std::bit_cast<std::uint64_t>(want.p_value))
            << where;
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
  expect_matches_raw_rows<TypeParam>(data, Mix::kAllLight);
}

TYPED_TEST(CiTesterRawRowOracle, AllHeavyTable) {
  // SACHS-like compression, m much larger than the 256 joint states: every
  // key has count > 1, and the planes hold no entry at all.
  Dataset data = generate_uniform(20000, 8, 2, 72);
  zero_rows(data, 40);
  expect_matches_raw_rows<TypeParam>(data, Mix::kAllHeavy);
}

TYPED_TEST(CiTesterRawRowOracle, MixedAlarmSample) {
  Dataset data = forward_sample(load_network(RepositoryNetwork::kAlarm, 42), 20000, 73);
  zero_rows(data, 1);
  expect_matches_raw_rows<TypeParam>(data, Mix::kMixed);
}

}  // namespace
}  // namespace wfbn
