// Cross-module property tests: randomized differential checks that tie the
// parallel implementations to brute-force reference computations on the raw
// data, swept over dataset shapes (TEST_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

struct Shape {
  std::size_t samples;
  std::size_t n;
  std::uint32_t r;
  const char* flavor;  // "uniform" | "chain" | "skewed"
};

Dataset make_data(const Shape& shape, std::uint64_t seed) {
  if (std::string_view(shape.flavor) == "chain") {
    return generate_chain_correlated(shape.samples, shape.n, shape.r, 0.7, seed);
  }
  if (std::string_view(shape.flavor) == "skewed") {
    return generate_skewed(shape.samples, shape.n, shape.r, 1e-3, 0.8, seed);
  }
  return generate_uniform(shape.samples, shape.n, shape.r, seed);
}

class PipelineProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(PipelineProperty, QueryEngineMatchesBruteForceConditional) {
  const Shape shape = GetParam();
  const Dataset data = make_data(shape, 201);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const QueryEngine engine(table, 4);

  Xoshiro256 rng(202);
  for (int trial = 0; trial < 10; ++trial) {
    // Random disjoint query variable + evidence set.
    const std::size_t query_var = rng.bounded(shape.n);
    std::vector<Evidence> evidence;
    for (std::size_t v = 0; v < shape.n && evidence.size() < 2; ++v) {
      if (v != query_var && rng.uniform01() < 0.3) {
        evidence.push_back(Evidence{v, static_cast<State>(rng.bounded(shape.r))});
      }
    }

    // Brute force over the raw matrix.
    std::vector<std::uint64_t> counts(shape.r, 0);
    std::uint64_t support = 0;
    for (std::size_t i = 0; i < data.sample_count(); ++i) {
      bool match = true;
      for (const Evidence& e : evidence) {
        if (data.at(i, e.variable) != e.state) match = false;
      }
      if (!match) continue;
      ++support;
      ++counts[data.at(i, query_var)];
    }
    const std::size_t vars[] = {query_var};
    if (support == 0) {
      EXPECT_THROW((void)engine.conditional(vars, evidence), DataError);
      continue;
    }
    const std::vector<double> p = engine.conditional(vars, evidence);
    for (std::uint32_t s = 0; s < shape.r; ++s) {
      EXPECT_NEAR(p[s],
                  static_cast<double>(counts[s]) / static_cast<double>(support),
                  1e-12);
    }
  }
}

TEST_P(PipelineProperty, MarginalizationCommutesWithSumOut) {
  // marginalize(V) then sum_out_to(W ⊂ V) must equal marginalize(W) directly.
  const Shape shape = GetParam();
  if (shape.n < 3) GTEST_SKIP();
  const Dataset data = make_data(shape, 203);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const Marginalizer marginalizer(3);

  const std::size_t big[] = {0, shape.n / 2, shape.n - 1};
  const std::size_t small[] = {0, shape.n - 1};
  const MarginalTable direct = marginalizer.marginalize(table, small);
  const MarginalTable via_big =
      marginalizer.marginalize(table, big).sum_out_to(small);
  ASSERT_EQ(direct.cell_count(), via_big.cell_count());
  for (std::uint64_t cell = 0; cell < direct.cell_count(); ++cell) {
    EXPECT_EQ(direct.count_at(cell), via_big.count_at(cell));
  }
}

TEST_P(PipelineProperty, EntropyDecomposesMutualInformation) {
  // I(X;Y) computed by the pair-table routine equals H(X)+H(Y)−H(X,Y)
  // computed from independently marginalized tables.
  const Shape shape = GetParam();
  if (shape.n < 2) GTEST_SKIP();
  const Dataset data = make_data(shape, 204);
  WaitFreeBuilderOptions options;
  options.threads = 2;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const Marginalizer marginalizer(2);

  const std::size_t x = 0;
  const std::size_t y = shape.n - 1;
  const std::size_t xv[] = {x};
  const std::size_t yv[] = {y};
  const std::size_t xy[] = {x, y};
  const MarginalTable joint = marginalizer.marginalize(table, xy);
  const double h_x = entropy(marginalizer.marginalize(table, xv));
  const double h_y = entropy(marginalizer.marginalize(table, yv));
  EXPECT_NEAR(mutual_information(joint), h_x + h_y - entropy(joint), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineProperty,
    ::testing::Values(Shape{5000, 4, 2, "uniform"},
                      Shape{20000, 10, 2, "chain"},
                      Shape{8000, 6, 3, "uniform"},
                      Shape{10000, 12, 2, "skewed"},
                      Shape{3000, 3, 4, "uniform"},
                      Shape{15000, 20, 2, "chain"}),
    [](const auto& param_info) {
      const Shape& s = param_info.param;
      return std::string(s.flavor) + "_m" + std::to_string(s.samples) + "_n" +
             std::to_string(s.n) + "_r" + std::to_string(s.r);
    });

TEST(PipelineProperty, SampledNetworksBuildIdenticallyAcrossBuilders) {
  for (const RepositoryNetwork which :
       {RepositoryNetwork::kAsia, RepositoryNetwork::kSachs,
        RepositoryNetwork::kChild}) {
    const BayesianNetwork bn = load_network(which);
    const Dataset data = forward_sample(bn, 20000, 205, 2);
    WaitFreeBuilderOptions wf_options;
    wf_options.threads = 8;
    WaitFreeBuilder wait_free(wf_options);
    const PotentialTable parallel = wait_free.build(data);

    std::map<Key, std::uint64_t> reference;
    const KeyCodec codec = data.codec();
    for (std::size_t i = 0; i < data.sample_count(); ++i) {
      ++reference[codec.encode(data.row(i))];
    }
    EXPECT_EQ(parallel.distinct_keys(), reference.size())
        << repository_network_name(which);
    bool all_match = true;
    parallel.partitions().for_each([&](Key key, std::uint64_t c) {
      const auto it = reference.find(key);
      if (it == reference.end() || it->second != c) all_match = false;
    });
    EXPECT_TRUE(all_match) << repository_network_name(which);
  }
}

}  // namespace
}  // namespace wfbn
