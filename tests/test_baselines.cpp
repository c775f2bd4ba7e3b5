// Differential tests over every table-construction strategy: all builders
// must produce exactly the same potential table, whatever their concurrency
// design (the benches then compare only their performance).
#include <gtest/gtest.h>

#include <map>

#include "baselines/builders.hpp"
#include "data/generators.hpp"
#include "util/error.hpp"

namespace wfbn {
namespace {

std::map<Key, std::uint64_t> counts_of(const PotentialTable& table) {
  std::map<Key, std::uint64_t> out;
  table.partitions().for_each([&](Key key, std::uint64_t c) { out[key] += c; });
  return out;
}

struct BaselineCase {
  BuilderKind kind;
  std::size_t threads;
};

class BuilderDifferential : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BuilderDifferential, MatchesSequentialReference) {
  const auto [kind, threads] = GetParam();
  const Dataset data = generate_chain_correlated(25000, 12, 2, 0.7, 111);

  BuilderOptions reference_options;
  reference_options.threads = 1;
  auto reference = make_builder(BuilderKind::kSequential, reference_options);
  const auto expected = counts_of(reference->build(data));

  BuilderOptions options;
  options.threads = threads;
  auto builder = make_builder(kind, options);
  const PotentialTable table = builder->build(data);
  EXPECT_EQ(counts_of(table), expected);
  EXPECT_EQ(table.sample_count(), 25000u);
  EXPECT_TRUE(table.validate());

  const BuilderRunStats& stats = builder->stats();
  EXPECT_GT(stats.build_seconds, 0.0);
  EXPECT_EQ(stats.worker_seconds.size(), threads);
  EXPECT_EQ(stats.updates, 25000u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BuilderDifferential,
    ::testing::Values(BaselineCase{BuilderKind::kSequential, 1},
                      BaselineCase{BuilderKind::kGlobalLock, 2},
                      BaselineCase{BuilderKind::kGlobalLock, 8},
                      BaselineCase{BuilderKind::kStriped, 2},
                      BaselineCase{BuilderKind::kStriped, 8},
                      BaselineCase{BuilderKind::kAtomic, 2},
                      BaselineCase{BuilderKind::kAtomic, 8},
                      BaselineCase{BuilderKind::kWaitFree, 2},
                      BaselineCase{BuilderKind::kWaitFree, 8}),
    [](const auto& param_info) {
      // gtest parameter names must be alphanumeric.
      std::string name(builder_kind_name(param_info.param.kind));
      std::string clean;
      for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) clean += c;
      }
      return clean + "_" + std::to_string(param_info.param.threads) + "t";
    });

TEST(Baselines, LockCountsAreReported) {
  const Dataset data = generate_uniform(5000, 8, 2, 112);
  BuilderOptions options;
  options.threads = 4;
  auto global = make_builder(BuilderKind::kGlobalLock, options);
  (void)global->build(data);
  EXPECT_EQ(global->stats().lock_acquisitions, 5000u);
  auto striped = make_builder(BuilderKind::kStriped, options);
  (void)striped->build(data);
  EXPECT_EQ(striped->stats().lock_acquisitions, 5000u);
  auto wait_free = make_builder(BuilderKind::kWaitFree, options);
  (void)wait_free->build(data);
  EXPECT_EQ(wait_free->stats().lock_acquisitions, 0u);
}

TEST(Baselines, NamesAreStable) {
  for (const BuilderKind kind :
       {BuilderKind::kSequential, BuilderKind::kGlobalLock, BuilderKind::kStriped,
        BuilderKind::kAtomic, BuilderKind::kWaitFree}) {
    BuilderOptions options;
    auto builder = make_builder(kind, options);
    EXPECT_EQ(builder->kind(), kind);
    EXPECT_EQ(builder->name(), builder_kind_name(kind));
    EXPECT_FALSE(builder->name().empty());
  }
}

TEST(Baselines, BuildersAreReusable) {
  BuilderOptions options;
  options.threads = 4;
  auto builder = make_builder(BuilderKind::kStriped, options);
  const Dataset a = generate_uniform(3000, 6, 2, 113);
  const Dataset b = generate_uniform(4000, 6, 2, 114);
  EXPECT_EQ(builder->build(a).sample_count(), 3000u);
  EXPECT_EQ(builder->build(b).sample_count(), 4000u);
  // Stats reflect the most recent build only.
  EXPECT_EQ(builder->stats().updates, 4000u);
}

TEST(Baselines, InvalidThreadCountRejected) {
  BuilderOptions options;
  options.threads = 0;
  EXPECT_THROW((void)make_builder(BuilderKind::kStriped, options),
               PreconditionError);
}

}  // namespace
}  // namespace wfbn
