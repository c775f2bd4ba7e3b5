#include "learn/independence.hpp"

#include <algorithm>
#include <utility>

#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {

// ---------------------------------------------------------------------------
// MarginalReuseCache

MarginalReuseCache::MarginalReuseCache(std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {}

MarginalReuseCache::WordKey MarginalReuseCache::make_key(
    std::span<const std::size_t> vars, std::uint64_t version) {
  WordKey key;
  key.reserve(vars.size() + 1);
  key.push_back(version);
  for (std::size_t v : vars) key.push_back(static_cast<std::uint64_t>(v));
  return key;
}

std::size_t MarginalReuseCache::WordKeyHash::operator()(
    const WordKey& key) const noexcept {
  return static_cast<std::size_t>(
      fnv1a_words(std::span<const std::uint64_t>(key.data(), key.size())));
}

MarginalReuseCache::Shard& MarginalReuseCache::shard_of(
    const WordKey& key) const {
  const std::uint64_t h = avalanche64(WordKeyHash{}(key));
  return shards_[h % shards_.size()];
}

std::shared_ptr<const MarginalTable> MarginalReuseCache::find(
    std::span<const std::size_t> vars, std::uint64_t version) const {
  const WordKey key = make_key(vars, version);
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

std::shared_ptr<const MarginalTable> MarginalReuseCache::insert(
    std::span<const std::size_t> vars, std::uint64_t version,
    MarginalTable table) {
  WordKey key = make_key(vars, version);
  Shard& shard = shard_of(key);
  auto value = std::make_shared<const MarginalTable>(std::move(table));
  std::lock_guard<std::mutex> lock(shard.mutex);
  // First insert wins: a racing thread computed the identical table (exact
  // integer counts over the same canonical variable order), so callers may
  // end up with either pointer without any observable difference.
  auto [it, inserted] = shard.map.emplace(std::move(key), std::move(value));
  return it->second;
}

void MarginalReuseCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// decide_from_joint

CiDecision decide_from_joint(const MarginalTable& joint, std::size_t x,
                             std::size_t y, const CiOptions& options) {
  CiDecision decision;
  if (options.method == CiMethod::kMiThreshold) {
    decision.statistic = conditional_mutual_information(joint, x, y);
    decision.independent = decision.statistic < options.mi_threshold;
  } else {
    const GTestResult g = g_test(joint, x, y);
    decision.statistic = g.g;
    decision.p_value = g.p_value;
    decision.independent = g.p_value >= options.alpha;
  }
  return decision;
}

// ---------------------------------------------------------------------------
// BasicCiTester

namespace {

template <typename K>
std::unique_ptr<const BasicEntryPlanes<K>> build_planes(
    const BasicPotentialTable<K>& table, const CiOptions& options) {
  WFBN_EXPECT(options.threads >= 1, "need at least one thread");
  ThreadPool pool(options.threads);
  return std::make_unique<const BasicEntryPlanes<K>>(table, pool);
}

/// Validates the test thresholds; the reuse cache, or null when it is off.
std::shared_ptr<MarginalReuseCache> checked_cache(const CiOptions& options) {
  WFBN_EXPECT(options.mi_threshold >= 0.0, "MI threshold must be >= 0");
  WFBN_EXPECT(options.alpha > 0.0 && options.alpha < 1.0, "alpha in (0,1)");
  if (!options.reuse_marginals) return nullptr;
  return std::make_shared<MarginalReuseCache>(options.cache_shards);
}

}  // namespace

template <typename K>
BasicCiTester<K>::BasicCiTester(const Table& table, CiOptions options)
    : owned_planes_(build_planes(table, options)),
      planes_(*owned_planes_),
      options_(options),
      cache_(checked_cache(options)) {}

template <typename K>
BasicCiTester<K>::BasicCiTester(const Planes& planes, CiOptions options)
    : planes_(planes), options_(options), cache_(checked_cache(options)) {}

template <typename K>
MarginalTable BasicCiTester<K>::count_marginal(
    std::span<const std::size_t> vars) const {
  if (!cache_) return planes_.marginalize(vars);
  if (auto hit = cache_->find(vars, cache_version_)) return *hit;
  return *cache_->insert(vars, cache_version_, planes_.marginalize(vars));
}

template <typename K>
CiDecision BasicCiTester<K>::test(std::size_t x, std::size_t y,
                                  std::span<const std::size_t> z) const {
  WFBN_EXPECT(x != y, "x and y must differ");
  WFBN_EXPECT(std::find(z.begin(), z.end(), x) == z.end(), "x must not be in Z");
  WFBN_EXPECT(std::find(z.begin(), z.end(), y) == z.end(), "y must not be in Z");
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    throw OperationCancelled("structure learning cancelled during CI testing");
  }
  WFBN_FAULT_POINT(fault::Point::kLearnCiTest);
  tests_.fetch_add(1, std::memory_order_relaxed);

  // Canonical variable order: sorted({x, y} ∪ Z). The statistics only need
  // to know which table variables are x and y (everything else is Z), and a
  // canonical order makes the marginal — and hence the floating-point
  // statistic — bit-identical across cache hits, thread counts, and the
  // x/y vs y/x orientations of the same test.
  std::vector<std::size_t> joint_vars;
  joint_vars.reserve(z.size() + 2);
  joint_vars.push_back(x);
  joint_vars.push_back(y);
  joint_vars.insert(joint_vars.end(), z.begin(), z.end());
  std::sort(joint_vars.begin(), joint_vars.end());

  const MarginalTable joint = count_marginal(joint_vars);
  return decide_from_joint(joint, x, y, options_);
}

template <typename K>
double BasicCiTester<K>::pair_mi(std::size_t x, std::size_t y) const {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    throw OperationCancelled("structure learning cancelled during MI scoring");
  }
  const std::size_t vars[] = {std::min(x, y), std::max(x, y)};
  return mutual_information(count_marginal(vars));
}

template class BasicCiTester<Key>;
template class BasicCiTester<WideKey>;

}  // namespace wfbn
