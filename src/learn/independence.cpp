#include "learn/independence.hpp"

#include <algorithm>
#include <utility>

#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {

// ---------------------------------------------------------------------------
// MarginalReuseCache

namespace {

std::vector<std::uint64_t> make_key(std::span<const std::size_t> vars) {
  return {vars.begin(), vars.end()};
}

/// Bit v % 64 for every variable v: a superset's signature covers its
/// subsets' signatures.
std::uint64_t signature_of(std::span<const std::size_t> vars) {
  std::uint64_t signature = 0;
  for (const std::size_t v : vars) signature |= std::uint64_t{1} << (v % 64);
  return signature;
}

}  // namespace

MarginalReuseCache::MarginalReuseCache() : shards_(kShards) {
  index_.reserve(kIndexCapacity);
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
    std::span<const std::size_t> vars) const {
  const WordKey key = make_key(vars);
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

std::shared_ptr<const MarginalTable> MarginalReuseCache::find_superset(
    std::span<const std::size_t> vars) const {
  const std::uint64_t signature = signature_of(vars);
  std::shared_ptr<const MarginalTable> best;
  std::lock_guard<std::mutex> lock(index_mutex_);
  for (const IndexEntry& entry : index_) {
    if ((signature & ~entry.signature) != 0) continue;
    if (best != nullptr && entry.table->cell_count() >= best->cell_count()) {
      continue;
    }
    const std::vector<std::size_t>& have = entry.table->variables();
    if (std::includes(have.begin(), have.end(), vars.begin(), vars.end())) {
      best = entry.table;
    }
  }
  return best;
}

std::shared_ptr<const MarginalTable> MarginalReuseCache::insert(
    std::span<const std::size_t> vars, MarginalTable table,
    MarginalSource source) {
  std::atomic<std::uint64_t>& counted =
      source == MarginalSource::kProjected ? projected_
      : source == MarginalSource::kLattice ? lattice_
                                           : scatter_;
  counted.fetch_add(1, std::memory_order_relaxed);
  WordKey key = make_key(vars);
  Shard& shard = shard_of(key);
  auto value = std::make_shared<const MarginalTable>(std::move(table));
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // First insert wins: a racing thread computed the identical table (exact
    // integer counts over the same canonical variable order), so callers may
    // end up with either pointer without any observable difference.
    auto [it, inserted] = shard.map.emplace(std::move(key), value);
    if (!inserted) return it->second;
  }
  std::lock_guard<std::mutex> lock(index_mutex_);
  IndexEntry entry{signature_of(vars), std::move(value)};
  if (index_.size() < kIndexCapacity) {
    index_.push_back(entry);
  } else {
    index_[index_next_] = entry;
    index_next_ = (index_next_ + 1) % kIndexCapacity;
  }
  return entry.table;
}

MarginalCacheStats MarginalReuseCache::stats() const noexcept {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          projected_.load(std::memory_order_relaxed),
          lattice_.load(std::memory_order_relaxed),
          scatter_.load(std::memory_order_relaxed)};
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

/// Validates the test thresholds.
const CiOptions& checked(const CiOptions& options) {
  WFBN_EXPECT(options.mi_threshold >= 0.0, "MI threshold must be >= 0");
  WFBN_EXPECT(options.alpha > 0.0 && options.alpha < 1.0, "alpha in (0,1)");
  return options;
}

/// Estimated nanoseconds per superset cell summed down, on the scale of
/// BasicEntryPlanes::cost() (results/knob_prune.txt, "CI-test counting
/// sources"): a cached superset is projected when that is cheaper than
/// counting from the planes.
constexpr double kProjectCellNs = 2.5;

}  // namespace

template <typename K>
BasicCiTester<K>::BasicCiTester(const Planes& planes, CiOptions options)
    : planes_(planes), options_(checked(options)) {}

template <typename K>
std::shared_ptr<const MarginalTable> BasicCiTester<K>::count_marginal(
    std::span<const std::size_t> vars) const {
  if (auto hit = cache_.find(vars)) return hit;
  const typename Planes::Cost cost = planes_.cost(vars);
  if (const auto superset = cache_.find_superset(vars)) {
    if (static_cast<double>(superset->cell_count()) * kProjectCellNs < cost.ns) {
      return cache_.insert(vars, superset->sum_out_to(vars),
                           MarginalSource::kProjected);
    }
  }
  return cache_.insert(vars, planes_.marginalize(vars),
                       cost.lattice ? MarginalSource::kLattice
                                    : MarginalSource::kScatter);
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
  // statistic — bit-identical across cache hits, counting sources, thread
  // counts, and the x/y vs y/x orientations of the same test.
  std::vector<std::size_t> joint_vars;
  joint_vars.reserve(z.size() + 2);
  joint_vars.push_back(x);
  joint_vars.push_back(y);
  joint_vars.insert(joint_vars.end(), z.begin(), z.end());
  std::sort(joint_vars.begin(), joint_vars.end());
  WFBN_EXPECT(joint_vars.back() < planes_.codec().variable_count(),
              "CI test variable out of range");
  WFBN_EXPECT(std::adjacent_find(joint_vars.begin(), joint_vars.end()) ==
                  joint_vars.end(),
              "Z must not repeat a variable");

  return decide_from_joint(*count_marginal(joint_vars), x, y, options_);
}

template <typename K>
double BasicCiTester<K>::pair_mi(std::size_t x, std::size_t y) const {
  WFBN_EXPECT(x != y, "x and y must differ");
  WFBN_EXPECT(std::max(x, y) < planes_.codec().variable_count(),
              "MI variable out of range");
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    throw OperationCancelled("structure learning cancelled during MI scoring");
  }
  const std::size_t vars[] = {std::min(x, y), std::max(x, y)};
  return mutual_information(*count_marginal(vars));
}

template class BasicCiTester<Key>;
template class BasicCiTester<WideKey>;

}  // namespace wfbn
