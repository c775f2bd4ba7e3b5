#include "core/counting_index.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace wfbn {

namespace {

// Index constants; their measurements are in results/knob_prune.txt
// ("Counting index").
//
// Every query projects the whole delta, about 7 ns per key, and a rebuild
// costs 14-22 ms on two workers at 112k-175k ALARM entries. At 1/8 of
// main's entries the `serve-ingest` stream (50k ALARM rows, then 250
// batches of 500) rebuilds on 10 of its 250 ingests and a query's delta
// averages 6.1k keys; 1/16 rebuilds on 19, 1/4 doubles the delta.
constexpr double kRebuildShare = 0.125;
// Planes may take at most this multiple of the table's own slot bytes, so a
// main at most doubles the memory of the snapshots that share it. ALARM's 68
// planes take 0.23-0.36 of its table's slots at 112k-175k entries; one
// r = 256 variable beside four small ones already takes 1.15.
constexpr double kPlaneBudget = 1.0;

}  // namespace

template <typename K>
typename BasicCountingIndex<K>::Layers BasicCountingIndex<K>::build(
    const Table& table, ThreadPool& pool) {
  const Codec& codec = table.codec();
  std::size_t planes = 0;
  for (std::size_t v = 0; v < codec.variable_count(); ++v) {
    planes += codec.cardinality(v) - 1;
  }
  std::size_t table_bytes = 0;
  for (std::size_t p = 0; p < table.partition_count(); ++p) {
    table_bytes += table.partition(p).capacity() * (sizeof(K) + sizeof(std::uint64_t));
  }
  const double plane_bytes = static_cast<double>(planes) *
                             static_cast<double>((table.distinct_keys() + 63) / 64) *
                             sizeof(std::uint64_t);
  Layers layers;
  if (plane_bytes <= kPlaneBudget * static_cast<double>(table_bytes)) {
    layers.main = std::make_shared<const Planes>(table, pool);
  }
  return layers;
}

template <typename K>
BasicCountingIndex<K>::BasicCountingIndex(const Table& table, Layers layers)
    : table_(&table), layers_(std::move(layers)) {}

template <typename K>
bool BasicCountingIndex<K>::rebuild_due(std::uint64_t rows) const noexcept {
  return layers_.main != nullptr &&
         static_cast<double>(layers_.delta_keys + rows) >
             kRebuildShare * static_cast<double>(layers_.main->entries());
}

template <typename K>
typename BasicCountingIndex<K>::Layers BasicCountingIndex<K>::extended(
    const Dataset& batch) const {
  if (layers_.main == nullptr) return {};
  Layers next = layers_;
  auto chunk = std::make_shared<Chunk>(batch.sample_count());
  table_->codec().encode_block(batch.raw().data(), batch.sample_count(),
                               chunk->data());
  next.delta.push_back(std::move(chunk));
  next.delta_keys += batch.sample_count();
  return next;
}

template <typename K>
MarginalTable BasicCountingIndex<K>::count(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const Codec& codec = table_->codec();
  const std::size_t n = codec.variable_count();
  std::vector<std::size_t> joint(variables.begin(), variables.end());
  for (const Evidence& e : evidence) {
    WFBN_EXPECT(e.variable < n, "evidence variable out of range");
    WFBN_EXPECT(e.state < codec.cardinality(e.variable),
                "evidence state out of range");
    WFBN_EXPECT(std::find(joint.begin(), joint.end(), e.variable) == joint.end(),
                "evidence variables must be disjoint from the query set and "
                "from each other");
    joint.push_back(e.variable);
  }
  // Cells of V ∪ E, saturating at the entry count: past it the sweep is the
  // cheaper count and the marginal alone would outgrow the table.
  const std::uint64_t entries = table_->distinct_keys();
  std::uint64_t cells = 1;
  for (const std::size_t v : variables) {
    WFBN_EXPECT(v < n, "query variable out of range");
    if (cells <= entries) cells *= codec.cardinality(v);
  }
  for (const Evidence& e : evidence) {
    if (cells <= entries) cells *= codec.cardinality(e.variable);
  }
  if (layers_.main == nullptr || joint.empty() || cells > entries) {
    return sweep(variables, evidence);
  }

  MarginalTable counts = layers_.main->marginalize(joint);
  if (!layers_.delta.empty()) {
    const BasicKeyProjector<K> projector(codec, joint);
    for (const std::shared_ptr<const Chunk>& chunk : layers_.delta) {
      for (const K key : *chunk) counts.add(projector.project(key), 1);
    }
  }
  if (evidence.empty()) return counts;

  // V varies fastest, so the cells of one evidence assignment are the
  // contiguous block of V's cells at the evidence states' offset.
  std::vector<std::uint32_t> cards;
  std::uint64_t block = 1;
  for (const std::size_t v : variables) {
    cards.push_back(codec.cardinality(v));
    block *= cards.back();
  }
  std::uint64_t offset = 0;
  std::uint64_t stride = block;
  for (const Evidence& e : evidence) {
    offset += e.state * stride;
    stride *= codec.cardinality(e.variable);
  }
  const auto first = counts.raw_counts().begin() + static_cast<std::ptrdiff_t>(offset);
  return MarginalTable({variables.begin(), variables.end()}, std::move(cards),
                       {first, first + static_cast<std::ptrdiff_t>(block)});
}

template <typename K>
MarginalTable BasicCountingIndex<K>::sweep(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const Codec& codec = table_->codec();
  const BasicKeyProjector<K> projector(codec, variables);
  // The decode recipe and expected state of every evidence term (the
  // codec's VarLeg, so the filter works at any key width).
  struct Filter {
    typename Codec::VarLeg leg;
    std::uint64_t state;
  };
  std::vector<Filter> filters;
  filters.reserve(evidence.size());
  for (const Evidence& e : evidence) {
    filters.push_back(Filter{codec.leg_of(e.variable), e.state});
  }
  MarginalTable out(projector.variables(), projector.cardinalities());
  table_->for_each([&](K key, std::uint64_t c) {
    for (const Filter& f : filters) {
      if (Codec::decode_leg(f.leg, key) != f.state) return;
    }
    out.add(projector.project(key), c);
  });
  return out;
}

template class BasicCountingIndex<Key>;
template class BasicCountingIndex<WideKey>;

}  // namespace wfbn
