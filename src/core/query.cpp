#include "core/query.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wfbn {

namespace {

template <typename K>
std::unique_ptr<const BasicCountingIndex<K>> index_over(
    const BasicPotentialTable<K>& table, ThreadPool& pool) {
  return std::make_unique<const BasicCountingIndex<K>>(
      table, BasicCountingIndex<K>::build(table, pool));
}

}  // namespace

template <typename K>
BasicQueryEngine<K>::BasicQueryEngine(const Table& table, std::size_t threads)
    : owned_([&] {
        WFBN_EXPECT(threads >= 1, "query engine needs at least one thread");
        ThreadPool pool(threads);
        return index_over(table, pool);
      }()),
      index_(owned_.get()) {}

template <typename K>
BasicQueryEngine<K>::BasicQueryEngine(const Table& table, ThreadPool& pool)
    : owned_(index_over(table, pool)), index_(owned_.get()) {}

template <typename K>
BasicQueryEngine<K>::BasicQueryEngine(const Index& index) noexcept
    : index_(&index) {}

template <typename K>
std::vector<double> BasicQueryEngine<K>::marginal(
    std::span<const std::size_t> variables) const {
  return conditional(variables, {});
}

template <typename K>
std::vector<double> BasicQueryEngine<K>::conditional(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const MarginalTable counts = index_->count(variables, evidence);
  const std::uint64_t total = counts.total();
  if (total == 0) {
    throw DataError("evidence has zero support in the training data");
  }
  std::vector<double> out(counts.cell_count());
  for (std::uint64_t cell = 0; cell < counts.cell_count(); ++cell) {
    out[cell] =
        static_cast<double>(counts.count_at(cell)) / static_cast<double>(total);
  }
  return out;
}

template <typename K>
double BasicQueryEngine<K>::evidence_probability(
    std::span<const Evidence> evidence) const {
  WFBN_EXPECT(!evidence.empty(), "evidence must be non-empty");
  // Count matching rows by marginalizing the first evidence variable under
  // the remaining filters, then selecting its observed state.
  const std::size_t vars[] = {evidence.front().variable};
  const MarginalTable counts = index_->count(vars, evidence.subspan(1));
  const std::uint64_t matching = counts.count_at(evidence.front().state);
  return static_cast<double>(matching) /
         static_cast<double>(table().sample_count());
}

template <typename K>
typename BasicQueryEngine<K>::MapResult BasicQueryEngine<K>::most_probable(
    std::span<const std::size_t> variables,
    std::span<const Evidence> evidence) const {
  const std::vector<double> distribution = conditional(variables, evidence);
  const auto best = std::max_element(distribution.begin(), distribution.end());
  std::uint64_t cell =
      static_cast<std::uint64_t>(best - distribution.begin());

  MapResult result;
  result.probability = *best;
  result.states.reserve(variables.size());
  for (const std::size_t v : variables) {
    const std::uint32_t r = table().codec().cardinality(v);
    result.states.push_back(static_cast<State>(cell % r));
    cell /= r;
  }
  return result;
}

template class BasicQueryEngine<Key>;
template class BasicQueryEngine<WideKey>;

}  // namespace wfbn
