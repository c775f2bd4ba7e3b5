#include "core/marginalizer.hpp"

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn {

template <typename K>
BasicMarginalizer<K>::BasicMarginalizer(std::size_t threads)
    : threads_(threads) {
  WFBN_EXPECT(threads >= 1, "marginalizer needs at least one thread");
}

template <typename K>
MarginalTable BasicMarginalizer<K>::marginalize(
    const Table& table, std::span<const std::size_t> variables) const {
  ThreadPool pool(threads_);
  return marginalize(table, variables, pool);
}

template <typename K>
MarginalTable BasicMarginalizer<K>::marginalize(
    const Table& table, std::span<const std::size_t> variables,
    ThreadPool& pool) const {
  const BasicKeyProjector<K> projector(table.codec(), variables);
  const std::size_t workers = pool.size();
  const std::size_t parts = table.partitions().partition_count();
  worker_stats_.assign(workers, MarginalizeWorkerStats{});

  // One private partial table per worker (Algorithm 3 lines 5–14).
  std::vector<MarginalTable> partials(
      workers, MarginalTable(projector.variables(), projector.cardinalities()));

  // Workers write only their private partials, so a throw anywhere in the
  // sweep (including an injected fault) leaves the input table untouched and
  // no output escapes — marginalize() has the strong guarantee for free.
  pool.run([&](std::size_t w) {
    Timer timer;
    MarginalizeWorkerStats& ws = worker_stats_[w];
    MarginalTable& partial = partials[w];
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    for (std::size_t p = lo; p < hi; ++p) {
      WFBN_FAULT_POINT(fault::Point::kMarginalizeSweep);
      table.partitions().partition(p).for_each([&](K key, std::uint64_t c) {
        partial.add(projector.project(key), c);
        ++ws.entries_visited;
      });
    }
    ws.seconds = timer.seconds();
  });

  // Merge step (Algorithm 3 line 16): marginal tables are tiny, so a
  // sequential cell-wise sum is cheaper than a parallel reduction tree.
  MarginalTable out = std::move(partials[0]);
  for (std::size_t w = 1; w < workers; ++w) out.merge(partials[w]);
  return out;
}

template class BasicMarginalizer<Key>;
template class BasicMarginalizer<WideKey>;

}  // namespace wfbn
