#include "serve/table_store.hpp"

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn::serve {

template <typename K, typename Policy>
BasicTableStore<K, Policy>::BasicTableStore(Table initial,
                                    WaitFreeBuilderOptions ingest_options,
                                    std::uint64_t initial_version)
    : current_([&] {
        WFBN_EXPECT(initial_version >= 1, "snapshot versions are 1-based");
        ThreadPool pool(ingest_options.threads);
        auto layers = BasicCountingIndex<K>::build(initial, pool);
        return std::make_shared<const BasicSnapshot<K>>(
            std::move(initial), initial_version, std::move(layers));
      }()),
      builder_(ingest_options) {}

template <typename K, typename Policy>
IngestStats BasicTableStore<K, Policy>::ingest(const Dataset& batch) {
  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  Timer total_timer;
  IngestStats stats;
  stats.batch_rows = batch.sample_count();

  // The shadow fold never touches the served table: append_shadow deep-copies
  // it first, and append()'s strong guarantee means a mid-fold throw discards
  // a still-private object. Readers keep counting from the current snapshot
  // throughout.
  const Ptr base = current();
  Timer shadow_timer;
  Table shadow = builder_.append_shadow(batch, base->table());
  stats.shadow_seconds = shadow_timer.seconds();

  // The shadow's index: the base's layers plus the batch's keys, or a main
  // rebuilt from the shadow once the delta would pass its share of main.
  const BasicCountingIndex<K>& index = base->index();
  typename BasicCountingIndex<K>::Layers layers;
  if (index.rebuild_due(batch.sample_count())) {
    ThreadPool pool(builder_.options().threads);
    layers = BasicCountingIndex<K>::build(shadow, pool);
    stats.index_rebuilt = true;
  } else {
    layers = index.extended(batch);
  }

  WFBN_FAULT_POINT(fault::Point::kServePublish);

  // Publish: the one toggle that makes version v+1 visible. The cell's
  // ordering guarantees a reader that pins the new snapshot also sees every
  // byte of the shadow fold, and one that pins the old snapshot sees it
  // whole — never a mix.
  current_.store(std::make_shared<const BasicSnapshot<K>>(
      std::move(shadow), base->version() + 1, std::move(layers)));
  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (stats.index_rebuilt) rebuilds_.fetch_add(1, std::memory_order_relaxed);

  stats.published_version = base->version() + 1;
  stats.total_seconds = total_timer.seconds();
  return stats;
}

template class BasicTableStore<Key>;
template class BasicTableStore<WideKey>;

}  // namespace wfbn::serve
