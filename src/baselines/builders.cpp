#include "baselines/builders.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "concurrent/affinity.hpp"
#include "concurrent/atomic_hash_map.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/wait_free_builder.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace wfbn {

std::string_view builder_kind_name(BuilderKind kind) {
  switch (kind) {
    case BuilderKind::kSequential: return "sequential";
    case BuilderKind::kGlobalLock: return "global-lock";
    case BuilderKind::kStriped: return "striped-lock(tbb-like)";
    case BuilderKind::kAtomic: return "atomic-cas";
    case BuilderKind::kWaitFree: return "wait-free";
  }
  return "unknown";
}

namespace {

std::size_t expected_keys(const Dataset& data) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      data.sample_count(), data.codec().state_space_size()));
}

/// Wraps a fully built shared count map into the canonical single-partition
/// PotentialTable (outside the timed region).
template <typename Map>
PotentialTable wrap_as_potential(const Map& map, const KeyCodec& codec,
                                 std::uint64_t samples) {
  PartitionedTable table(1, map.size());
  map.for_each([&](Key key, std::uint64_t c) { table.partition(0).increment(key, c); });
  return PotentialTable(codec, std::move(table), samples);
}

class SequentialBuilder final : public ITableBuilder {
 public:
  PotentialTable build(const Dataset& data) override {
    stats_ = BuilderRunStats{};
    stats_.worker_seconds.assign(1, 0.0);
    const KeyCodec codec = data.codec();
    PartitionedTable table(1, expected_keys(data));
    OpenHashTable& map = table.partition(0);
    Timer timer;
    for (std::size_t i = 0; i < data.sample_count(); ++i) {
      map.increment(codec.encode(data.row(i)));
    }
    stats_.build_seconds = stats_.worker_seconds[0] = timer.seconds();
    stats_.updates = data.sample_count();
    return PotentialTable(codec, std::move(table), data.sample_count());
  }

  const BuilderRunStats& stats() const noexcept override { return stats_; }
  std::string_view name() const noexcept override {
    return builder_kind_name(kind());
  }
  BuilderKind kind() const noexcept override { return BuilderKind::kSequential; }

 private:
  BuilderRunStats stats_;
};

/// Shared scan skeleton for the shared-table baselines: block-partition the
/// rows, encode, and hand each key to `update(key)` on the worker's thread.
template <typename UpdateFn>
void scan_rows(const Dataset& data, const KeyCodec& codec, ThreadPool& pool,
               bool pin, std::vector<double>& worker_seconds,
               const UpdateFn& update) {
  const std::size_t m = data.sample_count();
  worker_seconds.assign(pool.size(), 0.0);
  pool.run([&](std::size_t p) {
    if (pin) pin_current_thread(p);
    Timer timer;
    const auto [lo, hi] = ThreadPool::block_range(m, pool.size(), p);
    for (std::size_t i = lo; i < hi; ++i) {
      update(codec.encode(data.row(i)));
    }
    worker_seconds[p] = timer.seconds();
  });
}

class GlobalLockBuilder final : public ITableBuilder {
 public:
  explicit GlobalLockBuilder(BuilderOptions options) : options_(options) {}

  PotentialTable build(const Dataset& data) override {
    stats_ = BuilderRunStats{};
    const KeyCodec codec = data.codec();
    OpenHashTable map(expected_keys(data));
    std::mutex mutex;
    ThreadPool pool(options_.threads);
    Timer timer;
    scan_rows(data, codec, pool, options_.pin_threads, stats_.worker_seconds,
              [&](Key key) {
                std::lock_guard lock(mutex);
                map.increment(key);
              });
    stats_.build_seconds = timer.seconds();
    stats_.updates = data.sample_count();
    stats_.lock_acquisitions = data.sample_count();
    return wrap_as_potential(map, codec, data.sample_count());
  }

  const BuilderRunStats& stats() const noexcept override { return stats_; }
  std::string_view name() const noexcept override {
    return builder_kind_name(kind());
  }
  BuilderKind kind() const noexcept override { return BuilderKind::kGlobalLock; }

 private:
  BuilderOptions options_;
  BuilderRunStats stats_;
};

class StripedBuilder final : public ITableBuilder {
 public:
  explicit StripedBuilder(BuilderOptions options) : options_(options) {}

  PotentialTable build(const Dataset& data) override {
    stats_ = BuilderRunStats{};
    const KeyCodec codec = data.codec();
    StripedHashMap map(expected_keys(data), options_.stripes);
    ThreadPool pool(options_.threads);
    Timer timer;
    scan_rows(data, codec, pool, options_.pin_threads, stats_.worker_seconds,
              [&](Key key) { map.increment(key); });
    stats_.build_seconds = timer.seconds();
    stats_.updates = data.sample_count();
    stats_.lock_acquisitions = map.lock_acquisitions();
    return wrap_as_potential(map, codec, data.sample_count());
  }

  const BuilderRunStats& stats() const noexcept override { return stats_; }
  std::string_view name() const noexcept override {
    return builder_kind_name(kind());
  }
  BuilderKind kind() const noexcept override { return BuilderKind::kStriped; }

 private:
  BuilderOptions options_;
  BuilderRunStats stats_;
};

class AtomicBuilder final : public ITableBuilder {
 public:
  explicit AtomicBuilder(BuilderOptions options) : options_(options) {}

  PotentialTable build(const Dataset& data) override {
    stats_ = BuilderRunStats{};
    const KeyCodec codec = data.codec();
    AtomicHashMap map(expected_keys(data));
    ThreadPool pool(options_.threads);
    Timer timer;
    scan_rows(data, codec, pool, options_.pin_threads, stats_.worker_seconds,
              [&](Key key) { map.increment(key); });
    stats_.build_seconds = timer.seconds();
    stats_.updates = data.sample_count();
    return wrap_as_potential(map, codec, data.sample_count());
  }

  const BuilderRunStats& stats() const noexcept override { return stats_; }
  std::string_view name() const noexcept override {
    return builder_kind_name(kind());
  }
  BuilderKind kind() const noexcept override { return BuilderKind::kAtomic; }

 private:
  BuilderOptions options_;
  BuilderRunStats stats_;
};

class WaitFreeAdapter final : public ITableBuilder {
 public:
  explicit WaitFreeAdapter(BuilderOptions options) {
    WaitFreeBuilderOptions wf;
    wf.threads = options.threads;
    wf.pin_threads = options.pin_threads;
    builder_ = std::make_unique<WaitFreeBuilder>(wf);
  }

  PotentialTable build(const Dataset& data) override {
    PotentialTable table = builder_->build(data);
    const BuildStats& bs = builder_->stats();
    stats_ = BuilderRunStats{};
    stats_.build_seconds = bs.total_seconds;
    stats_.worker_seconds.reserve(bs.workers.size());
    for (const WorkerStats& w : bs.workers) {
      stats_.worker_seconds.push_back(w.stage1_seconds + w.stage2_seconds);
    }
    stats_.updates = data.sample_count();
    return table;
  }

  const BuilderRunStats& stats() const noexcept override { return stats_; }
  std::string_view name() const noexcept override {
    return builder_kind_name(kind());
  }
  BuilderKind kind() const noexcept override { return BuilderKind::kWaitFree; }

 private:
  std::unique_ptr<WaitFreeBuilder> builder_;
  BuilderRunStats stats_;
};

}  // namespace

std::unique_ptr<ITableBuilder> make_builder(BuilderKind kind,
                                            BuilderOptions options) {
  WFBN_EXPECT(options.threads >= 1, "builder needs at least one thread");
  switch (kind) {
    case BuilderKind::kSequential:
      return std::make_unique<SequentialBuilder>();
    case BuilderKind::kGlobalLock:
      return std::make_unique<GlobalLockBuilder>(options);
    case BuilderKind::kStriped:
      return std::make_unique<StripedBuilder>(options);
    case BuilderKind::kAtomic:
      return std::make_unique<AtomicBuilder>(options);
    case BuilderKind::kWaitFree:
      return std::make_unique<WaitFreeAdapter>(options);
  }
  throw PreconditionError("unknown builder kind");
}

}  // namespace wfbn
