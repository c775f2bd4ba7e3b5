#include "core/wait_free_builder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <optional>
#include <utility>

#include "concurrent/affinity.hpp"
#include "concurrent/barrier.hpp"
#include "concurrent/retire_gate.hpp"
#include "concurrent/spsc_queue.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn {

namespace {

// Hot-path geometry: fixed, because a one-at-a-time sweep found no other
// value that beat these beyond noise (docs/ALGORITHMS.md, "Block routing
// fast path" and "Stage-1 pre-aggregation", has the numbers). The stage-2
// probe group is OpenHashTable's kProbeGroup.

/// Rows encoded per stage-1 strip before any routing, so the codec's
/// mixed-radix multiply chains pipeline instead of alternating with table
/// and queue traffic. One AVX2 encode tile.
constexpr std::size_t kEncodeStripRows = 32;
/// Foreign keys staged per destination before the router flushes them into
/// the SPSC fabric with one bulk publish (SpscQueue::push_block).
constexpr std::size_t kRouteBufferKeys = 64;
/// Rows a pipelined producer scans between drain passes.
constexpr std::size_t kPipelineBatchRows = 4096;

/// Stage-1 pre-aggregation. A worker whose slice holds at least one window
/// of rows counts them in a private direct-mapped combiner; at the end of
/// every window it keeps combining only if at least kMinHitPercent of the
/// window's rows found their key resident. The first window runs in the
/// small probe array, so a slice that does not compress never allocates the
/// full one.
constexpr std::size_t kProbeWindowRows = 4096;
constexpr std::size_t kProbeSlots = std::size_t{1} << 12;
constexpr std::size_t kCombineSlots = std::size_t{1} << 16;
constexpr std::size_t kMinHitPercent = 25;
/// Items per chunk of the (key, count) fabric. It carries one item per
/// evicted entry with a count above 1, far fewer than the rows it stands
/// for, and small chunks keep its cost low in builds that never combine.
constexpr std::size_t kPairChunkItems = 256;

/// A (key, count) pair: one combiner slot (count 0 marks it empty), and the
/// fabric item of an evicted entry whose count is above 1.
template <typename K>
struct KeyCount {
  K key;
  std::uint64_t count;
};

/// P×P queue fabric; cell (src, dst) carries items produced by worker src
/// for owner dst. Diagonal cells are never used (own keys go straight into
/// the local table) but are allocated to keep indexing branch-free.
template <typename T, std::size_t kChunkItems = 2048>
class QueueFabric {
 public:
  using Item = T;
  using Queue = SpscQueue<T, kChunkItems>;

  explicit QueueFabric(std::size_t workers) : workers_(workers) {
    cells_.reserve(workers * workers);
    for (std::size_t i = 0; i < workers * workers; ++i) {
      cells_.push_back(std::make_unique<Queue>());
    }
  }

  Queue& at(std::size_t src, std::size_t dst) {
    return *cells_[src * workers_ + dst];
  }

 private:
  std::size_t workers_;
  std::vector<std::unique_ptr<Queue>> cells_;
};

/// Per-worker software write-combining router (stage 1): a staging buffer
/// of kRouteBufferKeys items per destination worker; a full buffer is
/// flushed into the SPSC fabric with one bulk publish
/// (SpscQueue::push_block) instead of one release store per item. The
/// caller flushes the remainder at stage/batch boundaries (flush_all,
/// ascending destination order).
template <typename Fabric>
class KeyRouter {
 public:
  using T = typename Fabric::Item;

  KeyRouter(Fabric& queues, std::size_t src, std::size_t workers)
      : queues_(queues),
        src_(src),
        staging_(workers * kRouteBufferKeys),
        fill_(workers, 0) {}

  /// Stages `item` for `dst`; flushes that destination's buffer when full.
  /// Returns the number of flushes performed (0 or 1).
  std::uint64_t route(std::size_t dst, const T& item) {
    T* buffer = staging_.data() + dst * kRouteBufferKeys;
    buffer[fill_[dst]++] = item;
    if (fill_[dst] == kRouteBufferKeys) {
      queues_.at(src_, dst).push_block(buffer, kRouteBufferKeys);
      fill_[dst] = 0;
      return 1;
    }
    return 0;
  }

  /// Flushes every destination with staged items, ascending dst order.
  /// Returns the number of (non-empty) flushes performed.
  std::uint64_t flush_all() {
    std::uint64_t flushes = 0;
    for (std::size_t dst = 0; dst < fill_.size(); ++dst) {
      if (fill_[dst] == 0) continue;
      queues_.at(src_, dst).push_block(
          staging_.data() + dst * kRouteBufferKeys, fill_[dst]);
      fill_[dst] = 0;
      ++flushes;
    }
    return flushes;
  }

 private:
  Fabric& queues_;
  std::size_t src_;
  std::vector<T> staging_;
  std::vector<std::size_t> fill_;
};

/// Which worker writes each partition. With workers == partitions this is the
/// identity map (the paper's one-core-per-hashtable configuration); with a
/// degraded pool each worker owns a contiguous block of partitions, which
/// preserves the one-writer-per-memory-word invariant at reduced parallelism.
std::vector<std::size_t> partition_owners(std::size_t parts,
                                          std::size_t workers) {
  std::vector<std::size_t> owner(parts);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    for (std::size_t p = lo; p < hi; ++p) owner[p] = w;
  }
  return owner;
}

/// Per-worker progress counter on its own cache line (the stall watchdog sums
/// these; sharing a line would make every bump a coherence miss).
struct alignas(64) ProgressCell {
  std::atomic<std::uint64_t> value{0};
};

/// Pre-size of each partition's hashtable. Distinct keys are bounded by
/// both m and the state space; for sparse data (the paper's regime) m
/// dominates. A quarter of the bound is a reasonable starting size — the
/// tables grow geometrically if it is exceeded.
template <typename Traits>
std::size_t expected_entries_per_partition(const Dataset& data,
                                           const typename Traits::Codec& codec,
                                           std::size_t parts) {
  const std::uint64_t bound = std::min<std::uint64_t>(
      data.sample_count(), Traits::state_space_bound(codec));
  return static_cast<std::size_t>(bound / parts / 4 + 16);
}

/// What every worker of one build shares: the input, the table, who owns
/// each partition, and the two queue fabrics.
template <typename K>
struct Kernel {
  using Traits = KeyTraits<K>;
  using Codec = typename Traits::Codec;
  using KeyFabric = QueueFabric<K>;
  using PairFabric = QueueFabric<KeyCount<K>, kPairChunkItems>;

  Kernel(const Dataset& input, const Codec& key_codec,
         BasicPartitionedTable<K>& target, std::size_t worker_count)
      : data(input),
        codec(key_codec),
        table(target),
        workers(worker_count),
        level(simd::detected()),
        part_owner(partition_owners(target.partition_count(), worker_count)),
        keys(worker_count),
        pairs(worker_count) {}

  const Dataset& data;
  const Codec& codec;
  BasicPartitionedTable<K>& table;
  std::size_t workers;
  /// Resolved once per build: the whole kernel runs one dispatch level.
  simd::Level level;
  std::vector<std::size_t> part_owner;
  KeyFabric keys;
  PairFabric pairs;
};

/// One worker's stage 1 (Algorithm 1), shared by the phased and the
/// pipelined variant: encode the rows of its slice in strips, pre-aggregate
/// them while they compress, and send every key, or evicted (key, count), to
/// the worker that owns its partition — into the table when that is this
/// worker, through the write-combining routers otherwise. Everything here
/// is worker-private: the combiner and the staging buffers are read and
/// written by this worker only, and it publishes only into row `w` of the
/// fabrics. finish() evicts what is still resident and flushes the routers;
/// after it every row of the slice is in the table or in a queue.
template <typename K>
class Stage1Worker {
 public:
  using Traits = KeyTraits<K>;

  Stage1Worker(Kernel<K>& kernel, std::size_t w, std::size_t slice_rows,
               WorkerStats& ws, bool inject)
      : kernel_(kernel),
        w_(w),
        ws_(ws),
        inject_(inject),
        parts_(kernel.table.partition_count()),
        space_(kernel.table.state_space()),
        scheme_(kernel.table.scheme()),
        key_router_(kernel.keys, w, kernel.workers) {
    if (slice_rows >= kProbeWindowRows) {
      slots_.resize(kProbeSlots);
      pair_router_.emplace(kernel.pairs, w, kernel.workers);
    }
  }

  /// Scans rows [i, stop), calling on_strip(rows) after every strip.
  template <typename OnStrip>
  void scan(std::size_t i, std::size_t stop, OnStrip&& on_strip) {
    while (i < stop) {
      const std::size_t count = std::min(kEncodeStripRows, stop - i);
      if (inject_) {
        // Scalar fallback keeps the once-per-row fault-point semantics the
        // injection sweeps rely on.
        for (std::size_t r = 0; r < count; ++r) {
          fault::fire(fault::Point::kStage1Row);
          keys_[r] = kernel_.codec.encode(kernel_.data.row(i + r));
        }
      } else {
        kernel_.codec.encode_block(kernel_.data.row(i).data(), count,
                                   keys_.data(), kernel_.level);
      }
      ws_.rows_encoded += count;
      if (slots_.empty()) {
        route_strip(count);
      } else {
        combine_strip(count);
      }
      on_strip(count);
      i += count;
    }
  }

  /// Publishes every staged item (both routers, ascending destination).
  void flush_routers() {
    ws_.route_flushes += key_router_.flush_all();
    if (pair_router_) ws_.route_flushes += pair_router_->flush_all();
  }

  /// End of the slice: evicts the resident entries, then flushes.
  void finish() {
    drop_combiner();
    flush_routers();
    ws_.combined_rows = combined_in_ - evicted_;
  }

 private:
  /// The uncombined path, one item per row: destinations for the whole
  /// strip before any route-buffer traffic (one pipelined hash/divide pass
  /// instead of per-key detours).
  void route_strip(std::size_t count) {
    Traits::owner_block(keys_.data(), count, parts_, space_, scheme_,
                        owners_.data());
    for (std::size_t r = 0; r < count; ++r) {
      const std::size_t q = owners_[r];
      const std::size_t dst = kernel_.part_owner[q];
      if (dst == w_) {
        kernel_.table.partition(q).increment(keys_[r]);
        ++ws_.local_updates;
      } else {
        ws_.route_flushes += key_router_.route(dst, keys_[r]);
        ++ws_.foreign_pushes;
      }
    }
  }

  /// A hit adds in place; a miss evicts the resident entry, if any, and
  /// takes its slot. An empty slot holds a zeroed key, so the one key equal
  /// to it takes the hit branch and installs itself with count 1 — exact,
  /// because combined_rows is derived from evictions, not from hits.
  void combine_strip(std::size_t count) {
    KeyCount<K>* const slots = slots_.data();
    const std::size_t mask = slots_.size() - 1;
    std::size_t misses = 0;
    for (std::size_t r = 0; r < count; ++r) {
      const K key = keys_[r];
      KeyCount<K>& slot = slots[Traits::slot_hash(key) & mask];
      if (slot.key == key) {
        ++slot.count;
        continue;
      }
      if (slot.count != 0) evict(slot.key, slot.count);
      slot = KeyCount<K>{key, 1};
      ++misses;
    }
    combined_in_ += count;
    window_rows_ += count;
    window_misses_ += misses;
    if (window_rows_ >= kProbeWindowRows) close_window();
  }

  /// The per-window decision. A window below the hit share ends combining
  /// for the rest of the slice; the first window that passes moves the
  /// entries to the full array. Direct-mapped slots h & (2^12 − 1) are
  /// distinct, so their images h & (2^16 − 1) are too: the move never
  /// evicts.
  void close_window() {
    const std::size_t hits = window_rows_ - window_misses_;
    const bool compresses = hits * 100 >= window_rows_ * kMinHitPercent;
    window_rows_ = 0;
    window_misses_ = 0;
    if (!compresses) {
      drop_combiner();
    } else if (slots_.size() < kCombineSlots) {
      std::vector<KeyCount<K>> full(kCombineSlots);
      for (const KeyCount<K>& slot : slots_) {
        if (slot.count != 0) {
          full[Traits::slot_hash(slot.key) & (kCombineSlots - 1)] = slot;
        }
      }
      slots_ = std::move(full);
    }
  }

  /// Evicts every resident entry and releases the array; the rest of the
  /// slice runs route_strip().
  void drop_combiner() {
    for (const KeyCount<K>& slot : slots_) {
      if (slot.count != 0) evict(slot.key, slot.count);
    }
    slots_ = {};
  }

  /// Sends one combined entry to its owner: a table increment when this
  /// worker owns the partition, else a key item when its count is 1 (the
  /// payload of an uncombined row) or a (key, count) item.
  void evict(K key, std::uint64_t count) {
    ++evicted_;
    const std::size_t q = Traits::owner(key, parts_, space_, scheme_);
    const std::size_t dst = kernel_.part_owner[q];
    if (dst == w_) {
      kernel_.table.partition(q).increment(key, count);
      ++ws_.local_updates;
      return;
    }
    ++ws_.foreign_pushes;
    ws_.route_flushes += count == 1
                             ? key_router_.route(dst, key)
                             : pair_router_->route(dst, KeyCount<K>{key, count});
  }

  Kernel<K>& kernel_;
  std::size_t w_;
  WorkerStats& ws_;
  bool inject_;
  std::size_t parts_;
  std::uint64_t space_;
  PartitionScheme scheme_;
  KeyRouter<typename Kernel<K>::KeyFabric> key_router_;
  std::optional<KeyRouter<typename Kernel<K>::PairFabric>> pair_router_;
  std::array<K, kEncodeStripRows> keys_{};
  std::array<std::size_t, kEncodeStripRows> owners_{};
  /// The combiner; empty while the worker runs route_strip().
  std::vector<KeyCount<K>> slots_;
  std::size_t window_rows_ = 0;
  std::size_t window_misses_ = 0;
  std::uint64_t combined_in_ = 0;  ///< rows that went through the combiner
  std::uint64_t evicted_ = 0;      ///< entries it sent on
};

/// Stage 2 (Algorithm 2) for worker w, shared by both variants: drains the
/// queues addressed to it, one whole published chunk span per acquire load,
/// into the partitions [lo, hi) it owns. A worker owning one partition folds
/// key spans with the multi-cursor kernel; a degraded pool's workers route
/// each key to the partition that owns it. (key, count) items fold with
/// increment(key, count). With fault_per_item, builder.stage2_drain fires
/// once per drained item and keys fold one by one. Returns the items
/// drained.
template <typename K>
std::uint64_t drain_inbound(Kernel<K>& kernel, std::size_t w, std::size_t lo,
                            std::size_t hi, WorkerStats& ws,
                            bool fault_per_item) {
  if (lo == hi) return 0;
  BasicPartitionedTable<K>& table = kernel.table;
  BasicOpenHashTable<K>* sole = (hi - lo == 1) ? &table.partition(lo) : nullptr;
  const auto fold = [&](const K& key, std::uint64_t count) {
    if (fault_per_item) fault::fire(fault::Point::kStage2Drain);
    BasicOpenHashTable<K>& dst =
        sole != nullptr ? *sole : table.partition(table.owner_of(key));
    dst.increment(key, count);
  };
  std::uint64_t drained = 0;
  for (std::size_t src = 0; src < kernel.workers; ++src) {
    if (src == w) continue;
    drained += kernel.keys.at(src, w).consume([&](const K* span,
                                                  std::size_t count) {
      ++ws.bulk_pops;
      if (sole != nullptr && !fault_per_item) {
        sole->increment_block(span, count);
      } else {
        for (std::size_t k = 0; k < count; ++k) fold(span[k], 1);
      }
    });
    drained += kernel.pairs.at(src, w).consume(
        [&](const KeyCount<K>* span, std::size_t count) {
          ++ws.bulk_pops;
          for (std::size_t k = 0; k < count; ++k) {
            fold(span[k].key, span[k].count);
          }
        });
  }
  ws.stage2_pops += drained;
  return drained;
}

}  // namespace

std::uint64_t BuildStats::total_foreign_pushes() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.foreign_pushes;
  return total;
}

std::uint64_t BuildStats::total_local_updates() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.local_updates;
  return total;
}

std::uint64_t BuildStats::total_combined_rows() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.combined_rows;
  return total;
}

std::uint64_t BuildStats::total_route_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.route_flushes;
  return total;
}

std::uint64_t BuildStats::total_bulk_pops() const noexcept {
  std::uint64_t total = 0;
  for (const WorkerStats& w : workers) total += w.bulk_pops;
  return total;
}

double BuildStats::critical_path_seconds() const noexcept {
  double stage1 = 0.0;
  double stage2 = 0.0;
  for (const WorkerStats& w : workers) {
    stage1 = std::max(stage1, w.stage1_seconds);
    stage2 = std::max(stage2, w.stage2_seconds);
  }
  return stage1 + stage2;
}

template <typename K>
BasicWaitFreeBuilder<K>::BasicWaitFreeBuilder(WaitFreeBuilderOptions options)
    : options_(options) {
  WFBN_EXPECT(options_.threads >= 1, "builder needs at least one thread");
  WFBN_EXPECT(options_.stall_timeout_seconds >= 0.0,
              "stall timeout cannot be negative");
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build(const Dataset& data) {
  ThreadPool pool(options_.threads);
  return build(data, pool);
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build(const Dataset& data,
                                                      ThreadPool& pool) {
  WFBN_EXPECT(data.sample_count() > 0, "cannot build a table from no data");
  return options_.pipelined ? build_pipelined(data, pool)
                            : build_phased(data, pool);
}

template <typename K>
void BasicWaitFreeBuilder<K>::append(const Dataset& data, Table& table) {
  WFBN_EXPECT(data.sample_count() > 0, "cannot append an empty batch");
  if (data.cardinalities() != table.codec().cardinalities()) {
    throw DataError("batch cardinalities do not match the table's codec");
  }
  if (table.partitions().rebalanced()) {
    throw DataError(
        "table was rebalanced — construction-time ownership no longer holds, "
        "rebuild instead of appending");
  }
  const std::size_t parts = table.partitions().partition_count();
  Timer total_timer;
  // A degraded pool (spawn failures) yields fewer workers than partitions;
  // run_phased block-assigns partitions to whatever workers exist.
  ThreadPool pool(parts);

  // Stage the batch into scratch partitions with the same ownership geometry
  // (same P, scheme, and state space, so owner_of agrees with the table).
  // Any failure up to and including the kernel leaves `table` untouched.
  BasicPartitionedTable<K> scratch(
      parts, table.partitions().state_space(), table.partitions().scheme(),
      expected_entries_per_partition<Traits>(data, table.codec(), parts));
  run_phased(data, table.codec(), scratch, pool);

  WFBN_FAULT_POINT(fault::Point::kAppendCommit);

  // Commit. Reserving destination capacity first means the merge increments
  // below can never reallocate: after this loop the fold cannot fail, which
  // is what upgrades append() to the strong guarantee.
  for (std::size_t p = 0; p < parts; ++p) {
    BasicOpenHashTable<K>& dst = table.partitions().partition(p);
    dst.reserve(dst.size() + scratch.partition(p).size());
  }
  pool.run([&](std::size_t w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, pool.size(), w);
    for (std::size_t p = lo; p < hi; ++p) {
      table.partitions().partition(p).merge_from(scratch.partition(p));
    }
  });
  stats_.total_seconds = total_timer.seconds();
  table.record_additional_samples(data.sample_count());
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::append_shadow(
    const Dataset& data, const Table& base) {
  Table shadow = base;
  append(data, shadow);
  return shadow;
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build_phased(
    const Dataset& data, ThreadPool& pool) {
  const std::size_t P = pool.size();
  const Codec codec = Traits::make_codec(data.cardinalities());
  BasicPartitionedTable<K> table(
      P, Traits::state_space_bound(codec), options_.scheme,
      expected_entries_per_partition<Traits>(data, codec, P));
  Timer total_timer;
  run_phased(data, codec, table, pool);
  stats_.total_seconds = total_timer.seconds();
  return Table(codec, std::move(table),
               static_cast<std::uint64_t>(data.sample_count()));
}

template <typename K>
void BasicWaitFreeBuilder<K>::run_phased(const Dataset& data,
                                         const Codec& codec,
                                         BasicPartitionedTable<K>& table,
                                         ThreadPool& pool) {
  const std::size_t W = pool.size();
  const std::size_t parts = table.partition_count();
  Kernel<K> kernel(data, codec, table, W);
  SpinBarrier barrier(W);
  stats_ = BuildStats{};
  stats_.workers.assign(W, WorkerStats{});
  stats_.requested_workers = pool.degradation().requested_threads;
  stats_.effective_workers = W;
  stats_.simd_level = kernel.level;
  std::atomic<std::size_t> pin_failures{0};
  std::vector<double> barrier_waits(W, 0.0);
  const std::size_t m = data.sample_count();

  pool.run([&](std::size_t w) {
    if (options_.pin_threads && !pin_current_thread(w)) {
      pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
    // Counted on this worker's stack and stored once at the end: adjacent
    // WorkerStats share cache lines, and the stage-1 loop bumps its counters
    // on every row.
    WorkerStats ws;
    // Hoisted once per kernel so the disabled case costs a register test per
    // row instead of an atomic load (schedules are armed before the build).
    const bool inject = fault::enabled();

    // ---- Stage 1 (Algorithm 1): scan my block, route keys by ownership.
    // Everything staged privately (combiner, route buffers) is published
    // before the barrier so stage-2 emptiness stays final. A throw here is
    // caught and re-raised only after the barrier: every worker must cross
    // it exactly once or the others would spin forever.
    std::exception_ptr stage1_error;
    Timer stage_timer;
    try {
      const auto [lo, hi] = ThreadPool::block_range(m, W, w);
      Stage1Worker<K> stage1(kernel, w, hi - lo, ws, inject);
      stage1.scan(lo, hi, [](std::size_t) {});
      stage1.finish();
      if (inject) fault::fire(fault::Point::kBarrier);
    } catch (...) {
      stage1_error = std::current_exception();
    }
    ws.stage1_seconds = stage_timer.seconds();

    // ---- The single synchronization step between the stages.
    Timer barrier_timer;
    barrier.arrive_and_wait();
    barrier_waits[w] = barrier_timer.seconds();
    if (stage1_error) std::rethrow_exception(stage1_error);

    // ---- Stage 2 (Algorithm 2). After a throw there is no further
    // synchronization, so exceptions propagate directly (the pool collects
    // the first one).
    stage_timer.reset();
    const auto [my_lo, my_hi] = ThreadPool::block_range(parts, W, w);
    drain_inbound(kernel, w, my_lo, my_hi, ws, inject);
    ws.stage2_seconds = stage_timer.seconds();
    stats_.workers[w] = ws;
  });

  stats_.pin_failures = pin_failures.load(std::memory_order_relaxed);
  // The slowest worker's wait bounds what the barrier costs the makespan.
  stats_.barrier_seconds =
      *std::max_element(barrier_waits.begin(), barrier_waits.end());
}

template <typename K>
BasicPotentialTable<K> BasicWaitFreeBuilder<K>::build_pipelined(
    const Dataset& data, ThreadPool& pool) {
  const std::size_t P = pool.size();
  const Codec codec = Traits::make_codec(data.cardinalities());
  BasicPartitionedTable<K> table(
      P, Traits::state_space_bound(codec), options_.scheme,
      expected_entries_per_partition<Traits>(data, codec, P));
  Kernel<K> kernel(data, codec, table, P);
  stats_ = BuildStats{};
  stats_.workers.assign(P, WorkerStats{});
  stats_.requested_workers = pool.degradation().requested_threads;
  stats_.effective_workers = P;
  stats_.simd_level = kernel.level;
  std::atomic<std::size_t> pin_failures{0};
  // Producer retirement + early wind-down (worker exception or watchdog
  // stall). The gate's memory-order contract is model-checked in wfcheck's
  // model_builder_retire harness.
  RetireGate gate(P);
  std::atomic<bool> stalled{false};
  // Captured by the watchdog at detection time: by the time run() returns and
  // we build the StallError, a transiently wedged producer may have finished,
  // so reading producers_done afterwards would under-report the culprits.
  std::atomic<std::size_t> stalled_unfinished{0};
  std::vector<ProgressCell> progress(P);

  const std::size_t m = data.sample_count();
  const double stall_timeout = options_.stall_timeout_seconds;
  const bool watchdog = stall_timeout > 0.0;
  Timer total_timer;

  pool.run([&](std::size_t p) {
    if (options_.pin_threads && !pin_current_thread(p)) {
      pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
    WorkerStats ws;  // stored at the end, as in run_phased
    const bool inject = fault::enabled();
    Timer stage_timer;
    const auto count_progress = [&](std::uint64_t n) {
      if (watchdog && n != 0) {
        progress[p].value.fetch_add(n, std::memory_order_relaxed);
      }
    };

    // The phased stage 2, run between batches. Its fault point fires once
    // per pass, not per item, so the drain keeps the block kernel under
    // fault injection too.
    auto drain_once = [&] {
      if (inject) fault::fire(fault::Point::kPipelineDrain);
      count_progress(drain_inbound(kernel, p, p, p + 1, ws, false));
    };

    // The whole kernel is exception-robust: a throw anywhere marks the build
    // aborted and keeps the producers_done accounting truthful, so no other
    // worker can spin forever waiting on this one.
    bool counted_done = false;
    try {
      // Interleave producing batches with draining inbound keys. The routers
      // are flushed after every batch, so the consumers' drain interleave
      // (and the stall watchdog's progress accounting) observe the same
      // cadence as the scalar path. The combiner holds its entries across
      // batches and is emptied before this producer retires.
      const auto [lo, hi] = ThreadPool::block_range(m, P, p);
      Stage1Worker<K> stage1(kernel, p, hi - lo, ws, inject);
      std::size_t i = lo;
      while (i < hi && !gate.aborted()) {
        const std::size_t stop = std::min(hi, i + kPipelineBatchRows);
        stage1.scan(i, stop, count_progress);
        i = stop;
        stage1.flush_routers();
        drain_once();
      }
      stage1.finish();
      ws.stage1_seconds = stage_timer.seconds();
      gate.retire();
      counted_done = true;

      // Keep draining until every producer has finished, then one final pass:
      // after producers_done == P no queue can grow, so an empty sweep means
      // the fabric is fully drained. The watchdog clocks the time since the
      // global progress sum last moved; a wedged worker freezes its counter,
      // and once every healthy worker has gone idle the sum stops moving.
      stage_timer.reset();
      Timer stall_timer;
      std::uint64_t last_progress = 0;
      bool have_baseline = false;
      while (!gate.aborted() && !gate.all_retired()) {
        drain_once();
        if (watchdog) {
          std::uint64_t now = 0;
          for (const ProgressCell& cell : progress) {
            now += cell.value.load(std::memory_order_relaxed);
          }
          if (!have_baseline || now != last_progress) {
            last_progress = now;
            have_baseline = true;
            stall_timer.reset();
          } else if (stall_timer.seconds() > stall_timeout) {
            stalled_unfinished.store(P - gate.retired(),
                                     std::memory_order_relaxed);
            stalled.store(true, std::memory_order_release);
            gate.abort();
            break;
          }
        }
      }
      if (!gate.aborted()) drain_once();
      ws.stage2_seconds = stage_timer.seconds();
      stats_.workers[p] = ws;
    } catch (...) {
      gate.abort_and_retire(counted_done);
      throw;
    }
  });

  stats_.pin_failures = pin_failures.load(std::memory_order_relaxed);
  stats_.total_seconds = total_timer.seconds();
  if (stalled.load(std::memory_order_acquire)) {
    std::vector<std::uint64_t> snapshot;
    snapshot.reserve(P);
    for (const ProgressCell& cell : progress) {
      snapshot.push_back(cell.value.load(std::memory_order_relaxed));
    }
    throw StallError(
        "pipelined build stalled: no worker progress for " +
            std::to_string(stall_timeout) + "s with " +
            std::to_string(stalled_unfinished.load(std::memory_order_relaxed)) +
            " producer(s) unfinished",
        std::move(snapshot));
  }
  return Table(codec, std::move(table), static_cast<std::uint64_t>(m));
}

template class BasicWaitFreeBuilder<Key>;
template class BasicWaitFreeBuilder<WideKey>;

}  // namespace wfbn
