#include "core/wait_free_builder.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
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
// fast path", has the numbers). The stage-2 probe group is OpenHashTable's
// kProbeGroup.

/// Rows encoded per stage-1 strip before any routing, so the codec's
/// mixed-radix multiply chains pipeline instead of alternating with table
/// and queue traffic. One AVX2 encode tile.
constexpr std::size_t kEncodeStripRows = 32;
/// Foreign keys staged per destination before the router flushes them into
/// the SPSC fabric with one bulk publish (SpscQueue::push_block).
constexpr std::size_t kRouteBufferKeys = 64;
/// Rows a pipelined producer scans between drain passes.
constexpr std::size_t kPipelineBatchRows = 4096;

/// P×P queue fabric; cell (src, dst) carries keys produced by worker src for
/// owner dst. Diagonal cells are never used (own keys go straight into the
/// local table) but are allocated to keep indexing branch-free.
template <typename K>
class QueueFabric {
 public:
  using Queue = SpscQueue<K>;

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
/// of kRouteBufferKeys keys per destination worker; a full buffer is flushed
/// into the SPSC fabric with one bulk publish (SpscQueue::push_block)
/// instead of one release store per key. The caller flushes the remainder
/// at stage/batch boundaries (flush_all, ascending destination order).
template <typename K>
class KeyRouter {
 public:
  KeyRouter(QueueFabric<K>& queues, std::size_t src, std::size_t workers)
      : queues_(queues),
        src_(src),
        staging_(workers * kRouteBufferKeys),
        fill_(workers, 0) {}

  /// Stages `key` for `dst`; flushes that destination's buffer when full.
  /// Returns the number of flushes performed (0 or 1).
  std::uint64_t route(std::size_t dst, K key) {
    K* buffer = staging_.data() + dst * kRouteBufferKeys;
    buffer[fill_[dst]++] = key;
    if (fill_[dst] == kRouteBufferKeys) {
      queues_.at(src_, dst).push_block(buffer, kRouteBufferKeys);
      fill_[dst] = 0;
      return 1;
    }
    return 0;
  }

  /// Flushes every destination with staged keys, ascending dst order.
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
  QueueFabric<K>& queues_;
  std::size_t src_;
  std::vector<K> staging_;
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
  QueueFabric<K> queues(W);
  SpinBarrier barrier(W);
  stats_ = BuildStats{};
  stats_.workers.assign(W, WorkerStats{});
  stats_.requested_workers = pool.degradation().requested_threads;
  stats_.effective_workers = W;
  const std::vector<std::size_t> part_owner = partition_owners(parts, W);
  std::atomic<std::size_t> pin_failures{0};
  std::vector<double> barrier_waits(W, 0.0);

  const std::size_t m = data.sample_count();
  // Resolved once per build: the whole kernel runs one dispatch level, and
  // the effective level (after host/env/forced downgrades) is reported.
  const simd::Level level = simd::detected();
  stats_.simd_level = level;
  const std::uint64_t space = table.state_space();
  const PartitionScheme scheme = table.scheme();

  pool.run([&](std::size_t w) {
    if (options_.pin_threads && !pin_current_thread(w)) {
      pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
    WorkerStats& ws = stats_.workers[w];
    const auto [my_lo, my_hi] = ThreadPool::block_range(parts, W, w);
    // Hoisted once per kernel so the disabled case costs a register test per
    // row instead of an atomic load (schedules are armed before the build).
    const bool inject = fault::enabled();

    // ---- Stage 1 (Algorithm 1): scan my block, route keys by ownership.
    // Rows are encoded in strips (the codec's multiply chain pipelines) and
    // foreign keys go through the write-combining router; the router is
    // fully flushed before the barrier so stage-2 emptiness stays final.
    // A throw here is caught and re-raised only after the barrier: every
    // worker must cross it exactly once or the others would spin forever.
    std::exception_ptr stage1_error;
    Timer stage_timer;
    KeyRouter<K> router(queues, w, W);
    std::array<K, kEncodeStripRows> keys{};
    std::array<std::size_t, kEncodeStripRows> owners{};
    try {
      const auto [lo, hi] = ThreadPool::block_range(m, W, w);
      for (std::size_t i = lo; i < hi;) {
        const std::size_t count = std::min(kEncodeStripRows, hi - i);
        if (inject) {
          // Scalar fallback keeps the once-per-row fault-point semantics the
          // injection sweeps rely on.
          for (std::size_t r = 0; r < count; ++r) {
            fault::fire(fault::Point::kStage1Row);
            keys[r] = codec.encode(data.row(i + r));
            ++ws.rows_encoded;
          }
        } else {
          codec.encode_block(data.row(i).data(), count, keys.data(), level);
          ws.rows_encoded += count;
        }
        // Destinations for the whole strip before any route-buffer traffic
        // (one pipelined hash/divide pass instead of per-key detours).
        Traits::owner_block(keys.data(), count, parts, space, scheme,
                            owners.data());
        for (std::size_t r = 0; r < count; ++r) {
          const K key = keys[r];
          const std::size_t q = owners[r];
          const std::size_t dst = part_owner[q];
          if (dst == w) {
            table.partition(q).increment(key);
            ++ws.local_updates;
          } else {
            ws.route_flushes += router.route(dst, key);
            ++ws.foreign_pushes;
          }
        }
        i += count;
      }
      ws.route_flushes += router.flush_all();
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

    // ---- Stage 2 (Algorithm 2): drain queues addressed to me, one whole
    // published chunk span per acquire load. A worker owning one partition
    // folds each span with the multi-cursor kernel; a degraded pool's
    // workers route each key to the partition that owns it. After a throw
    // there is no further synchronization, so exceptions propagate directly
    // (the pool collects the first one).
    stage_timer.reset();
    if (my_lo < my_hi) {
      BasicOpenHashTable<K>* sole =
          (my_hi - my_lo == 1) ? &table.partition(my_lo) : nullptr;
      for (std::size_t src = 0; src < W; ++src) {
        if (src == w) continue;
        SpscQueue<K>& queue = queues.at(src, w);
        ws.stage2_pops += queue.consume([&](const K* span, std::size_t count) {
          ++ws.bulk_pops;
          if (inject) {
            // Scalar fallback keeps the once-per-drained-key fault-point
            // semantics the injection sweeps rely on.
            for (std::size_t k = 0; k < count; ++k) {
              fault::fire(fault::Point::kStage2Drain);
              if (sole != nullptr) {
                sole->increment(span[k]);
              } else {
                table.partition(table.owner_of(span[k])).increment(span[k]);
              }
            }
          } else if (sole != nullptr) {
            sole->increment_block(span, count);
          } else {
            for (std::size_t k = 0; k < count; ++k) {
              table.partition(table.owner_of(span[k])).increment(span[k]);
            }
          }
        });
      }
    }
    ws.stage2_seconds = stage_timer.seconds();
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
  QueueFabric<K> queues(P);
  stats_ = BuildStats{};
  stats_.workers.assign(P, WorkerStats{});
  stats_.requested_workers = pool.degradation().requested_threads;
  stats_.effective_workers = P;
  const simd::Level level = simd::detected();
  stats_.simd_level = level;
  const std::uint64_t space = table.state_space();
  const PartitionScheme scheme = table.scheme();
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
    WorkerStats& ws = stats_.workers[p];
    BasicOpenHashTable<K>& mine = table.partition(p);
    const bool inject = fault::enabled();
    Timer stage_timer;

    // Same drain as the phased stage 2 for a worker owning one partition.
    // Its fault point fires once per pass, not per key, so fault injection
    // needs no per-key fold here.
    auto drain_once = [&] {
      if (inject) fault::fire(fault::Point::kPipelineDrain);
      for (std::size_t src = 0; src < P; ++src) {
        if (src == p) continue;
        SpscQueue<K>& queue = queues.at(src, p);
        const std::size_t drained =
            queue.consume([&](const K* span, std::size_t count) {
              ++ws.bulk_pops;
              mine.increment_block(span, count);
            });
        ws.stage2_pops += drained;
        if (watchdog && drained != 0) {
          progress[p].value.fetch_add(drained, std::memory_order_relaxed);
        }
      }
    };

    // The whole kernel is exception-robust: a throw anywhere marks the build
    // aborted and keeps the producers_done accounting truthful, so no other
    // worker can spin forever waiting on this one.
    bool counted_done = false;
    try {
      // Interleave producing batches with draining inbound keys. The router
      // is flushed after every batch, so the consumers' drain interleave
      // (and the stall watchdog's progress accounting) observe the same
      // cadence as the scalar path — at most one batch of keys is ever
      // staged privately.
      KeyRouter<K> router(queues, p, P);
      std::array<K, kEncodeStripRows> keys{};
      std::array<std::size_t, kEncodeStripRows> owners{};
      const auto [lo, hi] = ThreadPool::block_range(m, P, p);
      std::size_t i = lo;
      while (i < hi && !gate.aborted()) {
        const std::size_t stop = std::min(hi, i + kPipelineBatchRows);
        while (i < stop) {
          const std::size_t count = std::min(kEncodeStripRows, stop - i);
          if (inject) {
            for (std::size_t r = 0; r < count; ++r) {
              fault::fire(fault::Point::kStage1Row);
              keys[r] = codec.encode(data.row(i + r));
              ++ws.rows_encoded;
            }
          } else {
            codec.encode_block(data.row(i).data(), count, keys.data(), level);
            ws.rows_encoded += count;
          }
          Traits::owner_block(keys.data(), count, P, space, scheme,
                              owners.data());
          for (std::size_t r = 0; r < count; ++r) {
            const K key = keys[r];
            const std::size_t owner = owners[r];
            if (owner == p) {
              mine.increment(key);
              ++ws.local_updates;
            } else {
              ws.route_flushes += router.route(owner, key);
              ++ws.foreign_pushes;
            }
          }
          if (watchdog) {
            progress[p].value.fetch_add(count, std::memory_order_relaxed);
          }
          i += count;
        }
        ws.route_flushes += router.flush_all();
        drain_once();
      }
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
