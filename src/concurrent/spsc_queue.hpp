// Unbounded wait-free single-producer/single-consumer queue of trivially
// copyable items, built as a linked list of fixed-size chunks.
//
// This is the queue fabric of the wait-free table-construction primitive:
// core p owns queue (p -> q) for every q != p. During stage 1 only core p
// pushes; during stage 2 only core q pops; the barrier between the stages
// gives the strict SPSC discipline. The queue is nevertheless correct under
// *concurrent* single-producer/single-consumer access (producer publishes a
// chunk's fill count with release stores, consumer reads with acquire loads);
// test_spsc_queue's stress tests and wfcheck's SPSC models exercise it so.
//
// Two transfer granularities share the chunk representation:
//  - item-at-a-time: push() / try_pop(), one release/acquire pair per item;
//  - block transfer: push_block() copies a whole span and publishes one
//    release store per touched chunk, consume() hands the consumer every
//    currently published span with one acquire load per chunk. The builders'
//    write-combining routers use the block path; the per-item API remains for
//    callers without batching opportunities.
//
// Progress: all producer operations are wait-free except for chunk allocation
// (amortized one allocation per kChunkCapacity items); all consumer
// operations are wait-free.
//
// The Policy parameter (concurrent/atomics_policy.hpp) selects the atomics
// backend: RealAtomics (std::atomic, the default — identical codegen to a
// non-templated queue) or the wfcheck model policy, under which this exact
// source runs inside the deterministic concurrency checker.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "concurrent/atomics_policy.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {

template <typename T, std::size_t kChunkCapacity = 2048,
          typename Policy = RealAtomics>
class SpscQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "SpscQueue requires trivially copyable items");
  static_assert(kChunkCapacity >= 2, "chunk must hold at least two items");

  template <typename U>
  using Atomic = typename Policy::template Atomic<U>;
  template <typename U>
  using Data = typename Policy::template Data<U>;

 public:
  SpscQueue() {
    auto* chunk = new Chunk;
    head_chunk_ = chunk;
    tail_chunk_ = chunk;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  ~SpscQueue() {
    Chunk* chunk = head_chunk_;
    while (chunk != nullptr) {
      Chunk* next = chunk->next.load(std::memory_order_relaxed);
      delete chunk;
      chunk = next;
    }
  }

  /// Producer side. Never blocks; allocates a fresh chunk when the current
  /// one fills up. If the allocation throws (OOM or an injected fault), the
  /// queue is untouched: the item is not enqueued and both ends stay valid.
  /// The fresh chunk is owned here until the link store returns, so a throw
  /// in between (only a model-checker abort can) frees it.
  // wfbn-lint: wait-free-begin
  void push(const T& item) {
    Chunk* chunk = tail_chunk_;
    const std::size_t fill = chunk->count.load(std::memory_order_relaxed);
    if (fill == kChunkCapacity) {
      WFBN_FAULT_POINT(fault::Point::kSpscChunkAlloc);
      // wfbn-lint: allow(wait-free-region) amortized refill: one allocation per kChunkCapacity pushes
      std::unique_ptr<Chunk> fresh(new Chunk);
      fresh->items[0] = item;
      fresh->count.store(1, std::memory_order_relaxed);
      // Publish the chunk before linking it so the consumer never observes a
      // linked chunk with an unpublished first element.
      chunk->next.store(fresh.get(), std::memory_order_release);
      tail_chunk_ = fresh.release();
      ++pushed_;
      return;
    }
    chunk->items[fill] = item;
    chunk->count.store(fill + 1, std::memory_order_release);
    ++pushed_;
  }
  // wfbn-lint: wait-free-end

  /// Bulk producer: copies `count` items from `items` and publishes one
  /// release store per touched chunk instead of one per item — the
  /// write-combining flush path of the builders. FIFO order is preserved
  /// relative to push(). Wait-free except for chunk allocation (amortized
  /// one per kChunkCapacity items). If an allocation throws mid-block (OOM
  /// or an injected fault), the prefix already published stays enqueued and
  /// both ends stay valid; the remainder of the block is not enqueued. A
  /// fresh chunk is owned here until linked, as in push().
  // wfbn-lint: wait-free-begin
  void push_block(const T* items, std::size_t count) {
    Chunk* chunk = tail_chunk_;
    std::size_t fill = chunk->count.load(std::memory_order_relaxed);
    while (count != 0) {
      if (fill == kChunkCapacity) {
        WFBN_FAULT_POINT(fault::Point::kSpscChunkAlloc);
        // wfbn-lint: allow(wait-free-region) amortized refill: one allocation per kChunkCapacity items
        std::unique_ptr<Chunk> fresh(new Chunk);
        const std::size_t take = std::min(count, kChunkCapacity);
        std::copy_n(items, take, fresh->items);
        fresh->count.store(take, std::memory_order_relaxed);
        // As in push(): fill first, then publish via the link, so a linked
        // chunk is never observed with unpublished leading elements.
        chunk->next.store(fresh.get(), std::memory_order_release);
        chunk = fresh.release();
        tail_chunk_ = chunk;
        pushed_ += take;
        items += take;
        count -= take;
        fill = take;
        continue;
      }
      const std::size_t take = std::min(count, kChunkCapacity - fill);
      std::copy_n(items, take, chunk->items + fill);
      fill += take;
      chunk->count.store(fill, std::memory_order_release);
      pushed_ += take;
      items += take;
      count -= take;
    }
  }
  // wfbn-lint: wait-free-end

  /// Consumer side. Returns false when no item is currently available (the
  /// producer may still push more later — emptiness is transient unless the
  /// producer is known to be done, e.g. after the construction barrier).
  // wfbn-lint: wait-free-begin
  bool try_pop(T& out) {
    Chunk* chunk = head_chunk_;
    for (;;) {
      const std::size_t available = chunk->count.load(std::memory_order_acquire);
      if (read_index_ < available) {
        out = chunk->items[read_index_++];
        return true;
      }
      Chunk* next = next_of_exhausted(chunk, read_index_);
      if (next == nullptr) return false;
      delete chunk;
      head_chunk_ = next;
      read_index_ = 0;
      chunk = next;
    }
  }
  // wfbn-lint: wait-free-end

  /// Bulk consumer: hands every currently published span to
  /// fn(const Data<T>* items, std::size_t count) — with the default policy
  /// Data<T> is T itself — one call (and one acquire load)
  /// per contiguous span, at most one span per chunk — advancing and freeing
  /// chunks as they are exhausted. Returns the total number of items
  /// consumed; 0 means nothing was available right now (same transiency
  /// caveat as try_pop). The span is only marked consumed after fn returns:
  /// if fn throws, the items of the throwing call are redelivered on the
  /// next consume()/try_pop().
  // wfbn-lint: wait-free-begin
  template <typename Fn>
  std::size_t consume(Fn&& fn) {
    std::size_t total = 0;
    Chunk* chunk = head_chunk_;
    for (;;) {
      const std::size_t available = chunk->count.load(std::memory_order_acquire);
      if (read_index_ < available) {
        fn(chunk->items + read_index_, available - read_index_);
        total += available - read_index_;
        read_index_ = available;
        continue;  // re-load: the producer may have published more meanwhile
      }
      Chunk* next = next_of_exhausted(chunk, read_index_);
      if (next == nullptr) return total;
      delete chunk;
      head_chunk_ = next;
      read_index_ = 0;
      chunk = next;
    }
  }
  // wfbn-lint: wait-free-end

  /// Total number of items ever pushed. Producer-thread view; used by the
  /// builder instrumentation after the barrier.
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }

  /// True iff a try_pop() right now would fail. Consumer-thread view.
  // wfbn-lint: wait-free-begin
  [[nodiscard]] bool empty() const noexcept(Policy::kNoexceptOps) {
    Chunk* chunk = head_chunk_;
    std::size_t index = read_index_;
    for (;;) {
      if (index < chunk->count.load(std::memory_order_acquire)) return false;
      Chunk* next = next_of_exhausted(chunk, index);
      if (next == nullptr) return true;
      chunk = next;
      index = 0;
    }
  }
  // wfbn-lint: wait-free-end

  static constexpr std::size_t chunk_capacity() noexcept { return kChunkCapacity; }

 private:
  struct Chunk {
    Data<T> items[kChunkCapacity];
    Atomic<std::size_t> count{0};  // published fill level (producer writes)
    Atomic<Chunk*> next{nullptr};
  };

  /// The one chunk-advance rule, shared by try_pop/consume/empty: a chunk is
  /// exhausted only once the consumer has read all kChunkCapacity items, and
  /// its successor becomes visible through the producer's release-linked
  /// next pointer. Returns the successor, or nullptr when the chunk is not
  /// exhausted or no successor is linked yet.
  static Chunk* next_of_exhausted(Chunk* chunk, std::size_t read_index)
      noexcept(Policy::kNoexceptOps) {
    if (read_index != kChunkCapacity) return nullptr;
    return chunk->next.load(std::memory_order_acquire);
  }

  // Producer-only and consumer-only state live on separate cache lines so a
  // producer and a consumer running concurrently do not falsely share them.
  alignas(64) Chunk* tail_chunk_;
  std::uint64_t pushed_ = 0;
  alignas(64) Chunk* head_chunk_;
  std::size_t read_index_ = 0;
};

}  // namespace wfbn
