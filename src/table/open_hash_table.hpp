// Single-writer open-addressing count table: key -> uint64 occurrence count.
//
// This is each core's private hashtable in the partitioned potential-table
// representation. Because the wait-free construction primitive guarantees
// exclusive ownership (core p is the only writer of table p in both stages),
// the table needs no synchronization at all — which is precisely where the
// primitive's speedup over shared concurrent maps comes from.
//
// The table is a template over the key type; KeyTraits<K> supplies the empty
// sentinel and the slot hash, so the narrow (64-bit) and wide (two-word)
// widths share one implementation. Linear probing; grows at 0.7 load factor.
// Only insert/increment, lookup and iteration are supported (count tables
// never erase), and the single-writer invariant lets the running total of all
// counts be cached, making total_count() O(1).
//
// Two ingestion paths produce the identical key -> count mapping (the
// builders' brute-force oracle tests pin this at both key widths):
//
//   increment()        one key, dependent probe chain
//   increment_block()  multi-cursor probing: hash a group of kProbeGroup keys
//                      up front, issue every home-slot prefetch, then advance
//                      the probes round-robin so the misses overlap instead
//                      of serializing (a stage-2 drain of a table that
//                      misses cache took 14-21% less time than per-key
//                      increment(); docs/ALGORITHMS.md)
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "table/key_traits.hpp"
#include "util/error.hpp"

namespace wfbn {

template <typename K>
class BasicOpenHashTable {
 public:
  using Traits = KeyTraits<K>;

  static constexpr K kEmptyKey = Traits::empty_key();

  explicit BasicOpenHashTable(std::size_t expected_entries = 16) {
    rehash_for(expected_entries);
  }

  /// Adds `delta` to `key`'s count (inserting the key if new).
  /// Precondition: key != kEmptyKey (guaranteed by the codecs' word bounds).
  void increment(K key, std::uint64_t delta = 1) {
    total_ += delta;
    std::size_t index = slot_of(key);
    for (;;) {
      Entry& entry = entries_[index];
      if (entry.key == key) {
        entry.count += delta;
        return;
      }
      if (entry.key == kEmptyKey) {
        entry.key = key;
        entry.count = delta;
        if (++size_ * 10 > capacity() * 7) grow();
        return;
      }
      index = (index + 1) & mask_;
    }
  }

  /// Folds a block of keys (count 1 each) with the same key -> count result
  /// as calling increment() per key. Hashes a group of kProbeGroup keys at
  /// once (KeyTraits::slot_hash_block), issues every home-slot prefetch for
  /// the group while the previous group resolves, then advances the group's
  /// probe cursors round-robin with a bounded per-visit probe budget — so a
  /// group's cache misses are all in flight together instead of serializing
  /// one dependent chain per key. Keys resolve out of order within a group,
  /// which can change the physical slot a colliding key lands in, but never
  /// the key -> count content (what snapshots, digests and the oracles
  /// compare). A mid-group grow() restarts the unresolved cursors from their
  /// new home slots.
  void increment_block(const K* keys, std::size_t count) {
    // Double-buffered hashes: prefetch wave k while wave k-1 resolves. The
    // buffers hold pre-mask hashes, not slots, so a grow() between the
    // prefetch and the resolve only stales the (harmless) hint, never the
    // probe start.
    std::size_t hash_buf[2][kProbeGroup];
    const K* prev_keys = nullptr;
    std::size_t prev_count = 0;
    unsigned buf = 0;
    for (std::size_t base = 0; base < count; base += kProbeGroup) {
      const std::size_t g = std::min(kProbeGroup, count - base);
      std::size_t* hashes = hash_buf[buf];
      Traits::slot_hash_block(keys + base, g, hashes);
      for (std::size_t i = 0; i < g; ++i) prefetch_slot(hashes[i] & mask_);
      if (prev_count != 0) resolve_group(prev_keys, hash_buf[buf ^ 1], prev_count);
      prev_keys = keys + base;
      prev_count = g;
      buf ^= 1;
    }
    if (prev_count != 0) resolve_group(prev_keys, hash_buf[buf ^ 1], prev_count);
  }

  /// Occurrence count of `key`; 0 when absent.
  [[nodiscard]] std::uint64_t count(K key) const noexcept {
    std::size_t index = slot_of(key);
    for (;;) {
      const Entry& entry = entries_[index];
      if (entry.key == key) return entry.count;
      if (entry.key == kEmptyKey) return 0;
      index = (index + 1) & mask_;
    }
  }

  [[nodiscard]] bool contains(K key) const noexcept { return count(key) != 0; }

  /// Number of distinct keys.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return entries_.size(); }

  /// Sum of all counts (number of represented observations). O(1): the total
  /// is maintained on every increment — legal because each table has exactly
  /// one writer.
  [[nodiscard]] std::uint64_t total_count() const noexcept { return total_; }

  /// Visits every (key, count) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (!(e.key == kEmptyKey)) fn(e.key, e.count);
    }
  }

  /// Moves all entries of `other` into this table, leaving `other` empty.
  void merge_from(BasicOpenHashTable& other) {
    other.for_each([this](K key, std::uint64_t c) { increment(key, c); });
    other.clear();
  }

  void clear() noexcept {
    for (Entry& e : entries_) e = Entry{};
    size_ = 0;
    total_ = 0;
  }

  /// Pre-sizes the table for `expected_entries` distinct keys.
  void reserve(std::size_t expected_entries) {
    if (expected_entries * 10 > capacity() * 7) {
      rehash_for(expected_entries);
    }
  }

 private:
  struct Entry {
    K key = kEmptyKey;
    std::uint64_t count = 0;
  };

  /// Probe cursors per increment_block() group: the keys hashed, prefetched
  /// and resolved together. Groups of 4 to 64 measured within noise of 16
  /// (docs/ALGORITHMS.md, "Vectorized encode/probe").
  static constexpr std::size_t kProbeGroup = 16;

  /// Probes per cursor visit before increment_block() rotates to the next
  /// unresolved cursor (and prefetches where this one left off).
  static constexpr int kProbeBudget = 4;

  [[nodiscard]] std::size_t slot_of(K key) const noexcept {
    return Traits::slot_hash(key) & mask_;
  }

  void prefetch_slot(std::size_t index) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(entries_.data() + index, /*rw=*/1, /*locality=*/3);
#else
    (void)index;
#endif
  }

  /// Resolves one prefetched group of increment_block(): round-robin
  /// over the unresolved cursors, each advancing at most kProbeBudget slots
  /// per visit. Every cursor's probe walk is the same deterministic linear
  /// scan increment() would run, so duplicates within a group are safe: the
  /// first of them to resolve inserts the key, the others find it on their
  /// own walk (slots are never vacated).
  ///
  /// Always inlined: it is increment_block()'s loop body. When a caller
  /// inlines increment_block() (the builder's stage-2 drain does), GCC
  /// otherwise keeps this out of line, and that drain measured 3.0–3.4 ms
  /// against 2.7–2.9 ms per build (ALARM m=200k, P=4, 4-core x86-64 AVX2
  /// host).
  [[gnu::always_inline]] void resolve_group(const K* gkeys,
                                            const std::size_t* hashes,
                                            std::size_t g) {
    std::size_t idx[kProbeGroup];
    for (std::size_t i = 0; i < g; ++i) idx[i] = hashes[i] & mask_;
    std::uint64_t pending = (std::uint64_t{1} << g) - 1;
    while (pending != 0) {
      std::uint64_t scan = pending;
      while (scan != 0) {
        const unsigned c = static_cast<unsigned>(std::countr_zero(scan));
        scan &= scan - 1;
        for (int b = 0; b < kProbeBudget; ++b) {
          Entry& entry = entries_[idx[c]];
          if (entry.key == gkeys[c]) {
            entry.count += 1;
            ++total_;
            pending &= ~(std::uint64_t{1} << c);
            break;
          }
          if (entry.key == kEmptyKey) {
            entry.key = gkeys[c];
            entry.count = 1;
            ++total_;
            pending &= ~(std::uint64_t{1} << c);
            if (++size_ * 10 > capacity() * 7) {
              grow();
              // Every entry moved; restart the unresolved cursors from their
              // new home slots (linear-probe lookups are home-anchored).
              for (std::uint64_t rest = pending; rest != 0; rest &= rest - 1) {
                const unsigned d =
                    static_cast<unsigned>(std::countr_zero(rest));
                idx[d] = hashes[d] & mask_;
              }
            }
            break;
          }
          idx[c] = (idx[c] + 1) & mask_;
          if (b + 1 == kProbeBudget) prefetch_slot(idx[c]);
        }
      }
    }
  }

  void rehash_for(std::size_t expected_entries) {
    // Capacity at >= 10/7 of the population keeps the load factor under 0.7.
    const std::size_t wanted =
        std::bit_ceil(std::max<std::size_t>(expected_entries * 10 / 7 + 1, 16));
    std::vector<Entry> old = std::exchange(entries_, std::vector<Entry>(wanted));
    mask_ = wanted - 1;
    size_ = 0;
    total_ = 0;  // reinsertion below rebuilds it
    for (const Entry& e : old) {
      if (!(e.key == kEmptyKey)) increment(e.key, e.count);
    }
  }

  void grow() { rehash_for(size_ * 2); }

  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
};

using OpenHashTable = BasicOpenHashTable<Key>;
using WideOpenHashTable = BasicOpenHashTable<WideKey>;

}  // namespace wfbn
