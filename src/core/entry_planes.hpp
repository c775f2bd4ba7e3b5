// The potential table decoded once into a column layout: pass 1 of the
// column all-pairs MI kernel (paper Algorithm 4, docs/ALGORITHMS.md), kept
// as a structure of its own so that the CI tests of a learn count from it
// too instead of sweeping the hash table once per marginal (Algorithm 3).
//
// One parallel sweep over the partitions routes every entry by its count:
//   light (count 1)   gathered 64 at a time and transposed into one-hot bit
//                     planes, one plane per (variable v, state a >= 1): bit e
//                     of word w of plane (v, a) is set when light entry
//                     64·w + e has x_v = a. State 0 gets no plane. A tile
//                     is decoded by the codec's digit-serial decode_tile
//                     into one 64-byte state row per variable, and each
//                     plane word is one byte compare of a row against a plus
//                     a movemask (simd_detail::match_word);
//   heavy (count > 1) appended to a compact (key, count) list.
// Worker w owns a 64-bit-aligned word range of every plane, sized from its
// partitions' populations, so workers write disjoint words of one shared
// array. The valid count of word w is the number of light entries in it: 64
// for a full word, fewer for the last word a worker filled, 0 for the unused
// tail of a worker's range. Bits at or past it are zero in every plane, so
// an entry whose states are all 0 is told apart from an empty lane only by
// the valid count.
//
// Two routines count the marginal of any variable subset S from this
// layout; both add the heavy list through the key projector and both give
// exact integer counts equal to a table sweep:
//   marginalize_lattice  the AND-popcount lattice. For every partial
//                        assignment of S with states >= 1 (the other
//                        variables free) it ANDs the planes and popcounts
//                        the result, pruning at zero, then Möbius-inverts
//                        along each variable to recover the state-0 cells:
//                        up to Π r_v − 1 plane ANDs of words() words each.
//                        For |S| = 2 these are exactly the pair cells of the
//                        all-pairs MI pass (count_light_cells);
//   marginalize_scatter  the set-bit scatter. Per plane word, the set bits
//                        add a·stride into 64 per-entry cell indices and
//                        only the word's valid entries are scattered into
//                        the marginal: O(E·Σ_{v∈S} P(x_v ≠ 0) + E) for E
//                        light entries, whatever the cell count.
// The heavy list adds O(H·|S|) to both. marginalize() picks the cheaper of
// the two by a cost estimate (cost()) from the cell count, the plane words,
// the light and heavy counts, the plane totals and the SIMD level; the CI
// tests and the serving layer's counting index (core/counting_index.hpp) both
// count through it.
//
// The planes keep a copy of the table's codec, not a reference to the table,
// so they may outlive the table they were built from (the counting index
// shares one set of planes across the snapshot versions that follow).
//
// Read-only after construction: the counting routines may run concurrently
// from any number of threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "table/marginal_table.hpp"
#include "table/potential_table.hpp"

namespace wfbn {

template <typename K>
class BasicEntryPlanes {
 public:
  using Codec = BasicKeyCodec<K>;
  using Table = BasicPotentialTable<K>;

  struct HeavyEntry {
    K key;
    std::uint64_t count;
  };

  /// What marginalize() does for a variable set: the routine the cost rule
  /// picks and its estimated nanoseconds, heavy list included.
  struct Cost {
    double ns = 0.0;
    bool lattice = true;  ///< false: the set-bit scatter
  };

  /// Builds the planes in one sweep across `pool`; kMiSweep fires once per
  /// partition. The planes do not refer to `table` afterwards.
  BasicEntryPlanes(const Table& table, ThreadPool& pool);

  /// The codec of the table the planes were built from.
  [[nodiscard]] const Codec& codec() const noexcept {
    return codec_;
  }

  /// Words per plane (every plane has the same length).
  [[nodiscard]] std::size_t words() const noexcept { return words_; }

  /// Index of the plane of (variable v, state a >= 1).
  [[nodiscard]] std::size_t plane_index(std::size_t v, std::uint32_t a) const {
    return plane_of_[v] + a - 1;
  }

  /// The `words()` words of plane (v, a >= 1).
  [[nodiscard]] const std::uint64_t* plane(std::size_t v, std::uint32_t a) const {
    return bits_.data() + plane_index(v, a) * words_;
  }

  /// Light entries with x_v = a, indexed by plane_index(v, a).
  [[nodiscard]] std::span<const std::uint64_t> plane_totals() const noexcept {
    return plane_totals_;
  }

  /// Number of light (count-1) entries.
  [[nodiscard]] std::uint64_t light_count() const noexcept {
    return light_count_;
  }

  /// The count > 1 entries, in no particular order.
  [[nodiscard]] std::span<const HeavyEntry> heavy() const noexcept {
    return heavy_;
  }

  /// Table entries the planes hold: light plus heavy.
  [[nodiscard]] std::uint64_t entries() const noexcept {
    return light_count_ + heavy_.size();
  }

  /// The cost rule: estimated nanoseconds of counting `variables` by the
  /// lattice at the detected SIMD level and by the scatter, and which of the
  /// two is cheaper.
  [[nodiscard]] Cost cost(std::span<const std::size_t> variables) const;

  /// Exact marginal counts of `variables` (their order is the layout, as for
  /// KeyProjector) by the routine cost() picks; equal to sweeping the table.
  [[nodiscard]] MarginalTable marginalize(
      std::span<const std::size_t> variables) const;

  /// Exact marginal counts of `variables` (their order is the layout, as for
  /// KeyProjector; a variable may appear once) by the AND-popcount lattice
  /// at the level simd::detected() returns; equal to sweeping the table.
  /// Runs on the calling thread, with at most (|S| − 2)·words() words of
  /// thread-local scratch.
  [[nodiscard]] MarginalTable marginalize_lattice(
      std::span<const std::size_t> variables) const;

  /// The same counts by the set-bit scatter.
  [[nodiscard]] MarginalTable marginalize_scatter(
      std::span<const std::size_t> variables) const;

  /// The light entries' share of marginalize_lattice: writes the count of
  /// every cell (first variable fastest) into `cells`, which must hold
  /// Π r_v words.
  void count_light_cells(std::span<const std::size_t> variables,
                         std::span<std::uint64_t> cells) const;

  /// Per build worker: busy seconds and table entries visited.
  [[nodiscard]] const std::vector<double>& worker_seconds() const noexcept {
    return worker_seconds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& worker_entries() const noexcept {
    return worker_entries_;
  }

 private:
  /// Entries per plane word.
  static constexpr std::size_t kWordEntries = 64;

  /// Adds every heavy entry's count to its cell of `out`, which has the
  /// projector's layout.
  void add_heavy(const BasicKeyProjector<K>& projector,
                 MarginalTable& out) const;

  Codec codec_;
  std::vector<std::size_t> plane_of_;  ///< first plane of each variable
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;    ///< Σ_v (r_v − 1) planes × words_
  std::vector<std::uint8_t> valid_;    ///< light entries in each word, 0..64
  std::vector<std::uint64_t> plane_totals_;
  std::uint64_t light_count_ = 0;
  std::vector<HeavyEntry> heavy_;
  std::vector<double> worker_seconds_;
  std::vector<std::uint64_t> worker_entries_;
};

extern template class BasicEntryPlanes<Key>;
extern template class BasicEntryPlanes<WideKey>;

using EntryPlanes = BasicEntryPlanes<Key>;
using WideEntryPlanes = BasicEntryPlanes<WideKey>;

}  // namespace wfbn
