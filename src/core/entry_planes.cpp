#include "core/entry_planes.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "table/simd_kernels.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace wfbn {

namespace {

// The cost rule of marginalize(): estimated nanoseconds per unit of work of
// each routine, measured on ALARM m = 200k (3,110 plane words, 197,927 light
// and 975 heavy entries) on a 4-core x86-64 host with AVX2; the sweeps that
// set them are in results/knob_prune.txt ("CI-test counting sources" and
// "Scalar popcount"). Only their ratios matter: the routine with the lower
// estimate counts the marginal.
constexpr double kLatticeWordNs[] = {1.4, 0.4};  ///< per word ANDed, by level
constexpr double kScatterEntryNs = 1.0;  ///< per light entry: lane reset, add
constexpr double kScatterBitNs = 1.1;    ///< per set plane bit walked
constexpr double kHeavyLegNs = 2.0;      ///< per heavy entry and variable

/// States a State byte can hold; planes of higher states stay zero.
constexpr std::uint32_t kByteStates = 256;

}  // namespace

template <typename K>
BasicEntryPlanes<K>::BasicEntryPlanes(const Table& table, ThreadPool& pool)
    : codec_(table.codec()) {
  const Codec& codec = codec_;
  const auto& partitions = table.partitions();
  const std::size_t n = codec.variable_count();
  const std::size_t parts = partitions.partition_count();
  const std::size_t workers = pool.size();

  plane_of_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    plane_of_[v + 1] = plane_of_[v] + codec.cardinality(v) - 1;
  }
  const std::size_t planes = plane_of_[n];
  // Worker w owns words [word_lo[w], word_lo[w + 1]) of every plane, enough
  // for all of its partitions' entries to be light.
  std::vector<std::size_t> word_lo(workers + 1, 0);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    std::size_t entries = 0;
    for (std::size_t p = lo; p < hi; ++p) entries += partitions.partition(p).size();
    word_lo[w + 1] = word_lo[w] + (entries + kWordEntries - 1) / kWordEntries;
  }
  words_ = word_lo[workers];
  bits_.assign(planes * words_, 0);
  valid_.assign(words_, 0);
  worker_seconds_.assign(workers, 0.0);
  worker_entries_.assign(workers, 0);
  // Per-worker plane totals; the final slot counts the worker's light entries.
  std::vector<std::vector<std::uint64_t>> totals(
      workers, std::vector<std::uint64_t>(planes + 1, 0));
  std::vector<std::vector<HeavyEntry>> heavy(workers);

  static_assert(Codec::kTileKeys == kWordEntries, "a tile fills one plane word");

  pool.run([&](std::size_t w) {
    Timer timer;
    std::uint64_t visited = 0;
    std::uint64_t* const plane_totals = totals[w].data();
    std::uint64_t* const bits = bits_.data();
    const std::size_t words = words_;
    std::size_t word = word_lo[w];
    K tile[kWordEntries];
    std::size_t fill = 0;
    // The tile's states, variable-major: lanes[v * 64 + e] = x_v of entry e.
    std::vector<State> lanes(n * kWordEntries, 0);

    // One plane word per (v, a >= 1): a byte compare of v's 64 lanes
    // against a. Lanes at or past `fill` hold an earlier tile's states, so
    // their bits are masked off. A state is a byte, so planes of a >= 256
    // stay zero.
    const auto flush_tile = [&] {
      codec.decode_tile(std::span<const K>(tile, fill), lanes.data());
      const std::uint64_t filled =
          fill == kWordEntries ? ~std::uint64_t{0} : (std::uint64_t{1} << fill) - 1;
      for (std::size_t v = 0; v < n; ++v) {
        const State* const row = lanes.data() + v * kWordEntries;
        const std::size_t first = plane_of_[v];  // plane of (v, 1)
        const std::uint32_t top = std::min(codec.cardinality(v), kByteStates);
        for (std::uint32_t a = 1; a < top; ++a) {
          const std::uint64_t plane_word =
              simd_detail::match_word(row, static_cast<State>(a)) & filled;
          bits[(first + a - 1) * words + word] = plane_word;
          plane_totals[first + a - 1] += simd_detail::popcount_word(plane_word);
        }
      }
      valid_[word] = static_cast<std::uint8_t>(fill);
      plane_totals[planes] += fill;
      ++word;
      fill = 0;
    };

    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    for (std::size_t p = lo; p < hi; ++p) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      partitions.partition(p).for_each([&](K key, std::uint64_t c) {
        ++visited;
        if (c == 1) {
          tile[fill++] = key;
          if (fill == kWordEntries) flush_tile();
        } else {
          heavy[w].push_back(HeavyEntry{key, c});
        }
      });
    }
    if (fill > 0) flush_tile();
    worker_seconds_[w] = timer.seconds();
    worker_entries_[w] = visited;
  });

  plane_totals_.assign(planes, 0);
  for (const std::vector<std::uint64_t>& part : totals) {
    for (std::size_t c = 0; c < planes; ++c) plane_totals_[c] += part[c];
    light_count_ += part[planes];
  }
  std::size_t heavy_count = 0;
  for (const std::vector<HeavyEntry>& part : heavy) heavy_count += part.size();
  heavy_.reserve(heavy_count);
  for (const std::vector<HeavyEntry>& part : heavy) {
    heavy_.insert(heavy_.end(), part.begin(), part.end());
  }
}

template <typename K>
void BasicEntryPlanes<K>::count_light_cells(
    std::span<const std::size_t> variables,
    std::span<std::uint64_t> cells) const {
  const std::size_t k = variables.size();
  WFBN_EXPECT(k >= 1, "a marginal needs at least one variable");
  struct Axis {
    std::size_t v;
    std::uint32_t r;
    std::size_t stride;  ///< cell offset of one state step, first axis fastest
  };
  std::vector<Axis> axes(k);
  std::size_t cell_count = 1;
  for (std::size_t i = 0; i < k; ++i) {
    axes[i] = Axis{variables[i], codec_.cardinality(variables[i]), cell_count};
    cell_count *= axes[i].r;
  }
  WFBN_EXPECT(cells.size() == cell_count, "cell buffer does not fit the marginal");
  std::fill(cells.begin(), cells.end(), std::uint64_t{0});
  if (light_count_ == 0) return;

  // The walk: depth-first over the axes, each axis either free (state slot
  // 0) or fixed to a state a >= 1. `rows` holds the light entries matching
  // the fixed states so far — null while none is fixed (all light entries),
  // a plane itself after the first, an AND in the scratch after that — and
  // `n` is their number. A zero count prunes the subtree: every cell below
  // it is 0. An axis below the last needs its AND for its children, so it
  // stores it; the last axis only counts.
  const simd::Level level = simd::detected();
  thread_local std::vector<std::uint64_t> scratch;
  if (k > 2 && scratch.size() < (k - 2) * words_) scratch.resize((k - 2) * words_);
  std::uint64_t* const buffers = scratch.data();
  const auto walk = [&](const auto& self, std::size_t axis,
                        const std::uint64_t* rows, std::uint64_t n,
                        std::size_t cell) -> void {
    const Axis& ax = axes[axis];
    const bool last = axis + 1 == k;
    if (last) {
      cells[cell] = n;
    } else {
      self(self, axis + 1, rows, n, cell);
    }
    for (std::uint32_t a = 1; a < ax.r; ++a) {
      const std::uint64_t* next = plane(ax.v, a);
      std::uint64_t matched = 0;
      if (rows == nullptr) {
        matched = plane_totals_[plane_index(ax.v, a)];
      } else if (last) {
        matched = simd_detail::and_popcount(rows, next, words_, level);
      } else {
        std::uint64_t* const dst = buffers + (axis - 1) * words_;
        matched = simd_detail::and_into_popcount(dst, rows, next, words_, level);
        next = dst;
      }
      if (matched == 0) continue;
      if (last) {
        cells[cell + a * ax.stride] = matched;
      } else {
        self(self, axis + 1, next, matched, cell + a * ax.stride);
      }
    }
  };
  walk(walk, 0, nullptr, light_count_, 0);

  // Möbius inversion, one axis at a time: a state-0 slot holds the count
  // with its variable free, so subtracting the slots of states >= 1 along
  // that axis leaves the count of state 0. The pair form is MI pass 2's
  // N(a, 0) = L_i(a) − Σ_b N(a, b).
  for (const Axis& ax : axes) {
    const std::size_t block = ax.stride * ax.r;
    for (std::size_t base = 0; base < cell_count; base += block) {
      for (std::size_t c = base; c < base + ax.stride; ++c) {
        std::uint64_t fixed = 0;
        for (std::uint32_t a = 1; a < ax.r; ++a) fixed += cells[c + a * ax.stride];
        cells[c] -= fixed;
      }
    }
  }
}

template <typename K>
typename BasicEntryPlanes<K>::Cost BasicEntryPlanes<K>::cost(
    std::span<const std::size_t> variables) const {
  // The lattice visits the partial assignments whose fixed states all have
  // light entries: Π(1 + live_v) of them, where live_v counts the states
  // a >= 1 of v with a nonzero plane total. The empty one and the
  // single-state ones read a total instead of ANDing; deeper pruning at
  // zero only lowers the count.
  double nodes = 1.0;
  double single = 0.0;
  double bits = 0.0;
  for (const std::size_t v : variables) {
    double live = 0.0;
    for (std::uint32_t a = 1; a < codec_.cardinality(v); ++a) {
      const std::uint64_t total = plane_totals_[plane_index(v, a)];
      live += total != 0 ? 1.0 : 0.0;
      bits += static_cast<double>(total);
    }
    nodes *= 1.0 + live;
    single += live;
  }
  const double heavy = static_cast<double>(heavy_.size()) *
                       static_cast<double>(variables.size()) * kHeavyLegNs;
  const double word_ns = kLatticeWordNs[static_cast<int>(simd::detected())];
  const double lattice =
      (nodes - 1.0 - single) * static_cast<double>(words_) * word_ns + heavy;
  const double scatter = static_cast<double>(light_count_) * kScatterEntryNs +
                         bits * kScatterBitNs + heavy;
  return lattice <= scatter ? Cost{lattice, true} : Cost{scatter, false};
}

template <typename K>
MarginalTable BasicEntryPlanes<K>::marginalize(
    std::span<const std::size_t> variables) const {
  return cost(variables).lattice ? marginalize_lattice(variables)
                                 : marginalize_scatter(variables);
}

template <typename K>
MarginalTable BasicEntryPlanes<K>::marginalize_lattice(
    std::span<const std::size_t> variables) const {
  const BasicKeyProjector<K> projector(codec_, variables);
  std::vector<std::uint64_t> cells(projector.range_size());
  count_light_cells(variables, cells);
  MarginalTable out(projector.variables(), projector.cardinalities(),
                    std::move(cells));
  add_heavy(projector, out);
  return out;
}

template <typename K>
MarginalTable BasicEntryPlanes<K>::marginalize_scatter(
    std::span<const std::size_t> variables) const {
  const BasicKeyProjector<K> projector(codec_, variables);
  MarginalTable out(projector.variables(), projector.cardinalities());

  // One leg per (variable, state a >= 1): its plane and the cell offset a
  // light entry in that state contributes, a · stride in the projector's
  // layout (first variable fastest).
  struct Leg {
    const std::uint64_t* plane;
    std::size_t step;
  };
  std::vector<Leg> legs;
  std::size_t stride = 1;
  for (std::size_t k = 0; k < variables.size(); ++k) {
    const std::uint32_t r = projector.cardinalities()[k];
    for (std::uint32_t a = 1; a < r; ++a) {
      legs.push_back(Leg{plane(variables[k], a), a * stride});
    }
    stride *= r;
  }

  std::size_t cell[kWordEntries];
  for (std::size_t w = 0; w < words_; ++w) {
    const std::size_t valid = valid_[w];
    if (valid == 0) continue;
    std::fill_n(cell, kWordEntries, std::size_t{0});
    for (const Leg& leg : legs) {
      for (std::uint64_t bits = leg.plane[w]; bits != 0; bits &= bits - 1) {
        cell[std::countr_zero(bits)] += leg.step;
      }
    }
    // Lanes past `valid` hold no entry; their cell 0 must not be counted.
    for (std::size_t e = 0; e < valid; ++e) out.add(cell[e], 1);
  }
  add_heavy(projector, out);
  return out;
}

template <typename K>
void BasicEntryPlanes<K>::add_heavy(const BasicKeyProjector<K>& projector,
                                    MarginalTable& out) const {
  for (const HeavyEntry& entry : heavy_) {
    out.add(projector.project(entry.key), entry.count);
  }
}

template class BasicEntryPlanes<Key>;
template class BasicEntryPlanes<WideKey>;

}  // namespace wfbn
