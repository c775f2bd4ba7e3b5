#include "core/all_pairs_mi.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "table/simd_kernels.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn {

std::vector<MiMatrix::ScoredPair> MiMatrix::pairs_above(double threshold) const {
  std::vector<ScoredPair> out;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      const double mi = at(i, j);
      if (mi > threshold) out.push_back(ScoredPair{i, j, mi});
    }
  }
  std::sort(out.begin(), out.end(), [](const ScoredPair& a, const ScoredPair& b) {
    if (a.mi != b.mi) return a.mi > b.mi;
    return std::tie(a.i, a.j) < std::tie(b.i, b.j);
  });
  return out;
}

namespace {

/// Light entries per transpose tile: one tile fills one word of every plane.
constexpr std::size_t kTileKeys = 64;

/// Unordered pairs (i, j), i < j, in a flat deterministic order.
std::vector<std::pair<std::size_t, std::size_t>> enumerate_pairs(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

/// MI from a dense pair count table laid out as cell = s_i + r_i * s_j.
double mi_from_pair_counts(const std::uint64_t* counts, std::uint32_t r_i,
                           std::uint32_t r_j) {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(r_i) * r_j; ++c) {
    total += counts[c];
  }
  if (total == 0) return 0.0;
  const double m = static_cast<double>(total);

  // Derive the single-variable marginals from the pair table (paper §IV-C).
  std::vector<std::uint64_t> row(r_i, 0);
  std::vector<std::uint64_t> col(r_j, 0);
  for (std::uint32_t b = 0; b < r_j; ++b) {
    for (std::uint32_t a = 0; a < r_i; ++a) {
      const std::uint64_t c = counts[a + static_cast<std::size_t>(r_i) * b];
      row[a] += c;
      col[b] += c;
    }
  }
  double mi = 0.0;
  for (std::uint32_t b = 0; b < r_j; ++b) {
    if (col[b] == 0) continue;
    for (std::uint32_t a = 0; a < r_i; ++a) {
      const std::uint64_t c = counts[a + static_cast<std::size_t>(r_i) * b];
      if (c == 0 || row[a] == 0) continue;
      const double p_ab = static_cast<double>(c) / m;
      const double p_a = static_cast<double>(row[a]) / m;
      const double p_b = static_cast<double>(col[b]) / m;
      mi += p_ab * std::log(p_ab / (p_a * p_b));
    }
  }
  return std::max(0.0, mi);
}

}  // namespace

template <typename K>
BasicAllPairsMi<K>::BasicAllPairsMi(AllPairsOptions options)
    : options_(options) {
  WFBN_EXPECT(options_.threads >= 1, "need at least one thread");
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute(const Table& table) {
  ThreadPool pool(options_.threads);
  return compute(table, pool);
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute(const Table& table, ThreadPool& pool) {
  const std::size_t n = table.codec().variable_count();
  WFBN_EXPECT(n >= 2, "all-pairs MI needs at least two variables");
  stats_ = AllPairsStats{};
  stats_.pair_count = n * (n - 1) / 2;
  stats_.worker_seconds.assign(pool.size(), 0.0);
  stats_.worker_entries_visited.assign(pool.size(), 0);

  Timer timer;
  MiMatrix out(n);
  switch (options_.strategy) {
    case AllPairsStrategy::kPairParallel:
      out = compute_pair_parallel(table, pool);
      break;
    case AllPairsStrategy::kFused:
      out = compute_fused(table, pool);
      break;
  }
  stats_.total_seconds = timer.seconds();
  return out;
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute_pair_parallel(const Table& table,
                                                   ThreadPool& pool) {
  const typename Traits::Codec& codec = table.codec();
  const std::size_t n = codec.variable_count();
  const auto pairs = enumerate_pairs(n);
  MiMatrix out(n);

  pool.parallel_for(0, pairs.size(), [&](std::size_t w, std::size_t lo,
                                         std::size_t hi) {
    Timer timer;
    std::uint64_t visited = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      WFBN_FAULT_POINT(fault::Point::kMiSweep);
      const auto [i, j] = pairs[k];
      const std::uint32_t r_i = codec.cardinality(i);
      const std::uint32_t r_j = codec.cardinality(j);
      // Decode-of-interest recipes (Eq. 4) from the trait: the sweep never
      // decodes more than the two variables of the pair.
      const typename Traits::VarLeg leg_i = Traits::leg_of(codec, i);
      const typename Traits::VarLeg leg_j = Traits::leg_of(codec, j);
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(r_i) * r_j, 0);
      table.partitions().for_each([&](K key, std::uint64_t c) {
        const auto a = static_cast<std::size_t>(Traits::decode_leg(leg_i, key));
        const auto b = static_cast<std::size_t>(Traits::decode_leg(leg_j, key));
        counts[a + static_cast<std::size_t>(r_i) * b] += c;
        ++visited;
      });
      out.set(i, j, mi_from_pair_counts(counts.data(), r_i, r_j));
    }
    stats_.worker_seconds[w] = timer.seconds();
    stats_.worker_entries_visited[w] = visited;
  });
  return out;
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute_fused(const Table& table,
                                           ThreadPool& pool) {
  const typename Traits::Codec& codec = table.codec();
  const auto& partitions = table.partitions();
  const std::size_t n = codec.variable_count();
  const auto pairs = enumerate_pairs(n);
  const std::size_t parts = partitions.partition_count();
  const std::size_t workers = pool.size();
  const simd::Level level = simd::detected();

  // Heavy entries' pair tables, back to back in one flat per-worker buffer
  // (allocated on a worker's first heavy entry).
  std::vector<std::size_t> offsets(pairs.size() + 1, 0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [i, j] = pairs[k];
    offsets[k + 1] = offsets[k] + static_cast<std::size_t>(codec.cardinality(i)) *
                                      codec.cardinality(j);
  }
  std::vector<std::vector<std::uint64_t>> heavy(workers);

  // One bit plane per (variable v, state a >= 1): bit e of plane (v, a) is
  // set when light entry e has x_v = a. Planes are stored back to back,
  // `words` words each; worker w owns words [word_lo[w], word_lo[w + 1]) of
  // every plane — sized from its partitions' populations and 64-bit aligned,
  // so no two workers ever write the same word.
  std::vector<std::size_t> plane_of(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    plane_of[v + 1] = plane_of[v] + codec.cardinality(v) - 1;
  }
  const std::size_t planes = plane_of[n];
  const auto plane = [&](std::size_t v, std::uint32_t a) {
    return plane_of[v] + a - 1;  // plane index of (variable v, state a >= 1)
  };
  std::vector<std::size_t> word_lo(workers + 1, 0);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto [lo, hi] = ThreadPool::block_range(parts, workers, w);
    std::size_t entries = 0;
    for (std::size_t p = lo; p < hi; ++p) entries += partitions.partition(p).size();
    word_lo[w + 1] = word_lo[w] + (entries + kTileKeys - 1) / kTileKeys;
  }
  const std::size_t words = word_lo[workers];
  std::vector<std::uint64_t> bits(planes * words, 0);
  // Per-worker light marginals: entry [plane] = light entries with x_v = a;
  // the final slot counts all light entries (the light total).
  std::vector<std::vector<std::uint64_t>> light(
      workers, std::vector<std::uint64_t>(planes + 1, 0));

  // Decode-of-interest recipes (Eq. 4) for every variable, hoisted out of
  // the sweep. decode_leg extracts each variable independently of the others
  // with precomputed reciprocals, so the extractions pipeline instead of
  // forming decode_all's chain of dependent divisions.
  std::vector<typename Traits::VarLeg> legs;
  legs.reserve(n);
  for (std::size_t v = 0; v < n; ++v) legs.push_back(Traits::leg_of(codec, v));

  // Pass 1 — transpose. Light entries (count 1) gather into 64-key tiles
  // that become one word per plane; heavy entries (count > 1) take the
  // per-entry pair update into the worker's private pair tables.
  pool.run([&](std::size_t w) {
    Timer timer;
    std::uint64_t visited = 0;
    std::uint64_t* plane_totals = light[w].data();
    std::size_t word = word_lo[w];
    K tile[kTileKeys];
    std::size_t fill = 0;
    State lane[kTileKeys];
    std::vector<State> states(n);

    const auto flush_tile = [&] {
      for (std::size_t v = 0; v < n; ++v) {
        const typename Traits::VarLeg& leg = legs[v];
        for (std::size_t e = 0; e < fill; ++e) {
          lane[e] = static_cast<State>(Traits::decode_leg(leg, tile[e]));
        }
        const std::uint32_t r = codec.cardinality(v);
        for (std::uint32_t a = 1; a < r; ++a) {
          std::uint64_t plane_word = 0;
          for (std::size_t e = 0; e < fill; ++e) {
            plane_word |= static_cast<std::uint64_t>(lane[e] == a) << e;
          }
          bits[plane(v, a) * words + word] = plane_word;
          plane_totals[plane(v, a)] +=
              static_cast<std::uint64_t>(std::popcount(plane_word));
        }
      }
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
          if (fill == kTileKeys) flush_tile();
          return;
        }
        std::vector<std::uint64_t>& counts = heavy[w];
        if (counts.empty()) counts.assign(offsets.back(), 0);
        for (std::size_t v = 0; v < n; ++v) {
          states[v] = static_cast<State>(Traits::decode_leg(legs[v], key));
        }
        for (std::size_t k = 0; k < pairs.size(); ++k) {
          const auto [i, j] = pairs[k];
          counts[offsets[k] + states[i] +
                 static_cast<std::size_t>(codec.cardinality(i)) * states[j]] += c;
        }
      });
    }
    if (fill > 0) flush_tile();
    stats_.worker_seconds[w] = timer.seconds();
    stats_.worker_entries_visited[w] = visited;
  });

  std::vector<std::uint64_t> marginals(planes + 1, 0);
  for (const std::vector<std::uint64_t>& part : light) {
    for (std::size_t c = 0; c <= planes; ++c) marginals[c] += part[c];
  }
  const std::uint64_t light_total = marginals[planes];

  // Pass 2 — pair cells. Cell (a >= 1, b >= 1) is an AND-popcount of two
  // planes; row and column 0 follow from the light marginals and the light
  // total; then the heavy tables are added. Every count is an exact
  // integer, so the MI equals the per-pair sweep's bit for bit.
  MiMatrix out(n);
  pool.parallel_for(0, pairs.size(), [&](std::size_t w, std::size_t lo,
                                         std::size_t hi) {
    Timer timer;
    std::vector<std::uint64_t> cells;
    for (std::size_t k = lo; k < hi; ++k) {
      const auto [i, j] = pairs[k];
      const std::uint32_t r_i = codec.cardinality(i);
      const std::uint32_t r_j = codec.cardinality(j);
      cells.assign(static_cast<std::size_t>(r_i) * r_j, 0);
      std::uint64_t zero_i = light_total;  // light entries with x_i = 0
      for (std::uint32_t a = 1; a < r_i; ++a) {
        zero_i -= marginals[plane(i, a)];
        cells[a] = marginals[plane(i, a)];
      }
      for (std::uint32_t b = 1; b < r_j; ++b) {
        std::uint64_t* row = cells.data() + static_cast<std::size_t>(r_i) * b;
        row[0] = marginals[plane(j, b)];
        const std::uint64_t* plane_b = bits.data() + plane(j, b) * words;
        for (std::uint32_t a = 1; a < r_i; ++a) {
          const std::uint64_t both = simd_detail::and_popcount(
              bits.data() + plane(i, a) * words, plane_b, words, level);
          row[a] = both;
          row[0] -= both;
          cells[a] -= both;
        }
        zero_i -= row[0];
      }
      cells[0] = zero_i;
      for (const std::vector<std::uint64_t>& counts : heavy) {
        if (counts.empty()) continue;
        for (std::size_t c = 0; c < cells.size(); ++c) {
          cells[c] += counts[offsets[k] + c];
        }
      }
      out.set(i, j, mi_from_pair_counts(cells.data(), r_i, r_j));
    }
    stats_.worker_seconds[w] += timer.seconds();
  });
  return out;
}

template class BasicAllPairsMi<Key>;
template class BasicAllPairsMi<WideKey>;

}  // namespace wfbn
