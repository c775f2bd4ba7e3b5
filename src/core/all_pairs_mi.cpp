#include "core/all_pairs_mi.hpp"

#include <algorithm>
#include <cmath>

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
  Timer timer;
  MiMatrix out = options_.strategy == AllPairsStrategy::kFused
                     ? compute_fused(Planes(table, pool), pool)
                     : compute_pair_parallel(table, pool);
  stats_.total_seconds = timer.seconds();
  return out;
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute(const Planes& planes, ThreadPool& pool) {
  WFBN_EXPECT(options_.strategy == AllPairsStrategy::kFused,
              "counting from planes is the fused strategy");
  Timer timer;
  MiMatrix out = compute_fused(planes, pool);
  stats_.total_seconds = timer.seconds();
  return out;
}

template <typename K>
void BasicAllPairsMi<K>::reset_stats(std::size_t n, std::size_t workers) {
  WFBN_EXPECT(n >= 2, "all-pairs MI needs at least two variables");
  stats_ = AllPairsStats{};
  stats_.pair_count = n * (n - 1) / 2;
  stats_.worker_seconds.assign(workers, 0.0);
  stats_.worker_entries_visited.assign(workers, 0);
}

template <typename K>
MiMatrix BasicAllPairsMi<K>::compute_pair_parallel(const Table& table,
                                                   ThreadPool& pool) {
  const Codec& codec = table.codec();
  const std::size_t n = codec.variable_count();
  reset_stats(n, pool.size());
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
      // Decode-of-interest recipes (Eq. 4) from the codec: the sweep never
      // decodes more than the two variables of the pair.
      const typename Codec::VarLeg leg_i = codec.leg_of(i);
      const typename Codec::VarLeg leg_j = codec.leg_of(j);
      std::vector<std::uint64_t> counts(static_cast<std::size_t>(r_i) * r_j, 0);
      table.partitions().for_each([&](K key, std::uint64_t c) {
        const auto a = static_cast<std::size_t>(Codec::decode_leg(leg_i, key));
        const auto b = static_cast<std::size_t>(Codec::decode_leg(leg_j, key));
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
MiMatrix BasicAllPairsMi<K>::compute_fused(const Planes& planes,
                                           ThreadPool& pool) {
  const Codec& codec = planes.codec();
  const std::size_t n = codec.variable_count();
  const std::size_t workers = pool.size();
  reset_stats(n, std::max(workers, planes.worker_seconds().size()));
  // Pass 1 is the plane build; its busy time and sweep are this run's too.
  std::copy(planes.worker_seconds().begin(), planes.worker_seconds().end(),
            stats_.worker_seconds.begin());
  std::copy(planes.worker_entries().begin(), planes.worker_entries().end(),
            stats_.worker_entries_visited.begin());
  const auto pairs = enumerate_pairs(n);

  // Pass 2, heavy entries: the per-entry update of every pair table, the
  // heavy list block-distributed over the workers. Each worker's pair tables
  // lie back to back in one private flat buffer.
  std::vector<std::size_t> offsets(pairs.size() + 1, 0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [i, j] = pairs[k];
    offsets[k + 1] = offsets[k] + static_cast<std::size_t>(codec.cardinality(i)) *
                                      codec.cardinality(j);
  }
  const auto heavy_entries = planes.heavy();
  std::vector<std::vector<std::uint64_t>> heavy(workers);
  if (!heavy_entries.empty()) {
    constexpr std::size_t kTile = Codec::kTileKeys;
    pool.run([&](std::size_t w) {
      Timer timer;
      const auto [lo, hi] =
          ThreadPool::block_range(heavy_entries.size(), workers, w);
      if (lo == hi) return;
      std::vector<std::uint64_t>& counts = heavy[w];
      counts.assign(offsets.back(), 0);
      // Up to 64 heavy keys decoded at once: lanes[v * 64 + e] = x_v.
      K tile[kTile];
      std::vector<State> lanes(n * kTile);
      for (std::size_t base = lo; base < hi; base += kTile) {
        const std::size_t fill = std::min(kTile, hi - base);
        for (std::size_t e = 0; e < fill; ++e) tile[e] = heavy_entries[base + e].key;
        codec.decode_tile(std::span<const K>(tile, fill), lanes.data());
        for (std::size_t e = 0; e < fill; ++e) {
          const std::uint64_t c = heavy_entries[base + e].count;
          for (std::size_t k = 0; k < pairs.size(); ++k) {
            const auto [i, j] = pairs[k];
            counts[offsets[k] + lanes[i * kTile + e] +
                   static_cast<std::size_t>(codec.cardinality(i)) *
                       lanes[j * kTile + e]] += c;
          }
        }
      }
      stats_.worker_seconds[w] += timer.seconds();
    });
  }

  // Pass 2, pair cells: the AND-popcount lattice of the pair
  // (BasicEntryPlanes::count_light_cells). Cell (a >= 1, b >= 1) is an
  // AND-popcount of two planes; row and column 0 follow from the plane
  // totals and the light count; then the heavy tables are added. Every count
  // is an exact integer, so the MI equals the per-pair sweep's bit for bit.
  MiMatrix out(n);
  pool.parallel_for(0, pairs.size(), [&](std::size_t w, std::size_t lo,
                                         std::size_t hi) {
    Timer timer;
    std::vector<std::uint64_t> cells;
    for (std::size_t k = lo; k < hi; ++k) {
      const auto [i, j] = pairs[k];
      const std::uint32_t r_i = codec.cardinality(i);
      const std::uint32_t r_j = codec.cardinality(j);
      cells.resize(static_cast<std::size_t>(r_i) * r_j);
      const std::size_t pair_vars[] = {i, j};
      planes.count_light_cells(pair_vars, cells);
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
