// The benchmark's independent oracle: every check counts straight from the
// raw rows of the datasets. Nothing here goes through PotentialTable, the
// key codec, or the marginalizer, so a bug shared by the library's paths
// cannot hide in the comparison. All of it runs outside the timed regions.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/all_pairs_mi.hpp"
#include "data/dataset.hpp"
#include "serve/serve_engine.hpp"

namespace wfbn::bench::oracle {

/// Answers must agree with brute-force counting to this absolute tolerance
/// (only floating-point summation order may differ).
inline constexpr double kTolerance = 1e-9;

/// I(X;Y) in nats from a joint count table laid out x-fastest.
inline double mutual_information(std::span<const std::uint64_t> joint,
                                 std::uint32_t rx, std::uint32_t ry) {
  std::vector<double> px(rx, 0.0);
  std::vector<double> py(ry, 0.0);
  double total = 0.0;
  for (std::uint32_t b = 0; b < ry; ++b) {
    for (std::uint32_t a = 0; a < rx; ++a) {
      const auto c = static_cast<double>(joint[a + static_cast<std::size_t>(b) * rx]);
      px[a] += c;
      py[b] += c;
      total += c;
    }
  }
  double mi = 0.0;
  for (std::uint32_t b = 0; b < ry; ++b) {
    for (std::uint32_t a = 0; a < rx; ++a) {
      const auto c = static_cast<double>(joint[a + static_cast<std::size_t>(b) * rx]);
      if (c > 0.0) mi += c / total * std::log(c * total / (px[a] * py[b]));
    }
  }
  return std::max(0.0, mi);
}

/// Largest |library − brute force| over the MI matrix of `data`. One pass
/// over the rows per thread counts every pair's joint table.
inline double max_mi_error(const Dataset& data, const MiMatrix& got,
                           std::size_t threads) {
  const std::size_t n = data.variable_count();
  const std::vector<std::uint32_t>& card = data.cardinalities();
  std::vector<std::size_t> offset;  // pair (i<j) → start of its count block
  std::size_t cells = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      offset.push_back(cells);
      cells += static_cast<std::size_t>(card[i]) * card[j];
    }
  }
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::vector<std::uint64_t>> partial(
      threads, std::vector<std::uint64_t>(cells, 0));
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::vector<std::uint64_t>& counts = partial[t];
        const std::size_t m = data.sample_count();
        for (std::size_t r = m * t / threads; r < m * (t + 1) / threads; ++r) {
          const std::span<const State> row = data.row(r);
          std::size_t pair = 0;
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j, ++pair) {
              ++counts[offset[pair] + row[i] + static_cast<std::size_t>(row[j]) * card[i]];
            }
          }
        }
      });
    }
  }
  for (std::size_t t = 1; t < threads; ++t) {
    for (std::size_t c = 0; c < cells; ++c) partial[0][c] += partial[t][c];
  }
  double worst = 0.0;
  std::size_t pair = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++pair) {
      const std::span<const std::uint64_t> joint(
          partial[0].data() + offset[pair], static_cast<std::size_t>(card[i]) * card[j]);
      const double want = mutual_information(joint, card[i], card[j]);
      worst = std::max(worst, std::fabs(got.at(i, j) - want));
    }
  }
  return worst;
}

/// The answer a ServeEngine must give for `query` over the rows of `parts`
/// (a served version: the base rows plus the batches ingested before it).
/// Throws nothing; an evidence set without support yields an empty vector.
inline std::vector<double> answer(const serve::ServeQuery& query,
                                  std::span<const Dataset* const> parts) {
  const std::vector<std::uint32_t>& card = parts.front()->cardinalities();
  std::size_t cells = 1;
  for (const std::size_t v : query.variables) cells *= card[v];
  std::vector<std::uint64_t> counts(cells, 0);
  std::uint64_t matching = 0;
  for (const Dataset* part : parts) {
    for (std::size_t r = 0; r < part->sample_count(); ++r) {
      const std::span<const State> row = part->row(r);
      bool match = true;
      for (const Evidence& e : query.evidence) match = match && row[e.variable] == e.state;
      if (!match) continue;
      std::size_t cell = 0;
      std::size_t stride = 1;
      for (const std::size_t v : query.variables) {  // first variable fastest
        cell += row[v] * stride;
        stride *= card[v];
      }
      ++counts[cell];
      ++matching;
    }
  }
  if (query.kind == serve::QueryKind::kPairMi) {
    return {mutual_information(counts, card[query.variables[0]],
                               card[query.variables[1]])};
  }
  if (matching == 0) return {};
  std::vector<double> out(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    out[c] = static_cast<double>(counts[c]) / static_cast<double>(matching);
  }
  return out;
}

inline bool agrees(std::span<const double> got, std::span<const double> want) {
  if (got.size() != want.size() || want.empty()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <= kTolerance)) return false;
  }
  return true;
}

}  // namespace wfbn::bench::oracle
