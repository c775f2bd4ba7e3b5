#include "data/generators.hpp"

#include <algorithm>
#include <utility>

#include "concurrent/thread_pool.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wfbn {

Dataset generate_uniform(std::size_t samples,
                         std::vector<std::uint32_t> cardinalities,
                         std::uint64_t seed, std::size_t threads) {
  WFBN_EXPECT(threads >= 1, "need at least one generator thread");
  Dataset data(samples, std::move(cardinalities));
  const std::size_t n = data.variable_count();
  const auto& cards = data.cardinalities();

  auto fill_block = [&](std::size_t block, std::size_t lo, std::size_t hi) {
    Xoshiro256 rng = Xoshiro256(seed).split(static_cast<unsigned>(block));
    for (std::size_t i = lo; i < hi; ++i) {
      auto row = data.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = static_cast<State>(rng.bounded(cards[j]));
      }
    }
  };

  if (threads == 1) {
    fill_block(0, 0, samples);
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(0, samples, fill_block);
  }
  return data;
}

Dataset generate_uniform(std::size_t samples, std::size_t n, std::uint32_t r,
                         std::uint64_t seed, std::size_t threads) {
  return generate_uniform(samples, std::vector<std::uint32_t>(n, r), seed,
                          threads);
}

Dataset generate_chain_correlated(std::size_t samples, std::size_t n,
                                  std::uint32_t r, double copy_prob,
                                  std::uint64_t seed) {
  WFBN_EXPECT(n >= 1, "need at least one variable");
  WFBN_EXPECT(copy_prob >= 0.0 && copy_prob <= 1.0, "copy_prob in [0,1]");
  Dataset data(samples, std::vector<std::uint32_t>(n, r));
  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < samples; ++i) {
    auto row = data.row(i);
    row[0] = static_cast<State>(rng.bounded(r));
    for (std::size_t j = 1; j < n; ++j) {
      row[j] = rng.uniform01() < copy_prob
                   ? row[j - 1]
                   : static_cast<State>(rng.bounded(r));
    }
  }
  return data;
}

Dataset generate_skewed(std::size_t samples, std::size_t n, std::uint32_t r,
                        double hot_fraction, double hot_mass,
                        std::uint64_t seed) {
  WFBN_EXPECT(hot_fraction > 0.0 && hot_fraction <= 1.0, "hot_fraction in (0,1]");
  WFBN_EXPECT(hot_mass >= 0.0 && hot_mass <= 1.0, "hot_mass in [0,1]");
  Dataset data(samples, std::vector<std::uint32_t>(n, r));
  const KeyCodec codec = data.codec();

  // The hot set is a contiguous prefix of the key space, capped so it can be
  // enumerated; contiguity is deliberate — contiguous-range ownership would
  // put every hot key in one partition, which is why key % P is the
  // ownership rule (results/knob_prune.txt, "Partition function").
  const std::uint64_t space =
      std::min<std::uint64_t>(codec.state_space_size(), 1ULL << 40);
  const std::uint64_t hot_keys = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(hot_fraction * static_cast<double>(space)));

  Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < samples; ++i) {
    auto row = data.row(i);
    if (rng.uniform01() < hot_mass) {
      const Key key = rng.bounded(hot_keys);
      codec.decode_all(key, row);
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = static_cast<State>(rng.bounded(r));
      }
    }
  }
  return data;
}

}  // namespace wfbn
