#include "table/key_codec.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "util/error.hpp"

namespace wfbn {

namespace {
// Each word holds at most 2^63 joint states, so that (a) the hashtables'
// all-ones empty sentinel can never collide with a real key and (b) signed
// conversions in downstream tooling stay safe.
constexpr std::uint64_t kWordLimit = 1ULL << 63;

// A marginal table is dense; MarginalTable enforces the same bound.
constexpr std::uint64_t kMaxProjectedRange = 1ULL << 30;

// GCC (12, -O3, baseline x86-64) vectorizes the chain loop below with
// SSE2, emulating each 64-bit multiply with three pmuludq. One unrolled
// scalar imul per variable is as fast at n = 11 r = 3 and faster at n = 30,
// n = 37 and wide n = 100 (results/knob_prune.txt, "Codec fold"), so the
// loop stays scalar.
#if defined(__GNUC__) && !defined(__clang__)
#define WFBN_SCALAR_LOOP __attribute__((optimize("no-tree-vectorize")))
#else
#define WFBN_SCALAR_LOOP
#endif

/// The word a codec word run adds into: its word, the constant 0 for
/// one-word keys.
template <std::size_t W, typename Run>
constexpr std::size_t bank_of(const Run& run) noexcept {
  if constexpr (W == 1) {
    return 0;
  } else {
    return run.word;
  }
}

/// The encode kernel (Eq. 3): run by run, one mixed-radix chain per row,
/// added to the run's word of the row's key. Runs outside rows, so a run's
/// bounds are read once per strip: read per row, they cost ~10% at n = 11.
template <typename K, typename Run>
WFBN_SCALAR_LOOP void encode_rows(const State* rows, std::size_t row_count,
                                  std::size_t n, const std::uint64_t* strides,
                                  std::span<const Run> runs, K* out) noexcept {
  using Traits = KeyTraits<K>;
  std::fill_n(out, row_count, K{});
  for (const Run& run : runs) {
    const std::size_t first = run.first;
    const std::size_t last = run.last;
    const std::size_t bank = bank_of<Traits::kWords>(run);
    for (std::size_t i = 0; i < row_count; ++i) {
      const State* states = rows + i * n;
      std::uint64_t words[Traits::kWords] = {};
      for (std::size_t w = 0; w < Traits::kWords; ++w) {
        words[w] = Traits::word(out[i], w);
      }
#pragma GCC unroll 16
      for (std::size_t j = first; j < last; ++j) {
        words[bank] += static_cast<std::uint64_t>(states[j]) * strides[j];
      }
      out[i] = Traits::from_words(words);
    }
  }
}

/// One step of the tile decode over `count` lanes: out[e] = x % r, then
/// x /= r, for every lane x — a shift and mask for a power-of-two r, one
/// reciprocal multiply otherwise, at the lane width (the 32-bit reciprocal
/// for 32-bit lanes). The radix is copied in, so the byte stores to `out`
/// cannot alias it.
template <typename Lane>
[[gnu::always_inline]] inline void peel_digit(const Divisor radix, Lane* rest,
                                              std::size_t count,
                                              State* out) noexcept {
  const std::uint64_t r = radix.value();
  if (std::has_single_bit(r)) {
    const auto mask = static_cast<Lane>(r - 1);
    const int shift = std::countr_zero(r);
    for (std::size_t e = 0; e < count; ++e) {
      const Lane x = rest[e];
      out[e] = static_cast<State>(x & mask);
      rest[e] = static_cast<Lane>(x >> shift);
    }
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    const Lane x = rest[e];
    Lane q = 0;
    if constexpr (sizeof(Lane) == 4) {
      q = radix.divide32(x);
    } else {
      q = radix.divide(x);
    }
    out[e] = static_cast<State>(x - q * static_cast<Lane>(r));
    rest[e] = q;
  }
}
}  // namespace

template <typename K>
BasicKeyCodec<K>::BasicKeyCodec(std::vector<std::uint32_t> cardinalities)
    : cardinalities_(std::move(cardinalities)) {
  WFBN_EXPECT(!cardinalities_.empty(), "codec needs at least one variable");
  extents_.fill(1);
  strides_.reserve(cardinalities_.size());
  for (std::size_t j = 0; j < cardinalities_.size(); ++j) {
    const std::uint32_t r = cardinalities_[j];
    if (r == 0) throw DataError("variable cardinality must be >= 1");
    // First-fit: the first word that still has room for r more states.
    std::size_t word = 0;
    while (word < kWords && extents_[word] > kWordLimit / r) ++word;
    if (word == kWords) {
      throw DataError(
          "joint state space exceeds 2^" + std::to_string(63 * kWords) +
          " — use fewer variables or smaller cardinalities (n=" +
          std::to_string(cardinalities_.size()) + ")");
    }
    if (runs_.empty() || runs_.back().word != word) {
      runs_.push_back(WordRun{j, j, static_cast<unsigned>(word)});
    }
    runs_.back().last = j + 1;
    strides_.push_back(extents_[word]);
    extents_[word] *= r;
  }
  // decode_tile's digits, word by word; within a word, index order is
  // stride order. A digit's remaining range, extent / stride, shrinks digit
  // by digit, so a word's lanes narrow to 32 bits after its last digit whose
  // range exceeds 2^32.
  word_digits_[0] = 0;
  for (std::size_t w = 0; w < kWords; ++w) {
    narrow_from_[w] = digits_.size();
    for (const WordRun& run : runs_) {
      if (run.word != w) continue;
      for (std::size_t j = run.first; j < run.last; ++j) {
        digits_.push_back(Digit{j, Divisor(cardinalities_[j])});
        if (extents_[w] / strides_[j] > (std::uint64_t{1} << 32)) {
          narrow_from_[w] = digits_.size();
        }
      }
    }
    word_digits_[w + 1] = digits_.size();
  }
}

template <typename K>
BasicKeyCodec<K> BasicKeyCodec<K>::uniform(std::size_t n, std::uint32_t r) {
  return BasicKeyCodec(std::vector<std::uint32_t>(n, r));
}

template <typename K>
std::uint64_t BasicKeyCodec<K>::state_space_bound() const noexcept {
  std::uint64_t bound = 1;
  for (const std::uint64_t extent : extents_) {
    if (bound > std::numeric_limits<std::uint64_t>::max() / extent) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    bound *= extent;
  }
  return bound;
}

template <typename K>
K BasicKeyCodec<K>::encode(std::span<const State> states) const noexcept {
  K key{};
  encode_rows(states.data(), 1, states.size(), strides_.data(),
              std::span<const WordRun>(runs_), &key);
  return key;
}

template <typename K>
void BasicKeyCodec<K>::encode_block(const State* rows, std::size_t row_count,
                                    K* out) const noexcept {
  encode_rows(rows, row_count, cardinalities_.size(), strides_.data(),
              std::span<const WordRun>(runs_), out);
}

template <typename K>
K BasicKeyCodec<K>::encode_checked(std::span<const State> states) const {
  if (states.size() != cardinalities_.size()) {
    throw DataError("state string length " + std::to_string(states.size()) +
                    " does not match variable count " +
                    std::to_string(cardinalities_.size()));
  }
  for (std::size_t j = 0; j < states.size(); ++j) {
    if (states[j] >= cardinalities_[j]) {
      throw DataError("state " + std::to_string(states[j]) + " of variable " +
                      std::to_string(j) + " exceeds cardinality " +
                      std::to_string(cardinalities_[j]));
    }
  }
  return encode(states);
}

template <typename K>
void BasicKeyCodec<K>::decode_all(K key, std::span<State> out) const noexcept {
  // Within a word the variables come in stride order, so each word peels
  // off its variables with one division chain, run after run.
  std::uint64_t rest[kWords] = {};
  for (std::size_t w = 0; w < kWords; ++w) rest[w] = Traits::word(key, w);
  for (const WordRun& run : runs_) {
    std::uint64_t& word = rest[bank_of<kWords>(run)];
    for (std::size_t j = run.first; j < run.last; ++j) {
      out[j] = static_cast<State>(word % cardinalities_[j]);
      word /= cardinalities_[j];
    }
  }
}

template <typename K>
void BasicKeyCodec<K>::decode_tile(std::span<const K> keys,
                                   State* states) const noexcept {
  const std::size_t count = keys.size();
  // The lanes of the word being peeled: 64-bit until the word's remaining
  // range fits 32 bits, 32-bit from then on. Both arrays are local and their
  // addresses never escape, so the byte stores into `states` cannot alias
  // them and every digit's loop runs over registers.
  std::uint64_t wide[kTileKeys];
  std::uint32_t narrow[kTileKeys];
  for (std::size_t w = 0; w < kWords; ++w) {
    for (std::size_t e = 0; e < count; ++e) wide[e] = Traits::word(keys[e], w);
    std::size_t d = word_digits_[w];
    for (; d < narrow_from_[w]; ++d) {
      peel_digit(digits_[d].radix, wide, count,
                 states + digits_[d].variable * kTileKeys);
    }
    for (std::size_t e = 0; e < count; ++e) {
      narrow[e] = static_cast<std::uint32_t>(wide[e]);
    }
    for (; d < word_digits_[w + 1]; ++d) {
      peel_digit(digits_[d].radix, narrow, count,
                 states + digits_[d].variable * kTileKeys);
    }
  }
}

template <typename K>
BasicKeyProjector<K>::BasicKeyProjector(const Codec& codec,
                                        std::span<const std::size_t> variables) {
  WFBN_EXPECT(!variables.empty(), "projection needs at least one variable");
  std::unordered_set<std::size_t> seen;
  legs_.reserve(variables.size());
  variables_.assign(variables.begin(), variables.end());
  cardinalities_.reserve(variables.size());
  for (const std::size_t v : variables) {
    WFBN_EXPECT(v < codec.variable_count(), "projection variable out of range");
    WFBN_EXPECT(seen.insert(v).second, "duplicate projection variable");
    legs_.push_back(Leg{codec.leg_of(v), range_});
    cardinalities_.push_back(codec.cardinality(v));
    range_ *= codec.cardinality(v);
    WFBN_EXPECT(range_ <= kMaxProjectedRange,
                "marginal table too large to be dense");
  }
}

template class BasicKeyCodec<Key>;
template class BasicKeyCodec<WideKey>;
template class BasicKeyProjector<Key>;
template class BasicKeyProjector<WideKey>;

}  // namespace wfbn
