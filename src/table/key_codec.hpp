// Mixed-radix encoding between state strings and integer keys (paper §IV-A,
// Eq. 3/4), written once over the key's word count.
//
// A state string (s_1, ..., s_n) with per-variable cardinalities r_j maps to
//   key = sum_j s_j * stride_j,   stride_1 = 1, stride_{j+1} = stride_j * r_j
// which generalizes the paper's uniform-r formula key = sum_j s_j * r^(j-1).
// Decoding a single variable is  s_j = (key / stride_j) % r_j  (Eq. 4) — the
// property the marginalization primitive exploits: recovering only the
// variables of interest costs O(|V|), not O(n).
//
// A key holds KeyTraits<K>::kWords words of at most 2^63 joint states each
// (one for Key, two for WideKey). Variables are packed first-fit in index
// order: variable j goes to the first word whose joint state count still
// fits r_j more, and its stride counts within that word. Each variable lives
// entirely in one word, so single-variable decoding stays O(1). The word
// count is a compile-time constant. With one word every variable's word is
// the constant 0, so encode, decode and project select no word; with two,
// encode and decode_all walk runs of consecutive variables packed into one
// word, and decode and project read the word from their VarLeg. encode and
// encode_block run one kernel, a row or a strip at a time. decode_tile, the
// entry planes' full decode, peels each word's digits off 64 keys at once in
// stride order, in 64-bit lanes and then, once the word's remaining range
// fits 32 bits, in 32-bit lanes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "table/divisor.hpp"
#include "table/key_traits.hpp"

namespace wfbn {

template <typename K>
class BasicKeyCodec {
 public:
  using Traits = KeyTraits<K>;
  static constexpr std::size_t kWords = Traits::kWords;

  /// Builds a codec for variables with the given cardinalities (each >= 1).
  /// Throws DataError if the joint state space exceeds 2^63 per word (keys
  /// must stay clear of the hashtables' reserved all-ones sentinel).
  explicit BasicKeyCodec(std::vector<std::uint32_t> cardinalities);

  /// Codec for n variables of uniform cardinality r — the paper's setting.
  static BasicKeyCodec uniform(std::size_t n, std::uint32_t r);

  [[nodiscard]] std::size_t variable_count() const noexcept {
    return cardinalities_.size();
  }
  [[nodiscard]] std::uint32_t cardinality(std::size_t j) const {
    return cardinalities_[j];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

  /// Which word variable j is packed into (0 = lo; a scan of the word runs
  /// at two words), and its stride within that word.
  [[nodiscard]] unsigned word_of(std::size_t j) const noexcept {
    if constexpr (kWords > 1) {
      for (const WordRun& run : runs_) {
        if (j < run.last) return run.word;
      }
    }
    return 0;
  }
  [[nodiscard]] std::uint64_t stride(std::size_t j) const { return strides_[j]; }

  /// Joint state count packed into word w (1 when the word is unused). Every
  /// valid key has word w below word_extent(w).
  [[nodiscard]] std::uint64_t word_extent(std::size_t w) const noexcept {
    return extents_[w];
  }

  /// Size of the joint state space, prod_j r_j (the paper's r^n).
  [[nodiscard]] std::uint64_t state_space_size() const noexcept
    requires(kWords == 1)
  {
    return extents_[0];
  }

  /// The joint state space size, saturated to uint64 (a wide space can
  /// exceed 2^64; consumers only use it via min(m, bound), where m always
  /// wins in the saturated case).
  [[nodiscard]] std::uint64_t state_space_bound() const noexcept;

  /// Whether `key` lies in the joint state space (every word below its
  /// extent) — PotentialTable::validate() and the segment reader.
  [[nodiscard]] bool key_in_range(K key) const noexcept {
    for (std::size_t w = 0; w < kWords; ++w) {
      if (Traits::word(key, w) >= extents_[w]) return false;
    }
    return true;
  }

  /// Eq. 3: encodes a full state string. Precondition, unchecked:
  /// states.size() == variable_count() and states[j] < r_j (encode_checked
  /// validates both).
  [[nodiscard]] K encode(std::span<const State> states) const noexcept;

  /// Eq. 3 with validation — throws DataError on out-of-range states. Used on
  /// untrusted input paths (CSV ingestion).
  [[nodiscard]] K encode_checked(std::span<const State> states) const;

  /// Eq. 3 over a contiguous row-major strip of `row_count` state strings
  /// (row_count * variable_count() states at `rows`), writing one key per
  /// row into `out`: the stage-1 encode of the wait-free builder. The rows
  /// run back to back through the same kernel as encode(), word run by word
  /// run, so the mixed-radix multiply-add chains of neighboring rows
  /// pipeline instead of alternating with hashtable and queue traffic. Same
  /// unchecked precondition per row as encode().
  void encode_block(const State* rows, std::size_t row_count,
                    K* out) const noexcept;

  /// Decode-of-interest recipe for one variable (Eq. 4): its word and both
  /// divisors, precomputed so a decode is multiply-shift work, never a `div`.
  struct VarLeg {
    Divisor stride;
    Divisor cardinality;
    unsigned word = 0;
  };
  [[nodiscard]] VarLeg leg_of(std::size_t j) const {
    return VarLeg{Divisor(strides_[j]), Divisor(cardinalities_[j]), word_of(j)};
  }
  [[nodiscard]] static std::uint64_t decode_leg(const VarLeg& leg,
                                                K key) noexcept {
    return leg.cardinality.modulo(leg.stride.divide(Traits::word(key, leg.word)));
  }

  /// Eq. 4: decodes variable j from a key.
  [[nodiscard]] State decode(K key, std::size_t j) const noexcept {
    return static_cast<State>(
        (Traits::word(key, word_of(j)) / strides_[j]) % cardinalities_[j]);
  }

  /// Decodes the full state string into `out` (out.size() == variable_count()).
  void decode_all(K key, std::span<State> out) const noexcept;

  /// Keys per decode_tile() call: one entry-plane word's worth.
  static constexpr std::size_t kTileKeys = 64;

  /// Eq. 4 for every variable of up to kTileKeys keys at once: writes
  /// decode(keys[e], j) to states[j * kTileKeys + e] for e < keys.size()
  /// (`states` holds variable_count() * kTileKeys bytes; lanes at or past
  /// keys.size() keep what they held). Digit-serial: each key word's digits
  /// are peeled off all the keys together, in stride order, by successive
  /// division — a shift and mask for a power-of-two r_j, one reciprocal
  /// multiply otherwise — so each step is one independent operation per key.
  void decode_tile(std::span<const K> keys, State* states) const noexcept;

  [[nodiscard]] bool operator==(const BasicKeyCodec& other) const noexcept {
    return cardinalities_ == other.cardinalities_;
  }

 private:
  /// Variables [first, last), all packed into `word`: first-fit packing in
  /// index order splits the variables into such runs — one at one word, two
  /// at wide width unless a later, smaller cardinality back-fills lo.
  struct WordRun {
    std::size_t first;
    std::size_t last;
    unsigned word;
  };

  /// One digit of decode_tile(): the variable it writes and its radix r_j.
  struct Digit {
    std::size_t variable;
    Divisor radix;
  };

  std::vector<std::uint32_t> cardinalities_;
  std::vector<std::uint64_t> strides_;  // stride within the variable's word
  std::vector<WordRun> runs_;           // the maximal runs, in index order
  std::array<std::uint64_t, kWords> extents_;  // joint state count per word
  std::vector<Digit> digits_;  // word by word, each word's in stride order
  // Word w's digits are [word_digits_[w], word_digits_[w + 1]); those from
  // narrow_from_[w] on are peeled in 32-bit lanes.
  std::array<std::size_t, kWords + 1> word_digits_;
  std::array<std::size_t, kWords> narrow_from_;
};

/// Precomputed projection of full keys onto the sub-key of a variable subset
/// — the inner loop of the marginalization primitive. For subset V with
/// variables v_1 < ... < v_k (any order is accepted; order defines the
/// marginal table's layout):
///   project(key) = sum_i decode(key, v_i) * out_stride_i
/// Each leg is the codec's VarLeg, so projecting a key divides nowhere.
template <typename K>
class BasicKeyProjector {
 public:
  using Codec = BasicKeyCodec<K>;

  /// Throws PreconditionError on duplicate or out-of-range variables, and
  /// when the subset's joint state space exceeds 2^30 (the dense
  /// MarginalTable bound).
  BasicKeyProjector(const Codec& codec, std::span<const std::size_t> variables);

  /// Index into the marginal table for this key. O(|V|).
  [[nodiscard]] std::uint64_t project(K key) const noexcept {
    std::uint64_t out = 0;
    for (const Leg& leg : legs_) {
      out += Codec::decode_leg(leg.var, key) * leg.out_stride;
    }
    return out;
  }

  /// Joint state-space size of the subset (marginal table length).
  [[nodiscard]] std::uint64_t range_size() const noexcept { return range_; }

  [[nodiscard]] const std::vector<std::size_t>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }

 private:
  struct Leg {
    typename Codec::VarLeg var;
    std::uint64_t out_stride;
  };
  std::vector<Leg> legs_;
  std::vector<std::size_t> variables_;
  std::vector<std::uint32_t> cardinalities_;
  std::uint64_t range_ = 1;
};

extern template class BasicKeyCodec<Key>;
extern template class BasicKeyCodec<WideKey>;
extern template class BasicKeyProjector<Key>;
extern template class BasicKeyProjector<WideKey>;

using KeyCodec = BasicKeyCodec<Key>;
using WideKeyCodec = BasicKeyCodec<WideKey>;
using KeyProjector = BasicKeyProjector<Key>;
using WideKeyProjector = BasicKeyProjector<WideKey>;

}  // namespace wfbn
