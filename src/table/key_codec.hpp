// Mixed-radix encoding between state strings and integer keys (paper §IV-A,
// Eq. 3/4).
//
// A state string (s_1, ..., s_n) with per-variable cardinalities r_j maps to
//   key = sum_j s_j * stride_j,   stride_1 = 1, stride_{j+1} = stride_j * r_j
// which generalizes the paper's uniform-r formula key = sum_j s_j * r^(j-1).
// Decoding a single variable is  s_j = (key / stride_j) % r_j  (Eq. 4) — the
// property the marginalization primitive exploits: recovering only the
// variables of interest costs O(|V|), not O(n).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "table/divisor.hpp"
#include "util/simd.hpp"

namespace wfbn {

using State = std::uint8_t;   ///< one observed variable state, 0 .. r_j - 1
using Key = std::uint64_t;    ///< encoded state string

class KeyCodec {
 public:
  /// Builds a codec for variables with the given cardinalities (each >= 1).
  /// Throws DataError if the joint state space exceeds 2^63 (keys must stay
  /// clear of the hashtables' reserved all-ones sentinel).
  explicit KeyCodec(std::vector<std::uint32_t> cardinalities);

  /// Codec for n variables of uniform cardinality r — the paper's setting.
  static KeyCodec uniform(std::size_t n, std::uint32_t r);

  [[nodiscard]] std::size_t variable_count() const noexcept {
    return cardinalities_.size();
  }
  [[nodiscard]] std::uint32_t cardinality(std::size_t j) const {
    return cardinalities_[j];
  }
  [[nodiscard]] const std::vector<std::uint32_t>& cardinalities() const noexcept {
    return cardinalities_;
  }
  [[nodiscard]] Key stride(std::size_t j) const { return strides_[j]; }

  /// Size of the joint state space, prod_j r_j (the paper's r^n).
  [[nodiscard]] Key state_space_size() const noexcept { return total_states_; }

  /// Eq. 3: encodes a full state string. Precondition (checked in debug
  /// builds): states.size() == variable_count() and states[j] < r_j.
  [[nodiscard]] Key encode(std::span<const State> states) const noexcept;

  /// Eq. 3 with validation — throws DataError on out-of-range states. Used on
  /// untrusted input paths (CSV ingestion).
  [[nodiscard]] Key encode_checked(std::span<const State> states) const;

  /// Eq. 3 over a contiguous row-major strip of `row_count` state strings
  /// (row_count * variable_count() states at `rows`), writing one key per
  /// row into `out`. Encoding a strip back to back keeps the mixed-radix
  /// multiply-add chain pipelined instead of alternating with hashtable and
  /// queue traffic — the stage-1 fast path of the wait-free builder.
  ///
  /// `level` selects the kernel (util/simd.hpp): kScalar is the row-major
  /// reference loop; kAvx2 transposes the strip into per-variable SoA lanes
  /// and runs the mixed-radix multiply-add across 4 rows per vector (with a
  /// portable lane-structured fallback on non-x86 builds). Every level
  /// computes bit-identical keys — callers resolve the level once per build
  /// via simd::detected() and sweeps are oracle-gated against kScalar.
  void encode_block(const State* rows, std::size_t row_count, Key* out,
                    simd::Level level = simd::Level::kScalar) const noexcept;

  /// Eq. 4: decodes variable j from a key.
  [[nodiscard]] State decode(Key key, std::size_t j) const noexcept {
    return static_cast<State>((key / strides_[j]) % cardinalities_[j]);
  }

  /// Decodes the full state string into `out` (out.size() == variable_count()).
  void decode_all(Key key, std::span<State> out) const noexcept;

  [[nodiscard]] bool operator==(const KeyCodec& other) const noexcept {
    return cardinalities_ == other.cardinalities_;
  }

 private:
  std::vector<std::uint32_t> cardinalities_;
  std::vector<Key> strides_;
  Key total_states_ = 1;
};

/// Precomputed projection of full keys onto the sub-key of a variable subset
/// — the inner loop of the marginalization primitive. For subset V with
/// variables v_1 < ... < v_k (any order is accepted; order defines the
/// marginal table's layout):
///   project(key) = sum_i decode(key, v_i) * out_stride_i
/// Each leg's divisors are precomputed Divisor reciprocals, so projecting a
/// key divides nowhere.
class KeyProjector {
 public:
  /// Throws PreconditionError on duplicate or out-of-range variables.
  KeyProjector(const KeyCodec& codec, std::span<const std::size_t> variables);

  /// Index into the marginal table for this key. O(|V|).
  [[nodiscard]] std::uint64_t project(Key key) const noexcept {
    std::uint64_t out = 0;
    for (const Leg& leg : legs_) {
      out += leg.cardinality.modulo(leg.in_stride.divide(key)) * leg.out_stride;
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
    Divisor in_stride;
    Divisor cardinality;
    std::uint64_t out_stride;
  };
  std::vector<Leg> legs_;
  std::vector<std::size_t> variables_;
  std::vector<std::uint32_t> cardinalities_;
  std::uint64_t range_ = 1;
};

}  // namespace wfbn
