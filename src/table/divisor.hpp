// Division by a run-time invariant 64-bit divisor without a divide
// instruction (Granlund & Montgomery, "Division by invariant integers using
// multiplication", PLDI 1994, Fig. 4.1).
//
// Every decode-of-interest (Eq. 4, s_j = (key / stride_j) % r_j) divides by
// the same two numbers millions of times per sweep. A 64-bit `div` costs
// tens of cycles and does not pipeline; a precomputed reciprocal turns the
// quotient into one multiply-high, a subtract, an add and two shifts:
//
//   l = ceil(log2 d),  m = floor(2^64 (2^l − d) / d) + 1
//   t = mulhi(m, n),   q = (t + ((n − t) >> 1)) >> (l − 1)
//
// exact for every numerator 0 ≤ n < 2^64 and divisor 1 ≤ d < 2^64. The
// same construction at 32 bits, m32 = floor(2^32 (2^l − d) / d) + 1 with a
// 32×32 → 64-bit multiply, is exact for n < 2^32 and d < 2^32: the tile
// decode (BasicKeyCodec::decode_tile) takes it once a key word's remaining
// digits fit 32 bits, where GCC vectorizes it four lanes to an SSE2
// register against one lane per 64-bit multiply-high.
// Powers of two (including d = 1) skip the multiply: q = n >> log2 d.
#pragma once

#include <bit>
#include <cstdint>

#include "util/error.hpp"

namespace wfbn {

class Divisor {
 public:
  /// Precomputes the reciprocal of `d`. Throws PreconditionError on d = 0.
  explicit Divisor(std::uint64_t d) : d_(d) {
    WFBN_EXPECT(d != 0, "division by zero");
    if (std::has_single_bit(d)) {
      shift_ = static_cast<unsigned>(std::countr_zero(d));
      return;
    }
    const auto l = static_cast<unsigned>(std::bit_width(d));  // ceil(log2 d)
    // 2^l − d, computed mod 2^64 (l = 64 wraps to exactly 2^64 − d).
    const std::uint64_t excess = (l == 64 ? 0 : (std::uint64_t{1} << l)) - d;
    mul_ = static_cast<std::uint64_t>(
               (static_cast<__uint128_t>(excess) << 64) / d) +
           1;
    shift_ = l - 1;
    if (l <= 32) mul32_ = static_cast<std::uint32_t>((excess << 32) / d + 1);
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return d_; }

  /// n / d.
  [[nodiscard]] constexpr std::uint64_t divide(std::uint64_t n) const noexcept {
    if (mul_ == 0) return n >> shift_;
    const auto t = static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(mul_) * n) >> 64);
    return (t + ((n - t) >> 1)) >> shift_;
  }

  /// n % d.
  [[nodiscard]] constexpr std::uint64_t modulo(std::uint64_t n) const noexcept {
    return n - divide(n) * d_;
  }

  /// n / d for n < 2^32, by the 32-bit reciprocal. Precondition: d < 2^32.
  [[nodiscard]] constexpr std::uint32_t divide32(std::uint32_t n) const noexcept {
    if (mul_ == 0) return n >> shift_;
    const auto t = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(mul32_) * n) >> 32);
    return (t + ((n - t) >> 1)) >> shift_;
  }

 private:
  std::uint64_t d_ = 1;
  std::uint64_t mul_ = 0;  ///< 0 marks a power of two: divide() is a shift
  unsigned shift_ = 0;
  std::uint32_t mul32_ = 0;  ///< the 32-bit reciprocal, when d < 2^32
};

}  // namespace wfbn
