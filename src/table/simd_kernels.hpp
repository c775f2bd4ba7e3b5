// Internal word kernels of the entry planes (core/entry_planes.hpp): the
// plane-word build and the AND-popcounts of the lattice. Not part of the
// public API.
//
// match_word() builds one plane word from 64 decoded state bytes: one byte
// compare and one movemask per 16 lanes at SSE2, which every x86-64 host
// has, so it has no dispatch level; other targets take a portable loop.
//
// and_popcount() returns Σ popcount(a[i] & b[i]) over two bit planes;
// and_into_popcount() also stores a[i] & b[i] for the next level of the
// walk. Each runs at the dispatch level its caller passes (from
// simd::detected(), so the AVX2 kernels only run where supported). The tree
// is built without -mpopcnt, where std::popcount is a call into libgcc
// (__popcountdi2), so the scalar level counts with popcount_word(), a SWAR
// bit count of shifts, masks and adds that GCC inlines and vectorizes at
// baseline x86-64; the AVX2 level counts 256 bits per step with the
// nibble-lookup method (vpshufb + vpsadbw) behind `target("avx2,popcnt")`,
// a function-level attribute, so the rest of the binary stays baseline-ISA.
// Both levels return the same integer and store the same words.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WFBN_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace wfbn::simd_detail {

/// Bit e set where lanes[e] == a, over the 64 bytes at `lanes`.
inline std::uint64_t match_word(const std::uint8_t* lanes,
                                std::uint8_t a) noexcept {
  std::uint64_t word = 0;
#if defined(__SSE2__)
  const __m128i key = _mm_set1_epi8(static_cast<char>(a));
  for (unsigned i = 0; i < 4; ++i) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + 16 * i));
    const auto mask = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(bytes, key)));
    word |= static_cast<std::uint64_t>(mask) << (16 * i);
  }
#else
  for (unsigned e = 0; e < 64; ++e) {
    word |= static_cast<std::uint64_t>(lanes[e] == a) << e;
  }
#endif
  return word;
}

/// Bits set in `x`, by SWAR: pair, nibble and byte sums, then the byte sums
/// folded into the low byte. No library call and no POPCNT instruction.
constexpr std::uint64_t popcount_word(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x += x >> 8;
  x += x >> 16;
  x += x >> 32;
  return x & 0x7f;
}

/// Portable AND-popcount: the scalar level.
inline std::uint64_t and_popcount_scalar(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         std::size_t words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) total += popcount_word(a[i] & b[i]);
  return total;
}

/// Portable AND-into + popcount: the scalar level.
inline std::uint64_t and_into_popcount_scalar(std::uint64_t* dst,
                                              const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t words) noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < words; ++i) {
    dst[i] = a[i] & b[i];
    total += popcount_word(dst[i]);
  }
  return total;
}

#ifdef WFBN_AVX2_KERNELS

/// Per 64-bit lane of `v`, its bit count: per byte, two 16-entry nibble
/// lookups give the count; vpsadbw folds the 32 byte counts into four
/// 64-bit lane sums.
__attribute__((target("avx2"))) inline __m256i popcount_lanes_avx2(
    __m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
                                       3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
                                       2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// Sum of the four 64-bit lanes of `acc`.
__attribute__((target("avx2"))) inline std::uint64_t sum_lanes_avx2(
    __m256i acc) noexcept {
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// AVX2 AND-popcount, 256 bits per step.
__attribute__((target("avx2,popcnt"))) inline std::uint64_t and_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    acc = _mm256_add_epi64(acc, popcount_lanes_avx2(v));
  }
  std::uint64_t total = sum_lanes_avx2(acc);
  for (; i < words; ++i) {
    total += static_cast<std::uint64_t>(_mm_popcnt_u64(a[i] & b[i]));
  }
  return total;
}

/// AVX2 AND-into + popcount, 256 bits per step.
__attribute__((target("avx2,popcnt"))) inline std::uint64_t
and_into_popcount_avx2(std::uint64_t* dst, const std::uint64_t* a,
                       const std::uint64_t* b, std::size_t words) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    acc = _mm256_add_epi64(acc, popcount_lanes_avx2(v));
  }
  std::uint64_t total = sum_lanes_avx2(acc);
  for (; i < words; ++i) {
    dst[i] = a[i] & b[i];
    total += static_cast<std::uint64_t>(_mm_popcnt_u64(dst[i]));
  }
  return total;
}

#endif  // WFBN_AVX2_KERNELS

/// Σ popcount(a[i] & b[i]) for i < words, at the dispatch level `level`
/// (from simd::detected(), so the AVX2 kernel only runs where supported).
inline std::uint64_t and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                  std::size_t words, simd::Level level) noexcept {
#ifdef WFBN_AVX2_KERNELS
  if (level == simd::Level::kAvx2) return and_popcount_avx2(a, b, words);
#else
  (void)level;
#endif
  return and_popcount_scalar(a, b, words);
}

/// dst[i] = a[i] & b[i] for i < words; returns Σ popcount(dst[i]). At the
/// dispatch level `level`, as and_popcount().
inline std::uint64_t and_into_popcount(std::uint64_t* dst,
                                       const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t words,
                                       simd::Level level) noexcept {
#ifdef WFBN_AVX2_KERNELS
  if (level == simd::Level::kAvx2) return and_into_popcount_avx2(dst, a, b, words);
#else
  (void)level;
#endif
  return and_into_popcount_scalar(dst, a, b, words);
}

}  // namespace wfbn::simd_detail
