// Internal SoA-tile kernels for the mixed-radix encode hot path (Eq. 3),
// written once over the key's word count for BasicKeyCodec. Not part of the
// public API.
//
// Layout: a strip of rows is processed in tiles of kRowTile rows. Within a
// tile, variables are transposed kVarTile at a time into per-variable lanes
// (lanes[j][i] = state of row i, variable j — a [vars × rows] SoA block that
// always fits the L1 cache), and each lane is folded into per-row key
// accumulators with one multiply-add:
//
//     acc[w][i] += lane_j[i] * stride_j      for all i in the tile at once
//
// with one accumulator bank per key word w. The tiles walk the codec's word
// runs (consecutive variables packed into one word), so the bank is chosen
// once per run, never per variable; for one-word keys it is the constant 0.
//
// Neighboring rows are independent, so the lane loop has no carried
// dependency and vectorizes: the portable kernels are written so the
// compiler's auto-vectorizer can take them, and the AVX2 specializations
// (runtime-dispatched via simd::detected(), compiled behind a function-level
// `target("avx2")` attribute so the rest of the binary stays baseline-ISA)
// process 4 rows per 256-bit vector.
//
// AVX2 has no 64×64-bit vector multiply, but none is needed: a state is a
// uint8, so with stride = hi·2³² + lo the term decomposes into two 32×32→64
// multiplies, s·lo + ((s·hi) << 32) — exact mod 2⁶⁴, and every encoded word
// stays below 2⁶³ by the codec's construction-time bound. Most workloads
// (uniform r=2..8, n ≤ 32) have every stride below 2³², where the hi
// multiply is skipped entirely.
//
// Every kernel computes bit-identical keys to the scalar reference loop —
// integer addition is associative and commutative, so lane order cannot
// change the sum. The BlockRoutingOracle and codec tests pin this down at
// every dispatch level, both key widths, and remainder-strip row counts.
//
// The file also holds the two kernels of the AND-popcount lattice over the
// entry planes (core/entry_planes.hpp): and_popcount(), Σ popcount(a[i] &
// b[i]) over two bit planes, and and_into_popcount(), which also stores
// a[i] & b[i] for the next level of the walk. The tree is built without
// -mpopcnt, where std::popcount is a call into libgcc (__popcountdi2), so
// the scalar level counts with popcount_word(), a SWAR bit count of shifts,
// masks and adds that GCC inlines and vectorizes at baseline x86-64; the
// AVX2 level counts 256 bits per step with the nibble-lookup method
// (vpshufb + vpsadbw) behind `target("avx2,popcnt")`. Both levels return the
// same integer and store the same words.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "table/key_traits.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WFBN_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace wfbn::simd_detail {

inline constexpr std::size_t kRowTile = 32;  ///< rows (keys) per SoA tile
inline constexpr std::size_t kVarTile = 64;  ///< variables transposed per pass

/// Transposes variables [j0, j0+jn) of a [t × n] row-major sub-strip into
/// per-variable lanes: lanes[jj * kRowTile + i] = rows[i * n + j0 + jj].
/// Reads the strip sequentially; the strided byte stores land in an
/// L1-resident buffer (kVarTile * kRowTile = 2 KB).
inline void transpose_tile(const State* rows, std::size_t n, std::size_t j0,
                           std::size_t jn, std::size_t t,
                           State* lanes) noexcept {
  for (std::size_t i = 0; i < t; ++i) {
    const State* row = rows + i * n + j0;
    State* col = lanes + i;
    for (std::size_t jj = 0; jj < jn; ++jj) col[jj * kRowTile] = row[jj];
  }
}

/// The accumulator bank of a codec word run: its word, the constant 0 for
/// one-word keys.
template <std::size_t W, typename Run>
constexpr std::size_t bank_of(const Run& run) noexcept {
  if constexpr (W == 1) {
    return 0;
  } else {
    return run.word;
  }
}

/// Assembles the first t keys of a tile from its per-word accumulator banks.
template <typename K>
inline void store_keys(const std::uint64_t (*banks)[kRowTile], std::size_t t,
                       K* out) noexcept {
  for (std::size_t i = 0; i < t; ++i) {
    std::uint64_t words[KeyTraits<K>::kWords] = {};
    for (std::size_t w = 0; w < KeyTraits<K>::kWords; ++w) words[w] = banks[w][i];
    out[i] = KeyTraits<K>::from_words(words);
  }
}

/// Portable SoA tile: any t <= kRowTile (the remainder-strip kernel, and the
/// whole vectorized path on non-x86 builds). The codec's word runs are
/// walked in order, each into its word's accumulator bank; the i-loop is the
/// auto-vectorizable multiply-add across lanes.
template <typename K, typename Run>
inline void encode_tile_lanes(const State* rows, std::size_t n,
                              const std::uint64_t* strides,
                              std::span<const Run> runs, std::size_t t,
                              K* out) noexcept {
  constexpr std::size_t W = KeyTraits<K>::kWords;
  std::uint64_t acc[W][kRowTile] = {};
  State lanes[kVarTile * kRowTile];
  for (const Run& run : runs) {
    std::uint64_t* bank = acc[bank_of<W>(run)];
    for (std::size_t j0 = run.first; j0 < run.last; j0 += kVarTile) {
      const std::size_t jn = std::min(kVarTile, run.last - j0);
      transpose_tile(rows, n, j0, jn, t, lanes);
      for (std::size_t jj = 0; jj < jn; ++jj) {
        const std::uint64_t s = strides[j0 + jj];
        const State* lane = lanes + jj * kRowTile;
        for (std::size_t i = 0; i < t; ++i) {
          bank[i] += static_cast<std::uint64_t>(lane[i]) * s;
        }
      }
    }
  }
  store_keys(acc, t, out);
}

#ifdef WFBN_AVX2_KERNELS

/// Zero-extends 4 lane bytes into the 4 uint64 lanes of a vector.
__attribute__((target("avx2"))) inline __m256i load4_lane_bytes(
    const State* p) noexcept {
  std::uint32_t quad;
  std::memcpy(&quad, p, sizeof quad);
  return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(quad)));
}

/// acc += lane * stride for 4 rows, stride split into 32-bit halves (see the
/// header comment for the exactness argument).
__attribute__((target("avx2"))) inline __m256i mul_add_stride(
    __m256i acc, __m256i lane4, std::uint64_t stride) noexcept {
  const auto lo = static_cast<std::uint32_t>(stride);
  const auto hi = static_cast<std::uint32_t>(stride >> 32);
  const __m256i vlo = _mm256_set1_epi64x(static_cast<long long>(lo));
  __m256i term = _mm256_mul_epu32(lane4, vlo);
  if (hi != 0) {
    const __m256i vhi = _mm256_set1_epi64x(static_cast<long long>(hi));
    term = _mm256_add_epi64(
        term, _mm256_slli_epi64(_mm256_mul_epu32(lane4, vhi), 32));
  }
  return _mm256_add_epi64(acc, term);
}

/// AVX2 SoA tile, full kRowTile rows: per key word, a bank of 8 vector
/// accumulators of 4 keys each (bank w is acc[w * kVecs, (w + 1) * kVecs)),
/// the word runs walked as in encode_tile_lanes.
template <typename K, typename Run>
__attribute__((target("avx2"))) inline void encode_tile_avx2(
    const State* rows, std::size_t n, const std::uint64_t* strides,
    std::span<const Run> runs, K* out) noexcept {
  constexpr std::size_t W = KeyTraits<K>::kWords;
  constexpr std::size_t kVecs = kRowTile / 4;
  __m256i acc[W * kVecs];
  for (std::size_t v = 0; v < W * kVecs; ++v) acc[v] = _mm256_setzero_si256();
  State lanes[kVarTile * kRowTile];
  for (const Run& run : runs) {
    const std::size_t bank = bank_of<W>(run) * kVecs;
    for (std::size_t j0 = run.first; j0 < run.last; j0 += kVarTile) {
      const std::size_t jn = std::min(kVarTile, run.last - j0);
      transpose_tile(rows, n, j0, jn, kRowTile, lanes);
      for (std::size_t jj = 0; jj < jn; ++jj) {
        const std::uint64_t s = strides[j0 + jj];
        const State* lane = lanes + jj * kRowTile;
        for (std::size_t v = 0; v < kVecs; ++v) {
          acc[bank + v] =
              mul_add_stride(acc[bank + v], load4_lane_bytes(lane + v * 4), s);
        }
      }
    }
  }
  if constexpr (W == 1) {
    // One word: the bank is the keys.
    for (std::size_t v = 0; v < kVecs; ++v) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + v * 4), acc[v]);
    }
  } else {
    alignas(32) std::uint64_t banks[W][kRowTile];
    for (std::size_t v = 0; v < W * kVecs; ++v) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(banks[v / kVecs] + v % kVecs * 4), acc[v]);
    }
    store_keys(banks, kRowTile, out);
  }
}

#endif  // WFBN_AVX2_KERNELS

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
