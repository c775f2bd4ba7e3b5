// KeyTraits: the one place where the narrow (64-bit) and wide (two-word,
// 2^126) key representations differ.
//
// Every layer above the codec — the open-addressing count tables, the
// partitioned table, the wait-free builder, the marginalization / MI / query
// sweeps, and the serving stack — is a template over the key type K and asks
// KeyTraits<K> for the handful of operations that depend on the width:
//
//   Codec / Projector   the Eq. 3/4 encode/decode machinery for K
//   empty_key()         the hashtable's reserved empty-slot sentinel
//   slot_hash()         hash for open-addressing slot selection
//   supports()/owner()  which partition schemes exist and who owns a key
//   state_space_bound() joint-state-space size, saturated to uint64
//   key_in_range()      validity check for PotentialTable::validate()
//   VarLeg / leg_of()   decode-of-interest: the (stride, cardinality[, word])
//                       recipe for extracting one variable from a key without
//                       decoding the whole state string (Eq. 4); both
//                       divisors are precomputed Divisor reciprocals
//
// Adding a third key width means specializing this struct — nothing else.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "table/divisor.hpp"
#include "table/key_codec.hpp"
#include "table/wide_key_codec.hpp"

namespace wfbn {

/// How encoded keys map to owning partitions.
enum class PartitionScheme {
  kModulo,  ///< owner = key % P (paper Algorithm 1, line 9)
  kRange,   ///< owner = floor(key * P / state_space) — contiguous key ranges
            ///< (narrow keys only: wide keys have no usable total order)
};

template <typename K>
struct KeyTraits;

template <>
struct KeyTraits<Key> {
  using Codec = KeyCodec;
  using Projector = KeyProjector;

  static constexpr const char* kWidthName = "narrow";

  static constexpr Key empty_key() noexcept { return ~0ULL; }

  /// Fibonacci hashing; the high bits carry the mix, so the caller's mask
  /// lands on well-scrambled bits.
  static constexpr std::size_t slot_hash(Key key) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 24);
  }

  /// slot_hash over a whole strip: out[i] = slot_hash(keys[i]). Hashing a
  /// strip before any table memory is touched keeps the multiply chain
  /// pipelined (and auto-vectorizable) instead of interleaving it with
  /// dependent probe loads — the batched-probe and router fast paths.
  static void slot_hash_block(const Key* keys, std::size_t count,
                              std::size_t* out) noexcept {
    for (std::size_t i = 0; i < count; ++i) out[i] = slot_hash(keys[i]);
  }

  static constexpr bool supports(PartitionScheme) noexcept { return true; }

  static std::size_t owner(Key key, std::size_t partitions,
                           std::uint64_t state_space,
                           PartitionScheme scheme) noexcept {
    if (scheme == PartitionScheme::kModulo) {
      return static_cast<std::size_t>(key % partitions);
    }
    // Range partitioning via 128-bit multiply avoids a per-key division by a
    // runtime state-space value.
    return static_cast<std::size_t>(
        (static_cast<__uint128_t>(key) * partitions) / state_space);
  }

  /// owner() over a whole strip: out[i] = owner(keys[i], ...). Hoists the
  /// scheme branch out of the per-key loop so stage 1 can compute a block's
  /// destinations before touching any route buffer.
  static void owner_block(const Key* keys, std::size_t count,
                          std::size_t partitions, std::uint64_t state_space,
                          PartitionScheme scheme, std::size_t* out) noexcept {
    if (scheme == PartitionScheme::kModulo) {
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = static_cast<std::size_t>(keys[i] % partitions);
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<std::size_t>(
          (static_cast<__uint128_t>(keys[i]) * partitions) / state_space);
    }
  }

  static Codec make_codec(const std::vector<std::uint32_t>& cardinalities) {
    return Codec(cardinalities);
  }

  static std::uint64_t state_space_bound(const Codec& codec) noexcept {
    return codec.state_space_size();
  }

  static bool key_in_range(const Codec& codec, Key key) noexcept {
    return key < codec.state_space_size();
  }

  /// Decode-of-interest recipe for one variable (Eq. 4), with both divisors
  /// precomputed so a decode is multiply-shift work, never a `div`.
  struct VarLeg {
    Divisor stride;
    Divisor cardinality;
  };
  static VarLeg leg_of(const Codec& codec, std::size_t j) {
    return VarLeg{Divisor(codec.stride(j)), Divisor(codec.cardinality(j))};
  }
  static std::uint64_t decode_leg(const VarLeg& leg, Key key) noexcept {
    return leg.cardinality.modulo(leg.stride.divide(key));
  }
};

template <>
struct KeyTraits<WideKey> {
  using Codec = WideKeyCodec;
  using Projector = WideKeyProjector;

  static constexpr const char* kWidthName = "wide";

  /// All-ones in both words — unreachable because each encoded word stays
  /// below 2^63.
  static constexpr WideKey empty_key() noexcept {
    return WideKey{~0ULL, ~0ULL};
  }

  static constexpr std::size_t slot_hash(WideKey key) noexcept {
    return static_cast<std::size_t>(wide_key_hash(key));
  }

  /// Batched slot_hash; see KeyTraits<Key>::slot_hash_block.
  static void slot_hash_block(const WideKey* keys, std::size_t count,
                              std::size_t* out) noexcept {
    for (std::size_t i = 0; i < count; ++i) out[i] = slot_hash(keys[i]);
  }

  /// Wide keys have no usable total order over the joint space, so
  /// contiguous-range ownership is not defined for them.
  static constexpr bool supports(PartitionScheme scheme) noexcept {
    return scheme == PartitionScheme::kModulo;
  }

  static std::size_t owner(WideKey key, std::size_t partitions,
                           std::uint64_t /*state_space*/,
                           PartitionScheme /*scheme*/) noexcept {
    return static_cast<std::size_t>(wide_key_hash(key) % partitions);
  }

  /// Batched owner: one hash pass over the strip, then the modulo. See
  /// KeyTraits<Key>::owner_block.
  static void owner_block(const WideKey* keys, std::size_t count,
                          std::size_t partitions,
                          std::uint64_t /*state_space*/,
                          PartitionScheme /*scheme*/,
                          std::size_t* out) noexcept {
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<std::size_t>(wide_key_hash(keys[i]) % partitions);
    }
  }

  static Codec make_codec(const std::vector<std::uint32_t>& cardinalities) {
    return Codec(cardinalities);
  }

  /// The wide joint space can exceed 2^64; saturate. Consumers only use the
  /// bound via min(m, bound), where m always wins in the saturated case.
  static std::uint64_t state_space_bound(const Codec& codec) noexcept {
    const std::uint64_t lo = codec.word_extent(0);
    const std::uint64_t hi = codec.word_extent(1);
    if (hi > 1 && lo > std::numeric_limits<std::uint64_t>::max() / hi) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    return lo * hi;
  }

  static bool key_in_range(const Codec& codec, WideKey key) noexcept {
    return key.lo < codec.word_extent(0) && key.hi < codec.word_extent(1);
  }

  struct VarLeg {
    unsigned word;  ///< 0 = lo, 1 = hi
    Divisor stride;
    Divisor cardinality;
  };
  static VarLeg leg_of(const Codec& codec, std::size_t j) {
    return VarLeg{codec.word_of(j), Divisor(codec.stride(j)),
                  Divisor(codec.cardinality(j))};
  }
  static std::uint64_t decode_leg(const VarLeg& leg, WideKey key) noexcept {
    const std::uint64_t word = leg.word == 0 ? key.lo : key.hi;
    return leg.cardinality.modulo(leg.stride.divide(word));
  }
};

}  // namespace wfbn
