// KeyTraits: the one place where the narrow (64-bit) and wide (two-word,
// 2^126) key representations differ.
//
// Every layer built on keys — the codec and its projector, the
// open-addressing count tables, the partitioned table, the wait-free
// builder, the marginalization / MI / query sweeps, and the serving stack —
// is a template over the key type K and asks KeyTraits<K> for what the
// representation decides:
//
//   kWords / word()      how many 63-bit mixed-radix words a key holds, and
//   from_words()         reading one word / assembling a key from its words
//   empty_key()          the hashtable's reserved empty-slot sentinel
//   slot_hash()          hash for open-addressing slot selection
//   owner()              which partition owns a key (paper Alg. 1, line 9)
//   kWidthName           "narrow" / "wide", for messages and bench output
//
// The Eq. 3/4 encoding itself is written once over kWords in
// table/key_codec.hpp. Adding a third key width means specializing this
// struct — nothing else.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wfbn {

using State = std::uint8_t;   ///< one observed variable state, 0 .. r_j - 1
using Key = std::uint64_t;    ///< encoded state string, one word

/// Encoded state string of up to 2^126 joint states: two 63-bit words.
struct WideKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] bool operator==(const WideKey&) const = default;
};

/// Mixes both words; used for hashing and for partition ownership.
[[nodiscard]] constexpr std::uint64_t wide_key_hash(WideKey key) noexcept {
  std::uint64_t h = key.lo * 0x9E3779B97F4A7C15ULL;
  h ^= (key.hi + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

template <typename K>
struct KeyTraits;

template <>
struct KeyTraits<Key> {
  static constexpr std::size_t kWords = 1;
  static constexpr const char* kWidthName = "narrow";

  static constexpr std::uint64_t word(Key key, std::size_t /*w*/) noexcept {
    return key;
  }
  static constexpr Key from_words(const std::uint64_t* words) noexcept {
    return words[0];
  }

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

  /// The partition that owns `key`: key % P (paper Algorithm 1, line 9).
  static std::size_t owner(Key key, std::size_t partitions) noexcept {
    return static_cast<std::size_t>(key % partitions);
  }
};

template <>
struct KeyTraits<WideKey> {
  static constexpr std::size_t kWords = 2;
  static constexpr const char* kWidthName = "wide";

  /// Word 0 is lo, word 1 is hi.
  static constexpr std::uint64_t word(WideKey key, std::size_t w) noexcept {
    return w == 0 ? key.lo : key.hi;
  }
  static constexpr WideKey from_words(const std::uint64_t* words) noexcept {
    return WideKey{words[0], words[1]};
  }

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

  /// The partition that owns `key`: wide_key_hash(key) % P, so both words
  /// decide the owner.
  static std::size_t owner(WideKey key, std::size_t partitions) noexcept {
    return static_cast<std::size_t>(wide_key_hash(key) % partitions);
  }
};

}  // namespace wfbn
