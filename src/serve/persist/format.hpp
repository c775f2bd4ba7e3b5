// On-disk format of the snapshot durability layer (serve/persist/).
//
// A store directory holds one *segment* file per persisted snapshot version
// plus a MANIFEST naming the last durably published version:
//
//   store/
//     segment-00000000000000000001.wfs
//     segment-00000000000000000002.wfs
//     MANIFEST
//
// Every file is published atomically: bytes are written to a `<name>.tmp`
// sibling, fsynced, renamed over the final name, and the directory is
// fsynced — so a reader never observes a half-written segment under its
// final name. A crash mid-write leaves only a `*.tmp` orphan, which recovery
// ignores and reopening removes.
//
// Segment layout (native byte order, packed, no alignment padding):
//
//   magic            4 bytes  "WFSS"
//   format           u32      kFormatVersion
//   width            u32      1 = narrow (64-bit keys), 2 = wide (two-word)
//   flags            u32      bit 0: per-partition section checksums present
//   snapshot_version u64
//   sample_count     u64
//   variable_count   u32
//   cardinalities    u32 × variable_count
//   ownership        u32      0: key k lies in partition KeyTraits::owner(k, P)
//   reserved         u32      zero
//   partition_count  u64      P
//   state_space      u64      codec.state_space_bound() of the cardinalities
//   header_checksum  u64      FNV-1a of every preceding byte (always present)
//
// followed by one *section* per partition, in partition order:
//
//   entry_count      u64
//   entries          entry_count × (key words, count u64)
//   section_checksum u64      FNV-1a of the section's preceding bytes
//                             (only when flags bit 0 is set)
//
// The reader rejects an ownership word other than 0, a state-space word
// other than the cardinalities' bound, and a key stored outside
// owner(k, P), so every table it loads can be extended by append().
//
// The manifest is a fast-path hint, not the source of truth:
//
//   magic            4 bytes  "WFSM"
//   format           u32
//   width            u32
//   last_durable     u64
//   checksum         u64      FNV-1a of every preceding byte
//
// Recovery trusts the manifest only after its checksum and the named
// segment both validate; otherwise it falls back to scanning segments
// newest-first (see snapshot_reader.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "data/binary_io.hpp"
#include "table/key_traits.hpp"

namespace wfbn::serve::persist {

inline constexpr char kSegmentMagic[4] = {'W', 'F', 'S', 'S'};
inline constexpr char kManifestMagic[4] = {'W', 'F', 'S', 'M'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kFlagSectionChecksums = 1u << 0;
inline constexpr const char* kManifestName = "MANIFEST";
inline constexpr const char* kTempSuffix = ".tmp";

/// How each key width serializes its entries: its words in order (lo
/// before hi), then the count. The width code in the header is the word
/// count (1 = narrow, 2 = wide), which makes cross-width confusion (opening
/// a wide store as narrow) a typed DataError instead of garbage keys.
template <typename K>
struct KeyIo {
  using Traits = KeyTraits<K>;
  static constexpr auto kWidthCode = static_cast<std::uint32_t>(Traits::kWords);
  static constexpr std::size_t kEntryBytes =
      (Traits::kWords + 1) * sizeof(std::uint64_t);
  static void put(std::vector<std::uint8_t>& buffer, K key) {
    for (std::size_t w = 0; w < Traits::kWords; ++w) {
      bio::put_pod(buffer, Traits::word(key, w));
    }
  }
  static K get(bio::BufferReader& reader) {
    std::uint64_t words[Traits::kWords] = {};
    for (std::uint64_t& word : words) word = reader.get<std::uint64_t>();
    return Traits::from_words(words);
  }
};

/// "segment-<20-digit zero-padded version>.wfs" — fixed width so a plain
/// lexicographic directory listing is also a version ordering.
inline std::string segment_name(std::uint64_t version) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "segment-%020llu.wfs",
                static_cast<unsigned long long>(version));
  return buffer;
}

/// Parses a segment file name back into its version. Returns false for
/// anything that is not exactly a segment name (manifest, temps, strays).
inline bool parse_segment_name(const std::string& name,
                               std::uint64_t* version) {
  constexpr std::size_t kDigits = 20;
  const std::string prefix = "segment-";
  const std::string suffix = ".wfs";
  if (name.size() != prefix.size() + kDigits + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < kDigits; ++i) {
    const char c = name[prefix.size() + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *version = value;
  return true;
}

}  // namespace wfbn::serve::persist
