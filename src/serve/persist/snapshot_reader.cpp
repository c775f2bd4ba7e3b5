#include "serve/persist/snapshot_reader.hpp"

#include <algorithm>
#include <utility>

#include "data/binary_io.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/fs_util.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn::serve::persist {

namespace {

/// Every recovery-time checksum comparison routes through here so the
/// recover.checksum point can force any single one to report corruption
/// (non-throwing: a "mismatch" is a degradation into fallback, not an error).
bool checksum_matches(std::uint64_t expected, std::uint64_t actual) noexcept {
  if (fault::enabled() &&
      fault::should_fail(fault::Point::kRecoverChecksum)) [[unlikely]] {
    return false;
  }
  return expected == actual;
}

/// A sanity cap on partition counts: segments are written by this library,
/// whose builders never exceed core counts by orders of magnitude, so a
/// multi-million partition count is corruption that slipped past the
/// checksum, not a real table. Rejecting it bounds the reader's allocation.
constexpr std::uint64_t kMaxPartitions = 1u << 20;

struct SegmentEntry {
  std::uint64_t version;
  std::filesystem::path path;
};

std::vector<SegmentEntry> list_segments(const std::filesystem::path& dir) {
  std::vector<SegmentEntry> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    std::uint64_t version = 0;
    if (parse_segment_name(entry.path().filename().string(), &version)) {
      out.push_back({version, entry.path()});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.version > b.version;
  });
  return out;
}

struct ManifestInfo {
  bool valid = false;
  std::uint64_t version = 0;
};

template <typename K>
ManifestInfo read_manifest(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / kManifestName;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file(path);
  } catch (const DataError&) {
    return {};
  }
  try {
    bio::BufferReader reader(bytes.data(), bytes.size(), "manifest");
    const std::uint8_t* magic = reader.get_span(4);
    if (!std::equal(magic, magic + 4, kManifestMagic)) return {};
    if (reader.get<std::uint32_t>() != kFormatVersion) return {};
    if (reader.get<std::uint32_t>() != KeyIo<K>::kWidthCode) return {};
    const auto version = reader.get<std::uint64_t>();
    const std::size_t checksummed = static_cast<std::size_t>(
        reader.cursor() - bytes.data());
    const auto expected = reader.get<std::uint64_t>();
    if (!checksum_matches(expected, fnv1a_bytes(bytes.data(), checksummed))) {
      return {};
    }
    if (reader.remaining() != 0) return {};
    if (version == 0) return {};
    return {true, version};
  } catch (const DataError&) {
    return {};
  }
}

}  // namespace

template <typename K>
SegmentData<K> parse_segment(const std::vector<std::uint8_t>& bytes) {
  bio::BufferReader reader(bytes.data(), bytes.size(), "snapshot segment");

  const std::uint8_t* magic = reader.get_span(4);
  if (!std::equal(magic, magic + 4, kSegmentMagic)) {
    throw DataError("not a snapshot segment (bad magic)");
  }
  const auto format = reader.get<std::uint32_t>();
  if (format != kFormatVersion) {
    throw DataError("unsupported segment format " + std::to_string(format));
  }
  const auto width = reader.get<std::uint32_t>();
  if (width != KeyIo<K>::kWidthCode) {
    throw DataError("segment key width " + std::to_string(width) +
                    " does not match store key width " +
                    std::to_string(KeyIo<K>::kWidthCode));
  }
  const auto flags = reader.get<std::uint32_t>();
  const auto version = reader.get<std::uint64_t>();
  if (version == 0) throw DataError("segment claims version 0");
  const auto samples = reader.get<std::uint64_t>();
  const auto variable_count = reader.get<std::uint32_t>();
  if (variable_count == 0) throw DataError("segment has zero variables");
  std::vector<std::uint32_t> cards(variable_count);
  for (auto& r : cards) r = reader.get<std::uint32_t>();
  const auto ownership = reader.get<std::uint32_t>();
  if (ownership != 0) {
    throw DataError("segment has unknown ownership rule " +
                    std::to_string(ownership));
  }
  (void)reader.get<std::uint32_t>();  // reserved
  const auto partition_count = reader.get<std::uint64_t>();
  if (partition_count == 0 || partition_count > kMaxPartitions) {
    throw DataError("segment partition count out of range: " +
                    std::to_string(partition_count));
  }
  const auto state_space = reader.get<std::uint64_t>();
  const std::size_t header_bytes =
      static_cast<std::size_t>(reader.cursor() - bytes.data());
  const auto header_checksum = reader.get<std::uint64_t>();
  if (!checksum_matches(header_checksum,
                        fnv1a_bytes(bytes.data(), header_bytes))) {
    throw DataError("segment header checksum mismatch");
  }

  // The codec constructor re-validates the cardinalities (each >= 1, joint
  // space within the width's bound) — corrupted schema bytes that survive
  // the checksum still become a typed error here.
  BasicKeyCodec<K> codec(cards);
  if (state_space != codec.state_space_bound()) {
    throw DataError("segment state space " + std::to_string(state_space) +
                    " disagrees with its cardinalities");
  }
  BasicPartitionedTable<K> partitions(
      static_cast<std::size_t>(partition_count));

  for (std::uint64_t p = 0; p < partition_count; ++p) {
    const std::uint8_t* section_start = reader.cursor();
    const auto entry_count = reader.get<std::uint64_t>();
    // Anti-allocation-bomb: a corrupt count larger than the bytes that could
    // possibly back it is rejected before reserve() amplifies it.
    if (entry_count > reader.remaining() / KeyIo<K>::kEntryBytes) {
      throw DataError("truncated snapshot segment (partition " +
                      std::to_string(p) + " claims " +
                      std::to_string(entry_count) + " entries)");
    }
    auto& part = partitions.partition(static_cast<std::size_t>(p));
    part.reserve(static_cast<std::size_t>(entry_count));
    for (std::uint64_t i = 0; i < entry_count; ++i) {
      const K key = KeyIo<K>::get(reader);
      const auto count = reader.get<std::uint64_t>();
      if (count == 0) {
        throw DataError("segment entry with zero count in partition " +
                        std::to_string(p));
      }
      if (!codec.key_in_range(key)) {
        throw DataError("segment key out of state-space range in partition " +
                        std::to_string(p));
      }
      if (partitions.owner_of(key) != p) {
        throw DataError("segment key outside its owner partition in partition " +
                        std::to_string(p));
      }
      part.increment(key, count);
    }
    if ((flags & kFlagSectionChecksums) != 0) {
      const std::size_t section_bytes =
          static_cast<std::size_t>(reader.cursor() - section_start);
      const auto section_checksum = reader.get<std::uint64_t>();
      if (!checksum_matches(section_checksum,
                            fnv1a_bytes(section_start, section_bytes))) {
        throw DataError("section checksum mismatch in partition " +
                        std::to_string(p));
      }
    }
  }
  if (reader.remaining() != 0) {
    throw DataError("trailing bytes after snapshot segment");
  }

  BasicPotentialTable<K> table(std::move(codec), std::move(partitions),
                               samples);
  if (table.total_count() != samples) {
    throw DataError("segment count sum disagrees with recorded sample count");
  }
  return SegmentData<K>{std::move(table), version};
}

template <typename K>
SegmentData<K> read_segment(const std::filesystem::path& path) {
  return parse_segment<K>(read_file(path));
}

template <typename K>
RecoveryResult<K> recover_store_dir(const std::filesystem::path& dir) {
  RecoveryResult<K> out;

  auto try_segment = [&](std::uint64_t version,
                         const std::filesystem::path& path) -> bool {
    ++out.report.segments_scanned;
    try {
      SegmentData<K> data = read_segment<K>(path);
      if (data.version != version) {
        throw DataError("segment file name version " + std::to_string(version) +
                        " disagrees with header version " +
                        std::to_string(data.version));
      }
      out.table.emplace(std::move(data.table));
      out.report.recovered_version = version;
      return true;
    } catch (const DataError& e) {
      out.report.rejected.push_back({version, e.what()});
      return false;
    }
  };

  const ManifestInfo manifest = read_manifest<K>(dir);
  out.report.manifest_valid = manifest.valid;
  out.report.manifest_version = manifest.version;

  // Newest-first over whatever segments exist. The newest valid segment wins
  // even when the manifest lags it: durability is reached at the segment
  // rename, and a crash before the subsequent manifest update must not roll
  // the store back. The scan equally covers a missing / corrupt manifest and
  // a torn newest segment (rejected by checksum, fall back one version).
  const std::vector<SegmentEntry> segments = list_segments(dir);
  if (manifest.valid &&
      std::none_of(segments.begin(), segments.end(),
                   [&](const SegmentEntry& seg) {
                     return seg.version == manifest.version;
                   })) {
    out.report.rejected.push_back(
        {manifest.version, "manifest names a missing segment"});
  }
  for (const SegmentEntry& seg : segments) {
    if (try_segment(seg.version, seg.path)) return out;
  }
  return out;  // nothing recoverable: fresh start
}

template SegmentData<Key> read_segment<Key>(const std::filesystem::path&);
template SegmentData<WideKey> read_segment<WideKey>(
    const std::filesystem::path&);
template SegmentData<Key> parse_segment<Key>(const std::vector<std::uint8_t>&);
template SegmentData<WideKey> parse_segment<WideKey>(
    const std::vector<std::uint8_t>&);
template RecoveryResult<Key> recover_store_dir<Key>(
    const std::filesystem::path&);
template RecoveryResult<WideKey> recover_store_dir<WideKey>(
    const std::filesystem::path&);

}  // namespace wfbn::serve::persist
