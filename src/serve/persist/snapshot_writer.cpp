#include "serve/persist/snapshot_writer.hpp"

#include <algorithm>
#include <utility>

#include "data/binary_io.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/fs_util.hpp"
#include "util/checksum.hpp"
#include "util/fault_injection.hpp"

namespace wfbn::serve::persist {

template <typename K>
BasicSnapshotWriter<K>::BasicSnapshotWriter(std::filesystem::path dir,
                                            WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  options_.keep_segments = std::max<std::size_t>(options_.keep_segments, 1);
}

template <typename K>
std::vector<std::uint8_t> BasicSnapshotWriter<K>::serialize(
    const Snapshot& snapshot, bool section_checksums) {
  const auto& table = snapshot.table();
  const auto& cards = table.codec().cardinalities();

  std::vector<std::uint8_t> buffer;
  // Entries dominate; pre-size for them plus a small header allowance.
  buffer.reserve(table.distinct_keys() * KeyIo<K>::kEntryBytes +
                 cards.size() * sizeof(std::uint32_t) + 256);

  buffer.insert(buffer.end(), kSegmentMagic, kSegmentMagic + 4);
  bio::put_pod(buffer, kFormatVersion);
  bio::put_pod(buffer, KeyIo<K>::kWidthCode);
  bio::put_pod(buffer,
               section_checksums ? kFlagSectionChecksums : std::uint32_t{0});
  bio::put_pod(buffer, snapshot.version());
  bio::put_pod(buffer, table.sample_count());
  bio::put_pod(buffer, static_cast<std::uint32_t>(cards.size()));
  for (const std::uint32_t r : cards) bio::put_pod(buffer, r);
  bio::put_pod(buffer, std::uint32_t{0});  // ownership: KeyTraits::owner
  bio::put_pod(buffer, std::uint32_t{0});  // reserved
  bio::put_pod(buffer, static_cast<std::uint64_t>(table.partition_count()));
  bio::put_pod(buffer, table.codec().state_space_bound());
  bio::put_pod(buffer, fnv1a_bytes(buffer.data(), buffer.size()));

  for (std::size_t p = 0; p < table.partition_count(); ++p) {
    const std::size_t section_start = buffer.size();
    const auto& part = table.partition(p);
    bio::put_pod(buffer, static_cast<std::uint64_t>(part.size()));
    part.for_each([&buffer](K key, std::uint64_t count) {
      KeyIo<K>::put(buffer, key);
      bio::put_pod(buffer, count);
    });
    if (section_checksums) {
      bio::put_pod(buffer, fnv1a_bytes(buffer.data() + section_start,
                                       buffer.size() - section_start));
    }
  }
  return buffer;
}

template <typename K>
void BasicSnapshotWriter<K>::write_segment(const Snapshot& snapshot) {
  const std::vector<std::uint8_t> bytes =
      serialize(snapshot, options_.section_checksums);
  write_file_atomic(dir_, segment_name(snapshot.version()), bytes,
                    options_.fsync);
}

template <typename K>
void BasicSnapshotWriter<K>::write_manifest(std::uint64_t version) {
  WFBN_FAULT_POINT(fault::Point::kPersistManifest);
  std::vector<std::uint8_t> buffer;
  buffer.reserve(4 + 2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t));
  buffer.insert(buffer.end(), kManifestMagic, kManifestMagic + 4);
  bio::put_pod(buffer, kFormatVersion);
  bio::put_pod(buffer, KeyIo<K>::kWidthCode);
  bio::put_pod(buffer, version);
  bio::put_pod(buffer, fnv1a_bytes(buffer.data(), buffer.size()));
  write_file_atomic(dir_, kManifestName, buffer, options_.fsync);
}

template <typename K>
std::size_t BasicSnapshotWriter<K>::prune() noexcept {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> segments;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::uint64_t version = 0;
    if (parse_segment_name(entry.path().filename().string(), &version)) {
      segments.emplace_back(version, entry.path());
    }
  }
  if (segments.size() <= options_.keep_segments) return 0;
  std::sort(segments.begin(), segments.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t removed = 0;
  for (std::size_t i = options_.keep_segments; i < segments.size(); ++i) {
    if (std::filesystem::remove(segments[i].second, ec)) ++removed;
  }
  return removed;
}

template <typename K>
void BasicSnapshotWriter<K>::write(const Snapshot& snapshot) {
  write_segment(snapshot);
  write_manifest(snapshot.version());
  prune();
}

template class BasicSnapshotWriter<Key>;
template class BasicSnapshotWriter<WideKey>;

}  // namespace wfbn::serve::persist
