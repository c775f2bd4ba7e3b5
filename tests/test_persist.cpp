// Tests for the snapshot durability layer (src/serve/persist): segment
// round-trips at both key widths, the crash-point sweep over every persist
// fault point, recovery semantics, and the DurableTableStore wrapper.
//
// The central oracle, enforced at every injected crash: after reopening,
// the recovered store serves a byte-identical snapshot at the newest version
// whose segment completed its atomic rename — never a torn table, never a
// version that was not durably published.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "scratch_dir.hpp"
#include "serve/persist/durable_store.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/fs_util.hpp"
#include "serve/persist/snapshot_reader.hpp"
#include "serve/persist/snapshot_writer.hpp"
#include "serve/snapshot.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace wfbn {
namespace {

namespace persist = serve::persist;

using testing_support::ScratchDir;

ScratchDir fresh_dir(const std::string& name) {
  return ScratchDir("wfbn_persist_" + name);
}

// Width-generic helpers: the crash sweep and round-trips run identically
// over narrow (64-bit) and wide (two-word) keys.

template <typename K>
struct WidthOps;

template <>
struct WidthOps<Key> {
  using Builder = WaitFreeBuilder;
  using Options = WaitFreeBuilderOptions;
  static Dataset make_data(std::size_t rows, std::uint64_t seed) {
    return generate_uniform(rows, 8, 2, seed);
  }
};

template <>
struct WidthOps<WideKey> {
  using Builder = WideWaitFreeBuilder;
  using Options = WaitFreeBuilderOptions;
  static Dataset make_data(std::size_t rows, std::uint64_t seed) {
    // 100 binary variables: past the 64-bit key limit by 37 bits.
    return generate_chain_correlated(rows, 100, 2, 0.8, seed);
  }
};

template <typename K>
BasicPotentialTable<K> build_table(const Dataset& data,
                                   std::size_t threads = 4) {
  typename WidthOps<K>::Options options;
  options.threads = threads;
  typename WidthOps<K>::Builder builder(options);
  return builder.build(data);
}

/// Byte-identical serving state: same schema, same per-partition layout,
/// same counts, same sample count. Partition-by-partition (not just merged)
/// because recovery must restore the exact partition assignment the
/// marginalization primitives will sweep.
template <typename K>
void expect_tables_identical(const BasicPotentialTable<K>& a,
                             const BasicPotentialTable<K>& b) {
  ASSERT_EQ(a.sample_count(), b.sample_count());
  ASSERT_EQ(a.partition_count(), b.partition_count());
  ASSERT_EQ(a.codec().cardinalities(), b.codec().cardinalities());
  for (std::size_t p = 0; p < a.partition_count(); ++p) {
    ASSERT_EQ(a.partition(p).size(), b.partition(p).size()) << "partition " << p;
    bool equal = true;
    a.partition(p).for_each([&](K key, std::uint64_t c) {
      if (b.partition(p).count(key) != c) equal = false;
    });
    ASSERT_TRUE(equal) << "partition " << p << " contents differ";
  }
  ASSERT_TRUE(b.validate());
}

// ------------------------------------------------------------- round trips

template <typename K>
void run_round_trip(const std::string& tag, bool section_checksums) {
  const Dataset data = WidthOps<K>::make_data(4000, 0xD1);
  const BasicPotentialTable<K> table = build_table<K>(data);
  const serve::BasicSnapshot<K> snap(table, 7);

  const ScratchDir scratch = fresh_dir(tag);

  const std::filesystem::path& dir = scratch.path();
  persist::WriterOptions options;
  options.section_checksums = section_checksums;
  persist::BasicSnapshotWriter<K> writer(dir, options);
  writer.write(snap);

  const persist::SegmentData<K> loaded =
      persist::read_segment<K>(dir / persist::segment_name(7));
  EXPECT_EQ(loaded.version, 7u);
  expect_tables_identical(table, loaded.table);

  // And the directory as a whole recovers to the same snapshot.
  const persist::RecoveryResult<K> recovered =
      persist::recover_store_dir<K>(dir);
  ASSERT_TRUE(recovered.table.has_value());
  EXPECT_EQ(recovered.report.recovered_version, 7u);
  EXPECT_TRUE(recovered.report.manifest_valid);
  EXPECT_EQ(recovered.report.manifest_version, 7u);
  EXPECT_TRUE(recovered.report.rejected.empty());
  expect_tables_identical(table, *recovered.table);
}

TEST(SnapshotPersist, NarrowRoundTripIsByteIdentical) {
  run_round_trip<Key>("narrow_rt", true);
}

TEST(SnapshotPersist, WideRoundTripIsByteIdentical) {
  run_round_trip<WideKey>("wide_rt", true);
}

TEST(SnapshotPersist, RoundTripWithoutSectionChecksumsStillValidates) {
  run_round_trip<Key>("nochecksum_rt", false);
}

// Literal pin of a persisted segment: the round trips above write and read
// with the same code, so they cannot see a format change. A one-row table
// serializes to the header, one entry count and one record, which ends the
// segment. The header is pinned from the magic through its checksum, and
// the record is the key's words (lo before hi) and the count, native byte
// order.
template <typename K>
std::vector<std::uint8_t> one_record_segment(std::vector<std::uint32_t> cards,
                                             std::vector<State> row) {
  Dataset data(1, std::move(cards));
  std::copy(row.begin(), row.end(), data.row(0).begin());
  WaitFreeBuilderOptions options;
  options.threads = 1;
  const serve::BasicSnapshot<K> snap(BasicWaitFreeBuilder<K>(options).build(data),
                                     3);
  return persist::BasicSnapshotWriter<K>::serialize(snap, false);
}

TEST(SnapshotPersist, KeyRecordBytesArePinnedAtBothWidths) {
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "pins are written for a little-endian host";
  }
  // Narrow: 8 variables of r = 200, key 0x016d6576f1876e51.
  const std::vector<std::uint8_t> narrow = one_record_segment<Key>(
      std::vector<std::uint32_t>(8, 200), {1, 2, 3, 4, 5, 6, 7, 8});
  const std::vector<std::uint8_t> narrow_header = {
      0x57, 0x46, 0x53, 0x53,                           // magic "WFSS"
      0x01, 0x00, 0x00, 0x00,                           // format
      0x01, 0x00, 0x00, 0x00,                           // width: narrow
      0x00, 0x00, 0x00, 0x00,                           // flags
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // snapshot version
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // sample count
      0x08, 0x00, 0x00, 0x00,                           // variable count
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,   // cardinalities
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,                           // ownership: owner()
      0x00, 0x00, 0x00, 0x00,                           // reserved
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // partition count
      0x00, 0x00, 0x00, 0xc1, 0x6f, 0xf2, 0x86, 0x23,   // state space 200^8
      0x28, 0xff, 0xda, 0x22, 0x00, 0x4a, 0xc5, 0x42};  // header checksum
  const std::vector<std::uint8_t> narrow_record = {
      0x51, 0x6e, 0x87, 0xf1, 0x76, 0x65, 0x6d, 0x01,   // key
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};  // count
  ASSERT_EQ(narrow.size(), narrow_header.size() + 8 + narrow_record.size());
  // Everything before the entry count and the record is header.
  EXPECT_EQ(std::vector<std::uint8_t>(narrow.begin(), narrow.end() - 24),
            narrow_header);
  EXPECT_EQ(std::vector<std::uint8_t>(narrow.end() - 16, narrow.end()),
            narrow_record);

  // Wide: the codec of WideKeyCodec.FirstFitPackingIsPinned, key
  // (lo 0x487b4a5673876e51, hi 34).
  std::vector<std::uint32_t> cards(8, 200);
  cards.insert(cards.end(), {5, 3, 7});
  const std::vector<std::uint8_t> wide = one_record_segment<WideKey>(
      cards, {1, 2, 3, 4, 5, 6, 7, 8, 4, 2, 6});
  const std::vector<std::uint8_t> wide_header = {
      0x57, 0x46, 0x53, 0x53,                           // magic "WFSS"
      0x01, 0x00, 0x00, 0x00,                           // format
      0x02, 0x00, 0x00, 0x00,                           // width: wide
      0x00, 0x00, 0x00, 0x00,                           // flags
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // snapshot version
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // sample count
      0x0b, 0x00, 0x00, 0x00,                           // variable count
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,   // cardinalities
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0xc8, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,                           // ownership: owner()
      0x00, 0x00, 0x00, 0x00,                           // reserved
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // partition count
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,   // state space, saturated
      0xbc, 0xff, 0xc4, 0xf7, 0x12, 0xcf, 0x43, 0x5f};  // header checksum
  const std::vector<std::uint8_t> wide_record = {
      0x51, 0x6e, 0x87, 0x73, 0x56, 0x4a, 0x7b, 0x48,   // lo
      0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // hi
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};  // count
  ASSERT_EQ(wide.size(), wide_header.size() + 8 + wide_record.size());
  EXPECT_EQ(std::vector<std::uint8_t>(wide.begin(), wide.end() - 32),
            wide_header);
  EXPECT_EQ(std::vector<std::uint8_t>(wide.end() - 24, wide.end()), wide_record);
}

// ------------------------------------------------------ ownership rejections
//
// A segment whose header checksum is sound can still break the ownership
// rule: an ownership word other than 0, a state-space word the cardinalities
// do not give, or a key stored outside owner(k, P). Each must fail the
// strict read and send recovery back one version.

// Offsets of header words in a segment with `vars` cardinalities
// (format.hpp's layout).
std::size_t ownership_offset(std::size_t vars) { return 36 + 4 * vars; }
std::size_t state_space_offset(std::size_t vars) { return 52 + 4 * vars; }
std::size_t header_checksum_offset(std::size_t vars) { return 60 + 4 * vars; }

/// Overwrites the header word at `offset` and reseals the header checksum,
/// so only the reader's semantic checks can catch the edit.
template <typename Word>
void rewrite_header_word(std::vector<std::uint8_t>& bytes, std::size_t vars,
                         std::size_t offset, Word value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  const std::size_t sealed = header_checksum_offset(vars);
  const std::uint64_t checksum = fnv1a_bytes(bytes.data(), sealed);
  std::memcpy(bytes.data() + sealed, &checksum, sizeof checksum);
}

/// `bad` is segment version 2. Alone in a directory it must throw from
/// read_segment and recover to no table; behind a valid version 1 it must
/// send recovery back to version 1. Either way the rejection names
/// `defect`.
void expect_segment_rejected(const std::string& tag,
                             const std::vector<std::uint8_t>& bad,
                             const std::string& defect) {
  const auto expect_rejection = [&](const persist::RecoveryReport& report) {
    ASSERT_EQ(report.rejected.size(), 1u);
    EXPECT_EQ(report.rejected[0].version, 2u);
    EXPECT_NE(report.rejected[0].reason.find(defect), std::string::npos)
        << report.rejected[0].reason;
  };
  {
    const ScratchDir scratch = fresh_dir(tag + "_alone");
    const std::filesystem::path& dir = scratch.path();
    persist::write_file_atomic(dir, persist::segment_name(2), bad, false);
    EXPECT_THROW((void)persist::read_segment<Key>(dir / persist::segment_name(2)),
                 DataError);
    const auto recovered = persist::recover_store_dir<Key>(dir);
    EXPECT_FALSE(recovered.table.has_value());
    EXPECT_EQ(recovered.report.recovered_version, 0u);
    expect_rejection(recovered.report);
  }
  {
    const ScratchDir scratch = fresh_dir(tag + "_fallback");
    const std::filesystem::path& dir = scratch.path();
    const PotentialTable v1 =
        build_table<Key>(WidthOps<Key>::make_data(1000, 0xD5));
    persist::SnapshotWriter(dir).write(serve::Snapshot(v1, 1));
    persist::write_file_atomic(dir, persist::segment_name(2), bad, false);
    const auto recovered = persist::recover_store_dir<Key>(dir);
    ASSERT_TRUE(recovered.table.has_value());
    EXPECT_EQ(recovered.report.recovered_version, 1u);
    expect_rejection(recovered.report);
    expect_tables_identical(v1, *recovered.table);
  }
}

/// A sound 8-variable binary segment at version 2, for the header edits.
std::vector<std::uint8_t> sound_segment() {
  const PotentialTable table =
      build_table<Key>(WidthOps<Key>::make_data(1000, 0xD6));
  return persist::SnapshotWriter::serialize(serve::Snapshot(table, 2), true);
}

TEST(SnapshotPersist, RejectsUnknownOwnershipWord) {
  std::vector<std::uint8_t> bytes = sound_segment();
  rewrite_header_word(bytes, 8, ownership_offset(8), std::uint32_t{1});
  expect_segment_rejected("ownership_word", bytes, "ownership");
}

TEST(SnapshotPersist, RejectsStateSpaceThatDisagreesWithCardinalities) {
  std::vector<std::uint8_t> bytes = sound_segment();
  // 8 binary variables: the cardinalities give 2^8.
  rewrite_header_word(bytes, 8, state_space_offset(8), std::uint64_t{257});
  expect_segment_rejected("state_space_word", bytes, "state space");
}

TEST(SnapshotPersist, RejectsKeyOutsideItsOwnerPartition) {
  // Key 5 belongs to partition 5 % 2 = 1; this table holds it in 0, where
  // owner-routed count() and append() would never find it.
  PartitionedTable parts(2);
  parts.partition(0).increment(5, 2);
  const PotentialTable misplaced(KeyCodec({2, 2, 2}), std::move(parts), 2);
  const std::vector<std::uint8_t> bytes = persist::SnapshotWriter::serialize(
      serve::Snapshot(misplaced, 2), true);
  expect_segment_rejected("misplaced_key", bytes, "owner partition");
}

TEST(SnapshotPersist, NewestValidSegmentWinsOverStaleManifest) {
  // Crash window: segment v2 renamed, manifest still names v1. Durability
  // was reached at the rename, so recovery must serve v2 — and reopening
  // must repair the manifest.
  const Dataset base = WidthOps<Key>::make_data(3000, 0xD2);
  const Dataset more = WidthOps<Key>::make_data(5000, 0xD3);
  const PotentialTable t1 = build_table<Key>(base);
  const PotentialTable t2 = build_table<Key>(more);

  const ScratchDir scratch = fresh_dir("stale_manifest");

  const std::filesystem::path& dir = scratch.path();
  persist::SnapshotWriter writer(dir);
  writer.write(serve::Snapshot(t1, 1));           // segment 1 + manifest → 1
  writer.write_segment(serve::Snapshot(t2, 2));   // segment 2, manifest stale

  const auto recovered = persist::recover_store_dir<Key>(dir);
  ASSERT_TRUE(recovered.table.has_value());
  EXPECT_EQ(recovered.report.recovered_version, 2u);
  EXPECT_TRUE(recovered.report.manifest_valid);
  EXPECT_EQ(recovered.report.manifest_version, 1u);
  expect_tables_identical(t2, *recovered.table);

  // Reopen repairs the manifest to name the recovered version.
  persist::DurableOptions options;
  options.async = false;
  auto store = persist::DurableTableStore::open(dir, options);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->version(), 2u);
  const auto after = persist::recover_store_dir<Key>(dir);
  EXPECT_TRUE(after.report.manifest_valid);
  EXPECT_EQ(after.report.manifest_version, 2u);
}

TEST(SnapshotPersist, PruneKeepsNewestSegments) {
  const Dataset data = WidthOps<Key>::make_data(1500, 0xD4);
  const PotentialTable table = build_table<Key>(data);
  const ScratchDir scratch = fresh_dir("prune");
  const std::filesystem::path& dir = scratch.path();
  persist::WriterOptions options;
  options.keep_segments = 2;
  persist::SnapshotWriter writer(dir, options);
  for (std::uint64_t v = 1; v <= 5; ++v) {
    writer.write(serve::Snapshot(table, v));
  }
  EXPECT_FALSE(std::filesystem::exists(dir / persist::segment_name(3)));
  EXPECT_TRUE(std::filesystem::exists(dir / persist::segment_name(4)));
  EXPECT_TRUE(std::filesystem::exists(dir / persist::segment_name(5)));
  EXPECT_EQ(persist::recover_store_dir<Key>(dir).report.recovered_version, 5u);
}

// --------------------------------------------------------- crash-point sweep

// Every persist fault point × hit index, at both key widths: arm the point,
// attempt to persist version 2 over a durable version 1, treat the injected
// throw as a power cut (no cleanup), reopen, and require:
//  - the recovered version is 1 or 2, nothing else, no error;
//  - it is 2 exactly when segment 2 completed its atomic rename;
//  - the recovered table is byte-identical to the corresponding reference;
//  - orphaned temp files are ignored by recovery and removed by reopening.
struct CrashConfig {
  fault::Point point;
  std::uint64_t fire_on;
};

// Hit indices per atomic write: open/write/rename are hit once per file
// (segment, then manifest), fsync twice per file (file then directory), and
// persist.manifest once before the manifest write begins. fire_on values
// past a point's last hit simply never fire — the sweep then exercises the
// clean-completion arm of the oracle.
const CrashConfig kCrashConfigs[] = {
    {fault::Point::kPersistOpen, 1},    {fault::Point::kPersistOpen, 2},
    {fault::Point::kPersistWrite, 1},   {fault::Point::kPersistWrite, 2},
    {fault::Point::kPersistFsync, 1},   {fault::Point::kPersistFsync, 2},
    {fault::Point::kPersistFsync, 3},   {fault::Point::kPersistFsync, 4},
    {fault::Point::kPersistRename, 1},  {fault::Point::kPersistRename, 2},
    {fault::Point::kPersistManifest, 1},
};

template <typename K>
void run_crash_sweep(const std::string& tag) {
  const Dataset base = WidthOps<K>::make_data(2500, 0xE1);
  const Dataset more = WidthOps<K>::make_data(4000, 0xE2);
  const BasicPotentialTable<K> t1 = build_table<K>(base);
  const BasicPotentialTable<K> t2 = build_table<K>(more);

  for (const CrashConfig& config : kCrashConfigs) {
    SCOPED_TRACE(std::string(fault::point_name(config.point)) + "@" +
                 std::to_string(config.fire_on));
    const ScratchDir scratch =
        fresh_dir(tag + "_" + fault::point_name(config.point) + "_" +
                  std::to_string(config.fire_on));
    const std::filesystem::path& dir = scratch.path();
    persist::BasicSnapshotWriter<K> writer(dir);
    writer.write(serve::BasicSnapshot<K>(t1, 1));  // durable baseline

    bool crashed = false;
    {
      fault::ScopedFaultInjection injection;
      fault::arm(config.point, config.fire_on);
      try {
        writer.write(serve::BasicSnapshot<K>(t2, 2));
      } catch (const InjectedFault&) {
        crashed = true;  // power cut: no cleanup of temps or partial state
      }
    }

    const bool segment2_renamed =
        std::filesystem::exists(dir / persist::segment_name(2));
    const persist::RecoveryResult<K> recovered =
        persist::recover_store_dir<K>(dir);
    ASSERT_TRUE(recovered.table.has_value());
    const std::uint64_t v = recovered.report.recovered_version;
    ASSERT_TRUE(v == 1 || v == 2) << "recovered " << v;
    EXPECT_EQ(v == 2, segment2_renamed)
        << "durability frontier must be exactly the completed renames";
    if (!crashed) {
      EXPECT_EQ(v, 2u);
    }
    expect_tables_identical(v == 2 ? t2 : t1, *recovered.table);

    // Reopen as a live store: serves the same snapshot at the durable
    // version, cleans crash orphans, and accepts further ingests.
    persist::DurableOptions options;
    options.async = false;
    auto store = persist::BasicDurableTableStore<K>::open(dir, options);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->version(), v);
    EXPECT_EQ(store->last_durable_version(), v);
    expect_tables_identical(v == 2 ? t2 : t1, store->current()->table());
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_NE(entry.path().extension(), persist::kTempSuffix)
          << "reopen must remove crash orphans: " << entry.path();
    }
    const serve::IngestStats stats = store->ingest(more);
    EXPECT_EQ(stats.published_version, v + 1);
    EXPECT_TRUE(store->flush());
    EXPECT_EQ(store->last_durable_version(), v + 1);
  }
}

TEST(PersistCrashSweep, NarrowEveryFaultPointRecoversToDurableFrontier) {
  run_crash_sweep<Key>("crash_narrow");
}

TEST(PersistCrashSweep, WideEveryFaultPointRecoversToDurableFrontier) {
  run_crash_sweep<WideKey>("crash_wide");
}

// ------------------------------------------------------- DurableTableStore

TEST(DurableTableStore, FreshStoreIsDurableFromVersionOne) {
  const Dataset data = WidthOps<Key>::make_data(2000, 0xF1);
  const ScratchDir scratch = fresh_dir("fresh_v1");
  const std::filesystem::path& dir = scratch.path();
  persist::DurableOptions options;
  options.async = false;
  {
    persist::DurableTableStore store(dir, build_table<Key>(data), options);
    EXPECT_EQ(store.version(), 1u);
    EXPECT_EQ(store.last_durable_version(), 1u);
  }
  // The store object is gone; the directory alone restores version 1.
  auto reopened = persist::DurableTableStore::open(dir, options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->version(), 1u);
  expect_tables_identical(build_table<Key>(data),
                          reopened->current()->table());
}

TEST(DurableTableStore, IngestFlushReopenResumesVersionSequence) {
  const Dataset base = WidthOps<Key>::make_data(2000, 0xF2);
  const Dataset batch = WidthOps<Key>::make_data(1000, 0xF3);
  const ScratchDir scratch = fresh_dir("resume");
  const std::filesystem::path& dir = scratch.path();
  persist::DurableOptions options;  // async

  {
    persist::DurableTableStore store(dir, build_table<Key>(base), options);
    for (int i = 0; i < 3; ++i) (void)store.ingest(batch);
    EXPECT_EQ(store.version(), 4u);
    EXPECT_TRUE(store.flush());
    EXPECT_EQ(store.last_durable_version(), 4u);
  }

  persist::RecoveryReport report;
  auto reopened = persist::DurableTableStore::open(dir, options, &report);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(report.recovered_version, 4u);
  EXPECT_EQ(reopened->version(), 4u);
  // The sequence resumes: the next ingest is version 5, not a reissued 2.
  const serve::IngestStats stats = reopened->ingest(batch);
  EXPECT_EQ(stats.published_version, 5u);
  EXPECT_TRUE(reopened->flush());
  EXPECT_EQ(reopened->last_durable_version(), 5u);
}

TEST(DurableTableStore, OpenOnEmptyDirectoryReturnsNull) {
  const ScratchDir scratch = fresh_dir("empty_open");
  const std::filesystem::path& dir = scratch.path();
  persist::RecoveryReport report;
  EXPECT_EQ(persist::DurableTableStore::open(dir, {}, &report), nullptr);
  EXPECT_EQ(report.recovered_version, 0u);
  EXPECT_FALSE(report.manifest_valid);
  EXPECT_EQ(report.segments_scanned, 0u);
}

TEST(DurableTableStore, PersistFailureLagsDurabilityAndFlushRetries) {
  const Dataset base = WidthOps<Key>::make_data(2000, 0xF4);
  const Dataset batch = WidthOps<Key>::make_data(1000, 0xF5);
  const ScratchDir scratch = fresh_dir("lagging");
  const std::filesystem::path& dir = scratch.path();
  persist::DurableOptions options;
  options.async = false;
  persist::DurableTableStore store(dir, build_table<Key>(base), options);

  {
    fault::ScopedFaultInjection injection;
    fault::arm(fault::Point::kPersistRename, 1);
    // The publish itself must succeed — durability lags, it does not veto.
    const serve::IngestStats stats = store.ingest(batch);
    EXPECT_EQ(stats.published_version, 2u);
    EXPECT_EQ(store.version(), 2u);
    EXPECT_EQ(store.last_durable_version(), 1u);
    EXPECT_EQ(store.persist_stats().failures, 1u);
    EXPECT_FALSE(store.persist_stats().last_error.empty());
    // Armed points fire exactly once (on the k-th hit), so flush() retrying
    // the persist inline succeeds — durability catches up to the publish.
    EXPECT_TRUE(store.flush());
  }
  EXPECT_EQ(store.last_durable_version(), 2u);
  EXPECT_EQ(store.persist_stats().failures, 1u);
}

TEST(DurableTableStore, AsyncPersistCoalescesUnderBurst) {
  const Dataset base = WidthOps<Key>::make_data(2000, 0xF6);
  const Dataset batch = WidthOps<Key>::make_data(500, 0xF7);
  const ScratchDir scratch = fresh_dir("coalesce");
  const std::filesystem::path& dir = scratch.path();
  persist::DurableTableStore store(dir, build_table<Key>(base));

  constexpr int kBursts = 12;
  for (int i = 0; i < kBursts; ++i) (void)store.ingest(batch);
  EXPECT_TRUE(store.flush());
  EXPECT_EQ(store.last_durable_version(),
            static_cast<std::uint64_t>(kBursts) + 1);

  const persist::PersistStats stats = store.persist_stats();
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GE(stats.persisted, 2u);  // at least v1 and the final version
  // Every request is either persisted, coalesced into a newer one, or
  // superseded before its turn — never silently lost.
  EXPECT_LE(stats.persisted + stats.coalesced, stats.requested);
  // Reopen lands on the final version even though intermediates were skipped.
  persist::DurableOptions sync_options;
  sync_options.async = false;
  auto reopened = persist::DurableTableStore::open(dir, sync_options);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->version(), static_cast<std::uint64_t>(kBursts) + 1);
  expect_tables_identical(store.current()->table(),
                          reopened->current()->table());
}

}  // namespace
}  // namespace wfbn
