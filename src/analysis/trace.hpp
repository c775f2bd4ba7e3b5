// Failure traces for wfcheck: every instrumented operation of an execution
// is recorded as a TraceEvent, and when an execution fails (assertion, data
// race, deadlock, livelock) the full interleaving plus the happens-before
// edges that DID form is printed — the missing edge is usually visible by
// its absence. Traces also carry the decision string and seed that replay
// the schedule byte-for-byte (tests/test_wfcheck.cpp proves this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace wfbn::mc {

enum class OpKind : std::uint8_t {
  kAtomicLoad,
  kAtomicStore,
  kAtomicRmw,
  kDataLoad,
  kDataStore,
  kYield,
  kSpawn,
  kJoin,
  kThreadStart,
  kThreadExit,
};

[[nodiscard]] const char* op_kind_name(OpKind kind) noexcept;

/// Memory orders as trace strings ("relaxed", "acquire", ...).
[[nodiscard]] const char* order_name(int std_memory_order) noexcept;

struct TraceEvent {
  std::size_t index = 0;       ///< position in the interleaving
  std::size_t thread = 0;
  OpKind kind = OpKind::kAtomicLoad;
  std::size_t loc = SIZE_MAX;  ///< location id (creation order), SIZE_MAX n/a
  bool loc_is_data = false;
  std::uint64_t value = 0;     ///< value read or written (raw bits, or the
                               ///< address ordinal when `pointer`)
  bool pointer = false;        ///< value is the k-th distinct non-null
                               ///< address of the execution, not the address
  int order = -1;              ///< std::memory_order as int, -1 n/a
  std::size_t read_from = SIZE_MAX;  ///< for loads: mod-order seq of the store read
  bool synced = false;         ///< acquire load merged a release view
  bool demoted = false;        ///< mutation knob stripped this store's release
  std::string note;
};

/// One happens-before edge established by synchronization during the
/// execution (release store event -> acquire load event).
struct HbEdge {
  std::size_t from_event = 0;
  std::size_t to_event = 0;
  std::size_t loc = 0;
};

struct Trace {
  std::vector<TraceEvent> events;
  std::vector<HbEdge> hb_edges;
  std::vector<std::uint32_t> decisions;  ///< choice string that replays this
  std::uint64_t seed = 0;                ///< nonzero: random-mode schedule seed
  std::string failure;                   ///< empty = execution passed

  /// Human-readable dump: interleaving, then hb edges, then replay recipe.
  [[nodiscard]] std::string to_string() const;
};

}  // namespace wfbn::mc
