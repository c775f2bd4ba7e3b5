#include "util/fault_injection.hpp"

#include "util/rng.hpp"

namespace wfbn::fault {

namespace {

// Per-point state on its own cache line: hit counters are bumped from every
// worker thread, and sharing a line across points would couple unrelated
// failure points' costs.
struct alignas(64) PointState {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::int64_t> fire_on{-1};  // 1-based hit index; -1 = disarmed
};

PointState g_points[kPointCount];

PointState& state_of(Point point) noexcept {
  return g_points[static_cast<int>(point)];
}

/// Counts a hit and reports whether this is exactly the armed one.
bool advance_and_check(PointState& s) noexcept {
  const std::uint64_t hit =
      s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::int64_t fire_on = s.fire_on.load(std::memory_order_relaxed);
  return fire_on >= 0 && hit == static_cast<std::uint64_t>(fire_on);
}

}  // namespace

const char* point_name(Point point) noexcept {
  switch (point) {
    case Point::kThreadSpawn: return "pool.spawn";
    case Point::kPinThread: return "affinity.pin";
    case Point::kSpscChunkAlloc: return "spsc.chunk_alloc";
    case Point::kStage1Row: return "builder.stage1_row";
    case Point::kBarrier: return "builder.barrier";
    case Point::kStage2Drain: return "builder.stage2_drain";
    case Point::kAppendCommit: return "builder.append_commit";
    case Point::kMarginalizeSweep: return "marginalizer.sweep";
    case Point::kMiSweep: return "all_pairs_mi.sweep";
    case Point::kServePublish: return "serve.publish";
    case Point::kServeCache: return "serve.cache_insert";
    case Point::kPersistOpen: return "persist.open";
    case Point::kPersistWrite: return "persist.write";
    case Point::kPersistFsync: return "persist.fsync";
    case Point::kPersistRename: return "persist.rename";
    case Point::kPersistManifest: return "persist.manifest";
    case Point::kRecoverChecksum: return "recover.checksum";
    case Point::kNetAccept: return "net.accept";
    case Point::kNetRead: return "net.read";
    case Point::kNetWrite: return "net.write";
    case Point::kNetFrameChecksum: return "net.frame_checksum";
    case Point::kAdmissionReject: return "admission.reject";
    case Point::kLearnCiTest: return "learn.ci_test";
    case Point::kLearnSchedule: return "learn.schedule";
  }
  return "unknown";
}

void arm(Point point, std::uint64_t fire_on_hit) {
  PointState& s = state_of(point);
  s.hits.store(0, std::memory_order_relaxed);
  s.fire_on.store(static_cast<std::int64_t>(fire_on_hit),
                  std::memory_order_relaxed);
}

void reset() noexcept {
  for (PointState& s : g_points) {
    s.fire_on.store(-1, std::memory_order_relaxed);
    s.hits.store(0, std::memory_order_relaxed);
  }
}

void fire(Point point) {
  if (!advance_and_check(state_of(point))) return;
  throw InjectedFault(std::string("injected fault at ") + point_name(point));
}

bool should_fail(Point point) noexcept {
  return advance_and_check(state_of(point));
}

std::uint64_t hits(Point point) noexcept {
  return state_of(point).hits.load(std::memory_order_relaxed);
}

std::string arm_random_schedule(std::uint64_t seed) {
  // Only throwing points participate: spawn/pin/cache-insert/recover-checksum
  // arming changes behavior via degradation instead of an error, which the
  // fuzz sweeps exercise separately from their match-or-typed-error oracle.
  //
  // Every point here is width-generic: the builder, marginalizer, MI, and
  // serve kernels are one key-trait-templated implementation, so a schedule
  // armed through this function fires identically under narrow (64-bit) and
  // wide (two-word) keys. The wide sweep in tests/test_fault_injection.cpp
  // relies on this — there is no separate wide point list to keep in sync.
  // The socket points (net.accept/read/write) are armed here too: they throw
  // like the rest, and a schedule armed before a non-network run simply
  // leaves them unreached (hit count 0), so the existing build/serve/persist
  // sweeps keep their oracle. The degradation-flavor net points live in
  // arm_random_net_schedule below.
  static constexpr Point kThrowing[] = {
      Point::kSpscChunkAlloc, Point::kStage1Row,  Point::kBarrier,
      Point::kStage2Drain,    Point::kAppendCommit,
      Point::kMarginalizeSweep, Point::kMiSweep, Point::kServePublish,
      Point::kPersistOpen,    Point::kPersistWrite, Point::kPersistFsync,
      Point::kPersistRename,  Point::kPersistManifest,
      Point::kNetAccept,      Point::kNetRead, Point::kNetWrite,
      Point::kLearnCiTest,    Point::kLearnSchedule,
  };
  constexpr std::size_t kThrowingCount = sizeof kThrowing / sizeof kThrowing[0];
  reset();
  Xoshiro256 rng(seed);
  const std::size_t armed = 1 + rng.bounded(3);
  std::string description;
  for (std::size_t i = 0; i < armed; ++i) {
    const Point point = kThrowing[rng.bounded(kThrowingCount)];
    const std::uint64_t fire_on = 1 + rng.bounded(64);
    arm(point, fire_on);
    if (!description.empty()) description += ", ";
    description += std::string(point_name(point)) + "@" +
                   std::to_string(fire_on);
  }
  return description;
}

std::string arm_random_net_schedule(std::uint64_t seed) {
  // Every network-facing point participates, including the degradation
  // flavors: the net fuzz oracle is not "error XOR bit-identical result" but
  // "the server survives and every other connection keeps serving", which
  // holds for forced checksum mismatches and forced rejections just as it
  // does for thrown socket failures.
  static constexpr Point kNetPoints[] = {
      Point::kNetAccept, Point::kNetRead, Point::kNetWrite,
      Point::kNetFrameChecksum, Point::kAdmissionReject,
  };
  constexpr std::size_t kNetCount = sizeof kNetPoints / sizeof kNetPoints[0];
  reset();
  Xoshiro256 rng(seed);
  const std::size_t armed = 1 + rng.bounded(2);
  std::string description;
  for (std::size_t i = 0; i < armed; ++i) {
    const Point point = kNetPoints[rng.bounded(kNetCount)];
    const std::uint64_t fire_on = 1 + rng.bounded(16);
    arm(point, fire_on);
    if (!description.empty()) description += ", ";
    description += std::string(point_name(point)) + "@" +
                   std::to_string(fire_on);
  }
  return description;
}

}  // namespace wfbn::fault
