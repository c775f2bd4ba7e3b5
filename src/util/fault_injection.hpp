// Deterministic fault injection for the concurrency layer.
//
// Every risky step in the wait-free primitives is a *named failure point*:
// queue chunk allocation, the stage-1 row loop, the barrier crossing, the
// stage-2 drain, thread spawn, core pinning, the append commit, and the
// marginalization / MI sweeps. Tests arm a point to fire on its k-th hit —
// throwing an InjectedFault, or reporting a failure flag for the graceful-
// degradation paths that must not throw. Hit counters are process-global
// atomics, so "fire on hit k" means exactly the k-th arrival fires, whichever
// worker gets there — one firing per armed point, reproducible effects.
//
// Cost when disabled: a single relaxed load of one global atomic bool per
// checkpoint (the hot row loops hoist even that into a register — see
// WaitFreeBuilder). Nothing is ever allocated or locked on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace wfbn {

/// Thrown by an armed failure point. A distinct type so tests can tell an
/// injected failure from a genuine DataError/PreconditionError.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace fault {

/// The compiled-in failure points. Keep fault_point_name() in sync.
enum class Point : int {
  kThreadSpawn = 0,   ///< ThreadPool constructor, before each spawn
  kPinThread,         ///< pin_current_thread(), before the syscall
  kSpscChunkAlloc,    ///< SpscQueue::push, before allocating a fresh chunk
  kStage1Row,         ///< builder stage-1 kernel, once per scanned row
  kBarrier,           ///< phased builder, just before the barrier crossing
  kStage2Drain,       ///< phased builder stage 2, once per drained item
  kAppendCommit,      ///< append(), after staging and before the commit
  kMarginalizeSweep,  ///< marginalizer worker, once per swept partition
  kMiSweep,           ///< entry-plane build (MI, CI tests, counting-index
                      ///< main), once per swept partition; per-pair MI
                      ///< sweep, once per pair
  kServePublish,      ///< TableStore::ingest, after the shadow fold and
                      ///< before the atomic snapshot swap
  kServeCache,        ///< ResultCache::insert, before storing a computed
                      ///< answer (degrades: the answer is served uncached)
  kPersistOpen,       ///< persist: before opening/creating a temp file
  kPersistWrite,      ///< persist: before writing serialized bytes
  kPersistFsync,      ///< persist: before fsyncing a written file
  kPersistRename,     ///< persist: before the atomic rename publish
  kPersistManifest,   ///< persist: before the manifest update begins
  kRecoverChecksum,   ///< recovery: during checksum validation (degrades:
                      ///< the section is treated as corrupt and recovery
                      ///< falls back — it never throws)
  kNetAccept,         ///< server event loop, before accepting a pending
                      ///< connection (the accept is abandoned; the listener
                      ///< keeps serving)
  kNetRead,           ///< server/client, before a socket read (the affected
                      ///< connection is closed; others are untouched)
  kNetWrite,          ///< server/client, before a socket write (ditto)
  kNetFrameChecksum,  ///< frame decoder, at payload checksum validation
                      ///< (degrades: the comparison reports a mismatch, so
                      ///< the frame is treated as corrupt)
  kAdmissionReject,   ///< admission controller, per admit() decision
                      ///< (degrades: the request is rejected OVERLOADED as
                      ///< if a queue were full)
  kLearnCiTest,       ///< CI tester, at the top of every statistics test
                      ///< (a throw mid-batch surfaces after the scheduler
                      ///< round completes; the learner's graphs are only
                      ///< mutated after a successful batch, so no torn state)
  kLearnSchedule,     ///< CI scheduler, before dispatching each work item
};
inline constexpr int kPointCount = static_cast<int>(Point::kLearnSchedule) + 1;

[[nodiscard]] const char* point_name(Point point) noexcept;

/// Global kill switch. All checkpoints reduce to one relaxed load + branch
/// while this is false, which is the default outside tests.
inline std::atomic<bool> g_enabled{false};

[[nodiscard]] inline bool enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

/// Arms `point` to fire on its `fire_on_hit`-th hit (1-based) counted from
/// the last reset().
void arm(Point point, std::uint64_t fire_on_hit);

/// Disarms every point and zeroes all hit counters. Does not toggle enabled().
void reset() noexcept;

/// Counts a hit on `point`; throws InjectedFault when it fires.
/// Callers must only reach this when enabled() is true.
void fire(Point point);

/// Counts a hit on `point`; returns true when it fires. The non-throwing
/// flavor for noexcept degradation paths (thread spawn, core pinning).
[[nodiscard]] bool should_fail(Point point) noexcept;

/// Hits observed on `point` since the last reset(). Test introspection only.
[[nodiscard]] std::uint64_t hits(Point point) noexcept;

/// Arms a small pseudo-random subset of throwing points from `seed` (the
/// randomized fault-schedule fuzz sweep). Returns a human-readable schedule
/// description for failure traces.
std::string arm_random_schedule(std::uint64_t seed);

/// Arms a small pseudo-random subset of the network/admission points from
/// `seed` — the net-layer flavor of arm_random_schedule for the serving
/// front-end fuzz sweeps, covering both the throwing socket points
/// (net.accept/read/write) and the degradation points (net.frame_checksum,
/// admission.reject) that reject rather than throw.
std::string arm_random_net_schedule(std::uint64_t seed);

/// RAII for tests: reset + enable on construction, reset + restore previous
/// enabled state on destruction.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection()
      : was_enabled_(g_enabled.exchange(true, std::memory_order_seq_cst)) {
    reset();
  }
  ~ScopedFaultInjection() {
    reset();
    g_enabled.store(was_enabled_, std::memory_order_seq_cst);
  }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  bool was_enabled_;
};

}  // namespace fault
}  // namespace wfbn

/// Checkpoint macro for paths outside the innermost loops: one relaxed load
/// when disabled. The row-loop call sites hoist enabled() manually instead.
#define WFBN_FAULT_POINT(point)                             \
  do {                                                      \
    if (::wfbn::fault::enabled()) [[unlikely]] {            \
      ::wfbn::fault::fire(point);                           \
    }                                                       \
  } while (false)
