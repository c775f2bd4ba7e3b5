// wfcheck: a loom/relacy-style deterministic concurrency model checker for
// the repo's wait-free primitives.
//
// The Model runs real protocol code (SpscQueue, SpinBarrier, BasicPtrCell —
// instantiated with the ModelAtomics policy from analysis/model_atomic.hpp)
// under a cooperative scheduler. Only one model thread runs at a time; every
// atomic operation on a *shared* location is a schedule point where the
// scheduler may hand control to another thread. Schedules are enumerated
// depth-first and exhaustively up to a preemption bound, with DPOR-lite
// pruning (last-access/sharedness: context switches are only considered at
// operations on locations touched by more than one thread — learned across
// executions and iterated to a fixpoint — plus sleep sets over explored
// siblings), and then sampled with seeded random schedules beyond the bound.
//
// Weak memory is simulated operationally, per location:
//  - every atomic store is appended to the location's modification-order
//    history; a relaxed or acquire load may legally return ANY store not
//    excluded by coherence (the thread's per-location view) — which store is
//    itself a checker decision, so stale values are explored systematically;
//  - release stores snapshot the writer's views; acquire loads that read
//    them merge the snapshot (the syncs-with edge). A release edge that was
//    never formed — e.g. a store mutated to relaxed — therefore never
//    transfers the writer's clock, and the non-atomic data it was supposed
//    to publish (Policy::Data cells) is flagged by the vector-clock race
//    detector;
//  - seq_cst is modeled as acquire/release plus a per-location constraint
//    that a seq_cst load cannot read anything older than the newest seq_cst
//    store (the SC total order is the schedule order).
//
// What the model can and cannot prove is documented in docs/VERIFICATION.md.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace.hpp"
#include "analysis/version_vec.hpp"

namespace wfbn::mc {

struct ModelOptions {
  /// Max context switches away from a runnable thread per execution in the
  /// exhaustive phase (free switches at blocked/finished threads don't
  /// count). The phase enumerates every schedule within this bound.
  std::size_t preemption_bound = 2;
  /// Abort the exhaustive phase (exhausted=false) past this many executions.
  std::uint64_t max_exhaustive_executions = 200000;
  /// Seeded random schedules run after the exhaustive phase, with no
  /// preemption bound — the "beyond the bound" sampling pass.
  std::size_t random_schedules = 128;
  std::uint64_t seed = 0x5eed;
  /// Runaway guard: an execution this long is reported as a livelock.
  std::size_t max_steps_per_execution = 50000;
  /// Sleep-set pruning over explored siblings (exhaustive phase only).
  bool sleep_sets = true;
  /// Mutation knob for the checker's self-test: every release/seq_cst STORE
  /// to the atomic location with this creation-order id executes as relaxed
  /// (no release view, no SC slot). -1 = off.
  int demote_store_loc = -1;
};

struct CheckResult {
  bool ok = true;
  bool exhausted = false;  ///< exhaustive phase fully enumerated within bounds
  std::uint64_t executions = 0;
  std::uint64_t exhaustive_executions = 0;
  std::uint64_t random_executions = 0;
  std::uint64_t branch_points = 0;    ///< decision nodes visited (all kinds)
  std::uint64_t sleep_set_prunes = 0; ///< executions cut as redundant
  std::uint64_t sharing_rounds = 0;   ///< fixpoint repeats of the phase
  std::size_t shared_locations = 0;
  std::string failure;  ///< empty = all executions passed
  Trace trace;          ///< the failing interleaving when !ok
  [[nodiscard]] std::string summary() const;
};

/// Thrown inside model threads to unwind them when an execution is aborted
/// (failure found, or schedule pruned as redundant). User protocol code is
/// exception-safe, so stacks unwind cleanly.
struct AbortExecution {};

enum class RmwOp : std::uint8_t { kAdd, kSub, kExchange, kCas };

class Model {
 public:
  /// The model driving the calling thread's execution, or nullptr when the
  /// caller is not a model thread (i.e. production code).
  static Model* current() noexcept;

  /// Runs `body` (on model thread 0) under every schedule the options allow.
  /// `body` constructs the shared state, spawns threads with mc::spawn,
  /// joins them with mc::join, and asserts invariants with mc::model_assert.
  /// Stops at the first failing schedule.
  CheckResult check(const ModelOptions& options,
                    const std::function<void()>& body);

  /// Runs exactly ONE execution under the seeded random scheduler and
  /// returns its trace (pass or fail) — the replay-by-seed entry point.
  Trace replay_seed(const ModelOptions& options, std::uint64_t seed,
                    const std::function<void()>& body);

  // ------------------------------------------------------------------
  // Instrumentation API — called from model threads by the ModelAtomic /
  // ModelData wrappers and the spawn/join/yield helpers.
  // ------------------------------------------------------------------
  /// `pointer`: the location holds addresses, which the trace records as
  /// per-execution ordinals so replays compare equal (see TraceEvent).
  std::size_t register_atomic(std::uint64_t initial, bool pointer);
  void unregister_atomic(std::size_t loc);
  std::uint64_t atomic_load(std::size_t loc, std::memory_order mo);
  void atomic_store(std::size_t loc, std::uint64_t value, std::memory_order mo);
  /// Returns the previous value. For kCas, `*cas_ok` reports success and the
  /// store only happens when the previous value equals `cas_expected`.
  std::uint64_t atomic_rmw(std::size_t loc, RmwOp op, std::uint64_t operand,
                           std::uint64_t cas_expected, std::memory_order mo,
                           bool* cas_ok = nullptr);

  std::size_t register_data();
  void unregister_data(std::size_t loc);
  void data_load(std::size_t loc, std::uint64_t value_bits);
  void data_store(std::size_t loc, std::uint64_t value_bits);

  std::size_t spawn(std::function<void()> fn);
  void join(std::size_t tid);
  /// What a model spin loop does while it waits: the thread is descheduled
  /// until some other thread performs an atomic store/RMW.
  void thread_yield();
  /// Records a failure and aborts the current execution.
  [[noreturn]] void fail(const std::string& message);

 private:
  static constexpr std::size_t kController = SIZE_MAX;

  struct StoreRecord {
    std::uint64_t value = 0;
    std::size_t writer = 0;
    std::uint32_t seq = 0;
    bool has_release_view = false;
    VersionVec release_hb;                    ///< writer hb at the release
    std::vector<std::uint32_t> release_locs;  ///< writer per-loc view at it
    bool is_sc = false;
    std::size_t event_index = 0;
  };

  struct AtomicLoc {
    std::vector<StoreRecord> history;  ///< modification order, pruned prefix
    std::uint32_t next_seq = 0;
    std::int64_t latest_sc_seq = -1;
    bool alive = true;
    bool pointer = false;  ///< values are addresses (traced as ordinals)
  };

  struct DataLoc {
    std::size_t last_writer = SIZE_MAX;
    std::uint32_t write_epoch = 0;
    std::size_t write_event = SIZE_MAX;
    std::array<std::uint32_t, kMaxThreads> read_epochs{};
    std::array<std::size_t, kMaxThreads> read_events{};
    bool alive = true;
  };

  struct PendingOp {
    OpKind kind = OpKind::kThreadStart;
    std::size_t loc = SIZE_MAX;
    bool is_write = false;
  };

  struct ThreadCtx {
    std::size_t id = 0;
    std::thread thr;
    enum class State { kRunnable, kBlockedJoin, kYielded, kDone };
    State state = State::kRunnable;
    std::size_t join_target = SIZE_MAX;
    std::uint64_t yield_epoch = 0;  ///< store_epoch_ when it yielded
    PendingOp pending;
    VersionVec hb;
    std::vector<std::uint32_t> loc_view;  ///< per atomic loc: coherence floor
    std::function<void()> fn;
  };

  struct ChoiceNode {
    std::uint32_t pick = 0;
    std::uint32_t n = 0;
  };

  struct SleepEntry {
    std::size_t tid;
    std::size_t loc;
    bool is_write;
  };

  // --- execution driving (controller side) ---
  void run_one_execution(const std::function<void()>& body);
  void launch_thread(std::size_t tid);
  void resume_thread(std::size_t tid);
  void abort_all_threads();
  void finish_threads();
  std::size_t pick_next_thread(bool* out_redundant);
  CheckResult finalize_failure(std::uint64_t seed);
  [[nodiscard]] std::size_t count_shared() const;
  [[nodiscard]] bool is_sleeping(std::size_t tid) const;

  // --- model thread side ---
  void thread_main(std::size_t tid);
  void schedule_point(ThreadCtx& self);
  [[nodiscard]] bool runnable_now(const ThreadCtx& t) const;
  [[nodiscard]] bool has_unseen_store(const ThreadCtx& t) const;

  // --- decisions ---
  std::size_t choose(std::size_t n);
  std::uint64_t rng_next();

  // --- memory model ---
  std::uint64_t execute_load(ThreadCtx& self, std::size_t loc,
                             std::memory_order mo);
  void execute_store(ThreadCtx& self, std::size_t loc, std::uint64_t value,
                     std::memory_order mo);
  void prune_history(std::size_t loc);
  void wake_sleepers(std::size_t loc, bool is_write);
  TraceEvent& record_event(ThreadCtx& self, OpKind kind, std::size_t loc,
                           bool loc_is_data, std::uint64_t value, int order);
  [[nodiscard]] bool loc_is_shared(std::size_t loc) const;
  [[nodiscard]] bool should_park(std::size_t loc) const;
  void mark_accessor(std::size_t loc, std::size_t tid);
  std::uint32_t& view_of(ThreadCtx& t, std::size_t loc);

  ThreadCtx& self_ctx();

  // --- per-check() state ---
  ModelOptions opts_;
  std::vector<std::uint8_t> shared_mask_;  ///< per loc id: accessor bitmask
  bool sharing_grew_ = false;
  CheckResult result_;

  // --- per-execution state ---
  std::vector<ThreadCtx> threads_;
  std::vector<AtomicLoc> atomics_;
  std::vector<DataLoc> datas_;
  /// Non-null addresses stored into pointer locations, in first-seen order;
  /// the trace prints an address as its 1-based position here.
  std::vector<std::uint64_t> addresses_;
  Trace trace_;
  std::vector<ChoiceNode> path_;
  std::vector<std::uint32_t> prefix_;
  std::size_t depth_ = 0;
  std::size_t preemptions_ = 0;
  std::size_t step_count_ = 0;
  std::uint64_t store_epoch_ = 1;
  std::size_t current_ = kController;
  std::vector<SleepEntry> sleeping_;
  bool random_mode_ = false;
  std::uint64_t rng_state_ = 0;
  std::uint64_t cur_seed_ = 0;
  bool aborting_ = false;
  bool redundant_ = false;
  bool failed_ = false;

  // --- handoff ---
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t running_ = kController;
};

// ------------------------------------------------------------------
// Harness-facing helpers (thin forwarding onto the active model).
// ------------------------------------------------------------------
std::size_t spawn(std::function<void()> fn);
void join(std::size_t tid);
void yield();
void model_assert(bool condition, const char* message);

/// One-shot convenience wrappers around a fresh Model.
CheckResult check(const ModelOptions& options, const std::function<void()>& body);
Trace replay_seed(const ModelOptions& options, std::uint64_t seed,
                  const std::function<void()>& body);

}  // namespace wfbn::mc
