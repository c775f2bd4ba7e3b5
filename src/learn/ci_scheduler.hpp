// Parallel scheduling of conditional-independence tests (Jiang et al.,
// "Fast Parallel Bayesian Network Structure Learning"): instead of
// parallelizing *inside* one marginalization, a learner batches the
// independent CI tests of a phase or level into work items and spreads the
// items across a borrowed ThreadPool. Each work item runs one whole test —
// marginalization (sequential, through the tester's reuse cache) plus the
// statistic — so P tests are in flight at once and the per-level wall clock
// approaches max-over-workers instead of sum-over-tests.
//
// Determinism: work item i always computes decision slot i, whatever worker
// runs it and in whatever order items finish. Learners build their item
// lists from a *frozen* view of the graph and apply the collected decisions
// afterwards in canonical order, so results are bit-identical for every pool
// width — P=1 and P=8 produce the same skeleton, the same orientations, the
// same statistics.
//
// Failure atomicity: ThreadPool::run rethrows the first worker exception
// only after every worker finished its round, and scheduler statistics are
// committed only when a batch succeeds. A mid-batch throw (an injected
// learn.* fault, a cancellation, a data error) therefore surfaces to the
// learner *between* batches, where no graph mutation has happened yet — a
// failed learn is a clean error, never a torn graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "concurrent/thread_pool.hpp"
#include "learn/independence.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace wfbn {

/// One CI test to schedule: X ⟂ Y | Z?
struct CiTask {
  std::size_t x = 0;
  std::size_t y = 0;
  std::vector<std::size_t> z;
};

/// Accumulated over every batch a scheduler instance ran. Busy times are
/// per-thread CPU time (CLOCK_THREAD_CPUTIME_ID), so the critical path —
/// Σ over batches of the slowest worker's busy time — models the makespan of
/// a machine with one core per worker even when the host timeshares fewer
/// cores. Cache totals are filled in by the owning learner from the tester's
/// reuse cache at the end of a learn() call.
struct CiScheduleStats {
  std::uint64_t work_items = 0;
  std::uint64_t batches = 0;
  double total_busy_seconds = 0.0;     ///< Σ_batches Σ_workers busy CPU
  double critical_path_seconds = 0.0;  ///< Σ_batches max_worker busy CPU
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t misses_projected = 0;  ///< cache misses per MarginalSource
  std::uint64_t misses_lattice = 0;
  std::uint64_t misses_scatter = 0;
};

/// Schedules batches of independent work items over a borrowed pool. The
/// pool must outlive the scheduler; one scheduler instance accumulates stats
/// across all its batches (one learner phase typically runs several).
///
/// Not itself thread-safe: one thread drives the scheduler, the pool's
/// workers execute the items.
template <typename K>
class BasicCiScheduler {
 public:
  using Tester = BasicCiTester<K>;

  explicit BasicCiScheduler(ThreadPool& pool) : pool_(&pool) {}

  /// Runs `fn(i)` for every i in [0, count) across the pool's workers with
  /// cyclic item assignment (worker w gets items w, w+P, w+2P, … — balanced
  /// when item costs vary smoothly with index, which CI levels do). `fn`
  /// must be safe to call concurrently for distinct i and must write only
  /// into slot i of any shared output. Rethrows the first item exception
  /// after the whole batch has quiesced; stats are untouched on failure.
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn) {
    if (count == 0) return;
    const std::size_t workers = pool_->size();
    std::vector<double> busy(workers, 0.0);
    pool_->run([&](std::size_t w) {
      const ThreadCpuTimer timer;
      for (std::size_t i = w; i < count; i += workers) {
        WFBN_FAULT_POINT(fault::Point::kLearnSchedule);
        fn(i);
      }
      busy[w] = timer.seconds();
    });
    stats_.work_items += count;
    stats_.batches += 1;
    double max_busy = 0.0;
    for (double b : busy) {
      stats_.total_busy_seconds += b;
      if (b > max_busy) max_busy = b;
    }
    stats_.critical_path_seconds += max_busy;
  }

  /// Schedules one CI test per task; decision i answers task i. The batch
  /// either completes fully or throws with no decisions delivered.
  [[nodiscard]] std::vector<CiDecision> run(const Tester& tester,
                                            std::span<const CiTask> tasks);

  [[nodiscard]] const CiScheduleStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }

  /// Copies the tester's reuse-cache totals into the accumulated stats —
  /// learners call this once when a learn() finishes.
  void absorb_cache_stats(const Tester& tester) noexcept {
    const MarginalCacheStats s = tester.cache().stats();
    stats_.cache_hits = s.hits;
    stats_.cache_misses = s.misses;
    stats_.misses_projected = s.projected;
    stats_.misses_lattice = s.lattice;
    stats_.misses_scatter = s.scatter;
  }

 private:
  ThreadPool* pool_;
  CiScheduleStats stats_;
};

extern template class BasicCiScheduler<Key>;
extern template class BasicCiScheduler<WideKey>;

using CiScheduler = BasicCiScheduler<Key>;
using WideCiScheduler = BasicCiScheduler<WideKey>;

}  // namespace wfbn
