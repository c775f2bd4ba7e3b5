// wfcheck harnesses: the wait-free primitives — the exact templated sources
// production uses, instantiated with the ModelAtomics policy — run under the
// deterministic model checker (src/analysis/). The *_Exhaustive tests are
// the acceptance gates: every schedule within the preemption bound passes.
// The selftest suite mutates one release store to relaxed via the
// demote_store_loc knob and proves the checker reports the resulting race;
// the replay suite proves a schedule's seed reproduces its trace
// byte-for-byte.
//
// When a check unexpectedly fails, the full failure trace (interleaving +
// happens-before edges + replay recipe) is attached to the gtest failure and
// also written to $WFCHECK_TRACE_DIR if set — CI uploads that directory as
// an artifact.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/wfcheck.hpp"
#include "concurrent/barrier.hpp"
#include "concurrent/spsc_queue.hpp"
#include "serve/snapshot_cell.hpp"

namespace mc = wfbn::mc;

namespace {

void report_failure(const mc::CheckResult& result, const std::string& name) {
  const std::string text = result.trace.to_string() + "\n" + result.summary();
  if (const char* dir = std::getenv("WFCHECK_TRACE_DIR")) {
    std::ofstream out(std::string(dir) + "/" + name + ".trace.txt");
    out << text << "\n";
  }
  ADD_FAILURE() << name << " found a failing schedule:\n" << text;
}

#define EXPECT_WFCHECK_OK(result, name)                  \
  do {                                                   \
    if (!(result).ok) report_failure((result), (name));  \
  } while (false)

// ---------------------------------------------------------------------------
// Harness bodies (shared between the positive checks and the self-tests).
// ---------------------------------------------------------------------------

// Scalar SPSC: 3 items through chunks of 2, so the consumer crosses a chunk
// boundary and the fill-then-link publication of a fresh chunk is exercised.
void spsc_scalar_body() {
  using Queue = wfbn::SpscQueue<std::uint32_t, 2, mc::ModelAtomics>;
  auto q = std::make_unique<Queue>();
  const std::size_t producer = mc::spawn([&q] {
    for (std::uint32_t v = 1; v <= 3; ++v) q->push(v);
  });
  const std::size_t consumer = mc::spawn([&q] {
    std::uint32_t expect = 1;
    while (expect <= 3) {
      std::uint32_t v = 0;
      if (q->try_pop(v)) {
        mc::model_assert(v == expect, "try_pop out of FIFO order");
        ++expect;
      } else {
        mc::yield();
      }
    }
  });
  mc::join(producer);
  mc::join(consumer);
  mc::model_assert(q->pushed() == 3, "pushed() != 3 after join");
  mc::model_assert(q->empty(), "queue not empty after consuming everything");
}

// Bulk SPSC: one push_block spanning two chunks (5 items / capacity 4) plus
// a trailing scalar push, drained with consume() — the write-combining path.
void spsc_bulk_body() {
  using Queue = wfbn::SpscQueue<std::uint32_t, 4, mc::ModelAtomics>;
  auto q = std::make_unique<Queue>();
  const std::size_t producer = mc::spawn([&q] {
    const std::uint32_t block[5] = {1, 2, 3, 4, 5};
    q->push_block(block, 5);
    q->push(6);
  });
  const std::size_t consumer = mc::spawn([&q] {
    std::vector<std::uint32_t> seen;
    while (seen.size() < 6) {
      const std::size_t got = q->consume([&](const auto* items, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
          seen.push_back(static_cast<std::uint32_t>(items[i]));
      });
      if (got == 0) mc::yield();
    }
    mc::model_assert(seen.size() == 6, "consume over-delivered");
    for (std::size_t i = 0; i < seen.size(); ++i)
      mc::model_assert(seen[i] == i + 1, "consume out of FIFO order");
  });
  mc::join(producer);
  mc::join(consumer);
  mc::model_assert(q->pushed() == 6, "pushed() != 6 after join");
  mc::model_assert(q->empty(), "queue not empty after consuming everything");
}

// Sense-reversing barrier: two participants, three crossings (sense flips
// false->true->false->true), each side writing its own slot before a
// crossing and reading the other's after — the classic use the builders
// depend on between stage 1 and stage 2.
void barrier_body() {
  struct Shared {
    wfbn::BasicSpinBarrier<mc::ModelAtomics> barrier{2};
    mc::ModelData<int> slot0{0};
    mc::ModelData<int> slot1{0};
  };
  auto sh = std::make_unique<Shared>();
  auto participant = [&sh](mc::ModelData<int>& mine, mc::ModelData<int>& theirs,
                           int base) {
    mine = base;
    sh->barrier.arrive_and_wait();
    mc::model_assert(static_cast<int>(theirs) == 3 - base,
                     "phase-1 write not visible after barrier");
    sh->barrier.arrive_and_wait();
    mine = base + 10;
    sh->barrier.arrive_and_wait();
    mc::model_assert(static_cast<int>(theirs) == 13 - base,
                     "phase-2 write not visible after barrier");
  };
  const std::size_t t1 =
      mc::spawn([&] { participant(sh->slot0, sh->slot1, 1); });
  const std::size_t t2 =
      mc::spawn([&] { participant(sh->slot1, sh->slot0, 2); });
  mc::join(t1);
  mc::join(t2);
}

// Left-right snapshot publish: a single writer republishing twice while two
// wait-free readers pin and read concurrently. Payload fields are
// race-checked cells, so a broken drain (reader still copying the instance
// the writer reuses) surfaces as a data race or use-after-free, and torn
// payloads surface as the a/b consistency assertion.
void snapshot_publish_body() {
  struct Payload {
    mc::ModelData<int> a;
    mc::ModelData<int> b;
    explicit Payload(int v) : a(v), b(v * 10) {}
  };
  using Cell =
      wfbn::serve::BasicPtrCell<std::shared_ptr<Payload>, mc::ModelAtomics>;
  auto cell = std::make_unique<Cell>(std::make_shared<Payload>(1));
  const std::size_t writer = mc::spawn([&cell] {
    cell->store(std::make_shared<Payload>(2));
    cell->store(std::make_shared<Payload>(3));
  });
  auto reader = [&cell] {
    int prev = 1;
    for (int i = 0; i < 2; ++i) {
      const std::shared_ptr<Payload> p = cell->load();
      const int a = p->a;
      const int b = p->b;
      mc::model_assert(b == a * 10, "torn payload: a/b from different versions");
      mc::model_assert(a >= 1 && a <= 3, "payload version out of range");
      mc::model_assert(a >= prev, "snapshot version went backwards");
      prev = a;
    }
  };
  const std::size_t r1 = mc::spawn(reader);
  const std::size_t r2 = mc::spawn(reader);
  mc::join(writer);
  mc::join(r1);
  mc::join(r2);
  const std::shared_ptr<Payload> final_p = cell->load();
  mc::model_assert(static_cast<int>(final_p->a) == 3,
                   "final snapshot is not the last published version");
}

}  // namespace

// ---------------------------------------------------------------------------
// Positive checks: every schedule within the bound passes, and the schedule
// space is actually exhausted (not cut off by the execution budget).
// ---------------------------------------------------------------------------

TEST(model_spsc_scalar, ExhaustiveWithinBoundHolds) {
  mc::ModelOptions opts;
  const mc::CheckResult result = mc::check(opts, spsc_scalar_body);
  EXPECT_WFCHECK_OK(result, "model_spsc_scalar");
  EXPECT_TRUE(result.exhausted) << result.summary();
  EXPECT_GT(result.exhaustive_executions, 1u) << result.summary();
  EXPECT_GT(result.branch_points, 0u) << result.summary();
  EXPECT_GE(result.shared_locations, 2u) << result.summary();
}

TEST(model_spsc_bulk, ExhaustiveWithinBoundHolds) {
  mc::ModelOptions opts;
  const mc::CheckResult result = mc::check(opts, spsc_bulk_body);
  EXPECT_WFCHECK_OK(result, "model_spsc_bulk");
  EXPECT_TRUE(result.exhausted) << result.summary();
  EXPECT_GT(result.exhaustive_executions, 1u) << result.summary();
}

TEST(model_barrier, ExhaustiveWithinBoundHolds) {
  mc::ModelOptions opts;
  const mc::CheckResult result = mc::check(opts, barrier_body);
  EXPECT_WFCHECK_OK(result, "model_barrier");
  EXPECT_TRUE(result.exhausted) << result.summary();
  EXPECT_GT(result.exhaustive_executions, 1u) << result.summary();
}

TEST(model_snapshot_publish, ExhaustiveWithinBoundHolds) {
  mc::ModelOptions opts;
  const mc::CheckResult result = mc::check(opts, snapshot_publish_body);
  EXPECT_WFCHECK_OK(result, "model_snapshot_publish");
  EXPECT_TRUE(result.exhausted) << result.summary();
  EXPECT_GT(result.exhaustive_executions, 1u) << result.summary();
}

// ---------------------------------------------------------------------------
// Self-tests: mutate ONE release store to relaxed (by creation-order atomic
// id) and the checker must find and explain the resulting race. If these
// ever pass silently the checker is broken, whatever the positive tests say.
// ---------------------------------------------------------------------------

TEST(wfcheck_selftest, DemotedQueuePublishIsCaught) {
  mc::ModelOptions opts;
  // Atomic id 0 is the first chunk's count cell (items are data cells in a
  // separate id space): the release store publishing each scalar push.
  opts.demote_store_loc = 0;
  const mc::CheckResult result = mc::check(opts, spsc_scalar_body);
  ASSERT_FALSE(result.ok) << "checker missed the demoted release store: "
                          << result.summary();
  EXPECT_NE(result.failure.find("data race"), std::string::npos)
      << result.failure;
  EXPECT_FALSE(result.trace.events.empty());
  const std::string text = result.trace.to_string();
  EXPECT_NE(text.find("DEMOTED"), std::string::npos) << text;
  EXPECT_NE(text.find("happens-before"), std::string::npos) << text;
}

TEST(wfcheck_selftest, DemotedBarrierSenseIsCaught) {
  mc::ModelOptions opts;
  // Atomic id 1 is the barrier's sense_ cell (remaining_ is id 0): demoting
  // its release store strips the edge that publishes the phase-1 writes.
  opts.demote_store_loc = 1;
  const mc::CheckResult result = mc::check(opts, barrier_body);
  ASSERT_FALSE(result.ok) << "checker missed the demoted sense store: "
                          << result.summary();
  EXPECT_NE(result.failure.find("data race"), std::string::npos)
      << result.failure;
}

TEST(wfcheck_selftest, DeadlockIsDetected) {
  // A 3-participant barrier with only 2 arrivers: both spin forever on a
  // sense that can never flip. Every schedule deadlocks.
  mc::ModelOptions opts;
  opts.random_schedules = 0;
  const mc::CheckResult result = mc::check(opts, [] {
    auto barrier =
        std::make_unique<wfbn::BasicSpinBarrier<mc::ModelAtomics>>(3);
    const std::size_t t1 = mc::spawn([&] { barrier->arrive_and_wait(); });
    const std::size_t t2 = mc::spawn([&] { barrier->arrive_and_wait(); });
    mc::join(t1);
    mc::join(t2);
  });
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("deadlock"), std::string::npos)
      << result.failure;
}

// ---------------------------------------------------------------------------
// Replay: schedules are pure functions of their seed.
// ---------------------------------------------------------------------------

TEST(wfcheck_replay, SeedReplayIsByteForByteDeterministic) {
  mc::ModelOptions opts;
  const mc::Trace first = mc::replay_seed(opts, 123456789u, spsc_scalar_body);
  const mc::Trace second = mc::replay_seed(opts, 123456789u, spsc_scalar_body);
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(first.to_string(), second.to_string());
  // A different seed must drive a different schedule (same ops, different
  // interleaving) — otherwise the "seed" is not actually steering anything.
  const mc::Trace other = mc::replay_seed(opts, 987654321u, spsc_scalar_body);
  EXPECT_NE(first.to_string(), other.to_string());
}

TEST(wfcheck_replay, PointerValuesAreTracedAsExecutionOrdinals) {
  // The chunk links are Atomic<Chunk*>: heap addresses, which differ from
  // run to run. The trace names them by first appearance instead.
  mc::ModelOptions opts;
  const mc::Trace trace = mc::replay_seed(opts, 123456789u, spsc_scalar_body);
  std::size_t pointer_events = 0;
  for (const mc::TraceEvent& e : trace.events) {
    if (!e.pointer) continue;
    ++pointer_events;
    // Three pushes through chunks of 2 allocate one chunk beyond the first.
    EXPECT_EQ(e.value, 1u) << trace.to_string();
  }
  EXPECT_GT(pointer_events, 0u) << trace.to_string();
  EXPECT_NE(trace.to_string().find("= ptr#1"), std::string::npos)
      << trace.to_string();
}

TEST(wfcheck_replay, FailingScheduleSeedReproducesIdenticalTrace) {
  mc::ModelOptions opts;
  opts.demote_store_loc = 0;
  // Skip the exhaustive phase entirely so the failure is found by a seeded
  // random schedule and the reported trace carries its seed.
  opts.max_exhaustive_executions = 0;
  opts.random_schedules = 64;
  const mc::CheckResult result = mc::check(opts, spsc_scalar_body);
  ASSERT_FALSE(result.ok) << result.summary();
  ASSERT_NE(result.trace.seed, 0u) << "failure did not come from a seeded run";
  const mc::Trace replayed =
      mc::replay_seed(opts, result.trace.seed, spsc_scalar_body);
  EXPECT_EQ(result.trace.to_string(), replayed.to_string());
  EXPECT_EQ(result.failure, replayed.failure);
}

TEST(wfcheck_replay, ExhaustiveEnumerationIsDeterministic) {
  mc::ModelOptions opts;
  opts.random_schedules = 0;
  const mc::CheckResult a = mc::check(opts, spsc_scalar_body);
  const mc::CheckResult b = mc::check(opts, spsc_scalar_body);
  ASSERT_TRUE(a.ok && b.ok) << a.summary() << "\n" << b.summary();
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.branch_points, b.branch_points);
  EXPECT_EQ(a.sleep_set_prunes, b.sleep_set_prunes);
  EXPECT_EQ(a.shared_locations, b.shared_locations);
}
