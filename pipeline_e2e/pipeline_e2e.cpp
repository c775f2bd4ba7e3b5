// pipeline_e2e — one wall-clock benchmark from dataset to learned CPDAG to
// answers served over the wire, with a per-layer trace.
//
//   ./pipeline_e2e                          all five workloads, one process each
//   ./pipeline_e2e --workload alarm-learn   one workload in this process
//   ./pipeline_e2e --trace out.json         traced runs: per-layer metrics and
//                                           a Chrome trace per workload
//   ./pipeline_e2e --scale smoke            tiny sizes (the ctest smoke run)
//
// Workloads (see README.md for why each was chosen):
//   paper-uniform  uniform m=200k, n=30, r=2 (paper §V data at the shape of
//                  results/headline.txt); build + Cheng learn, which stops
//                  after drafting, so all-pairs MI dominates.
//   alarm-learn    ALARM (37 nodes) m=200k; the CI tests of learn/ dominate.
//   sachs-learn    SACHS (11 nodes) m=10M; the table build dominates.
//   serve-hot      a ServeServer over the ALARM table, cache warmed with every
//                  distinct query; Zipf(1.0) open loop at 8000 q/s.
//   serve-ingest   the same server, 100 q/s uniform over pair/triple queries
//                  beside an ingest stream of 10 batches/s of 500 rows.
//
// End-to-end metrics, printed for every workload with tracing off:
//   setup_s           median of five set-ups (generate, initial build, and
//                     for serve workloads the durable store, server and warm-up)
//   p50_ms            median latency of the workload's operation: one
//                     build + learn at P=nproc (batch), one query from its
//                     open-loop due time (serve)
//   peak_rss_mb       VmHWM of the workload's process
// Two more views of the operation did not repeat across runs within a bound
// on a shared 4-core host, so traced runs report them as per-layer metrics:
// without concurrency (e2e.serial_p50_ms: the pipeline at P=1, one query in
// flight) and saturated (e2e.throughput_per_s: back-to-back pipelines at
// P=nproc, a closed loop at pipeline depth 64). Untraced runs spend their
// whole window on the p50_ms operation.
//
// Every output is checked against the brute-force oracle in oracle.hpp; the
// last stdout line is {"correct", "attempted", "failed", "metrics"} and any
// mismatch exits non-zero.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_schema.hpp"
#include "bn/metrics.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/all_pairs_mi.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "loadgen.hpp"
#include "net/serve_server.hpp"
#include "oracle.hpp"
#include "serve/persist/durable_store.hpp"
#include "serve/serve_engine.hpp"
#include "sim/cost_model.hpp"
#include "sim/scaling_sim.hpp"
#include "trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace wfbn;
using namespace wfbn::bench;
namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr std::array<MetricDef, 3> kEndToEnd = {{
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
}};

constexpr std::array<MetricDef, 44> kPerLayer = {{
    {"e2e.serial_p50_ms", "ms"},
    {"e2e.throughput_per_s", "1/s"},
    {"data.generate_s", "s"},
    {"builder.wall_s", "s"},
    {"builder.rows_per_s", "1/s"},
    {"builder.critical_path_s", "s"},
    {"builder.barrier_s", "s"},
    {"builder.stage1_max_s", "s"},
    {"builder.stage2_max_s", "s"},
    {"builder.keys_per_flush", "count"},
    {"builder.keys_per_bulk_pop", "count"},
    {"builder.distinct_ratio", "ratio"},
    {"mi.wall_s", "s"},
    {"mi.entries_visited", "count"},
    {"mi.worker_imbalance", "ratio"},
    {"learn.wall_s", "s"},
    {"learn.draft_s", "s"},
    {"learn.thicken_s", "s"},
    {"learn.thin_s", "s"},
    {"learn.orient_s", "s"},
    {"learn.ci_tests", "count"},
    {"learn.ci_cache_hit_ratio", "ratio"},
    {"learn.ci_critical_path_s", "s"},
    {"learn.ci_busy_s", "s"},
    {"learn.shd", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_invalidated", "count"},
    {"serve.versions_published", "count"},
    {"serve.query_p99_ms", "ms"},
    {"serve.ingest_p95_ms", "ms"},
    {"persist.persisted", "count"},
    {"persist.coalesced", "count"},
    {"persist.failures", "count"},
    {"persist.lag_versions", "count"},
    {"persist.flush_s", "s"},
    {"net.requests", "count"},
    {"net.batch_size_mean", "count"},
    {"net.rejected", "count"},
    {"net.connections_failed", "count"},
    {"sim.modeled_phase1_s", "s"},
    {"sim.measured_phase1_s", "s"},
    {"sim.model_error_frac", "ratio"},
    {"loadgen.send_lag_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
}};

using MetricMap = std::map<std::string, double>;

constexpr std::size_t kSetups = 5;
constexpr std::size_t kServePool = 2;
constexpr std::size_t kCapacityDepth = 64;
constexpr std::size_t kCheckEvery = 10;  ///< every 10th served answer is checked

// ---------------------------------------------------------------- workloads

enum class Kind { kBatch, kServe };
enum class Source { kUniform, kAlarm, kSachs };

struct Workload {
  std::string name;
  Kind kind = Kind::kBatch;
  Source source = Source::kAlarm;
  std::size_t rows = 0;          ///< base dataset rows
  std::size_t uniform_vars = 0;  ///< kUniform only
  // Serving traffic (serve workloads, and the traced serve probe).
  double query_rate = 0.0;  ///< open-loop queries/s
  bool zipf = false;        ///< Zipf(1.0) over the query space, else uniform
  bool triples = false;     ///< add triple marginals to the query space
  bool warm_all = false;    ///< warm the result cache with every distinct query
  double ingest_rate = 0.0; ///< ingest batches/s (0: no ingest)
  std::size_t ingest_rows = 0;
  bool closed_loops = true; ///< follow the open loop with the closed-loop phases
};

std::vector<Workload> all_workloads(bool smoke) {
  const auto pick = [smoke](std::size_t full, std::size_t small) {
    return smoke ? small : full;
  };
  return {
      // m=200k, not the paper's 1M: in interleaved series on a shared host
      // the spread of p50_ms was 0.12-0.15 at 1M (a 16 MB table) and
      // 0.06-0.09 at 200k, where each worker's quarter of the table fits its
      // core's L2.
      {.name = "paper-uniform", .source = Source::kUniform, .rows = pick(200000, 50000),
       .uniform_vars = 30},
      {.name = "alarm-learn", .rows = pick(200000, 20000)},
      {.name = "sachs-learn", .source = Source::kSachs, .rows = pick(10000000, 200000)},
      // Hits do not depend on the table size; 50k rows keep the warm-up (one
      // miss per distinct query) short enough to repeat kSetups times per run.
      {.name = "serve-hot", .kind = Kind::kServe, .rows = pick(50000, 20000),
       .query_rate = smoke ? 2000.0 : 8000.0, .zipf = true, .warm_all = true},
      // Every query misses and sweeps the table, which grows 3.5x over a
      // 25 s window: to 175k rows from 50k in 500-row batches. Grown from
      // 200k rows in 2000-row batches (to 700k), p50_ms spread 0.24 over
      // ten runs on a shared host.
      {.name = "serve-ingest", .kind = Kind::kServe, .rows = pick(50000, 20000),
       .query_rate = 100.0, .triples = true, .ingest_rate = 10.0, .ingest_rows = 500},
  };
}

/// The serve probe a traced run adds for layers its own traffic leaves idle
/// (durable ingest for serve-hot; all serving layers for batch workloads).
Workload probe_of(const Workload& w) {
  Workload p = w;
  p.query_rate = 50.0;
  p.zipf = false;
  p.triples = true;
  p.warm_all = false;
  p.ingest_rate = 4.0;
  p.ingest_rows = 2000;
  p.closed_loops = false;
  return p;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

const BayesianNetwork& network_of(Source source) {
  static const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm, 42);
  static const BayesianNetwork sachs = load_network(RepositoryNetwork::kSachs, 42);
  return source == Source::kSachs ? sachs : alarm;
}

Dataset sample(const Workload& w, std::size_t rows, std::uint64_t seed,
               std::size_t threads) {
  if (w.source == Source::kUniform) {
    return generate_uniform(rows, w.uniform_vars, 2, seed, threads);
  }
  return forward_sample(network_of(w.source), rows, seed, threads);
}

Dag truth_of(const Workload& w) {
  if (w.source == Source::kUniform) return Dag(w.uniform_vars);
  return network_of(w.source).dag();
}

/// Ingest batch k (1-based) of a run: its own RNG stream of the base source.
std::vector<Dataset> make_batches(const Workload& w, std::size_t count,
                                  std::uint64_t seed) {
  std::vector<Dataset> out;
  out.reserve(count);
  for (std::size_t k = 1; k <= count; ++k) {
    out.push_back(sample(w, w.ingest_rows, splitmix64(seed ^ (k * 0x5851F42D4C957F2DULL)), 1));
  }
  return out;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------- batch side

using Cpdag = std::pair<std::vector<Edge>, std::vector<Edge>>;

struct Rep {
  double seconds = 0.0;
  double learn_seconds = 0.0;
  BuildStats build;
  ChengResult result;
};

/// One pipeline: build the potential table, then Cheng learn(table), on
/// `pool`. Spans: builder.build, learn.learn and its phases.
Rep pipeline_rep(const Dataset& data, ThreadPool& pool, Tracer& tracer,
                 std::uint64_t parent) {
  const Clock::time_point t0 = Clock::now();
  WaitFreeBuilderOptions options;
  options.threads = pool.size();
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data, pool);
  const Clock::time_point t1 = Clock::now();
  ChengResult result = ChengLearner(ChengOptions{}, pool).learn(table);
  const Clock::time_point t2 = Clock::now();
  if (tracer.enabled()) {
    tracer.record("builder.build", t0, t1, parent);
    const std::uint64_t learn = tracer.record("learn.learn", t1, t2, parent);
    // The library reports its phase timings, not their instants; the child
    // spans are laid end to end from the start of learn().
    Clock::time_point at = t1;
    const std::pair<const char*, double> phases[] = {
        {"learn.draft", result.timings.drafting},
        {"learn.thicken", result.timings.thickening},
        {"learn.thin", result.timings.thinning},
        {"learn.orient", result.timings.orientation}};
    for (const auto& [name, seconds] : phases) {
      const Clock::time_point end = at + from_seconds(seconds);
      tracer.record(name, at, std::min(end, t2), learn);
      at = std::min(end, t2);
    }
  }
  return Rep{seconds_between(t0, t2), seconds_between(t1, t2), builder.stats(),
             std::move(result)};
}

Cpdag cpdag_of(const ChengResult& r) { return {r.skeleton.edges(), r.oriented.edges()}; }

struct BatchWindow {
  Samples parallel_s;  ///< P=nproc pipelines
  Samples serial_s;    ///< P=1 pipelines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs P=nproc pipelines for `seconds` — alternating with P=1 pipelines
/// when `with_serial` — after one discarded warm-up pair. Every CPDAG must
/// equal `reference` (set by the first rep), so the warm-up pair checks it
/// across P even when the window runs P=nproc only.
BatchWindow batch_window(const Dataset& data, ThreadPool& wide, ThreadPool& one,
                         double seconds, bool with_serial, std::optional<Cpdag>& reference,
                         std::optional<MiMatrix>& first_mi, Tracer& tracer) {
  BatchWindow out;
  const auto run = [&](ThreadPool& pool, Samples* into, std::uint64_t parent) {
    ++out.attempted;
    Rep rep = pipeline_rep(data, pool, tracer, parent);
    const Cpdag got = cpdag_of(rep.result);
    if (!reference) {
      reference = got;
      first_mi = rep.result.mi;
    } else if (got != *reference) {
      ++out.failed;
    }
    if (into != nullptr) into->add(rep.seconds);
  };
  run(wide, nullptr, 0);
  run(one, nullptr, 0);
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < seconds) {
    const std::uint64_t pair = tracer.open("bench.pair");
    run(wide, &out.parallel_s, pair);
    if (with_serial) run(one, &out.serial_s, pair);
    tracer.close(pair);
  }
  return out;
}

// ---------------------------------------------------------------- serve side

struct ServeStack {
  std::unique_ptr<serve::persist::DurableTableStore> durable;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<net::ServeServer> server;  ///< last: stops before the rest
  fs::path dir;

  ~ServeStack() {
    server.reset();  // stops serving before what it borrows goes away
    pool.reset();
    engine.reset();
    durable.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

std::unique_ptr<ServeStack> start_stack(const Dataset& base, const fs::path& dir,
                                        std::size_t build_threads) {
  auto stack = std::make_unique<ServeStack>();
  stack->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  WaitFreeBuilderOptions build_options;
  build_options.threads = build_threads;
  PotentialTable table = WaitFreeBuilder(build_options).build(base);
  serve::persist::DurableOptions durable_options;
  durable_options.ingest.threads = kServePool;
  stack->durable = std::make_unique<serve::persist::DurableTableStore>(
      dir, std::move(table), durable_options);
  stack->engine = std::make_unique<serve::ServeEngine>(stack->durable->store());
  stack->pool = std::make_unique<ThreadPool>(kServePool);
  stack->server = std::make_unique<net::ServeServer>(*stack->engine, *stack->pool,
                                                     net::ServerOptions{},
                                                     stack->durable.get());
  stack->server->start();
  return stack;
}

/// Pair marginals, pair MIs, P(X_i | X_j = mode_j) for every ordered pair,
/// and optionally every triple marginal. The evidence state is the most
/// frequent state of X_j in the base rows, so it always has support.
std::vector<serve::ServeQuery> query_space(const Dataset& base, bool triples) {
  const std::size_t n = base.variable_count();
  std::vector<State> mode(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<std::uint64_t> counts(base.cardinalities()[j], 0);
    for (std::size_t r = 0; r < base.sample_count(); ++r) ++counts[base.at(r, j)];
    mode[j] = static_cast<State>(std::max_element(counts.begin(), counts.end()) -
                                 counts.begin());
  }
  std::vector<serve::ServeQuery> out;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      out.push_back({serve::QueryKind::kMarginal, {i, j}, {}});
      out.push_back({serve::QueryKind::kPairMi, {i, j}, {}});
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) out.push_back({serve::QueryKind::kConditional, {i}, {{j, mode[j]}}});
    }
  }
  if (triples) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        for (std::size_t k = j + 1; k < n; ++k) {
          out.push_back({serve::QueryKind::kMarginal, {i, j, k}, {}});
        }
      }
    }
  }
  return out;
}

net::Request to_request(std::uint64_t id, const serve::ServeQuery& q) {
  net::Request request;
  request.id = id;
  request.opcode = q.kind == serve::QueryKind::kMarginal      ? net::Opcode::kMarginal
                   : q.kind == serve::QueryKind::kConditional ? net::Opcode::kConditional
                                                              : net::Opcode::kPairMi;
  request.query = q;
  return request;
}

/// Maps a request id to a query index: Zipf(1.0) over a seeded permutation
/// of the space, or uniform.
class QueryPicker {
 public:
  QueryPicker(std::size_t size, bool zipf, std::uint64_t seed) : seed_(seed) {
    order_.resize(size);
    for (std::size_t i = 0; i < size; ++i) order_[i] = i;
    for (std::size_t i = size; i > 1; --i) {
      std::swap(order_[i - 1], order_[splitmix64(seed ^ i) % i]);
    }
    if (zipf) {
      double total = 0.0;
      for (std::size_t rank = 0; rank < size; ++rank) {
        total += 1.0 / static_cast<double>(rank + 1);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }
  [[nodiscard]] std::size_t operator()(std::uint64_t id) const {
    const double u = unit_interval(splitmix64(seed_ * 0x9E3779B97F4A7C15ULL ^ id));
    const std::size_t rank =
        cdf_.empty() ? static_cast<std::size_t>(u * static_cast<double>(order_.size()))
                     : static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                                cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

/// Warms the server: with `all`, fills the result cache with every query of
/// `space` (in process, across `threads` workers); then sends the first 64
/// queries over the wire (connection set-up, the first batches, page faults).
void warm_up(ServeStack& stack, const std::vector<serve::ServeQuery>& space, bool all,
             std::size_t threads) {
  if (all) {
    ThreadPool pool(threads);
    for (const serve::ServeResult& r : stack.engine->serve_batch(space, pool)) {
      if (!r.ok) throw std::runtime_error("warm-up: " + r.error);
    }
  }
  Connection conn(stack.server->port());
  const std::size_t count = std::min(kCapacityDepth, space.size());
  for (std::size_t i = 0; i < count; ++i) conn.send(to_request(i, space[i]));
  std::size_t got = 0;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (got < count) {
    const std::size_t n = conn.receive_until(deadline).size();
    if (n == 0) throw std::runtime_error("warm-up: server did not answer");
    got += n;
  }
}

/// Checked answers keyed by (query index, version that answered). A key
/// is stored once, so the harness's memory does not grow with throughput;
/// a repeat must be bitwise identical to the stored answer.
using CheckedAnswers = std::map<std::pair<std::size_t, std::uint64_t>, std::vector<double>>;

struct ServeWindow {
  RpcLog open, serial, capacity, ingest;
  CheckedAnswers checked;
  std::uint64_t checked_count = 0;
  std::uint64_t repeat_mismatches = 0;
  std::uint64_t ingest_order_errors = 0;  ///< published_version != batch + 1
  serve::CacheStats cache_before, cache_after;
  net::ServerStats server_before, server_after;
  std::uint64_t rejected = 0;
  std::uint64_t published = 0;
  serve::persist::PersistStats persist_before, persist_after;
  std::uint64_t lag_versions = 0;
  double flush_seconds = 0.0;
};

/// The measured serving window: one connection runs an open loop (half the
/// window), then one request at a time (a fifth), then a depth-64 closed
/// loop; a second connection streams ingest batches for the whole window.
/// Without w.closed_loops the open loop fills the window.
ServeWindow serve_window(ServeStack& stack, const Workload& w,
                         const std::vector<serve::ServeQuery>& space,
                         const QueryPicker& picker, const std::vector<Dataset>& batches,
                         double seconds, Tracer& tracer) {
  ServeWindow out;
  const std::uint16_t port = stack.server->port();
  out.cache_before = stack.engine->cache_stats();
  out.server_before = stack.server->stats();
  const std::uint64_t rejected_before = stack.server->admission_stats().total_rejected();
  const std::uint64_t published_before = stack.durable->store().published_count();
  out.persist_before = stack.durable->persist_stats();

  const MakeRequest make_query = [&](std::uint64_t id) {
    return to_request(id, space[picker(id)]);
  };
  const OnAnswer keep = [&](const net::Response& r) {
    if (r.id % kCheckEvery != 0) return;
    ++out.checked_count;
    const auto [it, fresh] = out.checked.try_emplace({picker(r.id), r.version}, r.values);
    if (!fresh && it->second != r.values) ++out.repeat_mismatches;
  };
  // Phase id ranges are disjoint, so a request id names its query everywhere.
  constexpr std::uint64_t kPhase = 1ULL << 40;
  std::thread queries([&] {
    tighten_timer_slack();
    Connection conn(port);
    const std::uint64_t open_span = tracer.open("bench.open_loop");
    out.open = open_loop(conn, w.query_rate, w.closed_loops ? seconds * 0.5 : seconds, kPhase,
                         make_query, keep, tracer, open_span, "net.query");
    tracer.close(open_span);
    if (!w.closed_loops) return;
    const std::uint64_t serial_span = tracer.open("bench.serial");
    out.serial = closed_loop(conn, 1, seconds * 0.2, 2 * kPhase, make_query, keep, tracer,
                             serial_span, "net.query", true);
    tracer.close(serial_span);
    const std::uint64_t capacity_span = tracer.open("bench.capacity");
    out.capacity = closed_loop(conn, kCapacityDepth, seconds * 0.3, 3 * kPhase, make_query,
                               keep, tracer, capacity_span, "net.query", false);
    tracer.close(capacity_span);
  });
  std::thread ingest;
  if (w.ingest_rate > 0.0) {
    ingest = std::thread([&] {
      tighten_timer_slack();
      Connection conn(port);
      const MakeRequest make_ingest = [&](std::uint64_t id) {
        const Dataset& batch = batches.at(id - 1);
        net::Request request;
        request.id = id;
        request.opcode = net::Opcode::kIngest;
        request.ingest_samples = batch.sample_count();
        request.ingest_cardinalities = batch.cardinalities();
        request.ingest_cells.assign(batch.raw().begin(), batch.raw().end());
        return request;
      };
      const OnAnswer ordered = [&](const net::Response& r) {
        if (r.published_version != r.id + 1) ++out.ingest_order_errors;
      };
      const std::uint64_t span = tracer.open("bench.ingest");
      // Batch k is request id k, due at (k − 1)/rate.
      out.ingest = open_loop(conn, w.ingest_rate, seconds, 1, make_ingest, ordered, tracer,
                             span, "net.ingest");
      tracer.close(span);
    });
  }
  queries.join();
  if (ingest.joinable()) ingest.join();

  out.cache_after = stack.engine->cache_stats();
  out.server_after = stack.server->stats();
  out.rejected = stack.server->admission_stats().total_rejected() - rejected_before;
  out.published = stack.durable->store().published_count() - published_before;
  out.lag_versions = stack.durable->version() - stack.durable->last_durable_version();
  const Clock::time_point flush_start = Clock::now();
  (void)stack.durable->flush();  // a failed persist shows in persist.failures
  out.flush_seconds = seconds_between(flush_start, Clock::now());
  out.persist_after = stack.durable->persist_stats();
  return out;
}

/// Checks every kept answer against brute-force counting over the rows of
/// the version that answered it (base rows plus batches 1..v−1). Returns
/// the number of mismatches, repeats that differed included.
std::uint64_t verify_answers(const ServeWindow& window,
                             const std::vector<serve::ServeQuery>& space,
                             const Dataset& base, const std::vector<Dataset>& batches,
                             std::size_t threads) {
  std::vector<const CheckedAnswers::value_type*> todo;
  for (const auto& entry : window.checked) todo.push_back(&entry);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatches{window.repeat_mismatches + window.ingest_order_errors};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < todo.size(); i = next++) {
          const auto& [key, values] = *todo[i];
          const auto [query, version] = key;
          std::vector<const Dataset*> parts{&base};
          for (std::uint64_t b = 0; b + 1 < version && b < batches.size(); ++b) {
            parts.push_back(&batches[b]);
          }
          const bool known = version >= 1 && version - 1 <= batches.size();
          if (!known || !oracle::agrees(values, oracle::answer(space[query], parts))) {
            ++mismatches;
          }
        }
      });
    }
  }
  return mismatches;
}

MetricMap serve_layer_metrics(const ServeWindow& s) {
  MetricMap m;
  const std::uint64_t hits = s.cache_after.hits - s.cache_before.hits;
  const std::uint64_t misses = s.cache_after.misses - s.cache_before.misses;
  m["serve.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
  m["serve.cache_invalidated"] = static_cast<double>(
      s.cache_after.invalidated_entries - s.cache_before.invalidated_entries);
  m["serve.versions_published"] = static_cast<double>(s.published);
  m["serve.query_p99_ms"] = s.open.latency_ms.quantile(0.99);
  m["serve.ingest_p95_ms"] = s.ingest.latency_ms.quantile(0.95);
  m["persist.persisted"] =
      static_cast<double>(s.persist_after.persisted - s.persist_before.persisted);
  m["persist.coalesced"] =
      static_cast<double>(s.persist_after.coalesced - s.persist_before.coalesced);
  m["persist.failures"] =
      static_cast<double>(s.persist_after.failures - s.persist_before.failures);
  m["persist.lag_versions"] = static_cast<double>(s.lag_versions);
  m["persist.flush_s"] = s.flush_seconds;
  m["net.requests"] =
      static_cast<double>(s.server_after.requests_decoded - s.server_before.requests_decoded);
  const std::uint64_t batches = s.server_after.batches_served - s.server_before.batches_served;
  m["net.batch_size_mean"] =
      batches == 0 ? 0.0
                   : static_cast<double>(s.server_after.batched_queries -
                                         s.server_before.batched_queries) /
                         static_cast<double>(batches);
  m["net.rejected"] = static_cast<double>(s.rejected);
  m["net.connections_failed"] = static_cast<double>(s.server_after.connections_failed -
                                                    s.server_before.connections_failed);
  m["loadgen.send_lag_p99_ms"] = s.open.send_lag_ms.quantile(0.99);
  return m;
}

// ---------------------------------------------------------------- layer pass

double max_of(const std::vector<WorkerStats>& workers, double WorkerStats::*field) {
  double best = 0.0;
  for (const WorkerStats& w : workers) best = std::max(best, w.*field);
  return best;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// builder.*, learn.* from the median of three traced P=nproc pipelines.
void pipeline_layers(const Dataset& data, const Dag& truth, ThreadPool& wide,
                     Tracer& tracer, MetricMap& m) {
  std::vector<Rep> reps;
  for (int i = 0; i < 3; ++i) reps.push_back(pipeline_rep(data, wide, tracer, 0));
  std::sort(reps.begin(), reps.end(),
            [](const Rep& a, const Rep& b) { return a.seconds < b.seconds; });
  const Rep& rep = reps[1];
  const BuildStats& b = rep.build;
  std::uint64_t pops = 0;
  for (const WorkerStats& w : b.workers) pops += w.stage2_pops;
  m["builder.wall_s"] = b.total_seconds;
  m["builder.rows_per_s"] = ratio(static_cast<double>(data.sample_count()), b.total_seconds);
  m["builder.critical_path_s"] = b.critical_path_seconds();
  m["builder.barrier_s"] = b.barrier_seconds;
  m["builder.stage1_max_s"] = max_of(b.workers, &WorkerStats::stage1_seconds);
  m["builder.stage2_max_s"] = max_of(b.workers, &WorkerStats::stage2_seconds);
  m["builder.keys_per_flush"] = ratio(static_cast<double>(b.total_foreign_pushes()),
                                      static_cast<double>(b.total_route_flushes()));
  m["builder.keys_per_bulk_pop"] =
      ratio(static_cast<double>(pops), static_cast<double>(b.total_bulk_pops()));
  const ChengResult& r = rep.result;
  m["learn.wall_s"] = rep.learn_seconds;
  m["learn.draft_s"] = r.timings.drafting;
  m["learn.thicken_s"] = r.timings.thickening;
  m["learn.thin_s"] = r.timings.thinning;
  m["learn.orient_s"] = r.timings.orientation;
  m["learn.ci_tests"] = static_cast<double>(r.ci_tests);
  m["learn.ci_cache_hit_ratio"] =
      ratio(static_cast<double>(r.schedule.cache_hits),
            static_cast<double>(r.schedule.cache_hits + r.schedule.cache_misses));
  m["learn.ci_critical_path_s"] = r.schedule.critical_path_seconds;
  m["learn.ci_busy_s"] = r.schedule.total_busy_seconds;
  m["learn.shd"] = static_cast<double>(structural_hamming_distance(r.oriented, truth));
}

/// mi.* from three AllPairsMi::compute calls with Cheng's default strategy.
void mi_layers(const PotentialTable& table, ThreadPool& wide, Tracer& tracer, MetricMap& m) {
  std::vector<AllPairsStats> runs;
  for (int i = 0; i < 3; ++i) {
    AllPairsMi mi(AllPairsOptions{wide.size(), ChengOptions{}.all_pairs_strategy});
    const Clock::time_point t0 = Clock::now();
    (void)mi.compute(table, wide);
    tracer.record("mi.compute", t0, Clock::now());
    runs.push_back(mi.stats());
  }
  std::sort(runs.begin(), runs.end(), [](const AllPairsStats& a, const AllPairsStats& b) {
    return a.total_seconds < b.total_seconds;
  });
  const AllPairsStats& s = runs[1];
  double entries = 0.0;
  for (const std::uint64_t e : s.worker_entries_visited) entries += static_cast<double>(e);
  double busiest = 0.0;
  double busy = 0.0;
  for (const double w : s.worker_seconds) {
    busiest = std::max(busiest, w);
    busy += w;
  }
  m["mi.wall_s"] = s.total_seconds;
  m["mi.entries_visited"] = entries;
  m["mi.worker_imbalance"] =
      ratio(busiest, busy / static_cast<double>(std::max<std::size_t>(1, s.worker_seconds.size())));
}

struct SimPoint {
  std::size_t cores = 0;
  double measured = 0.0;
  double modeled = 0.0;
};

/// The cost model's phase-1 makespan (build + all-pairs MI) next to phase 1
/// as the learner runs it (build + the fused all-pairs sweep), measured by
/// wall clock at P = 1..nproc. The model prices one table sweep per pair
/// (Algorithm 4), so its error includes the fused sweep's saving.
std::vector<SimPoint> model_vs_measured(const Dataset& data, std::size_t nproc) {
  const ScalingSimulator sim(MachineModel::calibrate());
  std::vector<std::size_t> cores;
  for (std::size_t p = 1; p <= nproc; ++p) cores.push_back(p);
  const ScalingCurve build = sim.wait_free_construction(data, cores);
  const ScalingCurve mi = sim.all_pairs_mi(data, cores);
  std::vector<SimPoint> out;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    ThreadPool pool(cores[i]);
    WaitFreeBuilderOptions options;
    options.threads = cores[i];
    WaitFreeBuilder builder(options);
    const Clock::time_point t0 = Clock::now();
    const PotentialTable table = builder.build(data, pool);
    AllPairsMi all_pairs(AllPairsOptions{cores[i], ChengOptions{}.all_pairs_strategy});
    (void)all_pairs.compute(table, pool);
    out.push_back({cores[i], seconds_between(t0, Clock::now()),
                   build.points[i].seconds + mi.points[i].seconds});
  }
  return out;
}

// ---------------------------------------------------------------- one workload

struct Options {
  std::uint64_t seed = 42;
  double seconds = 25.0;
  bool smoke = false;
  std::string trace_path;  ///< empty: untraced run
  double query_rate = 0.0; ///< >0 overrides the serve workloads' open-loop rate
  fs::path work_dir;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;  ///< the metrics of the run's kind (end-to-end or per-layer)
  std::map<std::string, Samples> samples;  ///< end-to-end sample sets
  std::vector<SimPoint> sim;
};

void print_samples(const std::string& name, const char* unit, const Samples& s) {
  std::printf("  %-18s %12.4f %-4s  q1 %.4f  q3 %.4f", name.c_str(), s.median(), unit,
              s.q1(), s.q3());
  if (s.tail_percentile() > 0) std::printf("  p%d %.4f", s.tail_percentile(), s.tail());
  std::printf("  n=%zu\n", s.n());
}

Outcome run_workload(const Workload& w, const Options& opt) {
  const std::size_t nproc = HostInfo::probe().nproc;
  const bool traced = !opt.trace_path.empty();
  Tracer tracer(traced);
  Tracer untraced(false);
  Outcome out;
  const fs::path work = opt.work_dir / (w.name + "-" + std::to_string(::getpid()));
  const std::size_t batch_count =
      w.ingest_rate > 0.0 ? static_cast<std::size_t>(std::ceil(opt.seconds * w.ingest_rate)) + 2
                          : 0;

  // Set-up, kSetups times; the last one's state is kept for measurement.
  Samples setup_s;
  Samples generate_s;
  std::optional<Dataset> base;
  std::vector<Dataset> batches;
  std::unique_ptr<ServeStack> stack;
  std::vector<serve::ServeQuery> space;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    base.reset();
    batches.clear();
    const Clock::time_point t0 = Clock::now();
    base.emplace(sample(w, w.rows, opt.seed, nproc));
    batches = make_batches(w, batch_count, opt.seed);
    const Clock::time_point t1 = Clock::now();
    tracer.record("data.generate", t0, t1);
    if (w.kind == Kind::kBatch) {
      WaitFreeBuilderOptions options;
      options.threads = nproc;
      (void)WaitFreeBuilder(options).build(*base);
    } else {
      stack = start_stack(*base, work / ("stack-" + std::to_string(i)), nproc);
      space = query_space(*base, w.triples);
      warm_up(*stack, space, w.warm_all, nproc);
    }
    tracer.record("bench.setup", t0, Clock::now());
    setup_s.add(seconds_between(t0, Clock::now()));
    generate_s.add(seconds_between(t0, t1));
  }
  out.samples["setup_s"] = setup_s;

  const double window = traced ? opt.seconds / 2 : opt.seconds;
  MetricMap layers;
  if (w.kind == Kind::kBatch) {
    ThreadPool wide(nproc);
    ThreadPool one(1);
    std::optional<Cpdag> reference;
    std::optional<MiMatrix> first_mi;
    // The P=1 pipelines only feed the per-layer e2e.serial_p50_ms, so an
    // untraced run spends its whole window on the gated P=nproc pipelines.
    BatchWindow main =
        batch_window(*base, wide, one, window, traced, reference, first_mi, untraced);
    out.attempted = main.attempted;
    out.failed = main.failed;
    if (traced) {
      const BatchWindow t =
          batch_window(*base, wide, one, window, true, reference, first_mi, tracer);
      out.attempted += t.attempted;
      out.failed += t.failed;
      layers["trace.overhead_frac"] = t.parallel_s.median() / main.parallel_s.median() - 1.0;
    }
    // The MI matrix of the first rep against brute-force counting.
    const double mi_error = oracle::max_mi_error(*base, *first_mi, nproc);
    if (!(mi_error <= oracle::kTolerance)) {
      ++out.failed;
      std::printf("MISMATCH: MI matrix differs from brute force by %.3g\n", mi_error);
    }
    if (out.failed > 0) {
      out.correct = false;
      std::printf("MISMATCH: %llu pipelines disagree with the oracle\n",
                  static_cast<unsigned long long>(out.failed));
    }
    Samples p50;
    Samples serial;
    for (const double s : main.parallel_s.values()) p50.add(s * 1e3);
    for (const double s : main.serial_s.values()) serial.add(s * 1e3);
    out.samples["p50_ms"] = p50;
    out.samples["serial_p50_ms"] = serial;
    layers["e2e.throughput_per_s"] =
        ratio(static_cast<double>(main.parallel_s.n()), main.parallel_s.sum());
    if (!serial.empty()) {
      std::printf("  speedup serial/parallel (not gated): %.3f\n",
                  serial.median() / p50.median());
    }
  } else {
    const QueryPicker picker(space.size(), w.zipf, opt.seed);
    Workload traffic = w;
    if (opt.query_rate > 0.0) traffic.query_rate = opt.query_rate;
    // The closed loops only feed per-layer metrics, so an untraced run
    // spends its whole window on the open loop that p50_ms comes from.
    traffic.closed_loops = traced;
    const auto measure = [&](ServeStack& s, Tracer& t) {
      ServeWindow sw = serve_window(s, traffic, space, picker, batches, window, t);
      const std::uint64_t mismatches = verify_answers(sw, space, *base, batches, nproc);
      if (mismatches > 0) {
        out.correct = false;
        std::printf("MISMATCH: %llu served answers disagree with brute force\n",
                    static_cast<unsigned long long>(mismatches));
      }
      for (const RpcLog* log : {&sw.open, &sw.serial, &sw.capacity, &sw.ingest}) {
        out.attempted += log->sent;
        out.failed += log->failed;
      }
      out.failed += mismatches;
      std::printf("  checked %llu answers (%zu distinct query/version pairs)\n",
                  static_cast<unsigned long long>(sw.checked_count), sw.checked.size());
      return sw;
    };
    const ServeWindow main = measure(*stack, untraced);
    out.samples["p50_ms"] = main.open.latency_ms;
    out.samples["serial_p50_ms"] = main.serial.latency_ms;
    out.samples["ingest_ms"] = main.ingest.latency_ms;
    out.samples["send_lag_ms"] = main.open.send_lag_ms;
    if (traced) {
      // A fresh stack, so the traced window sees the same table growth.
      stack.reset();
      stack = start_stack(*base, work / "stack-traced", nproc);
      warm_up(*stack, space, w.warm_all, nproc);
      const ServeWindow t = measure(*stack, tracer);
      layers = serve_layer_metrics(t);
      layers["e2e.throughput_per_s"] =
          ratio(static_cast<double>(main.capacity.ok), main.capacity.seconds);
      layers["trace.overhead_frac"] =
          t.open.latency_ms.median() / main.open.latency_ms.median() - 1.0;
    }
    stack.reset();
  }

  if (traced) {
    ThreadPool wide(nproc);
    layers["data.generate_s"] = generate_s.median();
    pipeline_layers(*base, truth_of(w), wide, tracer, layers);
    {
      WaitFreeBuilderOptions options;
      options.threads = nproc;
      const PotentialTable table = WaitFreeBuilder(options).build(*base, wide);
      layers["builder.distinct_ratio"] = ratio(static_cast<double>(table.distinct_keys()),
                                               static_cast<double>(base->sample_count()));
      mi_layers(table, wide, tracer, layers);
    }
    out.sim = model_vs_measured(*base, nproc);
    double error = 0.0;
    for (const SimPoint& p : out.sim) error += std::fabs(p.modeled - p.measured) / p.measured;
    layers["sim.modeled_phase1_s"] = out.sim.back().modeled;
    layers["sim.measured_phase1_s"] = out.sim.back().measured;
    layers["sim.model_error_frac"] = error / static_cast<double>(out.sim.size());
    layers["e2e.serial_p50_ms"] = out.samples["serial_p50_ms"].median();
    if (w.ingest_rate == 0.0) {
      // Ingest latency (and, for batch workloads, every serving layer) comes
      // from a short probe with ingest over this workload's base table.
      const Workload probe = probe_of(w);
      const double probe_seconds = opt.smoke ? 1.0 : 2.0;
      const std::vector<Dataset> probe_batches = make_batches(
          probe, static_cast<std::size_t>(std::ceil(probe_seconds * probe.ingest_rate)) + 2,
          opt.seed + 1);
      auto probe_stack = start_stack(*base, work / "probe", nproc);
      const std::vector<serve::ServeQuery> probe_space = query_space(*base, true);
      const QueryPicker picker(probe_space.size(), false, opt.seed);
      warm_up(*probe_stack, probe_space, false, nproc);
      const ServeWindow pw = serve_window(*probe_stack, probe, probe_space, picker,
                                          probe_batches, probe_seconds, tracer);
      const std::uint64_t mismatches =
          verify_answers(pw, probe_space, *base, probe_batches, nproc);
      if (mismatches > 0) out.correct = false;
      out.failed += mismatches + pw.open.failed + pw.serial.failed + pw.capacity.failed +
                    pw.ingest.failed;
      out.attempted += pw.open.sent + pw.serial.sent + pw.capacity.sent + pw.ingest.sent;
      for (const auto& [name, value] : serve_layer_metrics(pw)) {
        if (w.kind == Kind::kBatch || name == "serve.ingest_p95_ms") layers[name] = value;
      }
    }
    const std::map<std::string, double> self = tracer.self_seconds_by_layer();
    std::printf("  per-layer self time (traced run):\n");
    for (const auto& [layer, seconds] : self) {
      std::printf("    %-10s %10.4f s\n", layer.c_str(), seconds);
    }
    if (!tracer.write_chrome(opt.trace_path)) {
      throw std::runtime_error("cannot write trace to " + opt.trace_path);
    }
    std::printf("  wrote %zu spans to %s\n", tracer.span_count(), opt.trace_path.c_str());
    out.metrics = layers;
  } else {
    out.metrics["setup_s"] = setup_s.median();
    out.metrics["p50_ms"] = out.samples["p50_ms"].median();
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  return out;
}

std::string result_line(const Outcome& o, bool traced) {
  JsonWriter j;
  j.begin_object();
  j.boolean("correct", o.correct);
  j.integer("attempted", o.attempted);
  j.integer("failed", o.failed);
  j.begin_object("metrics");
  for (const MetricDef& def : kEndToEnd) {
    if (traced) break;
    j.begin_object(def.name).number("value", o.metrics.at(def.name)).string("unit", def.unit);
    j.end_object();
  }
  for (const MetricDef& def : kPerLayer) {
    if (!traced) break;
    j.begin_object(def.name).number("value", o.metrics.at(def.name)).string("unit", def.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  return j.str();
}

std::string report_line(const Workload& w, const Options& opt, const Outcome& o) {
  JsonWriter j;
  j.begin_object();
  j.string("workload", w.name);
  j.integer("seed", opt.seed);
  j.number("seconds", opt.seconds);
  j.boolean("traced", !opt.trace_path.empty());
  j.host(HostInfo::probe());
  j.begin_object("samples");
  for (const auto& [name, s] : o.samples) j.samples(name, s);
  j.end_object();
  j.begin_array("phase1_scaling");
  for (const SimPoint& p : o.sim) {
    j.begin_object().integer("cores", p.cores).measured("seconds", p.measured);
    j.modeled("seconds", p.modeled).end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

int run_one(const Workload& w, const Options& opt) {
  const HostInfo host = HostInfo::probe();
  std::printf("== %s  seed=%llu seconds=%g host: %u cores, %s, simd=%s, thp=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              host.nproc, host.cpu_model.c_str(), host.simd_level.c_str(),
              host.thp_mode.c_str());
  std::fflush(stdout);
  const Outcome o = run_workload(w, opt);
  const bool traced = !opt.trace_path.empty();
  for (const MetricDef& def : kEndToEnd) {
    const auto it = o.samples.find(def.name);
    if (it != o.samples.end()) {
      print_samples(def.name, def.unit, it->second);
    } else if (o.metrics.contains(def.name)) {
      std::printf("  %-18s %12.4f %s\n", def.name, o.metrics.at(def.name), def.unit);
    }
  }
  for (const char* extra : {"serial_p50_ms", "ingest_ms", "send_lag_ms"}) {
    const auto it = o.samples.find(extra);
    if (it != o.samples.end() && !it->second.empty()) print_samples(extra, "ms", it->second);
  }
  if (!o.sim.empty()) {
    std::printf("  phase 1 (build + all-pairs MI), measured vs cost model:\n");
    for (const SimPoint& p : o.sim) {
      std::printf("    P=%zu  measured_s %.4f  modeled_s %.4f\n", p.cores, p.measured,
                  p.modeled);
    }
  }
  for (const MetricDef& def : kPerLayer) {
    if (traced) std::printf("  %-28s %.6g %s\n", def.name, o.metrics.at(def.name), def.unit);
  }
  std::printf("report %s\n", report_line(w, opt, o).c_str());
  std::printf("%s\n", result_line(o, traced).c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// All workloads, each in a fresh process of this binary, so peak RSS and
/// warm caches do not leak between them. Checks that each child printed
/// every metric and had no failed operation.
int run_all(const std::vector<Workload>& workloads, const Options& opt,
            const std::string& scale) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  bool ok = true;
  for (const Workload& w : workloads) {
    std::string cmd = shell_quote(self) + " --workload " + w.name + " --seed " +
                      std::to_string(opt.seed) + " --seconds " + std::to_string(opt.seconds) +
                      " --scale " + scale + " --work-dir " + shell_quote(opt.work_dir.string());
    if (!opt.trace_path.empty()) {
      const fs::path p(opt.trace_path);
      cmd += " --trace " +
             shell_quote((p.parent_path() / (p.stem().string() + "." + w.name + ".json")).string());
    }
    if (opt.query_rate > 0.0) cmd += " --query-rate " + std::to_string(opt.query_rate);
    std::fflush(stdout);
    std::FILE* child = ::popen(cmd.c_str(), "r");
    if (child == nullptr) throw std::runtime_error("cannot start " + self);
    std::string line;
    std::string last;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, child) != nullptr) {
      line += buf;
      if (line.back() != '\n') continue;
      std::fputs(line.c_str(), stdout);
      last = line;
      line.clear();
    }
    const int status = ::pclose(child);
    bool good = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    good = good && last.find("\"failed\": 0,") != std::string::npos;
    for (const MetricDef& def : kEndToEnd) {
      if (!opt.trace_path.empty()) break;
      good = good && last.find("\"" + std::string(def.name) + "\": {\"value\": ") !=
                         std::string::npos;
    }
    for (const MetricDef& def : kPerLayer) {
      if (opt.trace_path.empty()) break;
      good = good && last.find("\"" + std::string(def.name) + "\": {\"value\": ") !=
                         std::string::npos;
    }
    if (!good) std::printf("FAILED: workload %s (exit status %d)\n", w.name.c_str(), status);
    ok = ok && good;
  }
  std::printf("\n%s\n", ok ? "all workloads passed" : "SOME WORKLOADS FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Server and clients share this process: a peer that hangs up must turn
  // into a write error, not a signal that kills the run.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    CliParser cli(
        "pipeline_e2e: dataset -> potential table -> all-pairs MI -> learned CPDAG -> "
        "answers over loopback, timed end to end and per layer.");
    cli.add_option("workload", "all",
                   "paper-uniform | alarm-learn | sachs-learn | serve-hot | serve-ingest | all");
    cli.add_option("seed", "42", "Workload seed");
    cli.add_option("seconds", "0",
                   "Measured window per workload, seconds (0: 25, or 1 at smoke scale)");
    cli.add_option("scale", "full", "full | smoke (tiny sizes, for the ctest)");
    cli.add_option("trace", "",
                   "Traced run: write Chrome trace JSON here and print per-layer metrics");
    cli.add_option("query-rate", "0", "Override the open-loop query rate (q/s)");
    cli.add_option("work-dir", "",
                   "Scratch directory for durable stores (default: next to the binary)");
    if (!cli.parse(argc, argv)) return 0;

    const std::string scale = cli.get("scale");
    if (scale != "full" && scale != "smoke") throw std::runtime_error("--scale: full | smoke");
    Options opt;
    opt.smoke = scale == "smoke";
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    if (opt.seconds == 0.0) opt.seconds = opt.smoke ? 1.0 : 25.0;
    if (!(opt.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
    opt.trace_path = cli.get("trace");
    opt.query_rate = cli.get_double("query-rate");
    opt.work_dir = cli.get("work-dir").empty()
                       ? fs::read_symlink("/proc/self/exe").parent_path() / "work"
                       : fs::path(cli.get("work-dir"));

    const std::vector<Workload> workloads = all_workloads(opt.smoke);
    const std::string name = cli.get("workload");
    if (name == "all") return run_all(workloads, opt, scale);
    for (const Workload& w : workloads) {
      if (w.name == name) return run_one(w, opt);
    }
    throw std::runtime_error("unknown workload: " + name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_e2e: %s\n", e.what());
    return 2;
  }
}
