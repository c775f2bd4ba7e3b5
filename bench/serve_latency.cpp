// Open-loop latency of the network serving front end, and the admission-
// control overload property.
//
// A ServeServer runs on loopback over a freshly built store. Three traffic
// classes hit it concurrently, each from its own generator thread with its
// own connection:
//
//   interactive — marginal / pair-MI queries at a fixed arrival rate,
//   ingest      — observation batches at a configurable flood rate,
//   admin       — a light stats poll.
//
// Generation is OPEN-LOOP: every request has a scheduled due time
// (i / rate), requests are sent as soon as they are due regardless of how
// many are still in flight (pipelined on the connection), and latency is
// measured from the DUE time to response receipt. A server that falls
// behind therefore accrues queueing delay in the recorded latencies instead
// of silently slowing the generator down — the standard fix for coordinated
// omission.
//
// Two phases per admission mode (enabled / disabled):
//
//   baseline — interactive + admin only.
//   overload — the ingest flood added.
//
// With admission enabled, ingest lives in its own bounded queue with its own
// dispatcher: the flood gets explicit OVERLOADED rejections and interactive
// p99 stays near baseline. Disabled reproduces the naive front end — one
// shared FIFO, one dispatcher — where every query queues behind whole ingest
// builds, and interactive p99 inflates by orders of magnitude.
//
// The four phases run --reps times, round-robin, each on a fresh store. Per
// phase and class the emitted BENCH_serve_latency.json reports each
// percentile as the median, min and max over the reps, the request counts
// summed over them, the counting-index rebuilds of the ingest phases, the
// host block (cores, CPU model, SIMD level, THP mode) and the property
// verdict on the median p99s.
//
//   ./serve_latency --duration-ms 1000 --query-rate 2000 --ingest-rate 60
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../pipeline_e2e/bench_schema.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "net/serve_client.hpp"
#include "net/serve_server.hpp"
#include "serve/serve_engine.hpp"
#include "serve/table_store.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace wfbn;
using bench::JsonWriter;
using bench::Samples;

using Clock = std::chrono::steady_clock;

double now_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ClassResult {
  std::string phase;
  bool admission = false;
  std::string traffic_class;
  double target_rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
  std::vector<double> latencies_ms;  ///< due-time latency of OK responses

  [[nodiscard]] double percentile(double p) const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  [[nodiscard]] double max_ms() const {
    return latencies_ms.empty()
               ? 0.0
               : *std::max_element(latencies_ms.begin(), latencies_ms.end());
  }
};

/// One open-loop generator: sends `make(i)` at due time i/rate for
/// `duration` seconds, waits on the socket between sends so every response
/// is timestamped as it arrives, then collects stragglers. Latency of
/// response id is receipt - due(id).
template <typename MakeRequest>
ClassResult run_generator(std::uint16_t port, double rate, double duration,
                          MakeRequest make, const std::string& cls) {
  ClassResult result;
  result.traffic_class = cls;
  result.target_rate = rate;
  if (rate <= 0.0) return result;

  net::ClientOptions options;
  options.port = port;
  options.timeout_ms = 10000;
  net::ServeClient client(options);

  const Clock::time_point start = Clock::now();
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  std::vector<double> due_s;  // due time of request id i, seconds from start
  const auto record = [&](const net::Response& r) {
    switch (r.status) {
      case net::Status::kOk:
        ++result.ok;
        result.latencies_ms.push_back((now_seconds(start) - due_s[r.id]) * 1e3);
        break;
      case net::Status::kOverloaded:
        ++result.overloaded;
        break;
      default:
        ++result.errors;
        break;
    }
  };

  std::uint64_t next_id = 0;
  while (true) {
    const double t = now_seconds(start);
    if (t >= duration) break;
    // Send everything due by now — behind-schedule requests go out
    // immediately and their queueing delay lands in the measured latency.
    while (static_cast<double>(next_id) / rate <= t) {
      due_s.push_back(static_cast<double>(next_id) / rate);
      client.send(make(next_id));
      ++result.sent;
      ++next_id;
    }
    // Take responses as they arrive until the next send is due.
    const Clock::time_point next_send =
        at(std::min(static_cast<double>(next_id) / rate, duration));
    while (std::optional<net::Response> r = client.try_receive_until(next_send)) {
      record(*r);
    }
  }
  // Collect stragglers (bounded: an unresponsive server must not hang the
  // bench; anything still missing counts as an error).
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(5000);
  while (result.ok + result.overloaded + result.errors < result.sent &&
         Clock::now() < deadline) {
    try {
      if (std::optional<net::Response> r = client.try_receive(50)) record(*r);
    } catch (const std::exception&) {
      break;
    }
  }
  result.errors += result.sent - (result.ok + result.overloaded + result.errors);
  return result;
}

struct PhaseConfig {
  std::string name;
  bool admission = true;
  double query_rate = 0.0;
  double ingest_rate = 0.0;
  double admin_rate = 0.0;
  /// Token-bucket cap on admitted ingest (admission-on phases): the
  /// operator's knob that keeps a flood from saturating the host. Excess
  /// batches get explicit OVERLOADED + retry-after. 0 = uncapped.
  double ingest_admit_rate = 0.0;
};

/// One run of a phase: its three classes and the index rebuilds of its
/// ingests.
struct PhaseRun {
  std::vector<ClassResult> classes;
  std::uint64_t index_rebuilds = 0;
};

PhaseRun run_phase(const PhaseConfig& phase, const Dataset& base,
                   const Dataset& batch, double duration, std::size_t threads) {
  // Fresh store + engine per phase so ingest from a previous phase cannot
  // change the table the next phase queries.
  serve::TableStore store([&] {
    WaitFreeBuilderOptions options;
    options.threads = threads;
    return WaitFreeBuilder(options).build(base);
  }());
  serve::ServeEngine engine(store);
  ThreadPool pool(threads);
  net::ServerOptions server_options;
  server_options.admission.enabled = phase.admission;
  if (phase.admission && phase.ingest_admit_rate > 0.0) {
    net::ClassPolicy& ingest_policy =
        server_options.admission
            .per_class[static_cast<std::size_t>(net::RequestClass::kIngest)];
    ingest_policy.rate_per_sec = phase.ingest_admit_rate;
    ingest_policy.burst = 16;
  }
  net::ServeServer server(engine, pool, server_options);
  server.start();
  const std::uint16_t port = server.port();

  const std::size_t n = base.cardinalities().size();
  {
    // Warm-up outside the measurement: first-touch page faults, the pool's
    // first serve_batch, and the connection handshake all land here instead
    // of in the first phase's percentiles.
    net::ClientOptions options;
    options.port = port;
    net::ServeClient warm(options);
    for (std::uint64_t i = 0; i < 64; ++i) {
      net::Request request;
      request.id = i;
      request.opcode = net::Opcode::kMarginal;
      request.query.kind = serve::QueryKind::kMarginal;
      request.query.variables = {i % n};
      (void)warm.call(request);
    }
  }
  std::vector<ClassResult> results(3);
  std::thread interactive([&] {
    results[0] = run_generator(
        port, phase.query_rate, duration,
        [&](std::uint64_t id) {
          net::Request request;
          request.id = id;
          if (id % 4 == 3) {
            request.opcode = net::Opcode::kPairMi;
            request.query.kind = serve::QueryKind::kPairMi;
            request.query.variables = {id % n, (id + 1) % n};
          } else {
            request.opcode = net::Opcode::kMarginal;
            request.query.kind = serve::QueryKind::kMarginal;
            request.query.variables = {id % n, (id + 3) % n};
          }
          return request;
        },
        "interactive");
  });
  std::thread ingest([&] {
    results[1] = run_generator(
        port, phase.ingest_rate, duration,
        [&](std::uint64_t id) {
          net::Request request;
          request.id = id;
          request.opcode = net::Opcode::kIngest;
          request.ingest_samples = batch.sample_count();
          request.ingest_cardinalities = batch.cardinalities();
          request.ingest_cells.assign(batch.raw().begin(), batch.raw().end());
          return request;
        },
        "ingest");
  });
  std::thread admin([&] {
    results[2] = run_generator(
        port, phase.admin_rate, duration,
        [&](std::uint64_t id) {
          net::Request request;
          request.id = id;
          request.opcode = net::Opcode::kStats;
          return request;
        },
        "admin");
  });
  interactive.join();
  ingest.join();
  admin.join();
  for (ClassResult& r : results) {
    r.phase = phase.name;
    r.admission = phase.admission;
  }
  server.stop();
  return {std::move(results), store.index_rebuilds()};
}

/// One (phase, admission, class) row aggregated over the reps.
struct ClassSeries {
  std::string phase;
  bool admission = false;
  std::string traffic_class;
  double target_rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t errors = 0;
  Samples p50, p95, p99, max;  ///< one value per rep, ms
  Samples index_rebuilds;      ///< ingest rows: rebuilds per rep

  void add(const ClassResult& r, std::uint64_t rebuilds) {
    sent += r.sent;
    ok += r.ok;
    overloaded += r.overloaded;
    errors += r.errors;
    p50.add(r.percentile(50));
    p95.add(r.percentile(95));
    p99.add(r.percentile(99));
    max.add(r.max_ms());
    index_rebuilds.add(static_cast<double>(rebuilds));
  }
};

void spread(JsonWriter& json, const std::string& key, const Samples& s) {
  json.begin_object(key);
  json.number("median", s.median());
  json.number("min", s.quantile(0.0));
  json.number("max", s.quantile(1.0));
  json.integer("n", s.n());
  json.end_object();
}

std::string range(const Samples& s) {
  return TablePrinter::fmt(s.median(), 3) + " [" +
         TablePrinter::fmt(s.quantile(0.0), 3) + ", " +
         TablePrinter::fmt(s.quantile(1.0), 3) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Open-loop latency of the network serving front end: per-class "
      "p50/p95/p99 plus the overload sweep showing per-class admission "
      "control holding interactive tail latency under ingest flood.");
  cli.add_option("samples", "60000", "Rows in the base table");
  cli.add_option("variables", "10", "Variables (binary)");
  cli.add_option("threads", "4", "Server worker threads");
  cli.add_option("duration-ms", "1200", "Open-loop generation time per phase");
  cli.add_option("query-rate", "1500", "Interactive arrivals/sec");
  cli.add_option("ingest-rate", "400", "Overload-phase ingest batches/sec");
  cli.add_option("ingest-admit-rate", "120",
                 "Admission-on cap on admitted ingest batches/sec");
  cli.add_option("ingest-batch", "16000", "Rows per ingest batch");
  cli.add_option("admin-rate", "20", "Admin stats polls/sec");
  cli.add_option("reps", "5", "Runs of every phase, round-robin");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_option("json-out", "BENCH_serve_latency.json",
                 "Write the JSON datapoint here ('' disables)");
  if (!cli.parse(argc, argv)) return 0;

  const std::size_t samples = static_cast<std::size_t>(cli.get_int("samples"));
  const std::size_t n = static_cast<std::size_t>(cli.get_int("variables"));
  const std::size_t threads = static_cast<std::size_t>(cli.get_int("threads"));
  const double duration = static_cast<double>(cli.get_int("duration-ms")) / 1e3;
  const double query_rate = static_cast<double>(cli.get_int("query-rate"));
  const double ingest_rate = static_cast<double>(cli.get_int("ingest-rate"));
  const double ingest_admit_rate =
      static_cast<double>(cli.get_int("ingest-admit-rate"));
  const double admin_rate = static_cast<double>(cli.get_int("admin-rate"));
  const std::size_t batch_rows =
      static_cast<std::size_t>(cli.get_int("ingest-batch"));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("reps"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const Dataset base = generate_uniform(samples, n, 2, seed, threads);
  const Dataset batch = generate_uniform(batch_rows, n, 2, seed + 1, threads);

  const std::vector<PhaseConfig> phases = {
      {"baseline", true, query_rate, 0.0, admin_rate, ingest_admit_rate},
      {"overload", true, query_rate, ingest_rate, admin_rate,
       ingest_admit_rate},
      {"baseline", false, query_rate, 0.0, admin_rate, 0.0},
      {"overload", false, query_rate, ingest_rate, admin_rate, 0.0},
  };

  // series[phase * 3 + class]: the classes in run_phase's order.
  std::vector<ClassSeries> series(phases.size() * 3);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const PhaseConfig& phase = phases[p];
      std::printf("rep %zu/%zu phase %-8s admission=%-3s query=%.0f/s ingest=%.0f/s ...\n",
                  rep + 1, reps, phase.name.c_str(), phase.admission ? "on" : "off",
                  phase.query_rate, phase.ingest_rate);
      const PhaseRun run = run_phase(phase, base, batch, duration, threads);
      for (std::size_t c = 0; c < run.classes.size(); ++c) {
        const ClassResult& r = run.classes[c];
        ClassSeries& row = series[p * 3 + c];
        row.phase = r.phase;
        row.admission = r.admission;
        row.traffic_class = r.traffic_class;
        row.target_rate = r.target_rate;
        row.add(r, run.index_rebuilds);
      }
    }
  }

  TablePrinter table({"phase", "admission", "class", "rate/s", "sent", "ok",
                      "overloaded", "p50 ms", "p99 ms", "max ms"});
  for (const ClassSeries& r : series) {
    if (r.target_rate <= 0.0) continue;
    table.add_row({r.phase, r.admission ? "on" : "off", r.traffic_class,
                   TablePrinter::fmt(r.target_rate, 0), std::to_string(r.sent),
                   std::to_string(r.ok), std::to_string(r.overloaded),
                   range(r.p50), range(r.p99), range(r.max)});
  }
  table.print("serve_latency — open-loop per-class latency, median [min, max] over " +
              std::to_string(reps) + " reps");

  // The admission-control property: interactive p99 under ingest overload,
  // admission on vs off, on the median over the reps.
  const auto find = [&](const char* phase, bool admission) -> const ClassSeries& {
    for (const ClassSeries& r : series) {
      if (r.phase == phase && r.admission == admission &&
          r.traffic_class == "interactive") {
        return r;
      }
    }
    static const ClassSeries empty;
    return empty;
  };
  const double p99_on = find("overload", true).p99.median();
  const double p99_off = find("overload", false).p99.median();
  const double p99_base_on = find("baseline", true).p99.median();
  const bool holds = p99_on < p99_off;
  std::printf(
      "\nadmission property: overload interactive p99 %.3fms (on) vs %.3fms "
      "(off), baseline %.3fms — %s\n",
      p99_on, p99_off, p99_base_on,
      holds ? "admission control holds the tail" : "PROPERTY VIOLATED");

  const bench::HostInfo host = bench::HostInfo::probe();
  JsonWriter json;
  json.begin_object();
  json.string("bench", "serve_latency");
  json.host(host);
  json.integer("host_cores", host.nproc);
  json.begin_object("config");
  json.integer("samples", samples);
  json.integer("variables", n);
  json.integer("threads", threads);
  json.integer("duration_ms", static_cast<std::uint64_t>(cli.get_int("duration-ms")));
  json.number("query_rate", query_rate);
  json.number("ingest_rate", ingest_rate);
  json.number("ingest_admit_rate", ingest_admit_rate);
  json.integer("ingest_batch", batch_rows);
  json.number("admin_rate", admin_rate);
  json.integer("reps", reps);
  json.integer("seed", seed);
  json.end_object();
  json.begin_array("results");
  for (const ClassSeries& r : series) {
    if (r.target_rate <= 0.0) continue;
    json.begin_object();
    json.string("phase", r.phase);
    json.boolean("admission", r.admission);
    json.string("class", r.traffic_class);
    json.number("target_rate", r.target_rate);
    json.integer("sent", r.sent);
    json.integer("ok", r.ok);
    json.integer("overloaded", r.overloaded);
    json.integer("errors", r.errors);
    spread(json, "p50_ms", r.p50);
    spread(json, "p95_ms", r.p95);
    spread(json, "p99_ms", r.p99);
    spread(json, "max_ms", r.max);
    if (r.traffic_class == "ingest") spread(json, "index_rebuilds", r.index_rebuilds);
    json.end_object();
  }
  json.end_array();
  json.begin_object("property");
  json.number("overload_interactive_p99_ms_admission_on", p99_on);
  json.number("overload_interactive_p99_ms_admission_off", p99_off);
  json.number("baseline_interactive_p99_ms", p99_base_on);
  json.boolean("holds", holds);
  json.end_object();
  json.end_object();

  std::printf("\n%s\n", json.str().c_str());
  const std::string json_out = cli.get("json-out");
  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.str().c_str());
      std::fclose(f);
      std::printf("wrote %s\n", json_out.c_str());
    }
  }
  return 0;
}
