// Serving over the network, end to end: a ServeServer on loopback over a
// crash-safe DurableTableStore, hit concurrently by a query client and an
// ingest streamer — the deployment shape the net/ subsystem exists for.
//
//   server    ServeEngine over DurableTableStore: queries answer from the
//             pinned snapshot, ingested batches publish v2, v3, ... and
//             persist asynchronously; a final FLUSH makes the last version
//             durable before shutdown.
//   queries   one ServeClient issuing a mixed marginal / conditional /
//             pair-MI workload, measuring per-request latency.
//   ingest    a second ServeClient streaming observation batches. When the
//             admission layer answers OVERLOADED the streamer does what a
//             well-behaved producer should: waits the server's retry_after_ms
//             hint and resends the same batch.
//
// The summary prints per-class latency percentiles, the rejection/retry
// counts, and the served vs durable version — all observed purely through
// the wire protocol.
//
//   ./serve_over_network --batches 6 --batch-size 20000 --queries 2000
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <thread>
#include <vector>

#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "net/serve_client.hpp"
#include "net/serve_server.hpp"
#include "serve/persist/durable_store.hpp"
#include "serve/serve_engine.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

namespace {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfbn;

  CliParser cli(
      "serve_over_network — query client + ingest streamer against a "
      "ServeServer over a DurableTableStore on loopback");
  cli.add_option("batches", "6", "Batches the ingest streamer sends");
  cli.add_option("batch-size", "20000", "Observations per batch");
  cli.add_option("queries", "2000", "Queries the query client issues");
  cli.add_option("variables", "10", "Binary variables");
  cli.add_option("threads", "4", "Server worker threads");
  cli.add_option("ingest-admit-rate", "0",
                 "Optional cap on admitted ingest batches/sec (0 = uncapped)");
  cli.add_option("seed", "7", "Workload seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto batches = static_cast<std::size_t>(cli.get_int("batches"));
  const auto batch_size = static_cast<std::size_t>(cli.get_int("batch-size"));
  const auto queries = static_cast<std::size_t>(cli.get_int("queries"));
  const auto n = static_cast<std::size_t>(cli.get_int("variables"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const double admit_rate = static_cast<double>(cli.get_int("ingest-admit-rate"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wfbn_serve_over_network";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Deletes the snapshot directory on the way out, after the store that
  // writes into it (declared below, so destroyed first).
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } const remove_on_exit{dir};

  // Version 1: built locally, persisted by the durable store's constructor.
  WaitFreeBuilderOptions build_options;
  build_options.threads = threads;
  serve::persist::DurableTableStore durable(
      dir, WaitFreeBuilder(build_options).build(
               generate_chain_correlated(batch_size, n, 2, 0.8, seed)));
  serve::ServeEngine engine(durable.store());
  ThreadPool pool(threads);

  net::ServerOptions server_options;
  if (admit_rate > 0.0) {
    net::ClassPolicy& ingest_policy =
        server_options.admission
            .per_class[static_cast<std::size_t>(net::RequestClass::kIngest)];
    ingest_policy.rate_per_sec = admit_rate;
    ingest_policy.burst = 2;
  }
  net::ServeServer server(engine, pool, server_options, &durable);
  server.start();
  std::printf("server listening on 127.0.0.1:%u (snapshot dir %s)\n\n",
              server.port(), dir.c_str());

  net::ClientOptions client_options;
  client_options.port = server.port();

  // --- ingest streamer -----------------------------------------------------
  std::uint64_t ingested = 0;
  std::uint64_t retries = 0;
  std::vector<double> ingest_ms;
  std::thread streamer([&] {
    net::ServeClient client(client_options);
    for (std::size_t b = 0; b < batches; ++b) {
      const Dataset batch =
          generate_chain_correlated(batch_size, n, 2, 0.8, seed + 1 + b);
      net::Request request;
      request.id = b;
      request.opcode = net::Opcode::kIngest;
      request.ingest_samples = batch.sample_count();
      request.ingest_cardinalities = batch.cardinalities();
      request.ingest_cells.assign(batch.raw().begin(), batch.raw().end());
      while (true) {
        Timer timer;
        const net::Response r = client.call(request);
        if (r.status == net::Status::kOverloaded) {
          // The server said no and told us when to come back.
          ++retries;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::max<int>(1, r.retry_after_ms)));
          continue;
        }
        ingest_ms.push_back(timer.seconds() * 1e3);
        if (r.status == net::Status::kOk) {
          ++ingested;
          std::printf("  ingest: batch %zu -> published v%llu (%llu rows)\n",
                      b, static_cast<unsigned long long>(r.published_version),
                      static_cast<unsigned long long>(r.batch_rows));
        } else {
          std::printf("  ingest: batch %zu failed: %s\n", b, r.error.c_str());
        }
        break;
      }
    }
  });

  // --- query client --------------------------------------------------------
  std::uint64_t answered = 0;
  std::uint64_t cache_hits = 0;
  std::vector<double> query_ms;
  std::thread querier([&] {
    net::ServeClient client(client_options);
    for (std::size_t i = 0; i < queries; ++i) {
      net::Request request;
      request.id = i;
      switch (i % 3) {
        case 0:
          request.opcode = net::Opcode::kMarginal;
          request.query.kind = serve::QueryKind::kMarginal;
          request.query.variables = {i % n, (i + 1) % n};
          break;
        case 1:
          request.opcode = net::Opcode::kConditional;
          request.query.kind = serve::QueryKind::kConditional;
          request.query.variables = {(i + 2) % n};
          request.query.evidence = {{i % n, static_cast<State>(i % 2)}};
          break;
        default:
          request.opcode = net::Opcode::kPairMi;
          request.query.kind = serve::QueryKind::kPairMi;
          request.query.variables = {i % n, (i + 1) % n};
          break;
      }
      Timer timer;
      const net::Response r = client.call(request);
      query_ms.push_back(timer.seconds() * 1e3);
      if (r.status == net::Status::kOk) {
        ++answered;
        if (r.cache_hit) ++cache_hits;
      }
    }
  });

  streamer.join();
  querier.join();

  // --- admin: flush, then read the server's own view of the run -----------
  net::ServeClient admin(client_options);
  net::Request flush;
  flush.id = 1;
  flush.opcode = net::Opcode::kFlush;
  const net::Response flushed = admin.call(flush);
  net::Request stats;
  stats.id = 2;
  stats.opcode = net::Opcode::kStats;
  const net::Response st = admin.call(stats);

  TablePrinter table({"class", "requests", "p50 ms", "p95 ms", "p99 ms"});
  table.add_row({"interactive", std::to_string(query_ms.size()),
                 TablePrinter::fmt(percentile(query_ms, 50), 3),
                 TablePrinter::fmt(percentile(query_ms, 95), 3),
                 TablePrinter::fmt(percentile(query_ms, 99), 3)});
  table.add_row({"ingest", std::to_string(ingest_ms.size()),
                 TablePrinter::fmt(percentile(ingest_ms, 50), 3),
                 TablePrinter::fmt(percentile(ingest_ms, 95), 3),
                 TablePrinter::fmt(percentile(ingest_ms, 99), 3)});
  std::printf("\n");
  table.print("per-class latency over the wire");

  std::printf(
      "\nqueries answered: %llu/%zu (%.1f%% served from the result cache)\n"
      "batches published: %llu/%zu, OVERLOADED retries honoured: %llu\n"
      "admission counters (server): admitted=%llu rejected=%llu\n"
      "flush: %s — served v%llu, durable v%llu\n",
      static_cast<unsigned long long>(answered), queries,
      answered == 0 ? 0.0
                    : 100.0 * static_cast<double>(cache_hits) /
                          static_cast<double>(answered),
      static_cast<unsigned long long>(ingested), batches,
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(st.admitted),
      static_cast<unsigned long long>(st.rejected),
      flushed.flushed ? "ok" : "FAILED",
      static_cast<unsigned long long>(flushed.served_version),
      static_cast<unsigned long long>(flushed.durable_version));

  server.stop();
  const bool ok = answered == queries && ingested == batches &&
                  flushed.flushed &&
                  flushed.durable_version == flushed.served_version;
  if (!ok) {
    std::printf("\nFAILURE: not every request completed\n");
    return 1;
  }
  std::printf("\nall traffic served; every published version is durable\n");
  return 0;
}
