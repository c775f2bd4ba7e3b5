// Parallel CI-test scheduling sweep: Cheng and PC-stable structure learning
// over a borrowed ThreadPool of P workers, P = 1..nproc by default, on two
// legs: a synthetic chain (--samples x --variables, binary) and ALARM
// forward-sampled at --alarm-samples rows (37 variables of 2-4 states, the
// shape of the alarm-learn workload; 0 skips it).
//
// Two times per (leg, learner, P), over --reps repetitions that rotate
// through the pool widths so drift of a shared host spreads over all of them:
//
//   measured_wall_seconds   wall clock of learn(table) — planes, drafting
//                           MI, the scheduled CI phases and orientation —
//                           as median [min, max];
//   critical_path_seconds   median over the reps of Σ over scheduler batches
//                           of the slowest worker's busy CPU time
//                           (CLOCK_THREAD_CPUTIME_ID): the makespan of the
//                           scheduled CI phases on a machine with one core
//                           per worker, which a host that timeshares fewer
//                           cores than P cannot show by wall clock.
//
// modeled_speedup = critical_path(P=1) / critical_path(P). Learner results
// are bit-identical across pool widths (frozen-phase scheduling, canonical
// marginal order), so every rep at every P is verified to produce the same
// skeleton, orientation and CI-test count as the first P=1 rep before its
// timing is reported; the bench exits non-zero otherwise.
//
// Also reported: CI tests per modeled second, the marginal-reuse cache hit
// rate (hits / (hits + misses)), and how the last rep's cache misses were
// counted (projected from a cached superset, AND-popcount lattice, set-bit
// scatter; at P > 1 timing decides whether a superset is cached yet, so the
// split varies between reps while every count stays exact).
//
//   ./learn_scaling --samples 60000 --variables 12 --alarm-samples 200000
//       --reps 5
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "../pipeline_e2e/bench_schema.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "learn/cheng.hpp"
#include "learn/pc_stable.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

namespace {

using namespace wfbn;
using bench::HostInfo;
using bench::JsonWriter;
using bench::Samples;

struct LearnOutcome {
  std::vector<Edge> skeleton;
  std::vector<Edge> oriented;
  std::uint64_t ci_tests = 0;
  CiScheduleStats schedule;
};

struct PointResult {
  std::size_t threads = 0;
  Samples wall;
  Samples critical;
  Samples busy;
  LearnOutcome last;
  bool identical_to_serial = true;
};

using RunFn = std::function<LearnOutcome(ThreadPool&)>;

LearnOutcome run_cheng(const PotentialTable& table, double mi_threshold,
                       ThreadPool& pool) {
  ChengOptions options;
  options.ci.mi_threshold = mi_threshold;
  const ChengResult result = BasicChengLearner<Key>(options, pool).learn(table);
  return {result.skeleton.edges(), result.oriented.edges(), result.ci_tests,
          result.schedule};
}

LearnOutcome run_pc_stable(const PotentialTable& table, double mi_threshold,
                           std::size_t max_level, ThreadPool& pool) {
  PcStableOptions options;
  options.ci.mi_threshold = mi_threshold;
  options.max_level = max_level;
  const PcStableResult result =
      BasicPcStableLearner<Key>(options, pool).learn(table);
  return {result.skeleton.edges(), result.oriented.edges(), result.ci_tests,
          result.schedule};
}

/// One warm-up learn, then `reps` rounds over the pool widths.
std::vector<PointResult> sweep(const RunFn& run,
                               const std::vector<std::size_t>& thread_counts,
                               std::size_t reps) {
  std::vector<PointResult> points(thread_counts.size());
  {
    ThreadPool pool(thread_counts.back());
    (void)run(pool);
  }
  LearnOutcome serial;
  bool have_serial = false;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      PointResult& point = points[i];
      point.threads = thread_counts[i];
      ThreadPool pool(thread_counts[i]);
      const Timer timer;
      LearnOutcome outcome = run(pool);
      point.wall.add(timer.seconds());
      point.critical.add(outcome.schedule.critical_path_seconds);
      point.busy.add(outcome.schedule.total_busy_seconds);
      if (!have_serial) {
        serial = outcome;
        have_serial = true;
      }
      point.identical_to_serial = point.identical_to_serial &&
                                  outcome.skeleton == serial.skeleton &&
                                  outcome.oriented == serial.oriented &&
                                  outcome.ci_tests == serial.ci_tests;
      point.last = std::move(outcome);
    }
  }
  return points;
}

double hit_rate(const CiScheduleStats& s) {
  const std::uint64_t probes = s.cache_hits + s.cache_misses;
  return probes == 0 ? 0.0
                     : static_cast<double>(s.cache_hits) /
                           static_cast<double>(probes);
}

std::string range_ms(const Samples& s) {
  return TablePrinter::fmt(s.median() * 1e3, 2) + " [" +
         TablePrinter::fmt(s.quantile(0.0) * 1e3, 2) + "-" +
         TablePrinter::fmt(s.quantile(1.0) * 1e3, 2) + "]";
}

/// Prints one learner's sweep and appends its JSON object; false when some
/// P diverged from the serial result.
bool report(JsonWriter& json, const std::string& title, const char* algorithm,
            const std::vector<PointResult>& points) {
  const double serial = points.front().critical.median();
  TablePrinter table({"P", "wall ms", "critical ms", "busy ms", "items",
                      "tests/s", "hit rate", "proj/lat/scat", "speedup",
                      "identical"});
  json.begin_object();
  json.string("algorithm", algorithm);
  json.begin_array("results");
  bool identical = true;
  for (const PointResult& p : points) {
    const CiScheduleStats& s = p.last.schedule;
    const double critical = p.critical.median();
    const double tests_per_sec =
        critical == 0.0 ? 0.0 : static_cast<double>(p.last.ci_tests) / critical;
    const double speedup = critical == 0.0 ? 0.0 : serial / critical;
    table.add_row({std::to_string(p.threads), range_ms(p.wall),
                   TablePrinter::fmt(critical * 1e3, 2),
                   TablePrinter::fmt(p.busy.median() * 1e3, 2),
                   std::to_string(s.work_items), TablePrinter::fmt(tests_per_sec, 0),
                   TablePrinter::fmt(hit_rate(s), 3),
                   std::to_string(s.misses_projected) + "/" +
                       std::to_string(s.misses_lattice) + "/" +
                       std::to_string(s.misses_scatter),
                   TablePrinter::fmt(speedup, 2),
                   p.identical_to_serial ? "yes" : "NO"});
    json.begin_object();
    json.integer("threads", p.threads);
    json.begin_object("measured_wall_seconds");
    json.number("median", p.wall.median());
    json.number("min", p.wall.quantile(0.0));
    json.number("max", p.wall.quantile(1.0));
    json.integer("n", p.wall.n());
    json.end_object();
    json.number("critical_path_seconds", critical);
    json.number("total_busy_seconds", p.busy.median());
    json.integer("work_items", s.work_items);
    json.integer("batches", s.batches);
    json.integer("ci_tests", p.last.ci_tests);
    json.number("ci_tests_per_sec", tests_per_sec);
    json.number("cache_hit_rate", hit_rate(s));
    json.integer("cache_misses", s.cache_misses);
    json.integer("misses_projected", s.misses_projected);
    json.integer("misses_lattice", s.misses_lattice);
    json.integer("misses_scatter", s.misses_scatter);
    json.number("modeled_speedup", speedup);
    json.boolean("identical_to_serial", p.identical_to_serial);
    json.end_object();
    identical = identical && p.identical_to_serial;
  }
  json.end_array();
  json.end_object();
  table.print(title + " " + algorithm +
              " — wall median [min-max], modeled makespan of scheduled CI "
              "phases");
  return identical;
}

/// Builds the leg's table and sweeps both learners over it.
bool run_leg(JsonWriter& json, const std::string& leg, const Dataset& data,
             double mi_threshold, std::size_t max_level,
             const std::vector<std::size_t>& thread_counts, std::size_t reps) {
  WaitFreeBuilderOptions build_options;
  build_options.threads = thread_counts.back();
  const PotentialTable table = WaitFreeBuilder(build_options).build(data);
  json.string("leg", leg);
  json.integer("samples", data.sample_count());
  json.integer("variables", data.variable_count());
  json.begin_array("algorithms");
  bool identical = report(
      json, leg, "cheng",
      sweep([&](ThreadPool& pool) { return run_cheng(table, mi_threshold, pool); },
            thread_counts, reps));
  identical &= report(json, leg, "pc_stable",
                      sweep(
                          [&](ThreadPool& pool) {
                            return run_pc_stable(table, mi_threshold,
                                                 max_level, pool);
                          },
                          thread_counts, reps));
  json.end_array();
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "learn_scaling — parallel CI-test scheduling sweep for the Cheng and "
      "PC-stable learners");
  cli.add_option("samples", "60000", "Rows m of the synthetic chain leg");
  cli.add_option("variables", "12", "Variables n of the synthetic chain leg");
  cli.add_option("copy-prob", "0.8", "Chain correlation strength");
  cli.add_option("alarm-samples", "200000",
                 "Rows of the ALARM leg (0 skips it)");
  cli.add_option("mi-threshold", "0.01", "CI threshold epsilon (nats)");
  cli.add_option("max-level", "2", "PC-stable conditioning-set cap");
  cli.add_option("threads", "", "Pool widths P to sweep (default 1..nproc)");
  cli.add_option("reps", "5", "Repetitions per P");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_option("json-out", "BENCH_learn.json",
                 "JSON datapoint path (empty disables the file)");
  if (!cli.parse(argc, argv)) return 0;

  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto variables = static_cast<std::size_t>(cli.get_int("variables"));
  const double copy_prob = cli.get_double("copy-prob");
  const auto alarm_samples =
      static_cast<std::size_t>(cli.get_int("alarm-samples"));
  const double mi_threshold = cli.get_double("mi-threshold");
  const auto max_level = static_cast<std::size_t>(cli.get_int("max-level"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string json_out = cli.get("json-out");
  const HostInfo host = HostInfo::probe();
  std::vector<std::size_t> thread_counts;
  for (const std::int64_t p : cli.get_int_list("threads")) {
    thread_counts.push_back(static_cast<std::size_t>(p));
  }
  if (thread_counts.empty()) {
    for (std::size_t p = 1; p <= host.nproc; ++p) thread_counts.push_back(p);
  }
  if (reps == 0) {
    std::fprintf(stderr, "--reps must be at least 1\n");
    return 2;
  }
  std::printf("host: %u cores, %s, simd=%s, thp=%s\n", host.nproc,
              host.cpu_model.c_str(), host.simd_level.c_str(),
              host.thp_mode.c_str());

  JsonWriter json;
  json.begin_object();
  json.string("bench", "learn_scaling");
  json.host(host);
  json.integer("host_cores", host.nproc);
  json.string(
      "note",
      "measured_wall_seconds: wall clock of learn(table), median [min, max] "
      "over the reps. critical_path_seconds: median over the reps of the sum "
      "over scheduler batches of the slowest worker's busy CPU time "
      "(CLOCK_THREAD_CPUTIME_ID), the makespan of the scheduled CI phases on "
      "a machine with one core per worker. misses_*: how the last rep's "
      "cache misses were counted. Every rep at every P is verified "
      "bit-identical to P=1.");
  json.begin_object("config");
  json.number("copy_prob", copy_prob);
  json.number("mi_threshold", mi_threshold);
  json.integer("max_level", max_level);
  json.integer("reps", reps);
  json.integer("seed", seed);
  json.end_object();
  json.begin_array("legs");

  bool identical = true;
  std::printf("generating %zu x %zu chain workload (copy %.2f)...\n", samples,
              variables, copy_prob);
  json.begin_object();
  identical &= run_leg(json, "chain",
                       generate_chain_correlated(samples, variables, 2,
                                                 copy_prob, seed),
                       mi_threshold, max_level, thread_counts, reps);
  json.end_object();
  if (alarm_samples > 0) {
    std::printf("sampling %zu ALARM rows...\n", alarm_samples);
    json.begin_object();
    identical &= run_leg(
        json, "alarm",
        forward_sample(load_network(RepositoryNetwork::kAlarm, 42),
                       alarm_samples, seed),
        mi_threshold, max_level, thread_counts, reps);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  std::printf("%s\n", json.str().c_str());
  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fputs(json.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", json_out.c_str());
      return 1;
    }
  }
  if (!identical) {
    std::fprintf(stderr, "a pool width diverged from the serial result\n");
    return 1;
  }
  return 0;
}
