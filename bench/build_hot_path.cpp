// Hot-path bench of the two-stage construction kernel: wall clock and
// critical path of WaitFreeBuilder::build over the settings that exist —
// the encode dispatch level (--simd: scalar forces the scalar reference
// kernels with simd::ScopedForceLevel, auto runs whatever the host
// resolves), the workload cardinality (--cardinality, a sweep list: r
// shifts the distinct-key population and with it the table size) and the
// variant (--pipelined 0,1) — at P = --threads workers.
//
// Every build, warm-up included, is checked against brute-force counts of
// the same workload (codec.encode per raw row into a hash map, no builder
// code involved); the bench exits non-zero on any divergence, so a faster
// build of a different table can never be reported.
//
// Reported per configuration over --reps repetitions: the median, min and
// max of the wall clock and of the critical path max_p(stage1_p) +
// max_p(stage2_p), rows/s at the median critical path, the effective SIMD
// level, and the ratio of the scalar leg's median critical path to this
// one's. Repetitions run round-robin over the configurations, so drift of a
// shared host spreads over all of them alike. The JSON is stamped with the
// host block (nproc, CPU model, SIMD level, THP mode); path via --json-out,
// empty string disables the file.
//
//   ./build_hot_path --samples 2000000 --variables 30 --threads 4
//       --cardinality 2,4 --simd scalar,auto --pipelined 0,1 --reps 5
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "../pipeline_e2e/bench_schema.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace wfbn;
using bench::HostInfo;
using bench::JsonWriter;
using bench::Samples;

using Counts = std::unordered_map<Key, std::uint64_t>;

Counts brute_force_counts(const Dataset& data) {
  const KeyCodec codec = data.codec();
  Counts counts;
  counts.reserve(data.sample_count());
  for (std::size_t i = 0; i < data.sample_count(); ++i) {
    ++counts[codec.encode(data.row(i))];
  }
  return counts;
}

bool matches(const PotentialTable& table, const Counts& reference) {
  if (table.distinct_keys() != reference.size()) return false;
  bool all_match = true;
  table.partitions().for_each([&](Key key, std::uint64_t c) {
    const auto it = reference.find(key);
    if (it == reference.end() || it->second != c) all_match = false;
  });
  return all_match;
}

struct Config {
  bool scalar = false;  ///< force the scalar reference kernels
  bool pipelined = false;
  simd::Level level = simd::Level::kScalar;  ///< effective, from BuildStats
  Samples wall;
  Samples critical;
  bool correct = true;
};

/// One checked build; appends its timings to `config` unless `warm_up`.
void run_once(const Dataset& data, std::size_t threads, const Counts& reference,
              Config& config, bool warm_up) {
  std::optional<simd::ScopedForceLevel> force;
  if (config.scalar) force.emplace(simd::Level::kScalar);
  WaitFreeBuilderOptions options;
  options.threads = threads;
  options.pipelined = config.pipelined;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  config.correct = config.correct && matches(table, reference);
  config.level = builder.stats().simd_level;
  if (warm_up) return;
  config.wall.add(builder.stats().total_seconds);
  config.critical.add(builder.stats().critical_path_seconds());
}

void spread(JsonWriter& json, const std::string& name, const Samples& s) {
  json.begin_object("measured_" + name);
  json.number("median", s.median());
  json.number("min", s.quantile(0.0));
  json.number("max", s.quantile(1.0));
  json.integer("n", s.n());
  json.end_object();
}

std::string range_ms(const Samples& s) {
  return TablePrinter::fmt(s.median() * 1e3, 1) + " [" +
         TablePrinter::fmt(s.quantile(0.0) * 1e3, 1) + "-" +
         TablePrinter::fmt(s.quantile(1.0) * 1e3, 1) + "]";
}

std::vector<bool> parse_simd_list(const std::string& text) {
  std::vector<bool> scalar;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t comma = std::min(text.find(',', at), text.size());
    const std::string token = text.substr(at, comma - at);
    if (token != "scalar" && token != "auto") {
      std::printf("unknown --simd value '%s' (want scalar|auto)\n",
                  token.c_str());
      std::exit(1);
    }
    scalar.push_back(token == "scalar");
    at = comma + 1;
  }
  return scalar;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "build_hot_path — encode level x cardinality x variant sweep of the "
      "two-stage construction kernel");
  cli.add_option("samples", "2000000", "Training rows m");
  cli.add_option("variables", "30", "Variables n");
  cli.add_option("cardinality", "2,4",
                 "States per variable r — a sweep list (e.g. 2,4)");
  cli.add_option("threads", "4", "Workers (= partitions) P");
  cli.add_option("simd", "scalar,auto",
                 "Encode levels to sweep: scalar (forced) and/or auto");
  cli.add_option("pipelined", "0,1",
                 "Variants to sweep: 0 = phased, 1 = pipelined");
  cli.add_option("reps", "5", "Timed repetitions per configuration");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_option("json-out", "BENCH_build_hot_path.json",
                 "JSON datapoint path (empty disables the file)");
  if (!cli.parse(argc, argv)) return 0;

  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto variables = static_cast<std::size_t>(cli.get_int("variables"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string json_out = cli.get("json-out");
  const std::vector<bool> simd_legs = parse_simd_list(cli.get("simd"));
  const std::vector<std::int64_t> variants = cli.get_int_list("pipelined");

  const HostInfo host = HostInfo::probe();
  std::printf("host: %u cores, %s, simd=%s, thp=%s\n", host.nproc,
              host.cpu_model.c_str(), host.simd_level.c_str(),
              host.thp_mode.c_str());

  JsonWriter json;
  json.begin_object();
  json.string("bench", "build_hot_path");
  json.host(host);
  json.integer("host_cores", host.nproc);
  json.begin_object("config");
  json.integer("samples", samples);
  json.integer("variables", variables);
  json.integer("threads", threads);
  json.integer("reps", reps);
  json.integer("seed", seed);
  json.end_object();
  json.begin_array("sweeps");

  bool all_correct = true;
  for (const std::int64_t r : cli.get_int_list("cardinality")) {
    std::printf("generating %zu x %zu (r=%lld) workload...\n", samples,
                variables, static_cast<long long>(r));
    const Dataset data = generate_uniform(
        samples, variables, static_cast<std::uint32_t>(r), seed);
    const Counts reference = brute_force_counts(data);

    std::vector<Config> configs;
    for (const std::int64_t pipelined : variants) {
      for (const bool scalar : simd_legs) {
        Config config;
        config.scalar = scalar;
        config.pipelined = pipelined != 0;
        configs.push_back(std::move(config));
      }
    }
    for (Config& config : configs) run_once(data, threads, reference, config, true);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (Config& config : configs) {
        run_once(data, threads, reference, config, false);
      }
    }

    TablePrinter table({"simd", "level", "variant", "wall ms [min-max]",
                        "critical ms [min-max]", "rows/s", "vs scalar",
                        "brute-force"});
    json.begin_object();
    json.integer("cardinality", static_cast<std::uint64_t>(r));
    json.integer("distinct_keys", reference.size());
    json.begin_array("results");
    for (const Config& config : configs) {
      const double critical = config.critical.median();
      const double rows_per_sec =
          critical > 0.0 ? static_cast<double>(samples) / critical : 0.0;
      std::optional<double> vs_scalar;
      for (const Config& other : configs) {
        if (other.scalar && other.pipelined == config.pipelined &&
            critical > 0.0) {
          vs_scalar = other.critical.median() / critical;
        }
      }
      table.add_row({config.scalar ? "scalar" : "auto",
                     simd::level_name(config.level),
                     config.pipelined ? "pipelined" : "phased",
                     range_ms(config.wall), range_ms(config.critical),
                     TablePrinter::fmt(rows_per_sec, 0),
                     vs_scalar ? TablePrinter::fmt(*vs_scalar, 2) : "-",
                     config.correct ? "match" : "DIVERGED"});
      json.begin_object();
      json.string("simd", config.scalar ? "scalar" : "auto");
      json.string("simd_level", simd::level_name(config.level));
      json.boolean("pipelined", config.pipelined);
      spread(json, "wall_seconds", config.wall);
      spread(json, "critical_path_seconds", config.critical);
      json.measured("rows_per_sec", rows_per_sec);
      if (vs_scalar) json.measured("speedup_vs_scalar", *vs_scalar);
      json.boolean("matches_brute_force", config.correct);
      json.end_object();
      all_correct = all_correct && config.correct;
    }
    json.end_array();
    json.end_object();
    table.print("build_hot_path — r=" + std::to_string(r) + " (P=" +
                std::to_string(threads) + ", " + std::to_string(reps) +
                " reps)");
  }
  json.end_array();
  json.end_object();

  std::printf("\n-- JSON --\n%s\n", json.str().c_str());
  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.str().c_str());
      std::fclose(f);
      std::printf("wrote %s\n", json_out.c_str());
    } else {
      std::printf("could not write %s\n", json_out.c_str());
    }
  }

  if (!all_correct) {
    std::printf("ERROR: a build diverged from the brute-force counts\n");
    return 1;
  }
  return 0;
}
