// Snapshot save/load throughput for the durability layer.
//
// For each (width, checksums on/off) configuration: serialize + atomically
// write a published snapshot --repeat times (save MB/s), then parse + fully
// validate it back --repeat times (load MB/s), each rep timed on its own.
// The segment byte size is the numerator on both sides, so the two rates are
// directly comparable and the checksum on/off delta isolates the FNV-1a cost
// from the IO cost. Each rate is reported as the median, min and max over
// the reps.
//
// The sweep runs at both key widths from the same binary — narrow entries
// are 16 bytes on disk, wide entries 24 — so the trajectory tracks the
// wide-key serialization overhead alongside the narrow baseline.
//
// Every load is checked against the snapshot it was saved from (sample
// count), and the bench exits non-zero on a mismatch. Machine-readable
// output: a BENCH_persist.json datapoint stamped with the host block
// (nproc, CPU model, SIMD level, THP mode; path configurable with
// --json-out, empty string disables), plus the same JSON on stdout. The
// segments are written under --dir; its default, wfbn_persist_bench in the
// temp directory, is removed at exit when the run created it.
//
//   ./persist_throughput --samples 200000 --repeat 9
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "../pipeline_e2e/bench_schema.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/snapshot_reader.hpp"
#include "serve/persist/snapshot_writer.hpp"
#include "serve/snapshot.hpp"
#include "util/cli.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

namespace {

using namespace wfbn;
namespace persist = serve::persist;

struct ConfigResult {
  const char* width = "narrow";
  bool checksums = true;
  std::size_t variables = 0;
  std::uint64_t distinct_keys = 0;
  std::size_t segment_bytes = 0;
  bench::Samples save_mb_per_sec;  ///< serialize + atomic write + fsync
  bench::Samples load_mb_per_sec;  ///< read + parse + full validation
};

struct SweepConfig {
  std::size_t samples = 0;
  std::size_t variables = 0;
  std::size_t threads = 0;
  int repeat = 1;
  bool fsync = true;
  std::uint64_t seed = 0;
  std::filesystem::path dir;
};

/// Runs every checksum setting at width K; false when a load diverged from
/// the snapshot it was saved from.
template <typename K>
bool run_sweep(const SweepConfig& config, std::vector<ConfigResult>& results) {
  WaitFreeBuilderOptions build_options;
  build_options.threads = config.threads;
  const Dataset data = generate_chain_correlated(
      config.samples, config.variables, 2, 0.8, config.seed);
  const serve::BasicSnapshot<K> snap(
      BasicWaitFreeBuilder<K>(build_options).build(data), 1);

  for (const bool checksums : {true, false}) {
    const std::filesystem::path dir =
        config.dir / (std::string(KeyTraits<K>::kWidthName) +
                      (checksums ? "_crc" : "_nocrc"));
    std::filesystem::create_directories(dir);
    persist::WriterOptions options;
    options.section_checksums = checksums;
    options.fsync = config.fsync;
    persist::BasicSnapshotWriter<K> writer(dir, options);

    ConfigResult cr;
    cr.width = KeyTraits<K>::kWidthName;
    cr.checksums = checksums;
    cr.variables = config.variables;
    cr.distinct_keys = snap.table().distinct_keys();

    writer.write(snap);  // warm-up write; also sizes the segment
    cr.segment_bytes = static_cast<std::size_t>(
        std::filesystem::file_size(dir / persist::segment_name(1)));
    const double megabytes = static_cast<double>(cr.segment_bytes) / 1e6;

    for (int i = 0; i < config.repeat; ++i) {
      Timer timer;
      writer.write(snap);
      cr.save_mb_per_sec.add(megabytes / timer.seconds());
    }
    for (int i = 0; i < config.repeat; ++i) {
      Timer timer;
      const auto loaded =
          persist::read_segment<K>(dir / persist::segment_name(1));
      cr.load_mb_per_sec.add(megabytes / timer.seconds());
      if (loaded.table.sample_count() != snap.table().sample_count()) {
        std::fprintf(stderr, "load verification failed\n");
        return false;
      }
    }
    results.push_back(cr);
    std::filesystem::remove_all(dir);
  }
  return true;
}

void spread(bench::JsonWriter& json, const std::string& name,
            const bench::Samples& s) {
  json.begin_object("measured_" + name);
  json.number("median", s.median());
  json.number("min", s.quantile(0.0));
  json.number("max", s.quantile(1.0));
  json.integer("n", s.n());
  json.end_object();
}

std::string range(const bench::Samples& s) {
  return TablePrinter::fmt(s.median(), 1) + " [" +
         TablePrinter::fmt(s.quantile(0.0), 1) + "-" +
         TablePrinter::fmt(s.quantile(1.0), 1) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("persist_throughput — snapshot save/load throughput");
  cli.add_option("samples", "200000", "Rows folded into the persisted table");
  cli.add_option("variables", "12", "Binary variables (narrow store)");
  cli.add_option("wide-variables", "100",
                 "Binary variables for the wide-key sweep (0 disables it)");
  cli.add_option("threads", "4", "Builder threads (= table partitions)");
  cli.add_option("repeat", "5", "Timed save/load reps per config");
  cli.add_option("fsync", "1", "fsync on every atomic write (0 disables)");
  cli.add_option("seed", "42", "Workload seed");
  cli.add_option("dir", "", "Scratch directory (default: a temp dir)");
  cli.add_option("json-out", "BENCH_persist.json",
                 "JSON datapoint path (empty disables the file)");
  if (!cli.parse(argc, argv)) return 0;

  SweepConfig config;
  config.samples = static_cast<std::size_t>(cli.get_int("samples"));
  config.variables = static_cast<std::size_t>(cli.get_int("variables"));
  config.threads = static_cast<std::size_t>(cli.get_int("threads"));
  config.repeat = static_cast<int>(cli.get_int("repeat"));
  config.fsync = cli.get_int("fsync") != 0;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto wide_n = static_cast<std::size_t>(cli.get_int("wide-variables"));
  const std::string json_out = cli.get("json-out");

  // The default directory is removed at exit when this run created it; a
  // --dir the caller names is left as it was found.
  const std::string dir_arg = cli.get("dir");
  config.dir = dir_arg.empty()
                   ? std::filesystem::temp_directory_path() / "wfbn_persist_bench"
                   : std::filesystem::path(dir_arg);
  const bool created = std::filesystem::create_directories(config.dir);

  std::vector<ConfigResult> results;
  bool verified = run_sweep<Key>(config, results);
  if (verified && wide_n > 0) {
    SweepConfig wide_config = config;
    wide_config.variables = wide_n;
    verified = run_sweep<WideKey>(wide_config, results);
  }
  if (dir_arg.empty() && created) std::filesystem::remove_all(config.dir);
  if (!verified) return 1;

  TablePrinter table({"width", "checksums", "vars", "keys", "segment MB",
                      "save MB/s [min-max]", "load MB/s [min-max]"});
  for (const ConfigResult& cr : results) {
    table.add_row({cr.width, cr.checksums ? "on" : "off",
                   std::to_string(cr.variables),
                   std::to_string(cr.distinct_keys),
                   TablePrinter::fmt(
                       static_cast<double>(cr.segment_bytes) / 1e6, 2),
                   range(cr.save_mb_per_sec), range(cr.load_mb_per_sec)});
  }
  table.print("persist_throughput — snapshot save/load (" +
              std::to_string(config.repeat) + " reps)");

  const bench::HostInfo host = bench::HostInfo::probe();
  bench::JsonWriter json;
  json.begin_object();
  json.string("bench", "persist_throughput");
  json.host(host);
  json.integer("host_cores", host.nproc);
  json.begin_object("config");
  json.integer("samples", config.samples);
  json.integer("variables", config.variables);
  json.integer("wide_variables", wide_n);
  json.integer("partitions", config.threads);
  json.integer("repeat", static_cast<std::uint64_t>(config.repeat));
  json.boolean("fsync", config.fsync);
  json.integer("seed", config.seed);
  json.end_object();
  json.begin_array("results");
  for (const ConfigResult& cr : results) {
    json.begin_object();
    json.string("width", cr.width);
    json.boolean("checksums", cr.checksums);
    json.integer("variables", cr.variables);
    json.integer("distinct_keys", cr.distinct_keys);
    json.integer("segment_bytes", cr.segment_bytes);
    spread(json, "save_mb_per_sec", cr.save_mb_per_sec);
    spread(json, "load_mb_per_sec", cr.load_mb_per_sec);
    json.end_object();
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
  return 0;
}
