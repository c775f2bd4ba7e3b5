// Umbrella header: the full public API of the wfbn library.
//
// Fine-grained headers remain the preferred includes for library consumers
// who care about compile times; this header exists for quick experiments and
// notebooks-style usage:
//
//   #include "wfbn.hpp"
//   using namespace wfbn;
#pragma once

// util — RNG, timing, CLI, tables, error policy, fault injection
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/timer.hpp"

// concurrency substrate
#include "concurrent/affinity.hpp"
#include "concurrent/atomic_hash_map.hpp"
#include "concurrent/barrier.hpp"
#include "concurrent/spsc_queue.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "concurrent/thread_pool.hpp"

// potential-table representation
#include "table/key_codec.hpp"
#include "table/key_traits.hpp"
#include "table/marginal_table.hpp"
#include "table/open_hash_table.hpp"
#include "table/partitioned_table.hpp"
#include "table/potential_table.hpp"

// the paper's primitives + statistics + queries
#include "core/all_pairs_mi.hpp"
#include "core/counting_index.hpp"
#include "core/entry_planes.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/query.hpp"
#include "core/wait_free_builder.hpp"

// serving: versioned snapshots + concurrent query serving
#include "serve/result_cache.hpp"
#include "serve/serve_engine.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_cell.hpp"
#include "serve/table_store.hpp"

// serving durability: crash-safe snapshot persistence + recovery
#include "serve/persist/durable_store.hpp"
#include "serve/persist/format.hpp"
#include "serve/persist/fs_util.hpp"
#include "serve/persist/snapshot_reader.hpp"
#include "serve/persist/snapshot_writer.hpp"

// network serving front end: framing, admission control, server + client
#include "net/admission.hpp"
#include "net/frame.hpp"
#include "net/serve_client.hpp"
#include "net/serve_server.hpp"
#include "net/socket_util.hpp"
#include "net/wire.hpp"

// baselines
#include "baselines/builders.hpp"

// data handling
#include "data/dataset.hpp"
#include "data/discretize.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"

// Bayesian networks
#include "bn/cpt.hpp"
#include "bn/d_separation.hpp"
#include "bn/dag.hpp"
#include "bn/inference.hpp"
#include "bn/io.hpp"
#include "bn/metrics.hpp"
#include "bn/network.hpp"
#include "bn/random_dag.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"

// structure learning
#include "learn/bootstrap.hpp"
#include "learn/cheng.hpp"
#include "learn/chow_liu.hpp"
#include "learn/ci_scheduler.hpp"
#include "learn/independence.hpp"
#include "learn/orientation.hpp"
#include "learn/pc_stable.hpp"
#include "learn/score.hpp"
#include "learn/sparse_candidate.hpp"

// multicore scaling simulation
#include "sim/cost_model.hpp"
#include "sim/scaling_sim.hpp"
