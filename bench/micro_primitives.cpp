// Micro-benchmarks (google-benchmark) of the per-operation costs underlying
// the scaling model: encode/decode, table updates, queue ops, projection,
// and the concurrent-map baselines. These are the measured counterparts of
// the MachineModel entries in src/sim/cost_model.hpp.
#include <benchmark/benchmark.h>

#include <mutex>

#include "bn/d_separation.hpp"
#include "bn/repository.hpp"
#include "bn/sampling.hpp"
#include "concurrent/atomic_hash_map.hpp"
#include "concurrent/spsc_queue.hpp"
#include "concurrent/striped_hash_map.hpp"
#include "core/all_pairs_mi.hpp"
#include "core/info_theory.hpp"
#include "core/marginalizer.hpp"
#include "core/wait_free_builder.hpp"
#include "data/generators.hpp"
#include "table/key_codec.hpp"
#include "table/open_hash_table.hpp"

namespace {

using namespace wfbn;

constexpr std::size_t kRows = 50000;

const Dataset& shared_data(std::size_t n) {
  static const Dataset d30 = generate_uniform(kRows, 30, 2, 11);
  static const Dataset d50 = generate_uniform(kRows, 50, 2, 12);
  return n == 30 ? d30 : d50;
}

void BM_KeyEncode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Dataset& data = shared_data(n);
  const KeyCodec codec = data.codec();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(data.row(i)));
    i = (i + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyEncode)->Arg(30)->Arg(50);

void BM_KeyDecodeSingleVar(benchmark::State& state) {
  const KeyCodec codec = KeyCodec::uniform(30, 2);
  Key key = 0x155555555;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(key, 17));
    ++key;
  }
}
BENCHMARK(BM_KeyDecodeSingleVar);

void BM_KeyProjectPair(benchmark::State& state) {
  const KeyCodec codec = KeyCodec::uniform(30, 2);
  const std::size_t vars[] = {3, 17};
  const KeyProjector projector(codec, vars);
  Key key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(projector.project(key));
    key = key * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG walk
  }
}
BENCHMARK(BM_KeyProjectPair);

void BM_OpenHashTableIncrement(benchmark::State& state) {
  const Dataset& data = shared_data(30);
  const KeyCodec codec = data.codec();
  std::vector<Key> keys(kRows);
  for (std::size_t i = 0; i < kRows; ++i) keys[i] = codec.encode(data.row(i));
  OpenHashTable table(kRows);
  std::size_t i = 0;
  for (auto _ : state) {
    table.increment(keys[i]);
    i = (i + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenHashTableIncrement);

void BM_StripedMapIncrement(benchmark::State& state) {
  const Dataset& data = shared_data(30);
  const KeyCodec codec = data.codec();
  std::vector<Key> keys(kRows);
  for (std::size_t i = 0; i < kRows; ++i) keys[i] = codec.encode(data.row(i));
  StripedHashMap map(kRows, static_cast<std::size_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    map.increment(keys[i]);
    i = (i + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StripedMapIncrement)->Arg(1)->Arg(64)->Arg(1024);

void BM_AtomicMapIncrement(benchmark::State& state) {
  const Dataset& data = shared_data(30);
  const KeyCodec codec = data.codec();
  std::vector<Key> keys(kRows);
  for (std::size_t i = 0; i < kRows; ++i) keys[i] = codec.encode(data.row(i));
  AtomicHashMap map(kRows);
  std::size_t i = 0;
  for (auto _ : state) {
    map.increment(keys[i]);
    i = (i + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicMapIncrement);

void BM_SpscPush(benchmark::State& state) {
  SpscQueue<Key> queue;
  Key key = 0;
  Key out = 0;
  std::size_t pending = 0;
  for (auto _ : state) {
    queue.push(key++);
    // Periodically drain so memory stays bounded during long runs.
    if (++pending == 1 << 16) {
      state.PauseTiming();
      while (queue.try_pop(out)) benchmark::DoNotOptimize(out);
      pending = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPush);

void BM_SpscPushPopRoundTrip(benchmark::State& state) {
  SpscQueue<Key> queue;
  Key key = 0;
  Key out = 0;
  for (auto _ : state) {
    queue.push(key++);
    benchmark::DoNotOptimize(queue.try_pop(out));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscPushPopRoundTrip);

void BM_MutexLockUnlock(benchmark::State& state) {
  std::mutex mutex;
  for (auto _ : state) {
    mutex.lock();
    benchmark::DoNotOptimize(&mutex);
    mutex.unlock();
  }
}
BENCHMARK(BM_MutexLockUnlock);

void BM_PairMutualInformation(benchmark::State& state) {
  MarginalTable joint({0, 1}, {2, 2});
  joint.add(0, 400);
  joint.add(1, 100);
  joint.add(2, 100);
  joint.add(3, 400);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mutual_information(joint));
  }
}
BENCHMARK(BM_PairMutualInformation);

void BM_WaitFreeBuildThroughput(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Dataset& data = shared_data(30);
  WaitFreeBuilderOptions options;
  options.threads = threads;
  WaitFreeBuilder builder(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.build(data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows));
}
BENCHMARK(BM_WaitFreeBuildThroughput)->Arg(1)->Arg(2)->Arg(4);

void BM_MarginalizePair(benchmark::State& state) {
  const Dataset& data = shared_data(30);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  const Marginalizer marginalizer(static_cast<std::size_t>(state.range(0)));
  const std::size_t vars[] = {3, 17};
  for (auto _ : state) {
    benchmark::DoNotOptimize(marginalizer.marginalize(table, vars));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(table.distinct_keys()));
}
BENCHMARK(BM_MarginalizePair)->Arg(1)->Arg(4);

void BM_AllPairsMiFused(benchmark::State& state) {
  const Dataset data = generate_uniform(20000, 16, 2, 13);
  WaitFreeBuilderOptions options;
  options.threads = 4;
  WaitFreeBuilder builder(options);
  const PotentialTable table = builder.build(data);
  AllPairsMi all_pairs(
      AllPairsOptions{static_cast<std::size_t>(state.range(0)),
                      AllPairsStrategy::kFused});
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_pairs.compute(table));
  }
}
BENCHMARK(BM_AllPairsMiFused)->Arg(1)->Arg(4);

void BM_DSeparationQueryAlarm(benchmark::State& state) {
  const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm);
  const NodeId lvf = alarm.node_by_name("LVFAILURE");
  const NodeId bp = alarm.node_by_name("BP");
  const std::vector<NodeId> z{alarm.node_by_name("CO")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(d_separated(alarm.dag(), lvf, bp, z));
  }
}
BENCHMARK(BM_DSeparationQueryAlarm);

void BM_ForwardSampleAlarm(benchmark::State& state) {
  const BayesianNetwork alarm = load_network(RepositoryNetwork::kAlarm);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forward_sample(alarm, 1000, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ForwardSampleAlarm);

void BM_WideEncode(benchmark::State& state) {
  const WideKeyCodec codec = WideKeyCodec::uniform(100, 2);
  const Dataset data = generate_uniform(kRows, 100, 2, 14);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(data.row(i)));
    i = (i + 1) % kRows;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WideEncode);

}  // namespace

BENCHMARK_MAIN();
