// Micro-benchmarks for the flat-container layer (src/common/flat/) against
// the std::unordered_* baselines it replaced on the monitoring hot path.
//
// The axes mirror the real access patterns:
//   - Hit probes on a warm table (the automaton backend's (state, signature)
//     transition memo after warm-up — the steady-state step).
//   - Miss probes (letter interning of a never-seen ground atom).
//   - Insert-then-clear-then-reinsert cycles (per-call scratch sets such as
//     Cover's dedup set, which Clear() keeps warm instead of freeing).
//   - String-keyed hit probes (signature interning before the Fp128 move).
//
// Sizes sweep 16..4096: the transition memos and letter tables observed in
// the paper's experiments live in the 16..1024 range.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "common/flat/flat_map.h"
#include "common/flat/flat_set.h"

namespace tic {
namespace {

// xorshift64: deterministic probe order, cheap enough to not dominate.
inline uint64_t Next(uint64_t* s) {
  uint64_t x = *s;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *s = x;
}

std::vector<uint64_t> Keys(size_t n) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  uint64_t s = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < n; ++i) keys.push_back(Next(&s));
  return keys;
}

template <typename MapT>
void WarmHitsLoop(benchmark::State& state, MapT& map,
                  const std::vector<uint64_t>& keys) {
  uint64_t sum = 0;
  size_t i = 0;
  for (auto _ : state) {
    sum += map[keys[i]];
    if (++i == keys.size()) i = 0;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

void BM_FlatMap_WarmHits(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  flat::FlatMap<uint64_t, uint64_t> map;
  for (uint64_t k : keys) map.Emplace(k, k * 3);
  WarmHitsLoop(state, map, keys);
}

void BM_StdUnorderedMap_WarmHits(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t k : keys) map.emplace(k, k * 3);
  WarmHitsLoop(state, map, keys);
}

void BM_FlatMap_Misses(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  flat::FlatMap<uint64_t, uint64_t> map;
  for (uint64_t k : keys) map.Emplace(k, k);
  uint64_t s = 42;
  uint64_t found = 0;
  for (auto _ : state) {
    found += map.Get(Next(&s)) != nullptr;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}

void BM_StdUnorderedMap_Misses(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t k : keys) map.emplace(k, k);
  uint64_t s = 42;
  uint64_t found = 0;
  for (auto _ : state) {
    found += map.count(Next(&s));
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}

// Per-call scratch pattern: fill a set, read it back, Clear(). flat's Clear
// keeps the bucket array, so iterations after the first allocate nothing.
void BM_FlatSet_ScratchCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  flat::FlatSet<uint64_t> set;
  for (auto _ : state) {
    for (uint64_t k : keys) set.Insert(k);
    uint64_t hits = 0;
    for (uint64_t k : keys) hits += set.Contains(k);
    benchmark::DoNotOptimize(hits);
    set.Clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_StdUnorderedSet_ScratchCycle(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = Keys(n);
  std::unordered_set<uint64_t> set;
  for (auto _ : state) {
    for (uint64_t k : keys) set.insert(k);
    uint64_t hits = 0;
    for (uint64_t k : keys) hits += set.count(k);
    benchmark::DoNotOptimize(hits);
    set.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

// Signature interning: string keys, warm hits. (The monitor interns letter
// signatures per step before the 64-bit memo key is formed.)
std::vector<std::string> SigKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  uint64_t s = 7;
  for (size_t i = 0; i < n; ++i) {
    std::string sig;
    for (int j = 0; j < 12; ++j) sig.push_back('a' + Next(&s) % 26);
    keys.push_back(sig);
  }
  return keys;
}

void BM_FlatMap_StringWarmHits(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = SigKeys(n);
  flat::FlatMap<std::string, uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.Emplace(keys[i], static_cast<uint32_t>(i));
  }
  uint64_t sum = 0;
  size_t i = 0;
  for (auto _ : state) {
    sum += *map.Get(keys[i]);
    if (++i == keys.size()) i = 0;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

void BM_StdUnorderedMap_StringWarmHits(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto keys = SigKeys(n);
  std::unordered_map<std::string, uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<uint32_t>(i));
  }
  uint64_t sum = 0;
  size_t i = 0;
  for (auto _ : state) {
    sum += map.find(keys[i])->second;
    if (++i == keys.size()) i = 0;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

// Canary of RunBenchmarks' zero-record gate: it always errors, so a run
// selecting only it must exit non-zero (bench_smoke_all_errored_fails).
void BM_Gate_AlwaysErrors(benchmark::State& state) {
  state.SkipWithError("deliberate error: zero-record gate canary");
  for (auto _ : state) {
  }
}

BENCHMARK(BM_FlatMap_WarmHits)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_StdUnorderedMap_WarmHits)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_FlatMap_Misses)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_StdUnorderedMap_Misses)->RangeMultiplier(4)->Range(16, 4096);
BENCHMARK(BM_FlatSet_ScratchCycle)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_StdUnorderedSet_ScratchCycle)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_FlatMap_StringWarmHits)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_StdUnorderedMap_StringWarmHits)->RangeMultiplier(4)->Range(16, 1024);
BENCHMARK(BM_Gate_AlwaysErrors);

}  // namespace
}  // namespace tic

TIC_BENCH_MAIN()
