// Experiment E5: trigger evaluation via the Section 2 duality. The trigger
// fires for theta iff !C theta is not potentially satisfied; TriggerManager
// keeps that verdict with one incremental Monitor per substitution
// (|R_D|^params of them), compacted after every update.
//
//  - OneParam / TwoParams: the first transaction naming n orders — n (or
//    n^2) substitution monitors created and caught up at once. Substitutions
//    over symmetric elements share one canonical tableau verdict and one
//    compiled automaton, so the cache hit counters reported here should be
//    nonzero.
//  - Stream/t: the per-update cost of the `dup` trigger after t updates of
//    an 8-order stream whose substitutions all stay live. Flat in t: no
//    substitution monitor keeps a history.
//  - FiringStream: a trigger that fires for every order.
//
// Custom main: --backend=automaton,progression (default both) selects the
// monitors' backend. Substitution monitors step one after another, so there
// is no thread axis.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "checker/trigger.h"
#include "ptl/verdict_cache.h"

namespace tic {
namespace {

bench::OrdersFixture& Fixture() {
  static bench::OrdersFixture* f = new bench::OrdersFixture();
  return *f;
}

checker::CheckOptions WithBackend(checker::MonitorBackend backend,
                                  bool router = true) {
  checker::CheckOptions opts;
  opts.backend = backend;
  opts.router = router;
  return opts;
}

void ReportCacheCounters(benchmark::State& state,
                         const checker::TriggerManager& mgr) {
  if (mgr.options().tableau.verdict_cache != nullptr) {
    ptl::VerdictCacheStats s = mgr.options().tableau.verdict_cache->stats();
    state.counters["cache_hits"] = static_cast<double>(s.hits);
    state.counters["cache_misses"] = static_cast<double>(s.misses);
  }
  if (mgr.options().automaton_cache != nullptr) {
    // Compiled-automaton sharing across substitutions (renaming-invariant
    // key): one compile per trigger pattern shape, hits for the rest.
    ptl::AutomatonCacheStats a = mgr.options().automaton_cache->stats();
    state.counters["auto_hits"] = static_cast<double>(a.hits);
    state.counters["auto_misses"] = static_cast<double>(a.misses);
  }
}

// One-parameter trigger over a growing relevant set.
void BM_Trigger_OneParam(benchmark::State& state,
                         checker::MonitorBackend backend, bool router) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<checker::TriggerManager> mgr;
  for (auto _ : state) {
    state.PauseTiming();
    mgr = *checker::TriggerManager::Create(
        fx.factory, {}, WithBackend(backend, router));
    // "Order x was submitted and is certain to be resubmitted."
    auto st = mgr->AddTrigger(
        "dup", *fotl::Parse(fx.factory.get(), "F (Sub(x) & X F Sub(x))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    Transaction txn;
    for (size_t i = 1; i <= n; ++i) {
      txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(i)}));
    }
    state.ResumeTiming();
    auto firings = mgr->OnTransaction(txn);
    if (!firings.ok()) state.SkipWithError(firings.status().ToString().c_str());
    benchmark::DoNotOptimize(firings->size());
  }
  state.counters["relevant"] = static_cast<double>(n);
  state.counters["substitutions"] = static_cast<double>(n);
  if (mgr != nullptr) ReportCacheCounters(state, *mgr);
}

// Two-parameter trigger: |R_D|^2 substitutions.
void BM_Trigger_TwoParams(benchmark::State& state,
                          checker::MonitorBackend backend, bool router) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  std::unique_ptr<checker::TriggerManager> mgr;
  for (auto _ : state) {
    state.PauseTiming();
    mgr = *checker::TriggerManager::Create(
        fx.factory, {}, WithBackend(backend, router));
    auto st = mgr->AddTrigger(
        "pair", *fotl::Parse(fx.factory.get(),
                             "x != y & Sub(x) & Sub(y) & F (Fill(x) & Fill(y))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    Transaction txn;
    for (size_t i = 1; i <= n; ++i) {
      txn.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(i)}));
    }
    state.ResumeTiming();
    auto firings = mgr->OnTransaction(txn);
    if (!firings.ok()) state.SkipWithError(firings.status().ToString().c_str());
    benchmark::DoNotOptimize(firings->size());
  }
  state.counters["substitutions"] = static_cast<double>(n * n);
  if (mgr != nullptr) ReportCacheCounters(state, *mgr);
}

// Per-update cost of `dup` after t updates. Orders 1..8 are submitted once
// each (one per update, the previous one withdrawn); from then on fills
// toggle round-robin. No order is ever resubmitted, so all 8 substitution
// monitors stay live and step on every update.
void BM_Trigger_Stream(benchmark::State& state, checker::MonitorBackend backend,
                       bool router) {
  auto& fx = Fixture();
  const size_t warm = static_cast<size_t>(state.range(0));
  constexpr Value kOrders = 8;
  auto update = [&](size_t t) {
    Transaction txn;
    Value v = static_cast<Value>(t % kOrders) + 1;
    if (t <= static_cast<size_t>(kOrders)) {
      // Submit order t+1 and withdraw order t.
      if (t < static_cast<size_t>(kOrders)) {
        txn.push_back(UpdateOp::Insert(fx.sub, {v}));
      }
      if (t > 0) txn.push_back(UpdateOp::Delete(fx.sub, {static_cast<Value>(t)}));
    } else if ((t / kOrders) % 2 == 1) {
      txn.push_back(UpdateOp::Insert(fx.fill, {v}));
    } else {
      txn.push_back(UpdateOp::Delete(fx.fill, {v}));
    }
    return txn;
  };
  auto mgr = *checker::TriggerManager::Create(fx.factory, {},
                                              WithBackend(backend, router));
  auto st = mgr->AddTrigger(
      "dup", *fotl::Parse(fx.factory.get(), "F (Sub(x) & X F Sub(x))"));
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  size_t t = 0;
  for (; t < warm && st.ok(); ++t) {
    auto f = mgr->OnTransaction(update(t));
    if (!f.ok()) {
      state.SkipWithError(f.status().ToString().c_str());
      break;
    }
  }
  size_t firings = 0;
  for (auto _ : state) {
    auto f = mgr->OnTransaction(update(t++));
    if (!f.ok()) {
      state.SkipWithError(f.status().ToString().c_str());
      break;
    }
    firings += f->size();
  }
  state.counters["t"] = static_cast<double>(warm);
  state.counters["substitutions"] = static_cast<double>(kOrders);
  state.counters["firings"] = static_cast<double>(firings);
}

// A firing trigger (condition unavoidable) vs a quiet one on the same stream.
void BM_Trigger_FiringStream(benchmark::State& state) {
  auto& fx = Fixture();
  for (auto _ : state) {
    state.PauseTiming();
    auto mgr = *checker::TriggerManager::Create(fx.factory);
    auto st = mgr->AddTrigger(
        "dup", *fotl::Parse(fx.factory.get(), "F (Sub(x) & X F Sub(x))"));
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    state.ResumeTiming();
    size_t total_firings = 0;
    // submit 1..4, retract, resubmit: every order eventually fires.
    for (Value v = 1; v <= 4; ++v) {
      auto f1 = mgr->OnTransaction({UpdateOp::Insert(fx.sub, {v})});
      auto f2 = mgr->OnTransaction({UpdateOp::Delete(fx.sub, {v})});
      auto f3 = mgr->OnTransaction({UpdateOp::Insert(fx.sub, {v})});
      if (!f1.ok() || !f2.ok() || !f3.ok()) state.SkipWithError("txn failed");
      total_firings += f1->size() + f2->size() + f3->size();
    }
    benchmark::DoNotOptimize(total_firings);
  }
}

void RegisterAll(const std::vector<checker::MonitorBackend>& backends,
                 const std::vector<bool>& router_modes) {
  for (checker::MonitorBackend backend : backends) {
    for (bool router : router_modes) {
      std::string suffix = std::string("/backend:") +
                           bench::BackendName(backend) +
                           "/router:" + (router ? "on" : "off");
      benchmark::RegisterBenchmark(
          ("BM_Trigger_OneParam" + suffix).c_str(),
          [backend, router](benchmark::State& s) {
            BM_Trigger_OneParam(s, backend, router);
          })
          ->Arg(2)
          ->Arg(4)
          ->Arg(8)
          ->Arg(16)
          ->Arg(32);
      benchmark::RegisterBenchmark(
          ("BM_Trigger_TwoParams" + suffix).c_str(),
          [backend, router](benchmark::State& s) {
            BM_Trigger_TwoParams(s, backend, router);
          })
          ->Arg(2)
          ->Arg(4)
          ->Arg(8);
      // A fixed update count keeps each row's t range narrow: t..t+64.
      benchmark::RegisterBenchmark(
          ("BM_Trigger_Stream" + suffix).c_str(),
          [backend, router](benchmark::State& s) {
            BM_Trigger_Stream(s, backend, router);
          })
          ->Arg(16)
          ->Arg(256)
          ->Arg(1024)
          ->Iterations(64);
    }
  }
  benchmark::RegisterBenchmark("BM_Trigger_FiringStream", BM_Trigger_FiringStream);
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) {
  std::vector<tic::checker::MonitorBackend> backends = tic::bench::ParseBackends(
      &argc, argv,
      {tic::checker::MonitorBackend::kAutomaton,
       tic::checker::MonitorBackend::kProgression});
  // Trigger conditions are existential and never route; the axis exists to
  // pin "router on changes nothing here" (see bench_router for the fragment
  // speedups). Default a single mode to keep the grid flat.
  std::vector<bool> router_modes = tic::bench::ParseRouter(&argc, argv, {true});
  tic::RegisterAll(backends, router_modes);
  return tic::bench::RunBenchmarks(&argc, argv);
}
