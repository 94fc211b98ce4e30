// Experiment A5: the tractable-fragment router. Per-update steady-state cost
// of constraints the static classifier can prove tractable, routed (point
// algebra / past evaluator) vs forced through the automaton machinery.
//
// The interesting population is the one cohorts CANNOT take: a letter shared
// through the rigid constant `sys` (Audit(sys)) welds every grounded instance
// into one letter-connected component, so with the router off the automaton
// steps the whole component through the joint path — per-update work linear
// in the population even on the memo-hit steady state. The router proves
// every member is a watched-literal fragment unit and steps only
// flip-touched units instead.
//
// Families:
//   SharedTrigger  — forall x . G ((Audit(sys) & Fill(x)) -> G Fill(x)): the
//     sticky-trigger fragment shape. The Fill(x) guard keeps the monitor's
//     fresh-element instance vacuous (a bare Audit(sys) antecedent would be
//     violated by every yet-unseen element the moment the audit fires).
//     Steady state has zero flips: the point backend does no work at all,
//     the joint path recomputes signatures for the population.
//   SharedTriggerChurn — same constraint, but Audit(sys) flips every measured
//     update: the point backend walks all N dirty units (its worst case),
//     the joint path recomputes + re-steps the component.
//   PrecededBy — "no audited gap before the order's submission", in three
//     equivalent configurations: the future release spelling
//     Sub(x) R (!Audit(sys) | !Fill(x) | Sub(x)) on the automaton (router
//     off) and on the point backend (router on), and the Proposition 2.1
//     past spelling G forall x . ((Audit(sys) & Fill(x)) -> O Sub(x)) on
//     the history-less past evaluator (no universal prefix, so the default
//     router routes it there).
//   Qtcn — a 4-event point-algebra chain E0 <= E1 <= E2 <= E3 per element,
//     letter-disjoint across elements: the parity check. Router off serves
//     it from the cohort lockstep path, router on from the point backend;
//     neither should regress as N grows.
//
// Pass --router=on,off (default both) to restrict the axis; --json as usual.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "checker/extension.h"
#include "checker/monitor.h"

namespace tic {
namespace {

// Interpretation of the rigid constant `sys`: one distinguished element the
// audit letter is applied to. It is in the relevant set (constants always
// are), so every family also satisfies its own constraint instance.
constexpr Value kSys = 9999;

struct RouterFixture {
  VocabularyPtr vocab;
  PredicateId audit = 0, sub = 0, fill = 0;
  PredicateId ev[4] = {0, 0, 0, 0};
  std::shared_ptr<fotl::FormulaFactory> factory;
  fotl::Formula shared_trigger = nullptr;  // forall x . G (Audit -> G Fill(x))
  fotl::Formula preceded_release = nullptr;  // Sub R (!Audit | Sub), future
  fotl::Formula preceded_past = nullptr;     // G forall x (Audit -> O Sub(x))
  fotl::Formula qtcn_chain = nullptr;        // E0 <= E1 <= E2 <= E3

  RouterFixture() {
    auto v = std::make_shared<Vocabulary>();
    audit = *v->AddPredicate("Audit", 1);
    sub = *v->AddPredicate("Sub", 1);
    fill = *v->AddPredicate("Fill", 1);
    for (int i = 0; i < 4; ++i) {
      ev[i] = *v->AddPredicate("E" + std::to_string(i), 1);
    }
    (void)*v->AddConstant("sys");
    vocab = v;
    factory = std::make_shared<fotl::FormulaFactory>(vocab);
    shared_trigger = *fotl::Parse(
        factory.get(), "forall x . G ((Audit(sys) & Fill(x)) -> G Fill(x))");
    preceded_release = *fotl::Parse(
        factory.get(),
        "forall x . !((!Sub(x)) until (Audit(sys) & Fill(x) & !Sub(x)))");
    preceded_past = *fotl::Parse(
        factory.get(), "G (forall x . ((Audit(sys) & Fill(x)) -> O Sub(x)))");
    // first(Ei) at-or-before first(Ei+1), the weak point-algebra unit
    // Ei R (!Ei+1 | Ei) spelled through until.
    std::string chain;
    for (int i = 0; i < 3; ++i) {
      if (i > 0) chain += " & ";
      std::string a = "E" + std::to_string(i) + "(x)";
      std::string b = "E" + std::to_string(i + 1) + "(x)";
      chain += "!((!" + a + ") until (" + b + " & !" + a + "))";
    }
    qtcn_chain = *fotl::Parse(factory.get(), ("forall x . " + chain).c_str());
  }
};

RouterFixture& Fixture() {
  static RouterFixture* f = new RouterFixture();
  return *f;
}

void ReportRouting(benchmark::State& state,
                   const checker::MonitorVerdict& last) {
  state.counters["instances"] = static_cast<double>(last.num_instances);
  state.counters["pointalg_instances"] =
      static_cast<double>(last.num_pointalg_instances);
  state.counters["cohort_instances"] =
      static_cast<double>(last.num_cohort_instances);
}

// Steady-state empty updates over one Audit-welded component of N armed
// triggers. The router's O(flips-touched) claim at its best: zero flips.
void BM_Router_SharedTrigger(benchmark::State& state, bool router) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  opts.router = router;
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.shared_trigger, {kSys}, opts);
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  // Arm every trigger; Fill stays asserted, so the stuck obligation holds.
  if (!monitor->ApplyTransaction({UpdateOp::Insert(fx.audit, {kSys})}).ok()) {
    state.SkipWithError("arm failed");
    return;
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(Transaction{});
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
  }
  if (!last.potentially_satisfied) {
    state.SkipWithError("monitor died in steady state");
    return;
  }
  ReportRouting(state, last);
}

// Same component, but the shared letter flips every measured update: every
// unit is touched every time — the point backend's worst case is still one
// flat pass over N units.
void BM_Router_SharedTriggerChurn(benchmark::State& state, bool router) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  opts.router = router;
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.shared_trigger, {kSys}, opts);
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  Transaction arm{UpdateOp::Insert(fx.audit, {kSys})};
  Transaction disarm{UpdateOp::Delete(fx.audit, {kSys})};
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(i % 2 == 0 ? arm : disarm).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  bool armed = false;
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(armed ? disarm : arm);
    armed = !armed;
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
  }
  if (!last.potentially_satisfied) {
    state.SkipWithError("monitor died in steady state");
    return;
  }
  ReportRouting(state, last);
}

// Three equivalent constructions of "no Audit before submission".
enum class PrecededConfig { kAutomaton, kPointAlg, kPast };

void BM_Router_PrecededBy(benchmark::State& state, PrecededConfig config) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  fotl::Formula phi = fx.preceded_release;
  switch (config) {
    case PrecededConfig::kAutomaton:
      opts.router = false;
      break;
    case PrecededConfig::kPointAlg:
      opts.router = true;
      break;
    case PrecededConfig::kPast:
      phi = fx.preceded_past;
      break;
  }
  auto monitor = *checker::Monitor::Create(fx.factory, phi, {kSys}, opts);
  Transaction grow;
  grow.push_back(UpdateOp::Insert(fx.sub, {kSys}));
  grow.push_back(UpdateOp::Insert(fx.fill, {kSys}));
  for (size_t v = 1; v <= n; ++v) {
    grow.push_back(UpdateOp::Insert(fx.sub, {static_cast<Value>(v)}));
    grow.push_back(UpdateOp::Insert(fx.fill, {static_cast<Value>(v)}));
  }
  if (!monitor->ApplyTransaction(grow).ok()) {
    state.SkipWithError("grow failed");
    return;
  }
  // Audits only start after every order is submitted: satisfied forever.
  if (!monitor->ApplyTransaction({UpdateOp::Insert(fx.audit, {kSys})}).ok()) {
    state.SkipWithError("audit failed");
    return;
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(Transaction{});
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
  }
  if (!last.potentially_satisfied) {
    state.SkipWithError("monitor died in steady state");
    return;
  }
  state.counters["backend_past"] =
      last.backend == checker::MonitorBackend::kPastStateless ? 1 : 0;
  ReportRouting(state, last);
}

// Letter-disjoint 4-event order chains: the parity check against the cohort
// lockstep path (which takes this population when the router is off).
void BM_Router_Qtcn(benchmark::State& state, bool router) {
  auto& fx = Fixture();
  size_t n = static_cast<size_t>(state.range(0));
  checker::CheckOptions opts;
  opts.router = router;
  auto monitor =
      *checker::Monitor::Create(fx.factory, fx.qtcn_chain, {kSys}, opts);
  // Event waves in constraint order: every chain is satisfied.
  for (int e = 0; e < 4; ++e) {
    Transaction wave;
    for (size_t v = 1; v <= n; ++v) {
      wave.push_back(UpdateOp::Insert(fx.ev[e], {static_cast<Value>(v)}));
    }
    if (!monitor->ApplyTransaction(wave).ok()) {
      state.SkipWithError("wave failed");
      return;
    }
  }
  for (int i = 0; i < 32; ++i) {
    if (!monitor->ApplyTransaction(Transaction{}).ok()) {
      state.SkipWithError("warmup failed");
      return;
    }
  }
  checker::MonitorVerdict last;
  for (auto _ : state) {
    auto v = monitor->ApplyTransaction(Transaction{});
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->potentially_satisfied);
    last = *v;
  }
  if (!last.potentially_satisfied) {
    state.SkipWithError("monitor died in steady state");
    return;
  }
  ReportRouting(state, last);
}

void RegisterAll(const std::vector<bool>& router_modes) {
  for (bool router : router_modes) {
    std::string suffix = std::string("/router:") + (router ? "on" : "off");
    benchmark::RegisterBenchmark(("BM_Router_SharedTrigger" + suffix).c_str(),
                                 [router](benchmark::State& s) {
                                   BM_Router_SharedTrigger(s, router);
                                 })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        ("BM_Router_SharedTriggerChurn" + suffix).c_str(),
        [router](benchmark::State& s) { BM_Router_SharedTriggerChurn(s, router); })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(("BM_Router_Qtcn" + suffix).c_str(),
                                 [router](benchmark::State& s) {
                                   BM_Router_Qtcn(s, router);
                                 })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
  }
  for (auto [config, name] :
       {std::pair{PrecededConfig::kAutomaton, "automaton"},
        std::pair{PrecededConfig::kPointAlg, "pointalg"},
        std::pair{PrecededConfig::kPast, "past"}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Router_PrecededBy/config:") + name).c_str(),
        [config = config](benchmark::State& s) { BM_Router_PrecededBy(s, config); })
        ->Arg(64)
        ->Arg(256)
        ->Arg(1024);
  }
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) {
  std::vector<bool> router_modes =
      tic::bench::ParseRouter(&argc, argv, {true, false});
  tic::RegisterAll(router_modes);
  return tic::bench::RunBenchmarks(&argc, argv);
}
