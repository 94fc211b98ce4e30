// Differential fuzz suite for the tractable-fragment router: on randomly
// generated constraints and update streams, the routed monitor (point-algebra
// watched-literal backend for matching components) must produce exactly the
// per-update verdicts of the router-off automaton path and of the literal
// progression baseline. The shared oracle (testing/oracles.h) runs every case
// through three monitor configurations — progression reference, automaton
// with the router off, and the router's default configuration — plus
// past::PastMonitor itself on always-past sentences, and fails on any
// sat/violated divergence.
//
// Three families:
//   A. Random safe sentences (1 and 2 variables) over churn streams with a
//      fresh element arriving mid-stream: most matrices fall OUTSIDE the
//      point-algebra fragment, so the router must leave them byte-identical
//      to the automaton path; the ones that fall inside exercise the
//      component-purity rule (2-variable cases share ground atoms across
//      instances, and a single unrouted member must keep its whole
//      letter-connected component on the automaton).
//   B. QTCN compilations: random point-algebra order constraints over event
//      first-occurrences, compiled to the release fragment. Every grounded
//      instance matches, so the router steps the entire case through the
//      PointBackend — the oracle additionally fails if nothing routed.
//   C. Pure-FO matrices under forall* G: the overlap fragment where the
//      Theorem 4.2 potential-satisfaction verdict and the classical G-past
//      verdict provably coincide, checked four ways (progression, automaton
//      with and without the router, and the past evaluator run directly).
//
// Failure messages carry the full reproducer; re-run one case with
// TIC_REPLAY_SEED=<c>.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "checker/monitor.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

void ExpectRouterConfigsAgree(const tt::FotlCase& kase, const std::string& label,
                              size_t min_routed = 0, bool* past_leg = nullptr) {
  auto r = tt::RouterConfigsAgree(kase, min_routed, past_leg);
  ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString()
                      << "\nreproducer:\n" << tt::SerializeCase(kase);
  ASSERT_TRUE(r->pass) << label << ": " << r->detail;
}

TEST(RouterDiffTest, RandomSafeSentencesAgreeAcrossConfigs) {
  // Family A: 400 random safe sentences with the default generator knobs —
  // the same distribution the backend and cohort diff suites run, so any
  // verdict drift the router introduces on general formulas shows up here.
  constexpr int kCases = 400;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x9e3779b9u + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    ExpectRouterConfigsAgree(kase, "caseA#" + std::to_string(c) +
                                       " (re-run with TIC_REPLAY_SEED=" +
                                       std::to_string(c) + ")");
  }
}

TEST(RouterDiffTest, QtcnCasesRouteAndAgree) {
  // Family B: 350 random QTCN compilations. min_routed = 1 guards coverage:
  // a generator or matcher drift that silently pushes these back onto the
  // automaton would otherwise turn the family into a no-op.
  constexpr int kCases = 350;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0x85ebca6bu + static_cast<uint32_t>(c));
    tt::QtcnCase kase = tt::GenerateQtcnCase(&ent);
    ExpectRouterConfigsAgree(kase.fotl, "caseB#" + std::to_string(c),
                             /*min_routed=*/1);
  }
}

TEST(RouterDiffTest, PureFoMatricesAgreeWithPastEvaluator) {
  // Family C: 300 pure-FO matrices (And/Or/Implies/Not over literals, no
  // temporal operator) under forall* G — always-past sentences, so the
  // oracle's past::PastMonitor leg runs, and its classical verdict must
  // match potential satisfaction.
  constexpr int kCases = 300;
  auto replay = tt::ReplaySeedFromEnv();
  for (int c = 0; c < kCases; ++c) {
    if (replay && *replay != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(0xc2b2ae35u + static_cast<uint32_t>(c));
    tt::CaseBuilder builder(2 + ent.Below(2));
    size_t num_vars = 1 + ent.Below(2);
    fotl::FormulaFactory& fac = *builder.factory();
    // Local pure-FO grammar, explicit work-list depth 2-3.
    std::function<fotl::Formula(int)> gen = [&](int depth) -> fotl::Formula {
      if (depth <= 0) return builder.Lit(&ent, num_vars);
      switch (ent.Below(4)) {
        case 0:
          return fac.And(gen(depth - 1), gen(depth - 1));
        case 1:
          return fac.Or(gen(depth - 1), gen(depth - 1));
        case 2:
          return fac.Implies(builder.LitConj(&ent, num_vars), gen(depth - 1));
        default:
          return fac.Not(gen(depth - 1));
      }
    };
    fotl::Formula matrix = gen(2 + static_cast<int>(ent.Below(2)));
    fotl::Formula phi = builder.Quantify(fac.Always(matrix), num_vars);
    size_t len = 5 + ent.Below(4);
    std::vector<Transaction> stream;
    for (size_t t = 0; t < len; ++t) {
      std::vector<Value> universe = {1, 2, 3};
      if (t >= len / 2) universe.push_back(4);
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), universe));
    }
    tt::FotlCase kase = builder.Finish(phi, num_vars, std::move(stream));
    bool past_leg = false;
    ExpectRouterConfigsAgree(kase, "caseC#" + std::to_string(c), 0, &past_leg);

    // The past-evaluator leg must actually run on this family — except when
    // the matrix constant-folded away, leaving no G to check.
    if (kase.sentence->kind() == fotl::NodeKind::kTrue ||
        kase.sentence->kind() == fotl::NodeKind::kFalse) {
      continue;
    }
    EXPECT_TRUE(past_leg) << "caseC#" << c << " skipped the past-evaluator leg";
  }
}

TEST(RouterDiffTest, NonUniversalPastSentencesRouteToPastEvaluator) {
  // The natural past route: closed `G A` sentences with internal
  // quantification are rejected outright by the universal-safety path, and
  // with the router on they become monitorable through the past evaluator.
  auto vocab = std::make_shared<Vocabulary>();
  PredicateId sub = *vocab->AddPredicate("Sub", 1);
  PredicateId fill = *vocab->AddPredicate("Fill", 1);
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  fotl::VarId x = fac->InternVar("x");
  fotl::Formula body = fac->Forall(
      x, fac->Implies(*fac->Atom(fill, {fotl::Term::Var(x)}),
                      fac->Once(*fac->Atom(sub, {fotl::Term::Var(x)}))));
  // G exists y ... would do too; keep the Prop 2.1 shape G A with A past.
  fotl::Formula phi = fac->Always(body);

  CheckOptions off;
  off.router = false;
  EXPECT_FALSE(Monitor::Create(fac, phi, {}, off).ok());

  auto m = Monitor::Create(fac, phi, {}, CheckOptions{});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  Transaction t0{UpdateOp::Insert(sub, {1})};
  auto v0 = (*m)->ApplyTransaction(t0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(v0->backend, MonitorBackend::kPastStateless);
  EXPECT_TRUE(v0->potentially_satisfied);
  Transaction t1{UpdateOp::Insert(fill, {2})};  // 2 was never submitted
  auto v1 = (*m)->ApplyTransaction(t1);
  ASSERT_TRUE(v1.ok());
  EXPECT_FALSE(v1->potentially_satisfied);
  EXPECT_TRUE(v1->permanently_violated);
  EXPECT_EQ((*m)->history().length(), 2u);
}

}  // namespace
}  // namespace checker
}  // namespace tic
