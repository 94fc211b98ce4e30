// Differential suite for TriggerManager: after every transaction, the
// incremental manager (one bound Monitor per substitution) must return
// exactly the firings of the batch reference testing::BatchTriggerFirings (a
// from-scratch CheckPotentialSatisfaction per substitution over the whole
// history) — same triggers, times, substitutions and explanation texts, in
// the same order — on both monitor backends.
//
// The streams cover conditions with 0 (existential), 1 and 2 (pair shape)
// parameters and one parameter with an existential partner, instants with an empty relevant set (degenerate domain {0}),
// substitutions that arrive late (element 3 joins mid-stream, and a second
// trigger registers mid-stream and catches up from the history),
// substitutions that fire and keep firing, and 100-update streams on which
// live substitution monitors fold their history (fresh elements then catch
// up from the fold's patterns). Re-run one case with TIC_REPLAY_SEED=<c>.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "checker/trigger.h"
#include "fotl/parser.h"
#include "testing/generators.h"
#include "testing/oracles.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

// Substitution monitors fold their history every this many updates
// (TriggerManager::kFoldEvery); long streams must outlive it.
constexpr size_t kFold = 64;

struct Coverage {
  int cases = 0;
  int firings = 0;
  int empty_relevant = 0;  // updates evaluated over the degenerate domain
  int late_firings = 0;    // firings for a substitution mentioning element 3
  int refirings = 0;       // firings repeating the previous update's firing
  int folded = 0;  // substitutions still unfired after kFold updates
};

void RunFamily(uint32_t seed_base, int num_cases,
               const tt::TriggerCaseOptions& shape, MonitorBackend backend,
               Coverage* cov) {
  auto replay_seed = tt::ReplaySeedFromEnv();
  for (int c = 0; c < num_cases; ++c) {
    if (replay_seed && *replay_seed != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(seed_base + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateTriggerCase(&ent, shape);
    const std::string label = "case#" + std::to_string(c) +
                              " seed_base=" + std::to_string(seed_base) +
                              " backend=" + std::to_string(static_cast<int>(backend)) +
                              "\nreproducer:\n" + tt::SerializeCase(kase);
    CheckOptions options;
    options.backend = backend;
    auto mgr = TriggerManager::Create(kase.factory, {}, options);
    ASSERT_TRUE(mgr.ok()) << label;
    ASSERT_TRUE((*mgr)->AddTrigger("c", kase.sentence).ok()) << label;
    std::vector<tt::TriggerDecl> decls = {{"c", kase.sentence}};
    const std::vector<fotl::VarId>& params = kase.sentence->free_vars();
    // The same condition registers again mid-stream: every substitution of
    // "late" is first seen after t = 0 and caught up from the history.
    const size_t late_at = kase.stream.size() / 2;

    History h = *History::Create(kase.vocab);
    std::set<std::string> previous;
    ++cov->cases;
    for (size_t t = 0; t < kase.stream.size(); ++t) {
      if (t == late_at) {
        ASSERT_TRUE((*mgr)->AddTrigger("late", kase.sentence).ok()) << label;
        decls.push_back({"late", kase.sentence});
      }
      auto got = (*mgr)->OnTransaction(kase.stream[t]);
      ASSERT_TRUE(got.ok()) << label << "\n" << got.status().ToString();
      ASSERT_TRUE(ApplyTransaction(&h, kase.stream[t]).ok());
      auto want = tt::BatchTriggerFirings(kase.factory.get(), decls, h, options);
      ASSERT_TRUE(want.ok()) << label << "\n" << want.status().ToString();

      ASSERT_EQ(got->size(), want->size()) << "t=" << t << " " << label;
      std::set<std::string> current;
      for (size_t i = 0; i < got->size(); ++i) {
        const TriggerFiring& g = (*got)[i];
        const TriggerFiring& w = (*want)[i];
        EXPECT_EQ(g.trigger, w.trigger) << "t=" << t << " #" << i << " " << label;
        EXPECT_EQ(g.time, w.time) << "t=" << t << " #" << i << " " << label;
        EXPECT_EQ(g.substitution, w.substitution)
            << "t=" << t << " #" << i << " " << label;
        ASSERT_EQ(g.explanation, w.explanation)
            << "t=" << t << " #" << i << " " << label;
        std::string key = g.trigger;
        for (fotl::VarId v : params) {
          key += "," + std::to_string(g.substitution.at(v));
          if (g.substitution.at(v) == 3) ++cov->late_firings;
        }
        if (previous.count(key) > 0) ++cov->refirings;
        current.insert(std::move(key));
        ++cov->firings;
      }
      if (h.RelevantSet().empty()) ++cov->empty_relevant;
      if (t + 1 == kFold) {
        // Every enumerated substitution that has not fired by now kept a
        // live monitor through at least one fold.
        size_t subs = 1;
        for (size_t i = 0; i < params.size(); ++i) subs *= h.RelevantSet().size();
        cov->folded += static_cast<int>(subs * decls.size() - got->size());
      }
      previous = std::move(current);
    }
  }
}

void RunBothBackends(uint32_t seed_base, int num_cases,
                     const tt::TriggerCaseOptions& shape) {
  for (MonitorBackend backend :
       {MonitorBackend::kAutomaton, MonitorBackend::kProgression}) {
    Coverage cov;
    RunFamily(seed_base, num_cases, shape, backend, &cov);
    if (::testing::Test::HasFatalFailure()) return;
    if (tt::ReplaySeedFromEnv()) continue;
    // The families must exercise what they claim to: firings that repeat
    // (permanent violations) and firings for late substitutions.
    EXPECT_EQ(cov.cases, num_cases);
    EXPECT_GT(cov.firings, num_cases);
    EXPECT_GT(cov.refirings, 0);
    if (shape.arrivals) {
      EXPECT_GT(cov.empty_relevant, 0);
      if (shape.shape != tt::TriggerShape::kClosed) EXPECT_GT(cov.late_firings, 0);
    }
    if (shape.long_stream > kFold) EXPECT_GT(cov.folded, num_cases / 2) << cov.folded;
  }
}

TEST(TriggerDiffTest, OneParameterHistoricalStreams) {
  RunBothBackends(0x7a1d0000u, 250, tt::TriggerCaseOptions{});
}

TEST(TriggerDiffTest, OneParameterArrivalStreams) {
  RunBothBackends(0x7a1d1000u, 250,
                  tt::TriggerCaseOptions{tt::TriggerShape::kOneParam, true});
}

TEST(TriggerDiffTest, ExistentialClosedConditions) {
  RunBothBackends(0x7a1d2000u, 250,
                  tt::TriggerCaseOptions{tt::TriggerShape::kClosed, true});
}

TEST(TriggerDiffTest, PairShapedConditions) {
  RunBothBackends(0x7a1d3000u, 250,
                  tt::TriggerCaseOptions{tt::TriggerShape::kPair, true});
}

TEST(TriggerDiffTest, ParameterWithExistentialPartner) {
  RunBothBackends(0x7a1d6000u, 150,
                  tt::TriggerCaseOptions{tt::TriggerShape::kPartner, true});
}

TEST(TriggerDiffTest, LongStreamsFoldLiveMonitors) {
  RunBothBackends(0x7a1d4000u, 40,
                  tt::TriggerCaseOptions{tt::TriggerShape::kOneParam, false, 100});
  RunBothBackends(0x7a1d5000u, 40,
                  tt::TriggerCaseOptions{tt::TriggerShape::kClosed, false, 100});
  RunBothBackends(0x7a1d7000u, 40,
                  tt::TriggerCaseOptions{tt::TriggerShape::kPartner, false, 100});
}

TEST(TriggerDiffTest, BoundElementArrivingAfterAFold) {
  // theta = {x=2} is first seen at t=70; its monitor folds at t=63 while
  // replaying, before element 2 exists. The partner instance y=2 must still
  // ground `x = y` as true (bound values are relevant from the start), so
  // Fill(2) at t=71 fires — a stand-in pattern would read `2 = z` as false.
  auto vocab = std::make_shared<Vocabulary>();
  PredicateId sub = *vocab->AddPredicate("Sub", 1);
  PredicateId fill = *vocab->AddPredicate("Fill", 1);
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  fotl::Formula cond = *fotl::Parse(fac.get(), "exists y . x = y & F Fill(y)");
  std::vector<Transaction> stream;
  for (size_t t = 0; t < 70; ++t) {
    stream.push_back({t % 2 == 0 ? UpdateOp::Insert(sub, {1})
                                 : UpdateOp::Delete(sub, {1})});
  }
  stream.push_back({UpdateOp::Insert(sub, {2})});
  stream.push_back({UpdateOp::Insert(fill, {2})});
  for (MonitorBackend backend :
       {MonitorBackend::kAutomaton, MonitorBackend::kProgression}) {
    CheckOptions options;
    options.backend = backend;
    auto mgr = *TriggerManager::Create(fac, {}, options);
    ASSERT_TRUE(mgr->AddTrigger("filled", cond).ok());
    History h = *History::Create(vocab);
    size_t fired = 0;
    for (size_t t = 0; t < stream.size(); ++t) {
      auto got = mgr->OnTransaction(stream[t]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(ApplyTransaction(&h, stream[t]).ok());
      auto want =
          tt::BatchTriggerFirings(fac.get(), {{"filled", cond}}, h, options);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_EQ(got->size(), want->size()) << "t=" << t;
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ((*got)[i].explanation, (*want)[i].explanation) << "t=" << t;
      }
      fired += got->size();
    }
    EXPECT_EQ(fired, 1u);
  }
}

}  // namespace
}  // namespace checker
}  // namespace tic
