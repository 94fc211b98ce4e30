// Tests for verdict provenance: the Diagnosis a monitor assembles when it
// flips to permanently violated (grounded substitution, violating letter
// delta, residual trajectory, collapsed subformula), trigger-firing
// explanations, and — the load-bearing part — the differential witness-replay
// suite: on >=500 generated safety cases, every violated verdict must carry a
// Diagnosis whose reconstructed transaction stream, replayed into a FRESH
// monitor, reproduces the violation at the same update index.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/monitor.h"
#include "checker/provenance.h"
#include "checker/trigger.h"
#include "fotl/parser.h"
#include "testing/generators.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = tic::testing;

class ProvenanceTest : public ::testing::Test {
 protected:
  ProvenanceTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
    submit_once_ =
        *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
  }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills,
                  std::vector<Value> unsubs = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    for (Value v : unsubs) t.push_back(UpdateOp::Delete(sub_, {v}));
    return t;
  }

  // Drives the canonical submit-once violation: Sub(7), withdraw, resubmit.
  // The violation lands at t=2.
  MonitorVerdict PlantViolation(Monitor* m) {
    EXPECT_TRUE(m->ApplyTransaction(Txn({7}, {})).ok());
    EXPECT_TRUE(m->ApplyTransaction(Txn({}, {}, {7})).ok());
    auto v = m->ApplyTransaction(Txn({7}, {}));
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }

  VocabularyPtr vocab_;
  PredicateId sub_, fill_;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
};

TEST_F(ProvenanceTest, PlantedViolationYieldsGroundedDiagnosis) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_TRUE(v.permanently_violated);
  ASSERT_FALSE(v.explanations().empty());
  EXPECT_GE(v.num_culprits, 1u);

  const Diagnosis& d = v.explanations().front();
  EXPECT_EQ(d.time, 2u);
  ASSERT_FALSE(d.joint);
  // The culprit substitution is x=7, by name.
  EXPECT_NE(d.assignment_text.find("x=7"), std::string::npos)
      << d.assignment_text;
  // The violating delta contains the fatal re-insert of Sub(7).
  bool saw_insert = false;
  for (const DiagnosisDelta& delta : d.delta) {
    if (delta.inserted && delta.atom == "Sub(7)") saw_insert = true;
  }
  EXPECT_TRUE(saw_insert) << d.Render();
  // A subformula was pinned via the closure index, and the trajectory ends at
  // the violation instant.
  EXPECT_NE(d.subformula, nullptr);
  ASSERT_FALSE(d.trajectory.empty());
  EXPECT_EQ(d.trajectory.back().time, d.time);
  EXPECT_NE(d.grounded, nullptr);
  EXPECT_NE(d.factory, nullptr);
}

TEST_F(ProvenanceTest, RenderIsHumanReadable) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_FALSE(v.explanations().empty());
  std::string text = v.explanations().front().Render();
  EXPECT_NE(text.find("violation at t=2"), std::string::npos) << text;
  EXPECT_NE(text.find("x=7"), std::string::npos) << text;
  EXPECT_NE(text.find("+Sub(7)"), std::string::npos) << text;
  EXPECT_NE(text.find("trajectory"), std::string::npos) << text;
}

TEST_F(ProvenanceTest, DiagnosisPersistsOnDeadVerdicts) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict flip = PlantViolation(m.get());
  ASSERT_FALSE(flip.explanations().empty());
  auto later = m->ApplyTransaction(Txn({}, {3}));
  ASSERT_TRUE(later.ok());
  ASSERT_TRUE(later->permanently_violated);
  ASSERT_FALSE(later->explanations().empty());
  EXPECT_EQ(later->explanations().front().time, 2u);
  // Same shared diagnosis, not a rebuilt one.
  EXPECT_EQ(later->diagnoses.get(), flip.diagnoses.get());
}

TEST_F(ProvenanceTest, ProvenanceOffYieldsNoDiagnosis) {
  CheckOptions options;
  options.provenance = false;
  auto m = *Monitor::Create(fac_, submit_once_, {}, options);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_TRUE(v.permanently_violated);
  EXPECT_TRUE(v.explanations().empty());
  EXPECT_EQ(v.num_culprits, 0u);
}

TEST_F(ProvenanceTest, AllModesAndBackendsProduceADiagnosis) {
  struct Config {
    MonitorMode mode;
    MonitorBackend backend;
    const char* label;
  };
  const Config configs[] = {
      {MonitorMode::kEager, MonitorBackend::kAutomaton, "eager/automaton"},
      {MonitorMode::kEager, MonitorBackend::kProgression, "eager/progression"},
      {MonitorMode::kLazy, MonitorBackend::kProgression, "lazy"},
  };
  for (const Config& cfg : configs) {
    CheckOptions options;
    options.backend = cfg.backend;
    auto m = *Monitor::Create(fac_, submit_once_, {}, options, cfg.mode);
    MonitorVerdict v = PlantViolation(m.get());
    ASSERT_TRUE(v.permanently_violated) << cfg.label;
    ASSERT_FALSE(v.explanations().empty()) << cfg.label;
    const Diagnosis& d = v.explanations().front();
    EXPECT_EQ(d.time, 2u) << cfg.label;
    EXPECT_FALSE(d.Render().empty()) << cfg.label;
  }
}

TEST_F(ProvenanceTest, WitnessReplayReproducesThePlantedViolation) {
  auto m = *Monitor::Create(fac_, submit_once_);
  MonitorVerdict v = PlantViolation(m.get());
  ASSERT_FALSE(v.explanations().empty());
  auto replay = ReplayHistory(fac_, submit_once_, m->history());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->violated);
  EXPECT_EQ(replay->violated_at, v.explanations().front().time);
  EXPECT_EQ(replay->updates, m->history().length());
}

TEST_F(ProvenanceTest, TransactionsFromHistoryRebuildStateForState) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({1, 2}, {2})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({3}, {}, {1})).ok());
  ASSERT_TRUE(m->ApplyTransaction(Txn({}, {3})).ok());
  auto txns = TransactionsFromHistory(m->history());
  ASSERT_TRUE(txns.ok());
  History rebuilt = *History::Create(vocab_, {});
  for (const Transaction& t : *txns) {
    ASSERT_TRUE(ApplyTransaction(&rebuilt, t).ok());
  }
  ASSERT_EQ(rebuilt.length(), m->history().length());
  for (size_t t = 0; t < rebuilt.length(); ++t) {
    for (PredicateId p : {sub_, fill_}) {
      for (Value e : {1, 2, 3}) {
        EXPECT_EQ(rebuilt.state(t).Holds(p, {e}),
                  m->history().state(t).Holds(p, {e}))
            << "t=" << t << " pred=" << p << " elem=" << e;
      }
    }
  }
}

TEST_F(ProvenanceTest, DiagnosisAfterCompactionMatchesUncompactedTwin) {
  // A fold at t=2 must not change the explanation of a later violation: the
  // culprit, its residual and the trajectory tail after the fold (absolute
  // instants) equal those of a twin that never compacted. Element 9 arrives
  // after the fold, so its instance is caught up from a pattern.
  for (MonitorBackend backend :
       {MonitorBackend::kAutomaton, MonitorBackend::kProgression}) {
    CheckOptions options;
    options.backend = backend;
    auto plain = *Monitor::Create(fac_, submit_once_, {}, options);
    auto folded = *Monitor::Create(fac_, submit_once_, {}, options);
    const std::vector<Transaction> stream = {
        Txn({7}, {}), Txn({8}, {}, {7}), Txn({}, {}, {8}), Txn({9}, {}),
        Txn({7}, {}, {9})};
    const size_t fold_at = 2;
    MonitorVerdict a, b;
    for (size_t t = 0; t < stream.size(); ++t) {
      auto va = plain->ApplyTransaction(stream[t]);
      auto vb = folded->ApplyTransaction(stream[t]);
      ASSERT_TRUE(va.ok()) << va.status().ToString();
      ASSERT_TRUE(vb.ok()) << vb.status().ToString();
      if (t == fold_at) ASSERT_TRUE(folded->Compact().ok());
      a = *va;
      b = *vb;
    }
    ASSERT_TRUE(a.permanently_violated);
    ASSERT_TRUE(b.permanently_violated);
    ASSERT_EQ(a.explanations().size(), 1u);
    ASSERT_EQ(b.explanations().size(), 1u);
    const Diagnosis& da = a.explanations()[0];
    const Diagnosis& db = b.explanations()[0];
    EXPECT_EQ(da.assignment_text, "x=7");
    EXPECT_EQ(db.assignment_text, da.assignment_text);
    ASSERT_NE(db.residual, nullptr);
    EXPECT_EQ(ptl::ToString(*db.factory, db.residual),
              ptl::ToString(*da.factory, da.residual));
    std::vector<std::string> tail_a, tail_b;
    for (const DiagnosisStep& s : da.trajectory) {
      if (s.time > fold_at) {
        tail_a.push_back(std::to_string(s.time) + ": " +
                         ptl::ToString(*da.factory, s.residual));
      }
    }
    for (const DiagnosisStep& s : db.trajectory) {
      EXPECT_GT(s.time, fold_at) << "the folded monitor replays post-fold only";
      tail_b.push_back(std::to_string(s.time) + ": " +
                       ptl::ToString(*db.factory, s.residual));
    }
    EXPECT_EQ(tail_b.size(), 2u);
    EXPECT_EQ(tail_b, tail_a);
  }
}

TEST_F(ProvenanceTest, TriggerFiringsCarryAnExplanation) {
  auto mgr = *TriggerManager::Create(fac_);
  ASSERT_TRUE(
      mgr->AddTrigger("resubmitted",
                      *fotl::Parse(fac_.get(), "F (Sub(x) & X F Sub(x))"))
          .ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({7}, {})).ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({}, {}, {7})).ok());
  auto firings = mgr->OnTransaction(Txn({7}, {}));
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  const std::string& text = (*firings)[0].explanation;
  EXPECT_NE(text.find("\"resubmitted\""), std::string::npos) << text;
  EXPECT_NE(text.find("t=2"), std::string::npos) << text;
  EXPECT_NE(text.find("x=7"), std::string::npos) << text;
  EXPECT_NE(text.find("potential satisfaction"), std::string::npos) << text;
}

TEST_F(ProvenanceTest, TriggerExplanationsAreOptional) {
  CheckOptions options;
  options.provenance = false;
  auto mgr = *TriggerManager::Create(fac_, {}, options);
  ASSERT_TRUE(
      mgr->AddTrigger("resubmitted",
                      *fotl::Parse(fac_.get(), "F (Sub(x) & X F Sub(x))"))
          .ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({7}, {})).ok());
  ASSERT_TRUE(mgr->OnTransaction(Txn({}, {}, {7})).ok());
  auto firings = mgr->OnTransaction(Txn({7}, {}));
  ASSERT_TRUE(firings.ok());
  ASSERT_EQ(firings->size(), 1u);
  EXPECT_TRUE((*firings)[0].explanation.empty());
}

// ---------------------------------------------------------------------------
// The differential witness-replay suite (ISSUE acceptance bar): >=500 seeded
// generated cases; every violated verdict must carry a Diagnosis, and a fresh
// monitor fed the reconstructed stream must reach the same verdict at the
// same index.

void RunDifferentialFamily(uint32_t seed_base, int num_cases, MonitorMode mode,
                           MonitorBackend backend, bool cohorts,
                           int* violated_count) {
  auto replay_seed = tt::ReplaySeedFromEnv();
  for (int c = 0; c < num_cases; ++c) {
    if (replay_seed && *replay_seed != static_cast<uint64_t>(c)) continue;
    tt::Entropy ent(seed_base + static_cast<uint32_t>(c));
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent);
    const std::string label =
        "case#" + std::to_string(c) + " seed_base=" + std::to_string(seed_base);

    CheckOptions options;
    options.backend = backend;
    options.cohort_stepping = cohorts;
    auto monitor =
        Monitor::Create(kase.factory, kase.sentence, {}, options, mode);
    ASSERT_TRUE(monitor.ok()) << label << ": " << monitor.status().ToString()
                              << "\nreproducer:\n" << tt::SerializeCase(kase);

    bool violated = false;
    size_t violated_at = 0;
    for (size_t i = 0; i < kase.stream.size(); ++i) {
      auto v = (*monitor)->ApplyTransaction(kase.stream[i]);
      ASSERT_TRUE(v.ok()) << label << ": " << v.status().ToString();
      if (violated) continue;  // dead monitor: diagnosis checked below
      if (v->permanently_violated) {
        violated = true;
        violated_at = i;
        ASSERT_FALSE(v->explanations().empty())
            << label << ": violated at update " << i
            << " without a diagnosis\nreproducer:\n" << tt::SerializeCase(kase);
        const Diagnosis& d = v->explanations().front();
        EXPECT_EQ(d.time, i) << label;
        EXPECT_FALSE(d.Render().empty()) << label;
      }
    }
    if (!violated) continue;
    ++*violated_count;

    auto outcome = ReplayHistory(kase.factory, kase.sentence,
                                 (*monitor)->history(), options, mode);
    ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.status().ToString();
    EXPECT_TRUE(outcome->violated)
        << label << ": replay lost the violation\nreproducer:\n"
        << tt::SerializeCase(kase);
    EXPECT_EQ(outcome->violated_at, violated_at)
        << label << ": replay moved the violation\nreproducer:\n"
        << tt::SerializeCase(kase);
  }
}

TEST(ProvenanceDifferentialTest, EagerAutomatonWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e001u, 300, MonitorMode::kEager,
                        MonitorBackend::kAutomaton, /*cohorts=*/true,
                        &violated);
  // The generator's churn streams violate often; an unviolated sweep would
  // mean this suite tests nothing.
  EXPECT_GE(violated, 50) << "suspiciously few violations";
}

TEST(ProvenanceDifferentialTest, EagerProgressionWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e002u, 150, MonitorMode::kEager,
                        MonitorBackend::kProgression, /*cohorts=*/false,
                        &violated);
  EXPECT_GE(violated, 25);
}

TEST(ProvenanceDifferentialTest, LazyModeWitnessesReplay) {
  int violated = 0;
  RunDifferentialFamily(0x51a7e003u, 100, MonitorMode::kLazy,
                        MonitorBackend::kProgression, /*cohorts=*/false,
                        &violated);
  EXPECT_GE(violated, 15);
}

}  // namespace
}  // namespace checker
}  // namespace tic
