#ifndef TIC_TESTING_ORACLES_H_
#define TIC_TESTING_ORACLES_H_

#include <functional>
#include <string>
#include <vector>

#include "checker/trigger.h"
#include "common/result.h"
#include "ptl/tableau.h"
#include "testing/generators.h"

namespace tic {
namespace testing {

/// \brief Verdict of one metamorphic oracle on one case. `pass == false`
/// means the paper-derived identity was violated; `detail` then carries a
/// human-readable explanation ending in the full reproducer text, so a CI log
/// alone suffices to replay the failure. Infrastructure errors (a monitor
/// rejecting the sentence, a tableau failing) are reported through the
/// surrounding Result instead — the distinction matters to the shrinker,
/// which must treat "invalid candidate" differently from "still failing".
struct OracleResult {
  bool pass = true;
  std::string detail;
};

// ---------------------------------------------------------------------------
// The oracle kit: each function checks one identity between independent
// constructions of the paper, on one generated case.
// ---------------------------------------------------------------------------

/// \brief Tableau-engine equality: kLegacy and kBitset must agree on
/// sat/unsat, and each engine's lasso witness must validate under the
/// independent word evaluator. Optionally reports the shared verdict.
Result<OracleResult> TableauEnginesAgree(ptl::Factory* fac, ptl::Formula f,
                                         bool* satisfiable = nullptr);

/// \brief Monitor-backend equality: the automaton backend (memoized
/// residual-graph transitions) must produce exactly the per-update verdicts
/// of the literal Lemma 4.2 progression + CheckSat procedure.
Result<OracleResult> BackendVerdictsAgree(const FotlCase& c);

/// \brief Cohort-configuration equality: the cohort lockstep path (SoA
/// states, dense-table gather stepping) — with offline minimization forced
/// (interval 1) and disabled (interval 0) — must produce exactly the
/// per-update verdicts of the joint residual-graph path (cohorts off) and of
/// the literal progression baseline, on every transaction of the case.
Result<OracleResult> CohortConfigsAgree(const FotlCase& c);

/// \brief Minimizer metamorphic oracle on one compiled PTL formula: stepping
/// a TransitionSystem through `steps` random letters must report identical
/// (any_survivor, live) per step whether or not MinimizeNow runs at random
/// points along the way (states remapped through Representative), and the
/// pass must be idempotent — a second consecutive run refines nothing and
/// leaves the representative map unchanged. Returns pass vacuously when the
/// formula exceeds the compile budget (random non-safe formulas may).
Result<OracleResult> MinimizedAutomatonAgrees(ptl::Factory* fac, ptl::Formula f,
                                              Entropy* ent, size_t steps);

/// \brief Monitor-vs-batch agreement: the incremental monitor's verdict after
/// each transaction must equal a from-scratch CheckPotentialSatisfaction on
/// the corresponding history prefix.
Result<OracleResult> MonitorMatchesBatch(const FotlCase& c);

/// \brief Prefix-closure of Pref(C) (Section 2): once a history prefix falls
/// out of Pref(C) no extension re-enters it, so the per-prefix verdict
/// sequence must be monotone non-increasing, and a permanent-violation flag
/// must coincide with (and persist after) the first NO.
Result<OracleResult> PrefixClosureHolds(const FotlCase& c);

/// \brief Renaming invariance: the Theorem 4.1 construction depends only on
/// the *pattern* of the history, not on which universe elements realize it.
/// Renaming every element of the stream through the bijection `perm` must
/// leave every per-update verdict unchanged.
Result<OracleResult> RenamingInvariant(const FotlCase& c,
                                       const std::function<Value(Value)>& perm);

/// \brief Router-configuration equality: the tractable-fragment router
/// (point-algebra backend for matching components) must produce exactly the
/// per-update verdicts of the router-off automaton path and of the literal
/// progression baseline, on every transaction of the case. On closed
/// always-past sentences, past::PastMonitor run directly must agree too (its
/// classical G-past verdict coincides with potential satisfaction there);
/// `past_leg`, when given, reports whether that leg ran. When
/// `min_routed > 0`, additionally fails unless the router-on monitor reports
/// at least that many point-algebra instances by the final update (guards
/// against the suite silently testing nothing when a generator drifts out of
/// the fragment).
Result<OracleResult> RouterConfigsAgree(const FotlCase& c, size_t min_routed = 0,
                                        bool* past_leg = nullptr);

/// \brief Trigger duality (Section 2): the trigger for condition C fires at t
/// for substitution theta iff !C(theta) is NOT potentially satisfied. Runs
/// TriggerManager (automaton backend) against an independent dual check that
/// enumerates substitutions over R_D and calls the progression backend.
/// `c.sentence` is the open existential condition.
Result<OracleResult> TriggerDualityHolds(const FotlCase& c);

/// \brief One registered trigger of the batch reference below.
struct TriggerDecl {
  std::string name;
  fotl::Formula condition;
};

/// \brief Reference trigger firings at the last instant of `history`: the
/// Section 2 duality as a batch sweep, independent of the incremental
/// monitors TriggerManager runs. For every trigger (in order) and every
/// substitution theta over R_D (sorted, first parameter fastest; the
/// degenerate domain {0} while R_D is empty), one from-scratch
/// CheckPotentialSatisfaction of the dualized condition over the whole
/// history; theta fires iff the check says NO.
/// Times, substitutions and explanation texts are those TriggerManager must
/// reproduce byte for byte (the explanation only when options.provenance).
/// Actions are not invoked.
Result<std::vector<checker::TriggerFiring>> BatchTriggerFirings(
    fotl::FormulaFactory* factory, const std::vector<TriggerDecl>& triggers,
    const History& history, const checker::CheckOptions& options = {});

// ---------------------------------------------------------------------------
// Test-only fault injection.
// ---------------------------------------------------------------------------

/// \brief When set, BackendVerdictsAgree reports a planted divergence on any
/// case for which the hook returns true (after running both real monitors, so
/// candidate validity is still enforced). Exists so the shrinker test can
/// plant a deterministic "bug" and prove minimization converges; never set it
/// outside tests. Pass nullptr to clear.
void SetBackendFaultHookForTest(std::function<bool(const FotlCase&)> hook);

}  // namespace testing
}  // namespace tic

#endif  // TIC_TESTING_ORACLES_H_
