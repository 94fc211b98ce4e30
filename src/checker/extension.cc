#include "checker/extension.h"

#include "common/telemetry/telemetry.h"
#include "ptl/progress.h"
#include "ptl/safety.h"

namespace tic {
namespace checker {

Result<CheckResult> CheckPotentialSatisfaction(
    const fotl::FormulaFactory& fotl_factory, fotl::Formula phi,
    const History& history, const fotl::Valuation& binding,
    const CheckOptions& options) {
  TIC_SPAN("check.extension");
  CheckResult result;

  // Theorem 4.1: build phi_D and w_D.
  TIC_ASSIGN_OR_RETURN(
      Grounding g, GroundUniversal(fotl_factory, phi, history, binding,
                                   options.grounding));
  result.grounding_stats = g.stats;
  ptl::Factory* pf = g.prop_factory.get();

  if (options.require_safety && !ptl::IsSyntacticallySafe(pf, g.phi_d)) {
    return Status::NotSupported(
        "constraint is not syntactically safe; Section 4's algorithm is only "
        "sound for safety sentences (set require_safety=false to experiment)");
  }

  // Lemma 4.2 phase 1: deterministic rewriting through w_D.
  TIC_ASSIGN_OR_RETURN(ptl::Formula residual, [&] {
    TIC_SPAN("check.progress_prefix");
    return ptl::ProgressThroughWord(pf, g.phi_d, g.word);
  }());
  result.residual_size = residual->size();
  if (residual->kind() == ptl::Kind::kFalse) {
    result.potentially_satisfied = false;
    result.permanently_violated = true;
    return result;
  }

  // Lemma 4.2 phase 2: satisfiability of the residual.
  TIC_ASSIGN_OR_RETURN(ptl::SatResult sat,
                       ptl::CheckSat(pf, residual, options.tableau));
  result.tableau_stats = sat.stats;
  result.potentially_satisfied = sat.satisfiable;
  if (!sat.satisfiable) {
    // For safety sentences an unsatisfiable residual is irreparable: progression
    // of `false`-bound residuals can only shrink the model set.
    result.permanently_violated = true;
    return result;
  }

  if (options.want_witness && sat.witness.has_value()) {
    TIC_SPAN("check.decode_witness");
    // Decode the lasso into database states (Theorem 4.1, decoding direction):
    // the infinite witness database is the history followed by the decoded
    // future states; elements outside R_D stay out of all relations, which is
    // exactly the D' of Lemma 4.1.
    std::vector<DatabaseState> prefix_states;
    prefix_states.reserve(history.length() + sat.witness->prefix.size());
    for (size_t t = 0; t < history.length(); ++t) {
      prefix_states.push_back(history.state(t));
    }
    for (const ptl::PropState& w : sat.witness->prefix) {
      TIC_ASSIGN_OR_RETURN(DatabaseState s,
                           DecodePropState(g, history.vocabulary(), w));
      prefix_states.push_back(std::move(s));
    }
    std::vector<DatabaseState> loop_states;
    loop_states.reserve(sat.witness->loop.size());
    for (const ptl::PropState& w : sat.witness->loop) {
      TIC_ASSIGN_OR_RETURN(DatabaseState s,
                           DecodePropState(g, history.vocabulary(), w));
      loop_states.push_back(std::move(s));
    }
    if (loop_states.empty()) loop_states.emplace_back(history.vocabulary());
    result.witness = UltimatelyPeriodicDb(
        history.vocabulary(), history.constant_interpretation(),
        std::move(prefix_states), std::move(loop_states));
  }
  return result;
}

}  // namespace checker
}  // namespace tic
