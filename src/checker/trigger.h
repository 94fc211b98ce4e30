#ifndef TIC_CHECKER_TRIGGER_H_
#define TIC_CHECKER_TRIGGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/extension.h"
#include "checker/monitor.h"
#include "common/result.h"
#include "db/update.h"
#include "fotl/factory.h"

namespace tic {
namespace checker {

/// \brief One firing of a Condition-Action trigger.
struct TriggerFiring {
  std::string trigger;
  size_t time = 0;            ///< instant of the state after the update
  fotl::Valuation substitution;  ///< ground substitution theta for C's free vars
  /// Human-readable provenance (CheckOptions::provenance, default on): the
  /// duality argument behind the firing — which substitution made the negated
  /// condition unsatisfiable, and whether the collapse was permanent. Empty
  /// when provenance is disabled.
  std::string explanation;
};

/// \brief Temporal Condition-Action triggers via the duality of Section 2:
/// the trigger "if C then A" fires at instant t for a ground substitution
/// theta iff !C theta is NOT potentially satisfied at t — i.e. no extension of
/// the history can make the condition false.
///
/// For the firing test to be decidable, !C must fall in the universal fragment
/// (Theorem 4.2); dually, C must be an *existential* formula: a chain of
/// leading existential quantifiers over a tense(Sigma_0) body — the class
/// `exists* tense(Sigma)` that Section 5 identifies with the expressivity of
/// Sistla & Wolfson's trigger language. Substitutions range over the relevant
/// set R_D of the current history.
///
/// That verdict is exactly what an incremental Monitor keeps: each
/// (trigger, theta) gets one Monitor over `forall e . !rho` with C's free
/// parameters bound to theta. It is created when theta first appears in the
/// enumeration over R_D, caught up once by replaying the history, stepped
/// with every later transaction and compacted whenever it holds 64 states,
/// so its state stays flat in t. Violations are permanent: a fired theta
/// drops its monitor and keeps firing. All monitors share the manager's pool, verdict cache and
/// automaton cache, so symmetric substitutions share one compiled system.
class TriggerManager {
 public:
  static Result<std::unique_ptr<TriggerManager>> Create(
      std::shared_ptr<fotl::FormulaFactory> fotl_factory,
      std::vector<Value> constant_interp = {}, CheckOptions options = {});

  /// Registers "if `condition` then `action`". The action is invoked for each
  /// firing. Fails (NotSupported) if the negated condition is not universal.
  Status AddTrigger(std::string name, fotl::Formula condition,
                    std::function<void(const TriggerFiring&)> action = nullptr);

  /// Applies `txn` to the internal history and every live substitution
  /// monitor, then evaluates every trigger for every substitution; returns
  /// all firings (and invokes actions).
  Result<std::vector<TriggerFiring>> OnTransaction(const Transaction& txn);

  /// Evaluates triggers against the current history without updating it.
  /// Firings come in registration order, then substitution order (the
  /// odometer over sorted R_D, first parameter fastest).
  Result<std::vector<TriggerFiring>> EvaluateTriggers();

  const History& history() const { return history_; }

  /// Effective options after Create's defaulting (pool, verdict cache).
  const CheckOptions& options() const { return options_; }

 private:
  TriggerManager(std::shared_ptr<fotl::FormulaFactory> fotl_factory,
                 History history, CheckOptions options);

  // One substitution theta of one trigger: its bound monitor until !C theta
  // loses potential satisfaction, then only the (permanent) fired bit.
  struct Substitution {
    std::unique_ptr<Monitor> monitor;
    bool fired = false;
  };
  struct Trigger {
    std::string name;
    fotl::Formula negated;        // universal !C with the same free variables
    std::vector<fotl::VarId> params;  // free variables of C
    std::function<void(const TriggerFiring&)> action;
    std::map<std::vector<Value>, Substitution> substitutions;  // theta by params
  };

  // A monitor for a substitution seen for the first time, caught up through
  // the whole history (`replay` caches the history's transaction stream).
  Result<Substitution> CatchUp(const Trigger& trig, const fotl::Valuation& theta,
                               std::optional<std::vector<Transaction>>* replay);
  // Records a violation as the fired bit (dropping the monitor), or folds the
  // live monitor's history away every kFoldEvery states.
  Status Settle(Substitution* sub);
  static constexpr size_t kFoldEvery = 64;

  std::shared_ptr<fotl::FormulaFactory> ffac_;
  CheckOptions options_;
  // options_ for the substitution monitors: the manager owns the process-wide
  // observers (trace sink), and a monitor's watchdog thread or provenance
  // would be per-substitution overhead the firing text never reads.
  CheckOptions monitor_options_;
  History history_;
  // R_D of history_, sorted: kept up to date from each transaction's inserts
  // (O(delta)) instead of rescanning every state per evaluation.
  std::vector<Value> relevant_;
  std::vector<Trigger> triggers_;
};

}  // namespace checker
}  // namespace tic

#endif  // TIC_CHECKER_TRIGGER_H_
