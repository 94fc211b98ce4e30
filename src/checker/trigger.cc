#include "checker/trigger.h"

#include <algorithm>

#include "checker/provenance.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "fotl/classify.h"
#include "ptl/verdict_cache.h"

namespace tic {
namespace checker {

TriggerManager::TriggerManager(std::shared_ptr<fotl::FormulaFactory> fotl_factory,
                               History history, CheckOptions options)
    : ffac_(std::move(fotl_factory)),
      options_(options),
      history_(std::move(history)),
      relevant_(history_.RelevantSet()) {
  options_.want_witness = false;  // triggers only need the verdict
  // Substitution monitors are letter-renamings of each other, so a shared
  // renaming-invariant verdict cache collapses them to one tableau run each.
  if (options_.tableau.verdict_cache == nullptr) {
    options_.tableau.verdict_cache = std::make_shared<ptl::VerdictCache>();
  }
  // Same sharing for the automaton backend: one compiled transition system
  // (and one transition memo) serves every substitution of a trigger.
  if (options_.backend == MonitorBackend::kAutomaton &&
      options_.automaton_cache == nullptr) {
    options_.automaton_cache = std::make_shared<ptl::AutomatonCache>();
  }
  if (options_.thread_pool == nullptr && options_.threads > 1) {
    options_.thread_pool = std::make_shared<ThreadPool>(options_.threads - 1);
  }
  if (options_.trace_sink != nullptr) {
    telemetry::SetTraceSink(options_.trace_sink);
    telemetry::SetEnabled(true);
  }
  monitor_options_ = options_;
  monitor_options_.trace_sink = nullptr;
  monitor_options_.watchdog_ms = 0;
  monitor_options_.provenance = false;
}

Result<std::unique_ptr<TriggerManager>> TriggerManager::Create(
    std::shared_ptr<fotl::FormulaFactory> fotl_factory,
    std::vector<Value> constant_interp, CheckOptions options) {
  TIC_ASSIGN_OR_RETURN(
      History h,
      History::Create(fotl_factory->vocabulary(), std::move(constant_interp)));
  return std::unique_ptr<TriggerManager>(
      new TriggerManager(std::move(fotl_factory), std::move(h), options));
}

Status TriggerManager::AddTrigger(std::string name, fotl::Formula condition,
                                  std::function<void(const TriggerFiring&)> action) {
  // Dualize: C == exists y1..ym . rho   =>   !C == forall y1..ym . !rho.
  std::vector<fotl::VarId> exist_vars;
  fotl::Formula body = condition;
  while (body->kind() == fotl::NodeKind::kExists) {
    exist_vars.push_back(body->var());
    body = body->child(0);
  }
  fotl::Formula negated = ffac_->Not(body);
  for (auto it = exist_vars.rbegin(); it != exist_vars.rend(); ++it) {
    negated = ffac_->Forall(*it, negated);
  }

  fotl::Classification c = fotl::Classify(negated);
  if (!c.universal) {
    return Status::NotSupported(
        "trigger condition must be existential over a quantifier-free "
        "future-tense body (class exists* tense(Sigma_0)); its negation "
        "then falls in the decidable universal fragment of Theorem 4.2");
  }

  Trigger t;
  t.name = std::move(name);
  t.negated = negated;
  t.params = condition->free_vars();
  t.action = std::move(action);
  triggers_.push_back(std::move(t));
  return Status::OK();
}

Status TriggerManager::Settle(Substitution* sub) {
  if (!sub->monitor->last_verdict().potentially_satisfied) {
    sub->fired = true;
    sub->monitor.reset();
    return Status::OK();
  }
  // Fold once the stored history reaches kFoldEvery states: N live
  // substitutions then cost O(N) state, not O(N * t), while the re-placement
  // a fold forces on the next update is paid once per kFoldEvery updates. A
  // fold too wide to enumerate leaves the monitor unchanged (and correct),
  // just not flat.
  if (sub->monitor->history().length() < kFoldEvery) return Status::OK();
  Status folded = sub->monitor->Compact();
  return folded.IsResourceExhausted() ? Status::OK() : folded;
}

Result<TriggerManager::Substitution> TriggerManager::CatchUp(
    const Trigger& trig, const fotl::Valuation& theta,
    std::optional<std::vector<Transaction>>* replay) {
  if (!replay->has_value()) {
    TIC_ASSIGN_OR_RETURN(*replay, TransactionsFromHistory(history_));
  }
  Substitution sub;
  TIC_ASSIGN_OR_RETURN(
      sub.monitor, Monitor::Create(ffac_, trig.negated,
                                   history_.constant_interpretation(),
                                   monitor_options_, MonitorMode::kEager, theta));
  for (const Transaction& txn : **replay) {
    TIC_RETURN_NOT_OK(sub.monitor->ApplyTransaction(txn).status());
    TIC_RETURN_NOT_OK(Settle(&sub));
    if (sub.fired) break;
  }
  return sub;
}

Result<std::vector<TriggerFiring>> TriggerManager::EvaluateTriggers() {
  std::vector<TriggerFiring> firings;
  if (history_.empty()) return firings;
  size_t now = history_.length() - 1;
  const std::vector<Value> degenerate = {0};  // while R_D is empty
  const std::vector<Value>& relevant = relevant_.empty() ? degenerate : relevant_;

  // The replayed stream for first-seen substitutions, rebuilt at most once
  // per call.
  std::optional<std::vector<Transaction>> replay;
  std::vector<const Trigger*> fired_by;
  size_t checks = 0;
  for (Trigger& trig : triggers_) {
    size_t p = trig.params.size();
    std::vector<size_t> idx(p, 0);
    std::vector<Value> key(p);
    while (true) {
      for (size_t i = 0; i < p; ++i) key[i] = relevant[idx[i]];
      auto theta = [&] {
        fotl::Valuation v;
        for (size_t i = 0; i < p; ++i) v[trig.params[i]] = key[i];
        return v;
      };
      auto it = trig.substitutions.find(key);
      if (it == trig.substitutions.end()) {
        TIC_ASSIGN_OR_RETURN(Substitution fresh, CatchUp(trig, theta(), &replay));
        it = trig.substitutions.emplace(key, std::move(fresh)).first;
      }
      ++checks;
      if (it->second.fired) {
        TriggerFiring firing{trig.name, now, theta(), {}};
        if (options_.provenance) {
          // The duality of Section 2, spelled out: the firing IS a violation
          // verdict for the negated condition under this substitution, and
          // violations of safety sentences are permanent.
          std::string& e = firing.explanation;
          e += "trigger \"" + firing.trigger + "\" fired at t=";
          e += std::to_string(now);
          e += " for [";
          for (size_t i = 0; i < p; ++i) {
            if (i > 0) e += ", ";
            e += ffac_->VarName(trig.params[i]);
            e += "=";
            e += std::to_string(key[i]);
          }
          e += "]: no extension of the history can falsify the condition (the "
               "negated condition lost potential satisfaction; its residual "
               "collapsed to false)";
        }
        firings.push_back(std::move(firing));
        fired_by.push_back(&trig);
      }
      size_t d = 0;
      while (d < p && ++idx[d] == relevant.size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == p) break;
    }
  }
  TIC_COUNTER_ADD("trigger/jobs", checks);
  // Actions run only once every check succeeded, in firing order.
  for (size_t i = 0; i < firings.size(); ++i) {
    if (fired_by[i]->action) fired_by[i]->action(firings[i]);
  }
  return firings;
}

Result<std::vector<TriggerFiring>> TriggerManager::OnTransaction(
    const Transaction& txn) {
  TIC_RETURN_NOT_OK(ApplyTransaction(&history_, txn));
  // An element joins R_D only through an insert that survives the
  // transaction.
  const DatabaseState& state = history_.state(history_.length() - 1);
  for (const UpdateOp& op : txn) {
    if (op.kind != UpdateOp::Kind::kInsert || !state.Holds(op.predicate, op.tuple)) {
      continue;
    }
    for (Value v : op.tuple) {
      auto at = std::lower_bound(relevant_.begin(), relevant_.end(), v);
      if (at == relevant_.end() || *at != v) relevant_.insert(at, v);
    }
  }
  for (Trigger& trig : triggers_) {
    for (auto& [key, sub] : trig.substitutions) {
      (void)key;
      if (sub.monitor == nullptr) continue;
      TIC_RETURN_NOT_OK(sub.monitor->ApplyTransaction(txn).status());
      TIC_RETURN_NOT_OK(Settle(&sub));
    }
  }
  return EvaluateTriggers();
}

}  // namespace checker
}  // namespace tic
