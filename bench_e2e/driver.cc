// End-to-end benchmark driver: replays one generated spec + transaction stream
// through the public API the way spec::Replay wires it — one checker::Monitor
// per `constraint`, one past::PastMonitor per `past` directive, one
// checker::TriggerManager for the `trigger`s — as a closed loop (one calling
// thread; each transaction is submitted after the previous one returned) and
// times every call from outside.
//
// A run is a sequence of identical *episodes* over the same stream:
//   setup   parse the spec text, create the engines, apply the warm-up prefix
//   timed   apply the timed transactions, one wall-clock sample per update
//           (all engines) plus one per engine call; every `checkpoint_every`
//           updates, Compact + Serialize every monitor
//   final   Compact + Serialize every monitor, Restore them all
//   tail    apply the tail to the live engines and to the restored monitors;
//           the restored verdicts must equal the live ones
// Episodes repeat until --seconds have passed, so set-up is measured several
// times per run and a faster machine adds samples, not a longer history. The
// first episode only warms the process up and is not reported. In --trace 1
// runs untraced and traced episodes alternate: traced episodes additionally
// record a span per update, per engine call and per checkpoint call, kept in
// memory; the per-layer metrics come from those spans, and the untraced
// episodes of the same run give the tracing overhead.
//
// Every verdict — (t, verdict) per constraint and (t, theta) per trigger
// firing — feeds a 64-bit FNV-1a digest per constraint or trigger.
// `--mode oracle` replays the stream once through engines configured as the
// literal paper procedure (progression backend, no router, no cohorts) and
// reports only the digests; run.py compares the two. Digests are kept per
// name so the oracle can run one constraint per process (--only).
//
// The driver writes one JSON object (metrics plus the facts run.py's guards
// check) to --out. It decides nothing about pass/fail except for I/O and
// parse errors (exit 2).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "checker/trigger.h"
#include "common/telemetry/registry.h"
#include "common/telemetry/trace.h"
#include "past/past_monitor.h"
#include "spec/spec.h"

namespace tic {
namespace {

using telemetry::NowNs;

// Cost classes of one update. A `constraint` is pinned to the router route
// the workload declares for it (checked on every verdict), so its monitor's
// ApplyTransaction time is that route's cost.
enum Layer { kJoint, kCohort, kPointAlg, kPastRoute, kPastDirective, kTrigger, kNumLayers };
constexpr const char* kLayerName[kNumLayers] = {
    "route.joint", "route.cohort", "route.pointalg", "route.past", "past", "trigger"};

// Span names of the traced episodes (string literals: TraceEvent keeps the
// pointer).
constexpr const char* kUpdateSpan = "update";
constexpr const char* kCheckpointSpan = "checkpoint";
constexpr const char* kCompactSpan = "checkpoint.compact";
constexpr const char* kSerializeSpan = "checkpoint.serialize";
constexpr const char* kRestoreSpan = "checkpoint.restore";

struct Config {
  std::string spec_path, stream_path, out_path, trace_path;
  bool oracle = false;
  bool trace = false;
  size_t warmup = 0, timed = 0, tail = 0, checkpoint_every = 0;
  double seconds = 1.0;
  std::map<std::string, Layer> routes;  // expected route per constraint
  std::vector<std::string> only;         // engines to build; empty = all
};

// ---------------------------------------------------------------------------
// Verdict digest.

class Digest {
 public:
  Digest() = default;
  // Seeded with the constraint name, so equal verdict streams of different
  // constraints still have different digests.
  explicit Digest(const std::string& name) {
    for (char c : name) Mix(static_cast<unsigned char>(c));
  }
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Verdict codes shared by the live and oracle runs.
// A violation of a safety constraint is permanent, so "violated" and
// "permanently violated" are one verdict of the literal procedure.
uint64_t Code(const checker::MonitorVerdict& v) { return v.potentially_satisfied ? 0 : 1; }
uint64_t Code(const past::PastVerdict& v) { return v.satisfied ? 0 : 1; }

// ---------------------------------------------------------------------------
// Engines.

struct MonitorSlot {
  std::string name;
  Digest digest;
  Layer layer = kJoint;
  std::unique_ptr<checker::Monitor> monitor;
  size_t instances = 0;  // num_instances after the previous update
};
struct PastSlot {
  std::string name;
  Digest digest;
  std::unique_ptr<past::PastMonitor> monitor;
};
struct Engines {
  std::shared_ptr<fotl::FormulaFactory> factory;
  std::vector<MonitorSlot> monitors;
  std::vector<PastSlot> pasts;
  std::unique_ptr<checker::TriggerManager> triggers;
  std::vector<std::string> trigger_names;
  std::vector<Digest> trigger_digests;
};

checker::CheckOptions OracleOptions() {
  checker::CheckOptions o;
  o.backend = checker::MonitorBackend::kProgression;
  o.router = false;
  o.cohort_stepping = false;
  return o;
}

Result<Engines> BuildEngines(const spec::Specification& spec, const Config& cfg) {
  Engines e;
  e.factory = spec.factory;
  // Default CheckOptions are the shipping configuration; the oracle swaps in
  // the literal procedure for the constraints and the triggers alike.
  const checker::CheckOptions options = cfg.oracle ? OracleOptions() : checker::CheckOptions{};
  for (const spec::ConstraintDecl& decl : spec.constraints) {
    if (!cfg.only.empty() &&
        std::find(cfg.only.begin(), cfg.only.end(), decl.name) == cfg.only.end()) {
      continue;
    }
    switch (decl.engine) {
      case spec::ConstraintDecl::Engine::kUniversal: {
        MonitorSlot slot;
        slot.name = decl.name;
        slot.digest = Digest(decl.name);
        auto it = cfg.routes.find(decl.name);
        if (it == cfg.routes.end() && !cfg.oracle) {
          return Status::InvalidArgument("no --route declared for constraint " + decl.name);
        }
        if (it != cfg.routes.end()) slot.layer = it->second;
        // Closed G(past) sentences exist only on the router's past route; the
        // oracle checks them with the literal past evaluator instead (the
        // classical G-past semantics the route is verdict-equivalent to).
        if (cfg.oracle && slot.layer == kPastRoute) {
          TIC_ASSIGN_OR_RETURN(auto m, past::PastMonitor::Create(
                                           spec.factory, decl.formula,
                                           spec.constant_interpretation));
          e.pasts.push_back(PastSlot{decl.name, Digest(decl.name), std::move(m)});
          break;
        }
        TIC_ASSIGN_OR_RETURN(slot.monitor,
                             checker::Monitor::Create(spec.factory, decl.formula,
                                                      spec.constant_interpretation,
                                                      options));
        e.monitors.push_back(std::move(slot));
        break;
      }
      case spec::ConstraintDecl::Engine::kPast: {
        TIC_ASSIGN_OR_RETURN(auto m, past::PastMonitor::Create(
                                         spec.factory, decl.formula,
                                         spec.constant_interpretation));
        e.pasts.push_back(PastSlot{decl.name, Digest(decl.name), std::move(m)});
        break;
      }
      case spec::ConstraintDecl::Engine::kTrigger: {
        if (e.triggers == nullptr) {
          TIC_ASSIGN_OR_RETURN(e.triggers,
                               checker::TriggerManager::Create(
                                   spec.factory, spec.constant_interpretation, options));
        }
        TIC_RETURN_NOT_OK(e.triggers->AddTrigger(decl.name, decl.formula));
        e.trigger_names.push_back(decl.name);
        e.trigger_digests.emplace_back(decl.name);
        break;
      }
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// Measurements.

struct Span {
  const char* name;
  uint32_t update;  // timed-update index, or UINT32_MAX outside updates
  uint64_t start, dur;
};

struct UpdateSample {
  uint64_t wall = 0;        // all engines, outside-in
  uint64_t attributed = 0;  // sum of the timed engine calls inside it
  uint64_t layer[kNumLayers] = {};
  bool fresh = false;  // some monitor's num_instances grew
};

struct Counters {
  uint64_t instances = 0, residual_classes = 0;
  uint64_t memo_steps = 0, memo_hits = 0, live_queries = 0, tableau_states = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t history_states = 0;
};

struct Episode {
  bool traced = false;
  // The first episode of a live run warms the process (allocator, page
  // faults, branch predictors) and is checked but not reported.
  bool process_warmup = false;
  uint64_t parse_ns = 0, create_ns = 0, warmup_ns = 0;
  std::vector<UpdateSample> updates;
  std::vector<uint64_t> checkpoint_ns, compact_ns, serialize_ns;
  uint64_t restore_ns = 0;
  uint64_t snapshot_bytes = 0;
  std::map<std::string, uint64_t> digests;  // per constraint / trigger
  uint64_t attempted = 0, failed = 0, tail_mismatches = 0;
  uint64_t firings = 0, substitutions = 0;
  Counters counters;
  std::vector<std::string> errors;       // failed calls, first few
  std::vector<std::string> route_misses;  // constraint names off their route
  std::vector<std::string> dead;          // permanently violated at the end
  std::vector<Span> spans;
};

uint64_t PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// A constraint is on its route when the route steps all of its instances
// that ground to a real formula. Instances whose grounding folds to a trivial
// unit (stand-in elements, x == y under x != y) always go to the point-algebra
// backend, so cohort and joint constraints may carry some of those beside
// their own instances; the joint remainder is what neither cohorts nor the
// point-algebra backend step.
bool OnRoute(Layer layer, const checker::MonitorVerdict& v) {
  const bool automaton = v.backend == checker::MonitorBackend::kAutomaton;
  const size_t routed = v.num_cohort_instances + v.num_pointalg_instances;
  const size_t joint = v.num_instances >= routed ? v.num_instances - routed : 0;
  switch (layer) {
    case kPastRoute:
      return v.backend == checker::MonitorBackend::kPastStateless;
    case kCohort:
      return automaton && v.num_cohort_instances > 0 && joint == 0 &&
             v.num_cohort_instances >= v.num_pointalg_instances;
    case kPointAlg:
      return automaton && v.num_instances > 0 && v.num_pointalg_instances == v.num_instances;
    case kJoint:
      return automaton && joint > 0 && v.num_cohort_instances == 0;
    default:
      return false;
  }
}

class Runner {
 public:
  Runner(const Config& cfg, std::string spec_text, std::vector<Transaction> steps)
      : cfg_(cfg), spec_text_(std::move(spec_text)), steps_(std::move(steps)) {}

  // One full episode. Returns false on an error that makes the episode
  // meaningless (spec or engine creation failure); call failures during the
  // stream are counted instead.
  bool RunEpisode(bool traced, Episode* ep);

  std::string fatal;

 private:
  void Fail(Episode* ep, const std::string& what, const Status& s) {
    ++ep->failed;
    if (ep->errors.size() < 8) ep->errors.push_back(what + ": " + s.message());
  }
  // Traced episodes record the timed updates and the checkpoint calls.
  void SpanPush(Episode* ep, const char* name, uint32_t update, uint64_t start,
                uint64_t end) {
    if (ep->traced) ep->spans.push_back(Span{name, update, start, end - start});
  }

  // Applies txn `t` to every engine and hashes the verdicts. `sample` is set
  // for timed updates only: they are measured, traced and route-checked.
  void ApplyAll(size_t t, Episode* ep, UpdateSample* sample);
  // Compact + Serialize of every monitor; returns the blobs.
  std::vector<std::string> Checkpoint(Episode* ep);

  const Config& cfg_;
  std::string spec_text_;
  std::vector<Transaction> steps_;
  Engines engines_;
  // Per-call scratch, kept across updates so the timed loop does not allocate.
  std::vector<Result<checker::MonitorVerdict>> monitor_results_;
  std::vector<Result<past::PastVerdict>> past_results_;
  // TriggerManager's own count of the (trigger, substitution) checks it ran.
  telemetry::Counter& trigger_jobs_ = telemetry::Registry::Instance().GetCounter("trigger/jobs");
};

void Runner::ApplyAll(size_t t, Episode* ep, UpdateSample* sample) {
  const Transaction& txn = steps_[t];
  const bool traced = ep->traced && sample != nullptr;
  const uint32_t update = static_cast<uint32_t>(t - cfg_.warmup);
  Result<std::vector<checker::TriggerFiring>> firings = std::vector<checker::TriggerFiring>{};
  monitor_results_.clear();
  past_results_.clear();
  auto record = [&](Layer layer, uint64_t s, uint64_t e) {
    if (sample == nullptr) return;
    if (traced) ep->spans.push_back(Span{kLayerName[layer], update, s, e - s});
    sample->layer[layer] += e - s;
    sample->attributed += e - s;
  };

  const uint64_t jobs0 = traced ? trigger_jobs_.Value() : 0;
  const uint64_t t0 = NowNs();
  for (MonitorSlot& slot : engines_.monitors) {
    const uint64_t s = NowNs();
    monitor_results_.push_back(slot.monitor->ApplyTransaction(txn));
    const uint64_t e = NowNs();
    record(slot.layer, s, e);
  }
  for (PastSlot& slot : engines_.pasts) {
    const uint64_t s = NowNs();
    past_results_.push_back(slot.monitor->ApplyTransaction(txn));
    const uint64_t e = NowNs();
    record(kPastDirective, s, e);
  }
  if (engines_.triggers != nullptr) {
    // Telemetry is on for this call alone, and only in traced updates, so
    // TriggerManager counts its sweep and no other engine pays for it.
    if (traced) telemetry::SetEnabled(true);
    const uint64_t s = NowNs();
    firings = engines_.triggers->OnTransaction(txn);
    const uint64_t e = NowNs();
    if (traced) telemetry::SetEnabled(false);
    record(kTrigger, s, e);
  }
  const uint64_t t1 = NowNs();
  if (sample != nullptr) {
    if (traced) ep->spans.push_back(Span{kUpdateSpan, update, t0, t1 - t0});
    sample->wall = t1 - t0;
  }

  // Bookkeeping, outside the timed window.
  for (size_t i = 0; i < engines_.monitors.size(); ++i) {
    MonitorSlot& slot = engines_.monitors[i];
    ++ep->attempted;
    const auto& r = monitor_results_[i];
    if (!r.ok()) {
      Fail(ep, slot.name, r.status());
      continue;
    }
    const checker::MonitorVerdict& v = *r;
    slot.digest.Mix(t);
    slot.digest.Mix(Code(v));
    if (v.num_instances > slot.instances && sample != nullptr) sample->fresh = true;
    slot.instances = v.num_instances;
    if (!cfg_.oracle && sample != nullptr && !OnRoute(slot.layer, v) &&
        std::none_of(ep->route_misses.begin(), ep->route_misses.end(),
                     [&](const std::string& m) { return m.rfind(slot.name + " ", 0) == 0; })) {
      ep->route_misses.push_back(
          slot.name + " at t=" + std::to_string(t) + ": backend=" +
          std::to_string(static_cast<int>(v.backend)) + " instances=" +
          std::to_string(v.num_instances) + " cohort=" + std::to_string(v.num_cohort_instances) +
          " pointalg=" + std::to_string(v.num_pointalg_instances));
    }
  }
  for (size_t i = 0; i < engines_.pasts.size(); ++i) {
    ++ep->attempted;
    const auto& r = past_results_[i];
    if (!r.ok()) {
      Fail(ep, engines_.pasts[i].name, r.status());
      continue;
    }
    engines_.pasts[i].digest.Mix(t);
    engines_.pasts[i].digest.Mix(Code(*r));
  }
  if (engines_.triggers != nullptr) {
    ++ep->attempted;
    if (!firings.ok()) {
      Fail(ep, "triggers", firings.status());
    } else {
      for (const checker::TriggerFiring& f : *firings) {
        std::vector<std::pair<std::string, Value>> theta;
        for (const auto& [var, val] : f.substitution) {
          theta.emplace_back(engines_.factory->VarName(var), val);
        }
        std::sort(theta.begin(), theta.end());
        const size_t k = static_cast<size_t>(
            std::find(engines_.trigger_names.begin(), engines_.trigger_names.end(), f.trigger) -
            engines_.trigger_names.begin());
        if (k == engines_.trigger_names.size()) {
          Fail(ep, "triggers", Status::Internal("firing of unknown trigger " + f.trigger));
          continue;
        }
        Digest& d = engines_.trigger_digests[k];
        d.Mix(t);
        for (const auto& [name, val] : theta) d.Mix(static_cast<uint64_t>(val));
      }
      if (sample != nullptr) ep->firings += firings->size();
    }
    if (traced) ep->substitutions += trigger_jobs_.Value() - jobs0;
  }
}

std::vector<std::string> Runner::Checkpoint(Episode* ep) {
  std::vector<std::string> blobs;
  uint64_t compact = 0, serialize = 0;
  const uint64_t c0 = NowNs();
  for (MonitorSlot& slot : engines_.monitors) {
    ++ep->attempted;
    uint64_t s = NowNs();
    Status st = slot.monitor->Compact();
    uint64_t e = NowNs();
    SpanPush(ep, kCompactSpan, UINT32_MAX, s, e);
    compact += e - s;
    if (!st.ok()) Fail(ep, slot.name + " compact", st);

    ++ep->attempted;
    s = NowNs();
    Result<std::string> blob = checker::MonitorCheckpoint::Serialize(*slot.monitor);
    e = NowNs();
    SpanPush(ep, kSerializeSpan, UINT32_MAX, s, e);
    serialize += e - s;
    if (!blob.ok()) {
      Fail(ep, slot.name + " serialize", blob.status());
      blobs.emplace_back();
    } else {
      blobs.push_back(std::move(blob).ValueOrDie());
    }
  }
  for (PastSlot& slot : engines_.pasts) {
    ++ep->attempted;
    const uint64_t s = NowNs();
    Status st = slot.monitor->Compact();
    const uint64_t e = NowNs();
    SpanPush(ep, kCompactSpan, UINT32_MAX, s, e);
    compact += e - s;
    if (!st.ok()) Fail(ep, slot.name + " compact", st);
  }
  const uint64_t c1 = NowNs();
  SpanPush(ep, kCheckpointSpan, UINT32_MAX, c0, c1);
  ep->checkpoint_ns.push_back(c1 - c0);
  ep->compact_ns.push_back(compact);
  ep->serialize_ns.push_back(serialize);
  return blobs;
}

bool Runner::RunEpisode(bool traced, Episode* ep) {
  ep->traced = traced;
  const size_t n_warm = cfg_.warmup, n_timed = cfg_.timed, n_tail = cfg_.tail;
  if (traced) ep->spans.reserve((n_timed + n_tail) * 8 + 64);
  ep->updates.resize(n_timed);

  // --- set-up: parse, create, warm up ---
  const uint64_t p0 = NowNs();
  Result<spec::Specification> spec = spec::ParseSpecification(spec_text_);
  const uint64_t p1 = NowNs();
  if (!spec.ok()) {
    fatal = "spec: " + spec.status().message();
    return false;
  }
  Result<Engines> engines = BuildEngines(*spec, cfg_);
  const uint64_t p2 = NowNs();
  if (!engines.ok()) {
    fatal = "engines: " + engines.status().message();
    return false;
  }
  engines_ = std::move(engines).ValueOrDie();
  for (size_t t = 0; t < n_warm; ++t) ApplyAll(t, ep, nullptr);
  const uint64_t p3 = NowNs();
  ep->parse_ns = p1 - p0;
  ep->create_ns = p2 - p1;
  ep->warmup_ns = p3 - p2;
  for (MonitorSlot& slot : engines_.monitors) {
    slot.instances = slot.monitor->last_verdict().num_instances;
  }

  // --- timed phase ---
  for (size_t j = 0; j < n_timed; ++j) {
    ApplyAll(n_warm + j, ep, &ep->updates[j]);
    if (cfg_.checkpoint_every > 0 && (j + 1) % cfg_.checkpoint_every == 0 && j + 1 < n_timed) {
      Checkpoint(ep);
    }
  }
  for (const MonitorSlot& slot : engines_.monitors) {
    const checker::MonitorVerdict& v = slot.monitor->last_verdict();
    Counters& c = ep->counters;
    c.instances += v.num_instances;
    c.residual_classes += v.num_residual_classes;
    c.memo_steps += v.automaton_stats.steps;
    c.memo_hits += v.automaton_stats.memo_hits;
    c.live_queries += v.automaton_stats.live_queries;
    c.tableau_states += v.cumulative_tableau_stats.num_states;
    c.cache_hits += v.verdict_cache_stats.hits;
    c.cache_misses += v.verdict_cache_stats.misses;
    c.history_states += slot.monitor->history().length();
  }
  for (const PastSlot& slot : engines_.pasts) {
    ep->counters.history_states += slot.monitor->history().length();
  }
  if (engines_.triggers != nullptr) {
    ep->counters.history_states += engines_.triggers->history().length();
  }

  // --- final checkpoint, restore ---
  std::vector<std::string> blobs;
  if (!cfg_.oracle) blobs = Checkpoint(ep);
  std::vector<std::unique_ptr<checker::Monitor>> restored(blobs.size());
  const uint64_t r0 = NowNs();
  for (size_t i = 0; i < blobs.size(); ++i) {
    ++ep->attempted;
    ep->snapshot_bytes += blobs[i].size();
    const uint64_t s = NowNs();
    Result<std::unique_ptr<checker::Monitor>> m = checker::MonitorCheckpoint::Restore(blobs[i]);
    const uint64_t e = NowNs();
    SpanPush(ep, kRestoreSpan, UINT32_MAX, s, e);
    if (!m.ok()) {
      Fail(ep, engines_.monitors[i].name + " restore", m.status());
    } else {
      restored[i] = std::move(m).ValueOrDie();
    }
  }
  ep->restore_ns = NowNs() - r0;

  // --- tail: live engines and restored monitors in lockstep ---
  for (size_t t = n_warm + n_timed; t < n_warm + n_timed + n_tail; ++t) {
    ApplyAll(t, ep, nullptr);
    for (size_t i = 0; i < restored.size(); ++i) {
      if (restored[i] == nullptr) continue;
      ++ep->attempted;
      Result<checker::MonitorVerdict> v = restored[i]->ApplyTransaction(steps_[t]);
      if (!v.ok()) {
        Fail(ep, engines_.monitors[i].name + " restored", v.status());
        continue;
      }
      const checker::MonitorVerdict& live = engines_.monitors[i].monitor->last_verdict();
      if (Code(*v) != Code(live) || v->time != live.time) {
        ++ep->tail_mismatches;
        ++ep->failed;
      }
    }
  }
  for (const MonitorSlot& slot : engines_.monitors) {
    if (slot.monitor->last_verdict().permanently_violated) ep->dead.push_back(slot.name);
  }
  for (const PastSlot& slot : engines_.pasts) {  // G-past violations are permanent
    if (!slot.monitor->last_verdict().satisfied) ep->dead.push_back(slot.name);
  }
  // Keyed by constraint name, not by engine kind: the oracle may run a
  // past-route constraint on a PastMonitor.
  for (const MonitorSlot& slot : engines_.monitors) ep->digests[slot.name] = slot.digest.value();
  for (const PastSlot& slot : engines_.pasts) ep->digests[slot.name] = slot.digest.value();
  for (size_t k = 0; k < engines_.trigger_names.size(); ++k) {
    ep->digests[engines_.trigger_names[k]] = engines_.trigger_digests[k].value();
  }
  engines_ = Engines();
  return true;
}

// ---------------------------------------------------------------------------
// Statistics and output.

// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}
double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

struct MetricOut {
  double value;
  const char* unit;
  size_t samples;  // 0 = not a percentile over samples
  double q;
};

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit, size_t samples = 0,
           double q = 0) {
    metrics[name] = MetricOut{value, unit, samples, q};
  }
  std::map<std::string, MetricOut> metrics;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string JsonList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(v[i]) + "\"";
  }
  return out + "]";
}

// Per-update latency percentiles of `walls` (ns) reported in µs.
void AddLatency(Report* r, const std::string& prefix, std::vector<double> walls_us,
                bool with_p99) {
  const size_t n = walls_us.size();
  r->Add(prefix + "p50_us", Percentile(&walls_us, 0.5), "us", n, 0.5);
  if (with_p99) r->Add(prefix + "p99_us", Percentile(&walls_us, 0.99), "us", n, 0.99);
}

// Self time per span name: duration minus the part its child spans cover.
// Spans of one thread nest properly, so a stack over start-sorted spans
// finds each span's parent.
std::map<std::string, uint64_t> SelfTimes(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.dur > b.dur;
  });
  std::map<std::string, uint64_t> self;
  std::vector<size_t> stack;
  std::vector<uint64_t> child(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           spans[stack.back()].start + spans[stack.back()].dur <= spans[i].start) {
      stack.pop_back();
    }
    if (!stack.empty()) child[stack.back()] += spans[i].dur;
    stack.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t d = spans[i].dur;
    self[spans[i].name] += d > child[i] ? d - child[i] : 0;
  }
  return self;
}

// `peak_rss_kb`: the process's peak RSS when its first episode ended, i.e. the
// parsed inputs plus one episode. Later episodes only add the harness's own
// samples, whose number follows the machine's speed.
void BuildReport(const Config& cfg, const std::vector<Episode>& eps, uint64_t peak_rss_kb,
                 Report* r) {
  std::vector<const Episode*> plain, traced;
  for (const Episode& e : eps) {
    if (!e.process_warmup) (e.traced ? traced : plain).push_back(&e);
  }

  // --- end-to-end, from untraced episodes ---
  // Update latency and throughput are taken per episode and reported as the
  // median over episodes, so a burst of host noise that slows a few episodes
  // does not move them.
  std::vector<double> setup, walls, p50s, p99s, rates, checkpoints, restores, bytes;
  double wall_sum = 0, attributed_sum = 0;
  size_t min_updates = SIZE_MAX;
  for (const Episode* e : plain) {
    setup.push_back(static_cast<double>(e->parse_ns + e->create_ns + e->warmup_ns) * 1e-9);
    std::vector<double> ep_walls;
    double ep_sum = 0;
    for (const UpdateSample& u : e->updates) {
      ep_walls.push_back(static_cast<double>(u.wall) * 1e-3);
      ep_sum += static_cast<double>(u.wall);
      attributed_sum += static_cast<double>(u.attributed);
    }
    walls.insert(walls.end(), ep_walls.begin(), ep_walls.end());
    wall_sum += ep_sum;
    min_updates = std::min(min_updates, ep_walls.size());
    rates.push_back(ep_sum > 0 ? static_cast<double>(ep_walls.size()) / (ep_sum * 1e-9) : 0);
    p50s.push_back(Percentile(&ep_walls, 0.5));
    p99s.push_back(Percentile(&ep_walls, 0.99));
    for (uint64_t c : e->checkpoint_ns) checkpoints.push_back(static_cast<double>(c) * 1e-6);
    restores.push_back(static_cast<double>(e->restore_ns) * 1e-6);
    bytes.push_back(static_cast<double>(e->snapshot_bytes));
  }
  r->Add("setup_s", Median(setup), "s");
  r->Add("updates_per_s", Median(rates), "1/s");
  // The percentile gate holds for every episode's own sample.
  r->Add("update_p50_us", Median(p50s), "us", min_updates, 0.5);
  r->Add("update_p99_us", Median(p99s), "us", min_updates, 0.99);
  const size_t n_ckpt = checkpoints.size();
  r->Add("checkpoint_p50_ms", Percentile(&checkpoints, 0.5), "ms",
         cfg.checkpoint_every > 0 ? n_ckpt : 0, 0.5);
  r->Add("restore_ms", Median(restores), "ms");
  r->Add("snapshot_bytes", Median(bytes), "bytes");
  r->Add("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0, "MB");
  r->Add("ledger.untraced_unattributed_share",
         wall_sum > 0 ? (wall_sum - attributed_sum) / wall_sum : 0, "share");
  if (!cfg.trace) return;

  // --- per layer, from traced episodes ---
  std::vector<double> parse, create, warm, t_walls, fresh_walls, steady_walls, compact,
      serialize, t_restore, firings, substitutions;
  std::vector<Span> spans;
  size_t fresh = 0;
  for (const Episode* e : traced) {
    parse.push_back(static_cast<double>(e->parse_ns) * 1e-6);
    create.push_back(static_cast<double>(e->create_ns) * 1e-6);
    warm.push_back(static_cast<double>(e->warmup_ns) * 1e-6);
    for (const UpdateSample& u : e->updates) {
      const double us = static_cast<double>(u.wall) * 1e-3;
      t_walls.push_back(us);
      (u.fresh ? fresh_walls : steady_walls).push_back(us);
      fresh += u.fresh ? 1 : 0;
    }
    for (uint64_t c : e->compact_ns) compact.push_back(static_cast<double>(c) * 1e-6);
    for (uint64_t c : e->serialize_ns) serialize.push_back(static_cast<double>(c) * 1e-6);
    t_restore.push_back(static_cast<double>(e->restore_ns) * 1e-6);
    firings.push_back(static_cast<double>(e->firings));
    substitutions.push_back(static_cast<double>(e->substitutions));
    spans.insert(spans.end(), e->spans.begin(), e->spans.end());
  }
  // Per-update layer cost, summed over the layer's calls in that update.
  std::vector<std::vector<double>> per_update(kNumLayers);
  std::map<std::string, int> layer_of;
  for (int l = 0; l < kNumLayers; ++l) layer_of[kLayerName[l]] = l;
  {
    std::map<std::pair<int, uint64_t>, uint64_t> sums;  // (layer, episode-update key)
    uint64_t episode_key = 0;
    for (const Episode* e : traced) {
      for (const Span& s : e->spans) {
        auto it = layer_of.find(s.name);
        if (it == layer_of.end() || s.update == UINT32_MAX) continue;
        sums[{it->second, (episode_key << 32) | s.update}] += s.dur;
      }
      ++episode_key;
    }
    for (const auto& [key, ns] : sums) {
      per_update[key.first].push_back(static_cast<double>(ns) * 1e-3);
    }
  }
  const std::map<std::string, uint64_t> self = SelfTimes(spans);
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second);
  };
  double update_total = 0;
  for (const Span& s : spans) {
    if (s.name == kUpdateSpan) update_total += static_cast<double>(s.dur);
  }
  auto share = [&](const char* name) { return update_total > 0 ? self_of(name) / update_total : 0; };

  r->Add("spec.parse_ms", Median(parse), "ms");
  r->Add("monitor.create_ms", Median(create), "ms");
  r->Add("monitor.warmup_ms", Median(warm), "ms");
  const Counters& c = traced.back()->counters;
  r->Add("monitor.instances", static_cast<double>(c.instances), "count");
  r->Add("monitor.residual_classes", static_cast<double>(c.residual_classes), "count");
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string prefix = std::string(kLayerName[l]) + ".";
    AddLatency(r, prefix, per_update[l], l == kTrigger);
    r->Add(prefix + "share", share(kLayerName[l]), "share");
  }
  r->Add("grounding.fresh_share",
         t_walls.empty() ? 0 : static_cast<double>(fresh) / static_cast<double>(t_walls.size()),
         "share");
  AddLatency(r, "grounding.fresh_", fresh_walls, false);
  AddLatency(r, "grounding.steady_", steady_walls, false);
  r->Add("trigger.firings", Median(firings), "count");
  r->Add("trigger.substitutions", Median(substitutions), "count");
  r->Add("ptl.memo_hit_rate",
         c.memo_steps > 0 ? static_cast<double>(c.memo_hits) / static_cast<double>(c.memo_steps)
                          : 0,
         "share");
  r->Add("ptl.live_queries", static_cast<double>(c.live_queries), "count");
  r->Add("ptl.tableau_states", static_cast<double>(c.tableau_states), "count");
  r->Add("ptl.verdict_cache_hit_rate",
         c.cache_hits + c.cache_misses > 0
             ? static_cast<double>(c.cache_hits) / static_cast<double>(c.cache_hits + c.cache_misses)
             : 0,
         "share");
  {
    const size_t n = compact.size();
    r->Add("checkpoint.compact_ms", Percentile(&compact, 0.5), "ms",
           cfg.checkpoint_every > 0 ? n : 0, 0.5);
    r->Add("checkpoint.serialize_ms", Percentile(&serialize, 0.5), "ms",
           cfg.checkpoint_every > 0 ? n : 0, 0.5);
  }
  r->Add("checkpoint.restore_ms", Median(t_restore), "ms");
  r->Add("db.history_states", static_cast<double>(c.history_states), "count");
  r->Add("ledger.unattributed_share", share(kUpdateSpan), "share");
  // Tracing overhead: traced against untraced update p50 of the same run
  // (episodes alternate, so both sides see the same machine state).
  std::vector<double> plain_walls = walls;
  const double p50_plain = Percentile(&plain_walls, 0.5);
  const double p50_traced = Percentile(&t_walls, 0.5);
  r->Add("trace.overhead_share", p50_plain > 0 ? p50_traced / p50_plain - 1.0 : 0, "share");
  r->Add("update.samples", static_cast<double>(t_walls.size()), "count");
}

bool WriteTrace(const std::string& path, const Episode& ep) {
  telemetry::TraceSink sink(ep.spans.size() + 16);
  const uint32_t tid = telemetry::internal::CurrentThreadId();
  for (const Span& s : ep.spans) sink.Append(telemetry::TraceEvent{s.name, s.start, s.dur, tid});
  return sink.WriteChromeTrace(path);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool ParseLayer(const std::string& s, Layer* out) {
  static const std::map<std::string, Layer> kNames = {
      {"joint", kJoint}, {"cohort", kCohort}, {"pointalg", kPointAlg}, {"past", kPastRoute}};
  auto it = kNames.find(s);
  if (it == kNames.end()) return false;
  *out = it->second;
  return true;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_driver: %s\nusage: e2e_driver --spec F --stream F --out F "
               "[--mode live|oracle] [--warmup N] [--timed N] [--tail N] "
               "[--checkpoint-every K] [--seconds S] [--trace 0|1] [--trace-out F] "
               "[--only name,...] "
               "[--route name=joint|cohort|pointalg|past]...\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    auto num = [&](size_t* out) { *out = std::strtoull(val.c_str(), nullptr, 10); };
    if (flag == "--spec") cfg.spec_path = val;
    else if (flag == "--stream") cfg.stream_path = val;
    else if (flag == "--out") cfg.out_path = val;
    else if (flag == "--trace-out") cfg.trace_path = val;
    else if (flag == "--mode" && (val == "live" || val == "oracle")) cfg.oracle = val == "oracle";
    else if (flag == "--warmup") num(&cfg.warmup);
    else if (flag == "--timed") num(&cfg.timed);
    else if (flag == "--tail") num(&cfg.tail);
    else if (flag == "--checkpoint-every") num(&cfg.checkpoint_every);
    else if (flag == "--seconds") cfg.seconds = std::strtod(val.c_str(), nullptr);
    else if (flag == "--trace" && (val == "0" || val == "1")) cfg.trace = val == "1";
    else if (flag == "--only") {
      std::stringstream names(val);
      for (std::string name; std::getline(names, name, ',');) cfg.only.push_back(name);
    }
    else if (flag == "--route") {
      const size_t eq = val.find('=');
      Layer layer;
      if (eq == std::string::npos || !ParseLayer(val.substr(eq + 1), &layer)) {
        return Usage(("bad --route " + val).c_str());
      }
      cfg.routes[val.substr(0, eq)] = layer;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.spec_path.empty() || cfg.stream_path.empty() || cfg.out_path.empty()) {
    return Usage("--spec, --stream and --out are required");
  }
  std::string spec_text, stream_text;
  if (!ReadFile(cfg.spec_path, &spec_text) || !ReadFile(cfg.stream_path, &stream_text)) {
    std::fprintf(stderr, "e2e_driver: cannot read inputs\n");
    return 2;
  }
  // The transactions are parsed once, outside every measurement: the spec
  // text declares the predicates their `step` lines refer to.
  Result<spec::Specification> full = spec::ParseSpecification(spec_text + "\n" + stream_text);
  if (!full.ok()) {
    std::fprintf(stderr, "e2e_driver: stream: %s\n", full.status().message().c_str());
    return 2;
  }
  const size_t needed = cfg.warmup + cfg.timed + cfg.tail;
  if (full->steps.size() < needed) {
    std::fprintf(stderr, "e2e_driver: stream has %zu steps, need %zu\n", full->steps.size(),
                 needed);
    return 2;
  }
  if (cfg.oracle) {
    // One literal-procedure pass over the whole stream: no checkpoints, no
    // restore (the timed phase and the tail are just more stream).
    cfg.warmup = needed;
    cfg.timed = cfg.tail = 0;
  }
  Runner runner(cfg, spec_text, std::move(full->steps));

  std::vector<Episode> episodes;
  uint64_t peak_rss_kb = 0;
  {
    const uint64_t start = NowNs();
    // Live runs: one process warm-up episode, then at least three reported
    // ones (--trace 1: untraced and traced alternate, at least two of each).
    const size_t min_eps = cfg.oracle ? 1 : cfg.trace ? 5 : 4;
    while (episodes.size() < min_eps ||
           (!cfg.oracle && static_cast<double>(NowNs() - start) * 1e-9 < cfg.seconds)) {
      const bool traced = cfg.trace && episodes.size() % 2 == 0 && !episodes.empty();
      episodes.emplace_back();
      Episode& ep = episodes.back();
      ep.process_warmup = !cfg.oracle && episodes.size() == 1;
      if (!runner.RunEpisode(traced, &ep)) {
        std::fprintf(stderr, "e2e_driver: %s\n", runner.fatal.c_str());
        return 2;
      }
      if (episodes.size() == 1) peak_rss_kb = PeakRssKb();
      std::vector<double> walls;
      for (const UpdateSample& u : ep.updates) walls.push_back(static_cast<double>(u.wall) * 1e-3);
      std::string layers;
      for (int l = 0; l < kNumLayers; ++l) {
        std::vector<double> v;
        for (const UpdateSample& u : ep.updates) {
          if (u.layer[l] > 0) v.push_back(static_cast<double>(u.layer[l]) * 1e-3);
        }
        if (v.empty()) continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s %.2f", kLayerName[l], Percentile(&v, 0.5));
        layers += buf;
      }
      std::fprintf(stderr,
                   "e2e_driver: episode %zu%s: setup %.1f ms, update p50 %.2f us (%s), "
                   "%zu checkpoints, restore %.2f ms\n",
                   episodes.size(), traced ? " (traced)" : "",
                   static_cast<double>(ep.parse_ns + ep.create_ns + ep.warmup_ns) * 1e-6,
                   Percentile(&walls, 0.5), layers.c_str() + (layers.empty() ? 0 : 1),
                   ep.checkpoint_ns.size(), static_cast<double>(ep.restore_ns) * 1e-6);
    }
    if (cfg.trace && !cfg.trace_path.empty()) {
      for (const Episode& e : episodes) {
        if (!e.traced) continue;
        if (!WriteTrace(cfg.trace_path, e)) {
          std::fprintf(stderr, "e2e_driver: cannot write %s\n", cfg.trace_path.c_str());
          return 2;
        }
        break;
      }
    }
  }

  Report report;
  if (!cfg.oracle) BuildReport(cfg, episodes, peak_rss_kb, &report);

  // Facts for run.py's guards.
  std::map<std::string, std::vector<std::string>> digests;  // distinct per episode
  std::vector<std::string> errors, route_misses, dead;
  uint64_t attempted = 0, failed = 0, tail_mismatches = 0, timed_updates = 0, timed_fresh = 0,
           firings = 0;
  for (const Episode& e : episodes) {
    for (const auto& [name, d] : e.digests) {
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(d));
      std::vector<std::string>& seen = digests[name];
      if (std::find(seen.begin(), seen.end(), hex) == seen.end()) seen.push_back(hex);
    }
    attempted += e.attempted;
    failed += e.failed;
    tail_mismatches += e.tail_mismatches;
    timed_updates += e.updates.size();
    for (const UpdateSample& u : e.updates) timed_fresh += u.fresh ? 1 : 0;
    firings += e.firings;
    for (const auto& s : e.errors) if (errors.size() < 8) errors.push_back(s);
    for (const auto& s : e.route_misses) {
      if (std::find(route_misses.begin(), route_misses.end(), s) == route_misses.end()) {
        route_misses.push_back(s);
      }
    }
    for (const auto& s : e.dead) {
      if (std::find(dead.begin(), dead.end(), s) == dead.end()) dead.push_back(s);
    }
  }

  std::ostringstream out;
  out.precision(17);
  out << "{\"episodes\": " << episodes.size() << ", \"digests\": {";
  for (auto it = digests.begin(); it != digests.end(); ++it) {
    out << (it == digests.begin() ? "" : ", ") << "\"" << JsonEscape(it->first)
        << "\": " << JsonList(it->second);
  }
  out << "}, \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"tail_mismatches\": " << tail_mismatches << ", \"timed_updates\": " << timed_updates
      << ", \"timed_fresh_updates\": " << timed_fresh << ", \"firings\": " << firings
      << ", \"errors\": " << JsonList(errors) << ", \"route_misses\": " << JsonList(route_misses)
      << ", \"dead\": " << JsonList(dead) << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : -1.0) << ", \"finite\": "
        << (std::isfinite(m.value) ? "true" : "false") << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << ", \"q\": " << m.q << "}";
    first = false;
  }
  out << "}}\n";
  std::ofstream f(cfg.out_path);
  f << out.str();
  f.close();
  if (!f) {
    std::fprintf(stderr, "e2e_driver: cannot write %s\n", cfg.out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace tic

int main(int argc, char** argv) { return tic::Main(argc, argv); }
