"""Seeded workload generator for the end-to-end benchmark.

Every input of a run comes from here: the spec text (predicates, constraints,
`past` directives, triggers) and the transaction stream, as `step` lines of the
spec format (src/spec/spec.h). Events are one-state pulses: a step inserts this
instant's events and deletes the previous instant's.

All randomness goes through random.Random(seed).random(), whose sequence is
stable across Python versions, and the arithmetic below — never randrange or
choice, whose algorithms have changed between versions.

Why each workload exists (also in BENCHMARK.json):

  oltp_steady    recurring, bounded keys. A warm-up prefix touches every key,
                 so the timed phase sees no fresh element: the automaton memo,
                 the cohort gather, the point-algebra watched literals and the
                 past deltas do the work; grounding, triggers and mid-stream
                 checkpoints do none.
  orders_growth  every order id is new, so a fresh element arrives on
                 every other update, and Compact + Serialize run every
                 `checkpoint_every` updates: fresh discovery, grounding
                 catch-up and checkpoint writes and reads do the work.
  alerts_mixed   oltp_steady's stream on a smaller domain plus a trigger
                 through TriggerManager, whose per-update sweep re-checks the
                 whole history per substitution: triggers dominate here and
                 nowhere else.
"""

import hashlib
import random

# Formulas. The route each `constraint` must take through the monitor's router
# is declared with it and asserted on every timed verdict.
NO_DOUBLE_LOGIN = ("forall u . G (Login(u) -> X !((!Logout(u)) until Login(u)))", "cohort")
FIFO = ("forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
        "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))", "joint")
SUB_BEFORE_FILL = ("forall x . !((!Sub(x)) until (Fill(x) & !Sub(x)))", "pointalg")
AUDITED_CLOSED = ("G (forall x . (Fill(x) -> O Sub(x)))", "past")
SUBMIT_ONCE = ("forall x . G (Sub(x) -> X G !Sub(x))", "cohort")
AUDITED_PAST = "forall x . G (Fill(x) -> O Sub(x))"
DUP_TRIGGER = "F (Sub(x) & X F Sub(x))"

# Most orders orders_growth keeps waiting for their fill.
MAX_PENDING = 6


class Rng:
    def __init__(self, seed):
        self._r = random.Random(seed)

    def uniform(self):
        return self._r.random()

    def below(self, n):
        return min(int(self._r.random() * n), n - 1)


def zipf_cdf(n, s):
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def draw(rng, cdf):
    u = rng.uniform()
    for i, c in enumerate(cdf):
        if u <= c:
            return i
    return len(cdf) - 1


def step_line(deletes, inserts):
    ops = ["-%s(%d)" % d for d in deletes] + ["+%s(%d)" % i for i in inserts]
    return "step " + " ".join(ops) if ops else "step"


def pulses(events):
    """Turns per-instant event lists into step lines (insert now, delete next)."""
    lines, prev = [], []
    for ev in events:
        lines.append(step_line(prev, ev))
        prev = ev
    return lines


def oltp_events(rng, users, orders, n_random, zipf_s):
    """Sessions over Zipf-skewed users and a FIFO queue over a reused order
    pool. A key-touching prefix (every user logs in and out, every order is
    submitted and filled) comes first; its length is returned with the events.
    """
    events = []
    for i in range(max(len(users), len(orders))):
        first, second = [], []
        if i < len(users):
            first.append(("Login", users[i]))
            second.append(("Logout", users[i]))
        if i < len(orders):
            first.append(("Sub", orders[i]))
            second.append(("Fill", orders[i]))
        events += [first, second]
    prefix = len(events)

    cdf = zipf_cdf(len(users), zipf_s)
    logged_in = set()
    queue, free = [], list(orders)
    for _ in range(n_random):
        ev = []
        if rng.uniform() < 0.6:
            u = users[draw(rng, cdf)]
            if u in logged_in:
                logged_in.discard(u)
                ev.append(("Logout", u))
            else:
                logged_in.add(u)
                ev.append(("Login", u))
        r = rng.uniform()
        if queue and (r < 0.35 or not free):
            o = queue.pop(0)
            free.append(o)
            ev.append(("Fill", o))
        elif free and r > 0.55:
            # The pool is reused in rotation, so the joint FIFO automaton
            # revisits a bounded set of queue shapes (its memo's steady state).
            o = free.pop(0)
            queue.append(o)
            ev.append(("Sub", o))
        events.append(ev)
    return events, prefix


def growth_events(rng, n):
    """Every order id is new: a fresh id is submitted on every other update,
    pending ones are filled in random order, no id is reused. At most
    MAX_PENDING orders wait for their fill, so every seed grows the domain at
    the same rate and keeps a like amount of open work."""
    events, pending, next_id = [], [], 1
    for i in range(n):
        ev = []
        if i % 2 == 0:
            ev.append(("Sub", next_id))
            pending.append(next_id)
            next_id += 1
        # Fill only orders submitted at least one instant ago.
        ready = [o for o in pending if ("Sub", o) not in ev]
        if ready and (rng.uniform() < 0.5 or len(ready) > MAX_PENDING):
            o = ready[rng.below(min(len(ready), 4))]
            pending.remove(o)
            ev.append(("Fill", o))
        events.append(ev)
    return events


def spec_text(predicates, constraints, pasts=(), triggers=()):
    lines = ["predicate %s/1" % p for p in predicates]
    lines += ["constraint %s : %s" % (name, f) for name, (f, _) in constraints]
    lines += ["past %s : %s" % (name, f) for name, f in pasts]
    lines += ["trigger %s : %s" % (name, f) for name, f in triggers]
    return "\n".join(lines) + "\n"


def make(workload, seed):
    """Returns (spec_text, stream_text, params) for `workload` at `seed`.

    params: warmup/timed/tail step counts, checkpoint_every, the expected route
    of each constraint, and the workload's guard expectations.
    """
    rng = Rng(hash_seed(workload, seed))
    if workload == "oltp_steady":
        users = list(range(101, 101 + 12))
        orders = list(range(1, 5))
        warm_random, timed, tail = 400, 3000, 50
        events, prefix = oltp_events(rng, users, orders, warm_random + timed + tail, 1.1)
        constraints = [("no_double_login", NO_DOUBLE_LOGIN), ("fifo", FIFO),
                       ("sub_before_fill", SUB_BEFORE_FILL),
                       ("audited_closed", AUDITED_CLOSED)]
        spec = spec_text(["Login", "Logout", "Sub", "Fill"], constraints,
                         pasts=[("audited", AUDITED_PAST)])
        params = dict(warmup=prefix + warm_random, timed=timed, tail=tail,
                      checkpoint_every=0, expect_steady=True, expect_firings=False)
    elif workload == "orders_growth":
        warm, timed, tail = 400, 2000, 50
        events = growth_events(rng, warm + timed + tail)
        constraints = [("submit_once", SUBMIT_ONCE),
                       ("sub_before_fill", SUB_BEFORE_FILL),
                       ("audited_closed", AUDITED_CLOSED)]
        spec = spec_text(["Sub", "Fill"], constraints)
        params = dict(warmup=warm, timed=timed, tail=tail, checkpoint_every=200,
                      expect_steady=False, expect_firings=False)
    elif workload == "alerts_mixed":
        users = list(range(101, 101 + 6))
        orders = list(range(1, 5))
        # The random warm-up lets the joint FIFO automaton meet its queue
        # shapes before timing, so the tail here is the triggers' own.
        warm_random, timed, tail = 200, 1000, 20
        events, prefix = oltp_events(rng, users, orders, warm_random + timed + tail, 1.1)
        constraints = [("no_double_login", NO_DOUBLE_LOGIN), ("fifo", FIFO),
                       ("sub_before_fill", SUB_BEFORE_FILL),
                       ("audited_closed", AUDITED_CLOSED)]
        spec = spec_text(["Login", "Logout", "Sub", "Fill"], constraints,
                         pasts=[("audited", AUDITED_PAST)],
                         triggers=[("dup", DUP_TRIGGER)])
        params = dict(warmup=prefix + warm_random, timed=timed, tail=tail,
                      checkpoint_every=0, expect_steady=True, expect_firings=True)
    else:
        raise KeyError(workload)
    params["routes"] = {name: route for name, (_, route) in constraints}
    stream = "\n".join(pulses(events)) + "\n"
    return spec, stream, params


def hash_seed(workload, seed):
    digest = hashlib.sha256(("%s/%d" % (workload, seed)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


WORKLOADS = ("oltp_steady", "orders_growth", "alerts_mixed")
