"""Simulated-annealing local search over assignments.

Used both as the per-round local search of the main solver and, with fresh
random restarts, as the standalone "sa" baseline in the benchmark harness.
The cost function is the number of unsatisfied clauses. A flip's delta is
read from per-clause true-literal counts over the flipped variable's clauses:
+1 for each clause whose only true literal it falsifies, -1 for each clause
with no true literal that it satisfies.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .cnf import Assignment, Formula, count_unsat


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear temperature schedule from t_max down to t_min."""

    t_max: float
    t_min: float
    steps: int
    repeats: int

    def __post_init__(self):
        if not (self.t_max >= self.t_min > 0):
            raise ValueError("require t_max >= t_min > 0")
        if self.steps < 1 or self.repeats < 1:
            raise ValueError("steps and repeats must be >= 1")

    def temperature(self, t: int) -> float:
        if self.steps == 1:
            return self.t_max
        frac = t / (self.steps - 1)
        return self.t_max + (self.t_min - self.t_max) * frac


_STEP_ANCHORS = ((20, 1000), (50, 2000), (75, 4000), (100, 6000))
_MIN_STEPS = 500
# local_search reads the clock once per this many steps, not once per step.
_CLOCK_STEPS = 1024


def _interp_steps(n: int) -> int:
    """Piecewise-linear in n through the anchor sizes, extrapolated at the
    ends using the nearest segment's slope, never below _MIN_STEPS."""
    anchors = _STEP_ANCHORS
    if n <= anchors[0][0]:
        (x0, y0), (x1, y1) = anchors[0], anchors[1]
    elif n >= anchors[-1][0]:
        (x0, y0), (x1, y1) = anchors[-2], anchors[-1]
    else:
        for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
            if x0 <= n <= x1:
                break
    steps = y0 + (y1 - y0) * (n - x0) / (x1 - x0)
    return max(_MIN_STEPS, int(round(steps)))


def default_schedule(n: int) -> AnnealSchedule:
    """Size-scaled defaults: t_max = 0.1 n, t_min = 5e-5 / n, two repeats.

    Step counts hit 1000/2000/4000/6000 at n = 20/50/75/100 and interpolate
    linearly in between. The t_min rule is intentionally tiny (effectively
    greedy at the end of the schedule); both bounds are plain config fields
    for anyone who wants different ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return AnnealSchedule(
        t_max=0.1 * n,
        t_min=5e-5 / n,
        steps=_interp_steps(n),
        repeats=2,
    )


def local_search(
    formula: Formula,
    start: Assignment,
    schedule: AnnealSchedule,
    rng: random.Random,
    deadline: float | None = None,
) -> Assignment:
    """Best assignment seen over `repeats` independent annealing runs from start.

    Each repeat restarts at `start` with a fresh Metropolis trajectory:
    uniform single-variable flip proposals, accepted when the cost does not
    increase and otherwise with probability exp(-delta/T). The best-seen
    configuration is tracked, so the result never costs more than `start`.
    A satisfying configuration short-circuits everything. The deadline (from
    time.monotonic) is checked before every _CLOCK_STEPS steps of each
    repeat, so a search overshoots it by at most that many steps; the checks
    draw nothing from rng. Each step draws one rng.randrange(n), and one
    rng.random() only when the flip would raise the cost.

    A flip's delta is read from the per-clause true-literal counts of the
    clauses the variable's current sign makes true (+1 for each count of 1)
    and of those its other sign does (-1 for each count of 0). A clause
    holds at most one literal of a variable, so the two are disjoint.
    """
    n = formula.num_vars
    if len(start) != n:
        raise ValueError("start assignment length mismatch")
    if not set(start) <= {-1, 1}:
        raise ValueError("start assignment entries must be +1 or -1")
    # made_true[v]: (the clauses x_v makes true, the clauses -x_v makes true)
    made_true: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    start_counts = []  # per clause, its literals true at start
    for c, clause in enumerate(formula.clauses):
        true_lits = 0
        for lit in clause.literals:
            made_true[lit.var][lit.polarity < 0].append(c)
            true_lits += start[lit.var] == lit.polarity
        start_counts.append(true_lits)
    # flips[v][s_v < 0]: (the clauses a flip of v can break, those it can make)
    flips = [(pair, pair[::-1]) for pair in made_true]
    best: Assignment = tuple(start)
    start_cost = best_cost = start_counts.count(0)
    if best_cost == 0:
        return best
    steps, temperature = schedule.steps, schedule.temperature
    randrange, uniform, exp = rng.randrange, rng.random, math.exp
    for _ in range(schedule.repeats):
        s = list(start)
        true_count = start_counts.copy()
        cost = start_cost
        for chunk in range(0, steps, _CLOCK_STEPS):
            if deadline is not None and time.monotonic() >= deadline:
                return best
            for t in range(chunk, min(chunk + _CLOCK_STEPS, steps)):
                var = randrange(n)
                s_v = s[var]
                breaks, makes = flips[var][s_v < 0]
                delta = 0
                for c in breaks:
                    if true_count[c] == 1:
                        delta += 1
                for c in makes:
                    if true_count[c] == 0:
                        delta -= 1
                if delta <= 0 or uniform() < exp(-delta / temperature(t)):
                    for c in breaks:
                        true_count[c] -= 1
                    for c in makes:
                        true_count[c] += 1
                    s[var] = -s_v
                    cost += delta
                    if cost < best_cost:
                        best_cost = cost
                        best = tuple(s)
                        if best_cost == 0:
                            return best
    return best


def sa_solve(
    formula: Formula,
    schedule: AnnealSchedule,
    rng: random.Random,
    timeout: float,
) -> tuple[Assignment | None, int]:
    """Standalone annealing baseline: fresh uniform-random starts until the
    timeout. Returns (satisfying assignment or None, number of restarts);
    a formula holding the empty clause returns (None, 0) at once."""
    deadline = time.monotonic() + timeout
    restarts = 0
    n = formula.num_vars
    if formula.num_clauses == 0:
        return tuple(1 for _ in range(n)), 1
    if any(not clause.literals for clause in formula.clauses):
        return None, 0
    while time.monotonic() < deadline:
        start = tuple(rng.choice((-1, 1)) for _ in range(n))
        restarts += 1
        result = local_search(formula, start, schedule, rng, deadline)
        if count_unsat(formula, result) == 0:
            return result, restarts
    return None, restarts
