"""Simulated-annealing local search over assignments.

Used both as the per-round local search of the main solver and, with fresh
random restarts, as the standalone "sa" baseline in the benchmark harness.
The cost function is the number of unsatisfied clauses; flips are evaluated
incrementally from per-clause true-literal counts.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Sequence

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


class _FlipState:
    """Incremental unsat-count bookkeeping for single-variable flips."""

    def __init__(self, formula: Formula):
        self.num_vars = formula.num_vars
        self.clause_lits = [
            [(lit.var, lit.polarity) for lit in clause.literals]
            for clause in formula.clauses
        ]
        self.var_clauses: list[list[tuple[int, int]]] = [
            [] for _ in range(formula.num_vars)
        ]
        for c, lits in enumerate(self.clause_lits):
            for var, pol in lits:
                self.var_clauses[var].append((c, pol))
        self.s: list[int] = []
        self.true_count: list[int] = []
        self.cost = 0

    def reset(self, start: Sequence[int]) -> None:
        self.s = list(start)
        s = self.s
        self.true_count = [
            sum(1 for var, pol in lits if s[var] == pol) for lits in self.clause_lits
        ]
        self.cost = sum(1 for t in self.true_count if t == 0)

    def flip_delta(self, var: int) -> int:
        s_v = self.s[var]
        delta = 0
        for c, pol in self.var_clauses[var]:
            if pol == s_v:  # literal currently true, will turn false
                if self.true_count[c] == 1:
                    delta += 1
            else:  # literal currently false, will turn true
                if self.true_count[c] == 0:
                    delta -= 1
        return delta

    def apply_flip(self, var: int) -> None:
        s_v = self.s[var]
        for c, pol in self.var_clauses[var]:
            if pol == s_v:
                self.true_count[c] -= 1
                if self.true_count[c] == 0:
                    self.cost += 1
            else:
                if self.true_count[c] == 0:
                    self.cost -= 1
                self.true_count[c] += 1
        self.s[var] = -s_v


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
    draw nothing from rng.
    """
    if len(start) != formula.num_vars:
        raise ValueError("start assignment length mismatch")
    state = _FlipState(formula)
    best: Assignment = tuple(start)
    state.reset(start)
    best_cost = state.cost
    if best_cost == 0:
        return best
    n = formula.num_vars
    for repeat in range(schedule.repeats):
        if repeat > 0:
            state.reset(start)
        for chunk in range(0, schedule.steps, _CLOCK_STEPS):
            if deadline is not None and time.monotonic() >= deadline:
                return best
            for t in range(chunk, min(chunk + _CLOCK_STEPS, schedule.steps)):
                var = rng.randrange(n)
                delta = state.flip_delta(var)
                if delta <= 0 or rng.random() < math.exp(-delta / schedule.temperature(t)):
                    state.apply_flip(var)
                    if state.cost < best_cost:
                        best_cost = state.cost
                        best = tuple(state.s)
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
    timeout. Returns (satisfying assignment or None, number of restarts)."""
    deadline = time.monotonic() + timeout
    restarts = 0
    n = formula.num_vars
    if formula.num_clauses == 0:
        return tuple(1 for _ in range(n)), 1
    while time.monotonic() < deadline:
        start = tuple(rng.choice((-1, 1)) for _ in range(n))
        restarts += 1
        result = local_search(formula, start, schedule, rng, deadline)
        if count_unsat(formula, result) == 0:
            return result, restarts
    return None, restarts
