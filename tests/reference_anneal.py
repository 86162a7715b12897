"""Simulated-annealing local search as it was before the flip bookkeeping
became one loop: a `_FlipState` object with per-clause (variable, polarity)
lists, one method call to read a flip's delta and one to apply it. Its code
is kept verbatim as the reference the tests compare ampsat.anneal.local_search
against: the same result and the same rng state afterwards."""

from __future__ import annotations

import math
import random
import time
from typing import Sequence

from ampsat.anneal import _CLOCK_STEPS, AnnealSchedule
from ampsat.cnf import Assignment, Formula


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
