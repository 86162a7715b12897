"""Refinement policy: which second-order indicator products to add next.

The heuristic path pairs up clauses that are unsatisfied at the candidate
assignment or become unsatisfied after any single-variable flip of such a
clause's variables. When every such pair is already in the approximation, a
uniformly random clause is drawn and paired against all other clauses. When
every unordered pair in the whole formula is exhausted, refinement signals
saturation and the solver falls back to local search alone.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .approx import ApproxState, column_signature
from .cnf import Assignment, Formula
from .indicator import ColumnKey


class RefinementSaturated(Exception):
    """Every order-2 column (by key or by signature) is already present."""


@dataclass
class RefinementPlan:
    """One round's batch of order-2 column keys. random_clause is the clause
    a random plan pairs with every other clause, None for a heuristic plan."""

    keys: list[ColumnKey] = field(default_factory=list)
    random_clause: int | None = None

    @property
    def used_random(self) -> bool:
        return self.random_clause is not None


def clause_neighbors(formula: Formula, s: Assignment) -> set[int]:
    """Unsatisfied clauses at s, plus every clause unsatisfied at any
    single-variable flip of a variable occurring in an unsatisfied clause.

    A flip of v leaves a satisfied clause unsatisfied exactly when v carries
    the clause's only true literal, so each clause's true literals are
    counted once rather than every clause re-evaluated per flip."""
    if len(s) != formula.num_vars:
        raise ValueError("assignment length mismatch")
    unsat: set[int] = set()
    sole_true: list[tuple[int, int]] = []  # (variable, clause) per single-true clause
    for m, clause in enumerate(formula.clauses):
        true_vars = [lit.var for lit in clause.literals if s[lit.var] == lit.polarity]
        if not true_vars:
            unsat.add(m)
        elif len(true_vars) == 1:
            sole_true.append((true_vars[0], m))
    flipped = {var for m in unsat for var in formula.clauses[m].variables()}
    return unsat | {m for var, m in sole_true if var in flipped}


def _is_new(state: ApproxState, key: ColumnKey) -> bool:
    """True if the key's product is a genuinely new column: its signature
    (cube) is not yet recorded. Every tried key's cube is, so a tried key,
    and an identically-zero product once one has been tried, is never new.
    """
    return column_signature(state.cache, key) not in state.signatures


def _pairs_with(p: int, num_clauses: int) -> list[ColumnKey]:
    return [(min(p, j), max(p, j)) for j in range(num_clauses) if j != p]


def plan_refinement(
    formula: Formula,
    s: Assignment,
    state: ApproxState,
    rng: random.Random,
    allow_random: bool = True,
) -> RefinementPlan:
    """Choose the next batch of order-2 column keys for an unsatisfying s.

    Tries all new pairs from clause_neighbors first. If none remain, draws a
    random clause (up to M redraws, then a deterministic sweep) and pairs it
    with every other clause. Raises RefinementSaturated when no unordered
    pair anywhere is new. With allow_random=False an empty heuristic set
    yields an empty plan instead of a random one.
    """
    m_total = formula.num_clauses
    neighbors = sorted(clause_neighbors(formula, s))
    heuristic = [
        (i, j)
        for a, i in enumerate(neighbors)
        for j in neighbors[a + 1:]
        if _is_new(state, (i, j))
    ]
    if heuristic:
        return RefinementPlan(keys=heuristic)
    if not allow_random:
        return RefinementPlan()
    if m_total < 2:
        raise RefinementSaturated()
    redraws = (rng.randrange(m_total) for _ in range(m_total))
    for p in itertools.chain(redraws, range(m_total)):
        keys = [key for key in _pairs_with(p, m_total) if _is_new(state, key)]
        if keys:
            return RefinementPlan(keys=keys, random_clause=p)
    raise RefinementSaturated()
