"""Shared test utilities: random instance/polynomial generators and the
assignment enumeration used by brute-force checks."""

from __future__ import annotations

import random
from pathlib import Path

from ampsat import Formula, SparsePoly, parse_dimacs
from ampsat.approx import ApproxState, add_columns, init_first_order
from ampsat.cnf import make_clause
from ampsat.oracle import all_assignments, assignment_to_index  # noqa: F401  (re-export)


def random_formula(
    rng: random.Random,
    num_vars: int,
    num_clauses: int,
    widths=(1, 2, 3),
    allow_duplicates: bool = True,
) -> Formula:
    """Uniform random CNF with per-clause width drawn from `widths`."""
    clauses = []
    seen = set()
    guard = 0
    while len(clauses) < num_clauses:
        guard += 1
        if guard > 100 * num_clauses + 100:
            break  # tiny var pools can run out of distinct clauses
        k = min(rng.choice(widths), num_vars)
        vs = rng.sample(range(1, num_vars + 1), k)
        codes = tuple(sorted(v if rng.random() < 0.5 else -v for v in vs))
        if not allow_duplicates:
            if codes in seen:
                continue
            seen.add(codes)
        clause = make_clause(codes)
        assert clause is not None  # distinct vars: never tautological
        clauses.append(clause)
    return Formula(num_vars=num_vars, clauses=tuple(clauses))


def random_poly(
    rng: random.Random,
    num_vars: int,
    num_terms: int,
    min_coeff: float = 0.1,
    max_coeff: float = 1.0,
) -> SparsePoly:
    """Random sparse polynomial with coefficient magnitudes in [min, max]."""
    terms = {}
    for _ in range(num_terms):
        size = rng.randrange(0, num_vars + 1)
        key = frozenset(rng.sample(range(num_vars), size))
        sign = rng.choice((-1.0, 1.0))
        terms[key] = sign * rng.uniform(min_coeff, max_coeff)
    return SparsePoly(num_vars, terms)


def random_assignment(rng: random.Random, num_vars: int):
    return tuple(rng.choice((-1, 1)) for _ in range(num_vars))


UF50_001 = Path(__file__).resolve().parents[1] / "instances" / "uf50" / "uf50-001.cnf"


def grown_uf50_001() -> tuple[ApproxState, list[tuple[int, int]]]:
    """uf50-001 fitted to first order and grown by batches of 500 shuffled
    clause pairs (random.Random(53)) until K > 2000: the state and the
    pairs not yet offered."""
    f = parse_dimacs(UF50_001.read_text())
    state = init_first_order(f)
    pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
    random.Random(53).shuffle(pairs)
    while state.num_columns <= 2000:
        add_columns(state, pairs[:500])
        del pairs[:500]
    return state, pairs
