"""Refinement planning: clause neighborhoods, pair filtering, random fallback."""

import random

import pytest

from ampsat import parse_dimacs
from ampsat.approx import add_columns, init_first_order
from ampsat.cnf import clause_satisfied
from ampsat.refine import RefinementSaturated, clause_neighbors, plan_refinement

from helpers import random_assignment, random_formula


def _clause_neighbors_by_flips(formula, s):
    """Reference: every clause re-evaluated at each single-variable flip of
    a variable occurring in an unsatisfied clause."""
    unsat = {
        m
        for m, clause in enumerate(formula.clauses)
        if not clause_satisfied(clause, s)
    }
    neighbors = set(unsat)
    flipped_vars: set[int] = set()
    for m in unsat:
        for var in formula.clauses[m].variables():
            if var in flipped_vars:
                continue
            flipped_vars.add(var)
            v = list(s)
            v[var] = -v[var]
            for j, clause in enumerate(formula.clauses):
                if not clause_satisfied(clause, v):
                    neighbors.add(j)
    return neighbors


class TestClauseNeighbors:
    def test_satisfying_assignment_is_empty(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0")
        assert clause_neighbors(f, (1, 1)) == set()

    def test_single_unit_clause(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        assert clause_neighbors(f, (-1,)) == {0}

    def test_flip_exposes_new_clause(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        assert clause_neighbors(f, (-1,)) == {0, 1}

    def test_independent_of_clause_order(self):
        rng = random.Random(61)
        for _ in range(15):
            f = random_formula(rng, rng.randrange(2, 8), rng.randrange(2, 10))
            s = tuple(rng.choice((-1, 1)) for _ in range(f.num_vars))
            u = clause_neighbors(f, s)
            reordered = parse_dimacs(
                "p cnf %d %d\n" % (f.num_vars, f.num_clauses)
                + "\n".join(
                    " ".join(
                        str(lit.polarity * (lit.var + 1)) for lit in clause.literals
                    )
                    + " 0"
                    for clause in reversed(f.clauses)
                )
            )
            u_rev = clause_neighbors(reordered, s)
            assert {f.num_clauses - 1 - m for m in u_rev} == u

    def test_matches_the_flip_by_flip_reference(self):
        rng = random.Random(62)
        for _ in range(3000):
            n = rng.randrange(1, 12)
            f = random_formula(rng, n, rng.randrange(0, 41), widths=(1, 2, 3, 4))
            s = random_assignment(rng, n)
            assert clause_neighbors(f, s) == _clause_neighbors_by_flips(f, s)

    def test_length_mismatch(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        with pytest.raises(ValueError):
            clause_neighbors(f, (1,))


class TestPlanRefinement:
    def test_heuristic_plan_counts_pairs(self):
        # three clauses all violated at the all-false point
        f = parse_dimacs("p cnf 3 3\n1 0\n2 0\n3 0")
        state = init_first_order(f)
        rng = random.Random(0)
        plan = plan_refinement(f, (-1, -1, -1), state, rng)
        assert not plan.used_random
        assert sorted(plan.keys) == [(0, 1), (0, 2), (1, 2)]

    def test_plan_excludes_present_keys(self):
        f = parse_dimacs("p cnf 3 3\n1 0\n2 0\n3 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        plan = plan_refinement(f, (-1, -1, -1), state, random.Random(0))
        assert sorted(plan.keys) == [(0, 2), (1, 2)]

    def test_random_path_when_heuristic_exhausted(self):
        f = parse_dimacs("p cnf 4 4\n1 0\n2 0\n3 0\n4 0")
        state = init_first_order(f)
        # make every pair among the unsatisfied-at-s clauses present
        s = (-1, -1, 1, 1)  # violates clauses 0, 1 only
        add_columns(state, [(0, 1)])
        rng = random.Random(3)
        plan = plan_refinement(f, s, state, rng)
        assert plan.used_random
        assert plan.random_clause is not None
        p = plan.random_clause
        assert all(p in key for key in plan.keys)
        assert all(len(key) == 2 and key[0] < key[1] for key in plan.keys)

    def test_random_path_disabled_returns_empty_plan(self):
        f = parse_dimacs("p cnf 4 4\n1 0\n2 0\n3 0\n4 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        plan = plan_refinement(f, (-1, -1, 1, 1), state, random.Random(3), allow_random=False)
        assert plan.keys == []
        assert not plan.used_random

    def test_single_clause_saturates(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        state = init_first_order(f)
        with pytest.raises(RefinementSaturated):
            plan_refinement(f, (-1,), state, random.Random(0))

    def test_all_pairs_exhausted_saturates(self):
        f = parse_dimacs("p cnf 2 2\n1 0\n2 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        with pytest.raises(RefinementSaturated):
            plan_refinement(f, (-1, -1), state, random.Random(0))

    def test_fixed_seed_reproducible(self):
        f = parse_dimacs("p cnf 4 4\n1 0\n2 0\n3 0\n4 0")

        def run(seed):
            state = init_first_order(f)
            add_columns(state, [(0, 1)])
            plan = plan_refinement(f, (-1, -1, 1, 1), state, random.Random(seed))
            return plan.random_clause, tuple(plan.keys)

        assert run(7) == run(7)

    def test_plan_keys_are_order_two_and_new(self):
        rng = random.Random(62)
        for _ in range(15):
            f = random_formula(rng, rng.randrange(2, 7), rng.randrange(2, 8))
            state = init_first_order(f)
            s = tuple(rng.choice((-1, 1)) for _ in range(f.num_vars))
            from ampsat.cnf import count_unsat

            if count_unsat(f, s) == 0:
                continue
            try:
                plan = plan_refinement(f, s, state, rng)
            except RefinementSaturated:
                continue
            for key in plan.keys:
                assert len(key) == 2
                assert key not in state.keys
                assert all(0 <= m < f.num_clauses for m in key)
