"""Clause-complement indicators and product columns."""

import random

import pytest

from ampsat import parse_dimacs
from ampsat.cnf import clause_satisfied
from ampsat.indicator import IndicatorCache, clause_indicator, validate_key
from ampsat.oracle import dense_omega

from helpers import all_assignments, assignment_to_index, random_formula

TOL = 1e-9


class TestClauseIndicator:
    def test_or_two_positive(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        p = clause_indicator(f.clauses[0], 2)
        assert p.coefficient(()) == pytest.approx(0.25)
        assert p.coefficient((0,)) == pytest.approx(-0.25)
        assert p.coefficient((1,)) == pytest.approx(-0.25)
        assert p.coefficient((0, 1)) == pytest.approx(0.25)

    def test_width_k_term_count(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randrange(1, 8)
            f = random_formula(rng, n, 1)
            clause = f.clauses[0]
            p = clause_indicator(clause, n)
            assert len(p) == 2 ** clause.width
            assert all(
                abs(c) == pytest.approx(2.0 ** -clause.width) for c in p.terms.values()
            )

    def test_negative_unit_clause(self):
        f = parse_dimacs("p cnf 1 1\n-1 0")
        p = clause_indicator(f.clauses[0], 1)
        assert p.coefficient(()) == pytest.approx(0.5)
        assert p.coefficient((0,)) == pytest.approx(0.5)
        assert p.evaluate((1,)) == pytest.approx(1.0)
        assert p.evaluate((-1,)) == pytest.approx(0.0)

    def test_rejects_variable_beyond_num_vars(self):
        f = parse_dimacs("p cnf 3 1\n1 -3 0")
        with pytest.raises(ValueError):
            clause_indicator(f.clauses[0], 2)

    def test_zero_one_valued_and_marks_unsat(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randrange(1, 7)
            f = random_formula(rng, n, 1)
            clause = f.clauses[0]
            p = clause_indicator(clause, n)
            for s in all_assignments(n):
                expected = 0.0 if clause_satisfied(clause, s) else 1.0
                assert p.evaluate(s) == pytest.approx(expected, abs=TOL)


class TestColumnPoly:
    def test_empty_key_is_constant_one(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        cache = IndicatorCache(f)
        p = cache.column_poly(())
        assert dict(p.terms) == {frozenset(): 1.0}

    def test_singleton_is_indicator(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        cache = IndicatorCache(f)
        assert dict(cache.column_poly((0,)).terms) == dict(
            clause_indicator(f.clauses[0], 2).terms
        )

    def test_pair_marks_joint_violation(self):
        rng = random.Random(33)
        for _ in range(15):
            n = rng.randrange(2, 7)
            f = random_formula(rng, n, 2)
            cache = IndicatorCache(f)
            p = cache.column_poly((0, 1))
            for s in all_assignments(n):
                expected = float(
                    not clause_satisfied(f.clauses[0], s)
                    and not clause_satisfied(f.clauses[1], s)
                )
                assert p.evaluate(s) == pytest.approx(expected, abs=TOL)

    def test_cube_expansion_matches_fourier_product(self):
        # the cube form against the reference: clause-indicator expansions
        # multiplied in the Fourier domain, clashing (zero) products included
        rng = random.Random(36)
        zero = 0
        for _ in range(40):
            n = rng.randrange(1, 6)
            f = random_formula(rng, n, 3)
            cache = IndicatorCache(f)
            inds = [clause_indicator(c, n) for c in f.clauses]
            for key in [(0,), (1,), (0, 1), (0, 2), (1, 2)]:
                expected = inds[key[0]]
                for m in key[1:]:
                    expected = expected.multiply(inds[m])
                assert dict(cache.column_poly(key).terms) == dict(expected.terms)
                assert (cache.cube(key) is None) == expected.is_zero
                zero += expected.is_zero
        assert zero

    def test_term_count_bound(self):
        rng = random.Random(34)
        for _ in range(20):
            n = rng.randrange(2, 9)
            f = random_formula(rng, n, 2)
            cache = IndicatorCache(f)
            p = cache.column_poly((0, 1))
            bound = 2 ** (f.clauses[0].width + f.clauses[1].width)
            assert len(p) <= bound

    def test_key_validation(self):
        f = parse_dimacs("p cnf 3 2\n1 2 0\n2 3 0")
        cache = IndicatorCache(f)
        with pytest.raises(ValueError):
            cache.column_poly((1, 0))  # unsorted
        with pytest.raises(ValueError):
            cache.column_poly((0, 0))  # repeated clause
        with pytest.raises(ValueError):
            cache.column_poly((0, 5))  # missing clause
        with pytest.raises(ValueError):
            cache.column_poly((0, 1, 1))  # beyond max order and repeated
        with pytest.raises(ValueError):
            validate_key((0, 1, 2), 3)


class TestOrthogonality:
    def test_all_columns_orthogonal_to_solution_set(self):
        # Any indicator product is 1 only where some clause fails, and the
        # solution indicator is 1 only where none do: the pointwise product
        # is identically zero, hence the sum is exactly zero.
        rng = random.Random(35)
        checked = 0
        while checked < 15:
            n = rng.randrange(2, 7)
            f = random_formula(rng, n, rng.randrange(1, 6))
            omega = dense_omega(f).values
            if omega.sum() == 0:
                continue
            checked += 1
            cache = IndicatorCache(f)
            keys = [()]
            keys += [(m,) for m in range(f.num_clauses)]
            keys += [
                (i, j)
                for i in range(f.num_clauses)
                for j in range(i + 1, f.num_clauses)
            ]
            for key in keys[1:]:
                p = cache.column_poly(key)
                total = sum(
                    p.evaluate(s) * omega[assignment_to_index(s)]
                    for s in all_assignments(n)
                )
                assert total == 0.0
