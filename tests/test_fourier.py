"""Sparse polynomial algebra, checked against dense enumeration."""

import random

import pytest

from ampsat import SparsePoly, parse_dimacs
from ampsat.fourier import PRUNE_EPSILON
from ampsat.indicator import clause_indicator

from helpers import all_assignments, random_poly

TOL = 1e-9


def _clause(text):
    return parse_dimacs(text).clauses[0]


def or12(n=2):
    """Complement indicator of (x1 v x2)."""
    return clause_indicator(_clause("p cnf 2 1\n1 2 0"), n)


class TestEvaluate:
    def test_constant(self):
        p = SparsePoly(3, {(): 1.0})
        assert p.evaluate((-1, 1, -1)) == 1.0

    def test_single_variable(self):
        p = SparsePoly(2, {(0,): 1.0})
        assert p.evaluate((-1, 1)) == -1.0

    def test_indicator_value_at_violation(self):
        assert or12().evaluate((-1, -1)) == pytest.approx(1.0, abs=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SparsePoly(2, {(): 1.0}).evaluate((1,))


class TestAddScaled:
    def test_cancellation_gives_zero(self):
        p = or12()
        assert p.add_scaled(p, -1.0).is_zero

    def test_termwise(self):
        p = SparsePoly(1, {(): 1.0})
        q = SparsePoly(1, {(0,): 1.0})
        r = p.add_scaled(q, 2.0)
        assert r.coefficient(()) == 1.0
        assert r.coefficient((0,)) == 2.0

    def test_alpha_zero(self):
        p = or12()
        r = p.add_scaled(SparsePoly(2, {(0,): 5.0}), 0.0)
        assert dict(r.terms) == dict(p.terms)

    def test_num_vars_mismatch(self):
        with pytest.raises(ValueError):
            SparsePoly(1).add_scaled(SparsePoly(2), 1.0)


class TestMultiply:
    def test_square_of_variable_is_constant(self):
        p = SparsePoly(1, {(0,): 1.0})
        assert dict(p.multiply(p).terms) == {frozenset(): 1.0}

    def test_indicator_idempotent(self):
        p = or12()
        q = p.multiply(p)
        for key, coeff in q.terms.items():
            assert coeff == pytest.approx(p.terms[key], abs=TOL)

    def test_disjoint_width2_product_structure(self):
        f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0")
        a = clause_indicator(f.clauses[0], 4)
        b = clause_indicator(f.clauses[1], 4)
        prod = a.multiply(b)
        assert len(prod) == 16
        assert all(abs(c) == pytest.approx(1 / 16, abs=TOL) for c in prod.terms.values())

    def test_pointwise_property(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(1, 7)
            p = random_poly(rng, n, rng.randrange(1, 8))
            q = random_poly(rng, n, rng.randrange(1, 8))
            r = p.multiply(q)
            for s in all_assignments(n):
                assert r.evaluate(s) == pytest.approx(
                    p.evaluate(s) * q.evaluate(s), abs=TOL
                )

    def test_commutative_associative(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randrange(1, 6)
            p, q, r = (random_poly(rng, n, 5) for _ in range(3))
            pq = p.multiply(q)
            qp = q.multiply(p)
            for key in set(pq.terms) | set(qp.terms):
                assert pq.coefficient(key) == pytest.approx(qp.coefficient(key), abs=TOL)
            left = pq.multiply(r)
            right = p.multiply(q.multiply(r))
            for key in set(left.terms) | set(right.terms):
                assert left.coefficient(key) == pytest.approx(
                    right.coefficient(key), abs=TOL
                )


class TestInnerProduct:
    def test_constant(self):
        one = SparsePoly(3, {(): 1.0})
        assert one.inner_product(one) == 1.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_indicator_norm(self, k):
        lits = " ".join(str(i + 1) for i in range(k))
        c = _clause(f"p cnf {k} 1\n{lits} 0")
        p = clause_indicator(c, k)
        # equals the fraction of assignments violating the clause
        assert p.inner_product(p) == pytest.approx(2.0 ** -k, abs=TOL)

    @pytest.mark.parametrize("k", [1, 2])
    def test_disjoint_indicators(self, k):
        n = 2 * k
        a_lits = " ".join(str(i + 1) for i in range(k))
        b_lits = " ".join(str(i + 1) for i in range(k, 2 * k))
        f = parse_dimacs(f"p cnf {n} 2\n{a_lits} 0\n{b_lits} 0")
        a = clause_indicator(f.clauses[0], n)
        b = clause_indicator(f.clauses[1], n)
        assert a.inner_product(b) == pytest.approx(2.0 ** (-2 * k), abs=TOL)

    def test_plancherel(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randrange(1, 7)
            p = random_poly(rng, n, rng.randrange(1, 9))
            q = random_poly(rng, n, rng.randrange(1, 9))
            brute = sum(p.evaluate(s) * q.evaluate(s) for s in all_assignments(n))
            assert p.inner_product(q) == pytest.approx(brute / 2 ** n, abs=TOL)


class TestCondition:
    def test_constant_unchanged(self):
        p = SparsePoly(2, {(): 1.0})
        assert dict(p.condition(0, 1).terms) == {frozenset(): 1.0}

    def test_satisfied_clause_vanishes(self):
        assert or12().condition(0, 1).is_zero

    def test_partial_restriction(self):
        r = or12().condition(0, -1)
        assert r.coefficient(()) == pytest.approx(0.5, abs=TOL)
        assert r.coefficient((1,)) == pytest.approx(-0.5, abs=TOL)
        assert len(r) == 2

    def test_restriction_agrees_pointwise(self):
        rng = random.Random(24)
        for _ in range(30):
            n = rng.randrange(1, 7)
            p = random_poly(rng, n, rng.randrange(1, 9))
            i = rng.randrange(n)
            b = rng.choice((-1, 1))
            r = p.condition(i, b)
            for s in all_assignments(n):
                if s[i] == b:
                    assert r.evaluate(s) == pytest.approx(p.evaluate(s), abs=TOL)

    def test_invalid_args(self):
        p = or12()
        with pytest.raises(ValueError):
            p.condition(5, 1)
        with pytest.raises(ValueError):
            p.condition(0, 0)


class TestCoefficients:
    def test_degree1(self):
        p = SparsePoly(3, {(1,): 0.3})
        assert p.degree1_coefficient(1) == 0.3
        assert SparsePoly(3, {(): 2.0}).degree1_coefficient(0) == 0.0
        assert or12().degree1_coefficient(0) == pytest.approx(-0.25, abs=TOL)

    def test_degree1_partition_identity(self):
        rng = random.Random(25)
        for _ in range(20):
            n = rng.randrange(1, 7)
            p = random_poly(rng, n, rng.randrange(1, 9))
            i = rng.randrange(n)
            plus = sum(p.evaluate(s) for s in all_assignments(n) if s[i] == 1)
            minus = sum(p.evaluate(s) for s in all_assignments(n) if s[i] == -1)
            assert p.degree1_coefficient(i) == pytest.approx(
                (plus - minus) / 2 ** n, abs=TOL
            )

    def test_parseval(self):
        assert SparsePoly(2, {(): 1.0}).parseval_sq_norm() == 1.0
        assert SparsePoly(2).parseval_sq_norm() == 0.0
        for k in (1, 2, 3):
            lits = " ".join(str(i + 1) for i in range(k))
            p = clause_indicator(_clause(f"p cnf {k} 1\n{lits} 0"), k)
            assert p.parseval_sq_norm() == pytest.approx(2.0 ** -k, abs=TOL)

    def test_parseval_matches_enumeration(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randrange(1, 7)
            p = random_poly(rng, n, rng.randrange(1, 9))
            brute = sum(p.evaluate(s) ** 2 for s in all_assignments(n))
            assert p.parseval_sq_norm() == pytest.approx(brute / 2 ** n, abs=TOL)


class TestHousekeeping:
    def test_prune_on_construction(self):
        p = SparsePoly(1, {(): 1e-13})
        assert p.is_zero

    def test_prune_threshold_is_tight(self):
        assert not SparsePoly(1, {(): 2 * PRUNE_EPSILON}).is_zero

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            SparsePoly(1, {(1,): 1.0})
