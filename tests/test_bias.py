"""Bias measures and decimation."""

import random

import pytest

from ampsat import SparsePoly, measure_bias, parse_dimacs
from ampsat.approx import init_first_order
from ampsat.bias import BiasKind, _bias2_all, bias1, bias2
from ampsat.indicator import clause_indicator
from ampsat.oracle import dense_evaluate, dense_omega, dense_transform, exact_bias

from helpers import random_poly

TOL = 1e-9


class TestBias1:
    def test_single_clause_approximation(self):
        state = init_first_order(parse_dimacs("p cnf 2 1\n1 2 0"))
        assert bias1(state.omega_tilde, 0) == pytest.approx(1 / 3, abs=TOL)

    def test_constant_poly(self):
        p = SparsePoly(3, {(): 5.0})
        assert all(bias1(p, i) == 0.0 for i in range(3))

    def test_single_variable_poly(self):
        p = SparsePoly(3, {(1,): 1.0})
        assert bias1(p, 1) == 1.0
        assert bias1(p, 0) == 0.0

    def test_matches_dense_oracle(self):
        rng = random.Random(51)
        for _ in range(25):
            n = rng.randrange(1, 8)
            p = random_poly(rng, n, rng.randrange(1, 10))
            table = dense_evaluate(p)
            for i in range(n):
                assert bias1(p, i) == pytest.approx(
                    exact_bias(table, i, BiasKind.BIAS1).normalized, abs=TOL
                )


class TestBias2:
    def test_constant_poly(self):
        p = SparsePoly(2, {(): 3.0})
        assert bias2(p, 0) == 0.0

    def test_unit_clause_indicator(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        p = clause_indicator(f.clauses[0], 1)
        assert bias2(p, 0) == pytest.approx(-1.0, abs=TOL)

    def test_single_clause_approximation_positive(self):
        state = init_first_order(parse_dimacs("p cnf 2 1\n1 2 0"))
        assert bias2(state.omega_tilde, 0) > 0

    def test_matches_dense_oracle(self):
        rng = random.Random(52)
        for _ in range(25):
            n = rng.randrange(1, 8)
            p = random_poly(rng, n, rng.randrange(1, 10))
            table = dense_evaluate(p)
            for i in range(n):
                assert bias2(p, i) == pytest.approx(
                    exact_bias(table, i, BiasKind.BIAS2).normalized, abs=TOL
                )

    def test_batch_matches_single(self):
        rng = random.Random(53)
        for _ in range(25):
            n = rng.randrange(1, 8)
            p = random_poly(rng, n, rng.randrange(1, 10))
            batch = _bias2_all(p, list(range(n)))
            for i in range(n):
                assert batch[i] == pytest.approx(bias2(p, i), abs=TOL)


class TestMeasureBias:
    def test_zero_polynomial_all_ones(self):
        p = SparsePoly.zero(4)
        for kind in BiasKind:
            assert measure_bias(p, kind) == (1, 1, 1, 1)

    def test_single_clause_both_kinds(self):
        state = init_first_order(parse_dimacs("p cnf 2 1\n1 2 0"))
        for kind in BiasKind:
            assert measure_bias(state.omega_tilde, kind) == (1, 1)

    def test_mixed_polarity_formula(self):
        state = init_first_order(parse_dimacs("p cnf 2 2\n1 0\n-2 0"))
        assert measure_bias(state.omega_tilde, BiasKind.BIAS1) == (1, -1)

    def test_scale_invariance(self):
        rng = random.Random(54)
        for _ in range(30):
            n = rng.randrange(1, 9)
            p = random_poly(rng, n, rng.randrange(1, 10), min_coeff=1e-3)
            for kind in BiasKind:
                base = measure_bias(p, kind)
                for alpha in (1e-6, 1e3, 1e6):
                    scaled = SparsePoly(
                        n, {k: alpha * c for k, c in p.terms.items()}
                    )
                    assert measure_bias(scaled, kind) == base

    def test_determinism(self):
        rng = random.Random(55)
        p = random_poly(rng, 6, 12)
        for kind in BiasKind:
            assert measure_bias(p, kind) == measure_bias(p, kind)

    def test_exact_omega_decimation_recovers_unique_solution(self):
        rng = random.Random(56)
        found = 0
        while found < 10:
            n = rng.randrange(3, 9)
            m = rng.randrange(2 * n, 4 * n)
            clauses = []
            for _ in range(m):
                k = min(3, n)
                vs = rng.sample(range(1, n + 1), k)
                clauses.append(
                    " ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0"
                )
            f = parse_dimacs(f"p cnf {n} {m}\n" + "\n".join(clauses))
            table = dense_omega(f)
            if int(table.values.sum()) != 1:
                continue
            found += 1
            solution_index = int(table.values.argmax())
            from ampsat.oracle import index_to_assignment

            solution = index_to_assignment(solution_index, n)
            omega_poly = dense_transform(table)
            for kind in BiasKind:
                assert measure_bias(omega_poly, kind) == solution

    def test_tie_rng_only_moves_ties(self):
        # strongly biased polynomial: randomized tie-breaking changes nothing
        p = SparsePoly(3, {(0,): 1.0, (1,): -0.5, (2,): 0.25})
        rng = random.Random(0)
        assert measure_bias(p, BiasKind.BIAS1, tie_rng=rng) == (1, -1, 1)
