"""Bias measures and decimation."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ampsat.solver
from ampsat import SolverConfig, SparsePoly, bias, measure_bias, parse_dimacs, solve
from ampsat.approx import (
    _GRAM_BLOCK_ENTRIES,
    ApproxState,
    add_columns,
    init_first_order,
    weighted_row_sum,
)
from ampsat.bias import BiasKind, _bias2_all, bias1, bias2
from ampsat.indicator import clause_indicator
from ampsat.oracle import dense_evaluate, dense_omega, dense_transform, exact_bias
from ampsat.refine import RefinementSaturated, plan_refinement

from helpers import grown_uf50_001, random_assignment, random_formula, random_poly
from reference_bias import decimate_cubes, decimate_cubes_by_step

TOL = 1e-9
UF50 = Path(__file__).resolve().parents[1] / "instances" / "uf50"


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


# Steps whose top two |biases| lie within this band, relative to the fit's
# coefficient scale, may resolve differently on the cube and the polynomial
# route: the routes sum in different orders and only the polynomial prunes
# at PRUNE_EPSILON. A fit is the minimum-norm fit's function even where
# columns are dependent, so a bias that is exactly 0 comes out far under
# the band on either route.
NEAR_TIE = 1e-6
N72 = "p cnf 72 5\n63 64 65 0\n-64 66 0\n-65 -66 0\n1 64 72 0\n-63 70 0"


def _refined_state(rng, formula, rounds):
    """formula fitted to first order and grown by up to `rounds` refinement
    plans from random candidates."""
    state = init_first_order(formula)
    plan_rng = random.Random(rng.randrange(1 << 30))
    for _ in range(rounds):
        try:
            plan = plan_refinement(
                formula, random_assignment(rng, formula.num_vars), state, plan_rng
            )
        except RefinementSaturated:
            break
        add_columns(state, plan.keys)
    return state


def _zero_a_weight(state, rng):
    """Set one non-constant column's weight to exactly 0."""
    if state.num_columns > 1:
        weights = state.weights.copy()
        weights[rng.randrange(1, state.num_columns)] = 0.0
        state.weights = weights


def _steps(monkeypatch, fit, seed):
    """Decimate fit by BIAS1, recording every step as (choice, tied set,
    near tie): near when the top two snapped |biases| (the second 0 at the
    last step) lie within NEAR_TIE of the step's scale, the snap floor over
    TIE_REL_TOL (at least the top |bias| on both routes)."""
    steps = []
    choose = bias._choose

    def recording(unfixed, biases, floor, tie_rng):
        ranked = sorted((abs(biases[i]) if abs(biases[i]) > floor else 0.0 for i in unfixed),
                        reverse=True) + [0.0]
        tied = tuple(i for i in unfixed if abs(biases[i]) > floor
                     and abs(biases[i]) >= ranked[0] * (1 - bias.TIE_REL_TOL))
        choice = choose(unfixed, biases, floor, tie_rng)
        scale = floor / bias.TIE_REL_TOL
        steps.append((choice, tied, ranked[0] - ranked[1] <= NEAR_TIE * scale))
        return choice

    rng = None if seed is None else random.Random(seed)
    with monkeypatch.context() as m:
        m.setattr(bias, "_choose", recording)
        assignment = measure_bias(fit, BiasKind.BIAS1, tie_rng=rng)
    return assignment, steps


def _compare_routes(monkeypatch, state, seed=None):
    """Cube decimation of the state against measure_bias of its omega_tilde.
    Returns False when the routes agree on every step, True when they first
    part at a near-tied step; fails when they part anywhere else."""
    cube, cube_steps = _steps(monkeypatch, state, seed)
    poly, poly_steps = _steps(monkeypatch, state.omega_tilde, seed)
    for (c_choice, c_tied, c_near), (p_choice, p_tied, p_near) in zip(cube_steps, poly_steps):
        if (c_choice, c_tied) != (p_choice, p_tied):
            assert c_near or p_near, (c_choice, p_choice)
            return True
    assert cube == poly
    return False


class TestCubeDecimation:
    def test_matches_the_polynomial_route_on_refined_states(self, monkeypatch):
        rng = random.Random(57)
        cases = [random_formula(rng, rng.randrange(2, 13), rng.randrange(2, 30))
                 for _ in range(60)]
        cases += [parse_dimacs(N72)] * 3
        cases += [random_formula(rng, 72, rng.randrange(20, 60)) for _ in range(5)]
        parted = zeroed = 0
        for k, f in enumerate(cases):
            state = _refined_state(rng, f, rng.randrange(0, 6))
            if k % 3 == 0:
                _zero_a_weight(state, rng)
                zeroed += state.num_columns > 1
            parted += _compare_routes(monkeypatch, state)
            parted += _compare_routes(monkeypatch, state, seed=rng.randrange(1 << 30))
        assert zeroed > 10
        # the routes parted at 2 of these 136 decimations while ridge fits
        # decimated on rounding dust (their ~1/lambda weights cancelled)
        assert not parted

    def test_two_mask_words(self, monkeypatch):
        state = _refined_state(random.Random(58), parse_dimacs(N72), 4)
        either = state.masks[0] | state.masks[1]
        assert np.any(either[0]) and np.any(either[1])
        assert not _compare_routes(monkeypatch, state)

    def test_tie_rng_copies_give_the_same_assignment(self):
        # x1 and x2 are symmetric: every decimation starts from a tie
        state = _refined_state(random.Random(59), parse_dimacs("p cnf 3 2\n1 2 0\n-1 -2 3 0"), 2)
        seen = set()
        for seed in range(20):
            cube = measure_bias(state, BiasKind.BIAS1, tie_rng=random.Random(seed))
            poly = measure_bias(state.omega_tilde, BiasKind.BIAS1, tie_rng=random.Random(seed))
            assert cube == poly
            seen.add(cube)
        assert len(seen) > 1  # the rng resolved ties both ways

    def test_scale_invariance(self):
        rng = random.Random(60)
        for _ in range(20):
            state = _refined_state(rng, random_formula(rng, rng.randrange(3, 10), 12), 3)
            base = measure_bias(state, BiasKind.BIAS1)
            weights = state.weights
            for alpha in (1e-6, 1e6):
                state.weights = alpha * weights
                assert measure_bias(state, BiasKind.BIAS1) == base


class TestBoundedDecimation:
    """BIAS1 decimation holds its signs as int8 and casts them to float one
    bounded block at a time."""

    def test_matches_the_float_matrix_reference_on_refined_uf50_states(self, monkeypatch):
        # Every fit three budget-exhausting uf50 solves decimate (24 fits,
        # K up to 3039; 16 of them sum several blocks per step) gives the
        # assignment of the float-matrix reference, with no tie rng and with
        # two seeded ones.
        fits = blocked = 0
        original = ampsat.solver.measure_bias

        def checked(p, kind, tie_rng=None):
            nonlocal fits, blocked
            assert isinstance(p, ApproxState) and kind == BiasKind.BIAS1
            for seed in (None, 1, 2):
                rng, ref_rng = (None, None) if seed is None else map(random.Random, (seed, seed))
                assert measure_bias(p, kind, rng) == decimate_cubes(p, ref_rng)
            fits += 1
            blocked += p.num_columns * p.formula.num_vars > _GRAM_BLOCK_ENTRIES
            return original(p, kind, tie_rng)

        monkeypatch.setattr(ampsat.solver, "measure_bias", checked)
        for name, seed in (("uf50-002", 11), ("uf50-009", 12), ("uf50-021", 13)):
            formula = parse_dimacs((UF50 / f"{name}.cnf").read_text())
            solve(formula, SolverConfig(seed=seed, max_rounds=8))
        assert fits >= 20 and blocked >= 10

    def test_blocks_cut_once_give_the_per_step_route(self):
        # Decimations that cut their row blocks once give the assignments of
        # the route that cut them at every step, with no tie rng and with two
        # seeded ones: on refined uf50 fits (uf50-001 grown past K = 2000, so
        # each step sums several blocks, and two fits grown by one
        # refinement plan each) and on the first-order fits of 20 uf20
        # formulas.
        rng = random.Random(61)
        fits = [grown_uf50_001()[0]]
        fits += [
            _refined_state(rng, parse_dimacs((UF50 / f"uf50-00{i}.cnf").read_text()), 1)
            for i in (2, 3)
        ]
        fits += [
            init_first_order(parse_dimacs(path.read_text()))
            for path in sorted((UF50.parent / "uf20").glob("*.cnf"))[:20]
        ]
        assert fits[0].num_columns * fits[0].formula.num_vars > 3 * _GRAM_BLOCK_ENTRIES
        for fit in fits:
            for seed in (None, 1, 2):
                rng, ref_rng = (None, None) if seed is None else map(random.Random, (seed, seed))
                assert measure_bias(fit, BiasKind.BIAS1, rng) == decimate_cubes_by_step(fit, ref_rng)

    def test_weighted_row_sum_is_the_float_product(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(-1, 2, size=(3000, 50), dtype=np.int8)
        w = rng.standard_normal(3000)
        one = _GRAM_BLOCK_ENTRIES // 50  # the most rows that fit in one block
        assert np.array_equal(
            weighted_row_sum(w[:one], rows[:one]), w[:one] @ rows[:one].astype(float)
        )
        np.testing.assert_allclose(
            weighted_row_sum(w, rows), w @ rows.astype(float), rtol=1e-12, atol=1e-12
        )

    def test_no_k_by_n_float_matrix(self):
        # uf50-001 grown past K = 2000: the decimation's peak stays under
        # the bytes of one (K x n) float64 sign matrix.
        state, _ = grown_uf50_001()
        tracemalloc.start()
        try:
            assignment = measure_bias(state, BiasKind.BIAS1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k, n = state.num_columns, state.formula.num_vars
        assert peak < k * n * 8
        assert k * n > 3 * _GRAM_BLOCK_ENTRIES  # each step sums several blocks
        assert assignment == decimate_cubes(state, None)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(1, 72),
    st.integers(1, 40),
    st.integers(0, 5),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 1 << 16)),
    st.integers(0, 1 << 30),
)
def test_cube_decimation_matches_polynomial_route(n, m, rounds, zero, tie_seed, seed):
    rng = random.Random(seed)
    state = _refined_state(rng, random_formula(rng, n, m), rounds)
    if zero:
        _zero_a_weight(state, rng)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _compare_routes(monkeypatch, state, tie_seed)
