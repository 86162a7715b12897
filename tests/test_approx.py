"""Approximation state: Gram assembly, weight solving, incremental growth."""

import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import ampsat.approx as approx_module
from ampsat import SparsePoly, measure_bias, parse_dimacs, refine
from ampsat.approx import (
    _PANEL_ROWS,
    RIDGE_LADDER,
    ApproxState,
    DeadlineReached,
    WeightSolveError,
    add_columns,
    column_signature,
    init_first_order,
    solve_weights,
)
from ampsat.bias import BiasKind
from ampsat.fourier import PRUNE_EPSILON
from ampsat.oracle import dense_evaluate, dense_omega, exact_lstsq
from ampsat.refine import RefinementSaturated, plan_refinement

from helpers import UF50_001, grown_uf50_001, random_assignment, random_formula

TOL = 1e-9


def _unit_rhs(k):
    rhs = np.zeros(k)
    rhs[0] = 1.0
    return rhs


def _serve_gram(monkeypatch, matrix):
    """Make the state read its Gram entries from `matrix` instead of the
    closed form, and take its G a products from it instead of the term
    table, for systems no set of cubes has."""
    monkeypatch.setattr(
        ApproxState, "_gram_block", lambda self, rows, width: matrix[rows, :width].copy()
    )
    monkeypatch.setattr(ApproxState, "_gram_times", lambda self, a: matrix @ a)


def _fourier_column(formula, key):
    """The reference expansion of a column: the Fourier-domain product of
    (1 - c s_v) / 2 over every literal c x_v of its clauses."""
    n = formula.num_vars
    poly = SparsePoly.constant(n, 1.0)
    for m in key:
        for lit in formula.clauses[m].literals:
            poly = poly.multiply(SparsePoly(n, {(): 0.5, (lit.var,): -0.5 * lit.polarity}))
    return poly


def _rounded_fourier_signature(poly):
    """Column identity by the rounded-term rule the cube signature replaced."""
    return tuple(
        sorted((tuple(sorted(key)), round(coeff, 10)) for key, coeff in poly.terms.items())
    )


def _random_batch_runs():
    """25 random formulas (random.Random(47)), each fitted to first order and
    grown by up to four random batches of pair columns. Yields (state, None)
    after the first-order fit and (state, (the panels and lambda before the
    batch)) after every batch that added columns."""
    rng = random.Random(47)
    for _ in range(25):
        f = random_formula(rng, rng.randrange(3, 8), rng.randrange(3, 10))
        state = init_first_order(f)
        yield state, None
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        rng.shuffle(pairs)
        cuts = sorted(rng.sample(range(1, len(pairs)), min(3, len(pairs) - 1)))
        for lo, hi in zip([0] + cuts, cuts + [len(pairs)]):
            before = (list(state._panels), state.ridge_lambda)
            if add_columns(state, pairs[lo:hi]):
                yield state, before


def _unpacked(packed, d):
    """A lower triangle of order d packed by rows, as a d x d square."""
    square = np.zeros((d, d), packed.dtype)
    square[np.tril_indices(d)] = packed
    return square


def _dense_factor(state):
    """The factor panels laid out as one dense lower-triangular matrix; each
    panel keeps its rows scaled and its diagonal block inverted and packed,
    which is unpacked and inverted back."""
    k = state.num_columns
    out = np.zeros((k, k))
    for rows, scale, diag in state._panels:
        d, o = rows.shape
        out[o : o + d, :o] = rows * scale[:, None].astype(float)
        out[o : o + d, o : o + d] = np.tril(np.linalg.inv(_unpacked(diag, d)))
    return out


def _panel_rows(state):
    """The row range [o, o + d) of every panel, checking that each is at
    most _PANEL_ROWS tall, holds its rows left of the diagonal, one scale
    per row and its diagonal block's packed triangle, as int16 rows with
    float32 scales and triangle or all float64, and follows the last."""
    ranges = []
    for rows, scale, diag in state._panels:
        d, o = rows.shape
        assert 0 < d <= _PANEL_ROWS
        assert scale.shape == (d,) and diag.shape == (d * (d + 1) // 2,)
        assert (rows.dtype, scale.dtype, diag.dtype) in (
            (np.int16, np.float32, np.float32),
            (np.float64, np.float64, np.float64),
        )
        assert o == (ranges[-1][1] if ranges else 0)
        ranges.append((o, o + d))
    return ranges


def _new_columns(state, keys, count):
    """The (key, cube) columns of the first `count` keys whose cubes are
    nonzero and new to the state and to each other."""
    columns = {}
    for key in keys:
        cube = column_signature(state.cache, key)
        if cube is not None and cube not in state.signatures:
            columns.setdefault(cube, key)
        if len(columns) == count:
            break
    return [(key, cube) for cube, key in columns.items()]


def _tiles(lo, hi):
    """The panel row ranges that a batch of rows [lo, hi) is cut into."""
    return [(o, min(o + _PANEL_ROWS, hi)) for o in range(lo, hi, _PANEL_ROWS)]


def _disjoint_formula(num_clauses):
    """Two-literal clauses on disjoint variables: every product of clauses is
    a distinct cube, and the columns stay linearly independent."""
    lines = [f"p cnf {2 * num_clauses} {num_clauses}"]
    lines += [f"{2 * m + 1} {-(2 * m + 2) if m % 3 else 2 * m + 2} 0" for m in range(num_clauses)]
    return parse_dimacs("\n".join(lines))


class TestInitFirstOrder:
    def test_empty_formula(self):
        state = init_first_order(parse_dimacs("p cnf 3 0\n"))
        assert state.keys == [()]
        assert state.weights == pytest.approx([1.0])
        assert dict(state.omega_tilde.terms) == {frozenset(): 1.0}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_clause_closed_form(self, k):
        lits = " ".join(str(i + 1) for i in range(k))
        f = parse_dimacs(f"p cnf {k} 1\n{lits} 0")
        state = init_first_order(f)
        expected = 1.0 / (1.0 - 2.0 ** -k)
        assert state.weights == pytest.approx([expected, -expected], abs=TOL)

    def test_duplicate_clauses_deduplicated(self):
        single = init_first_order(parse_dimacs("p cnf 2 1\n1 2 0"))
        double = init_first_order(parse_dimacs("p cnf 2 2\n1 2 0\n1 2 0"))
        assert double.num_columns == single.num_columns == 2
        assert double.weights == pytest.approx(single.weights, abs=TOL)

    def test_gram_matches_pairwise_inner_products(self):
        # Closed-form Gram entries and cube expansions against the Fourier
        # reference: products of one-literal factors.
        rng = random.Random(41)
        states = []
        formulas = [
            random_formula(rng, rng.randrange(2, 7), rng.randrange(1, 7))
            for _ in range(10)
        ]
        formulas += [
            # clause 1 duplicates clause 0; (0, 2) and (2, 4) clash; (0, 3) is
            # clause 0's cube and (3, 4) is (0, 4)'s
            parse_dimacs("p cnf 3 5\n1 2 0\n1 2 0\n-1 3 0\n1 0\n2 -3 0"),
            # n = 72: cubes on x63..x66 straddle the bit-64 word boundary
            parse_dimacs(
                "p cnf 72 5\n63 64 65 0\n-64 66 0\n-65 -66 0\n1 64 72 0\n-63 70 0"
            ),
        ]
        for f in formulas:
            state = init_first_order(f)
            states.append(state)
            add_columns(
                state,
                [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)],
            )
            refs = [_fourier_column(f, key) for key in state.keys]
            gram = state.gram
            for i, ref in enumerate(refs):
                assert dict(state.cache.column_poly(state.keys[i]).terms) == dict(ref.terms)
                for j in range(state.num_columns):
                    assert gram[i, j] == pytest.approx(ref.inner_product(refs[j]), abs=TOL)
        assert states[-2].keys == [(), (0,), (2,), (3,), (4,), (0, 4)]
        either = states[-1].masks[0] | states[-1].masks[1]
        assert np.any((either[0] != 0) & (either[1] != 0))  # cubes in both words

    def test_gram_positive_semidefinite(self):
        rng = random.Random(42)
        for _ in range(10):
            f = random_formula(rng, rng.randrange(2, 7), rng.randrange(1, 7))
            state = init_first_order(f)
            eigvals = np.linalg.eigvalsh(state.gram)
            assert eigvals.min() >= -TOL


class TestSolveWeights:
    def test_identity_gram(self, monkeypatch):
        # No cubes are orthonormal (the constant overlaps every cube), so the
        # identity is served in place of the closed form.
        state = ApproxState(parse_dimacs("p cnf 2 0\n"))
        _serve_gram(monkeypatch, np.eye(3))
        state._append([((), (0, 0)), ((0,), (1, 0)), ((1,), (2, 0))])
        assert np.array_equal(state.gram, np.eye(3))
        weights = solve_weights(state)
        assert weights == pytest.approx(_unit_rhs(3))
        assert state.ridge_lambda == 0.0

    def test_duplicated_column_triggers_ridge(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        state = init_first_order(f)
        state._append([((0,), column_signature(state.cache, (0,)))])
        weights = solve_weights(state)
        assert state.ridge_lambda > 0.0
        m = state.gram + state.ridge_lambda * np.eye(3)
        assert np.abs(m @ weights - _unit_rhs(3)).max() < 1e-6

    def test_unsolvable_raises(self, monkeypatch):
        state = ApproxState(parse_dimacs("p cnf 1 0\n"))
        _serve_gram(monkeypatch, np.full((2, 2), np.nan))
        state._append([((), (0, 0)), ((0,), (1, 0))])
        with pytest.raises(WeightSolveError):
            solve_weights(state)


class TestIncrementalFactor:
    @staticmethod
    def _check_against_full_refactor(state):
        # Full rank: the weights against one Cholesky of the whole rebuilt
        # Gram matrix at the ridge the state settled on. Linearly dependent
        # columns leave the split of weight between them open, and a ridge
        # rung's weights are ~1/lambda there, so only the fitted function and
        # omega_tilde are compared, at an absolute bound, with the
        # minimum-norm least-squares fit.
        k = state.num_columns
        gram = state.gram
        cols = np.stack(
            [dense_evaluate(state.cache.column_poly(key)).values for key in state.keys], axis=1
        )
        omega = dense_evaluate(state.omega_tilde).values
        full_rank = np.linalg.matrix_rank(cols) == k
        if full_rank:
            m = gram + state.ridge_lambda * np.eye(k)
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m, lower=True), _unit_rhs(k))
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(state.weights - ref).max() <= TOL * scale
            assert np.abs(cols @ state.weights - cols @ ref).max() <= TOL * scale
            assert np.abs(omega - cols @ ref).max() <= TOL * scale
        else:
            min_norm_fit = cols @ np.linalg.pinv(gram)[:, 0]
            assert np.abs(cols @ state.weights - min_norm_fit).max() < 1e-4
            assert np.abs(omega - min_norm_fit).max() < 1e-4
        return full_rank

    def test_matches_full_refactor_over_random_batches(self):
        extended = {False: 0, True: 0}  # by whether the ridge was nonzero
        landed = dependent = 0
        for state, before in _random_batch_runs():
            if before is None:
                self._check_against_full_refactor(state)
                continue
            panels, lam = before
            if len(state._panels) == len(panels) + 1:
                # the batch's own panel on the held factor, at its ridge
                assert all(held is panel for held, panel in zip(panels, state._panels))
                assert state.ridge_lambda == lam
                extended[lam > 0.0] += 1
            else:
                # the ladder re-factored the whole Gram matrix
                assert len(state._panels) == 1
                assert state._panels[0] is not panels[0]
                landed += state.ridge_lambda > 0.0
            if not self._check_against_full_refactor(state):
                dependent += 1
        # every path is exercised: extensions at lambda = 0 and at a ridge,
        # ladder landings on a ridge, and linearly dependent states
        assert extended[False] and extended[True] and landed and dependent

    def test_singular_gram_never_yields_runaway_weights(self):
        # A singular Gram matrix whose null space meets e_0 has lambda = 0
        # "solutions" of ~1e16 that pass a residual bound relative to the
        # weights; the absolute bound sends them to the ridge ladder. Every
        # accepted solve fits the minimum-norm least-squares function.
        singular = 0
        for state, _ in _random_batch_runs():
            assert np.abs(state.weights).max() <= 1e12
            gram = state.gram
            k = state.num_columns
            if np.linalg.matrix_rank(gram) == k:
                continue
            singular += 1
            cols = np.stack(
                [dense_evaluate(state.cache.column_poly(key)).values for key in state.keys],
                axis=1,
            )
            min_norm_fit = cols @ np.linalg.pinv(gram)[:, 0]
            assert np.abs(dense_evaluate(state.omega_tilde).values - min_norm_fit).max() < 1e-4
        assert singular

    def test_rank_deficient_hundreds_of_columns_take_the_first_ridge_rung(self):
        # n = 7 leaves a 128-dimensional function space for ~500 columns. The
        # lam = 1e-10 weights are ~1e10 and G a is rounded relative to them
        # (residual ~3e-6), so only a bound scaled by max |a| accepts the rung.
        rng = random.Random(2)
        f = random_formula(rng, 7, 60)
        state = init_first_order(f)
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        rng.shuffle(pairs)
        for lo in range(0, len(pairs), 200):
            add_columns(state, pairs[lo : lo + 200])
            assert state.ridge_lambda == RIDGE_LADDER[1]
        assert state.num_columns > 400
        a = state.weights
        residual = state.gram @ a + state.ridge_lambda * a - _unit_rhs(len(a))
        assert np.abs(residual).max() <= 1e-6 * np.abs(a).max()

    def test_forced_ridge_fallback_then_more_batches(self):
        # clause 3 repeats clause 0, so (1, 3) is the column (0, 1) again
        f = parse_dimacs("p cnf 6 4\n1 2 0\n3 4 0\n5 6 0\n2 1 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        assert state.ridge_lambda == 0.0 and len(state._panels) == 2
        state._append([((1, 3), column_signature(state.cache, (0, 1)))])  # duplicate
        solve_weights(state)
        lam, landed = state.ridge_lambda, state._panels[0]
        assert lam > 0.0 and len(state._panels) == 1
        assert add_columns(state, [(0, 2), (1, 2)]) == 2
        assert state.ridge_lambda == lam and state._panels[0] is landed
        assert _panel_rows(state) == [(0, 6), (6, 8)]
        self._check_against_full_refactor(state)

    def test_a_ridged_factor_grows_by_its_new_panels(self, monkeypatch):
        # Random 3-SAT on 10 variables grown by batches of 100 pairs: the
        # columns become linearly dependent and the third batch lands on a
        # ridge rung. From then on each batch factors only its own rows, at
        # that ridge, onto the panels the state holds. Six batches (K = 432)
        # keep the ridge fit within the helper's 1e-4 of the minimum-norm
        # fit; as more columns crowd the 1024-dimensional space, a ridge of
        # 1e-10 moves the fit further from it, by any solver.
        rng = random.Random(2)
        f = random_formula(rng, 10, 45, widths=(3,))
        state = init_first_order(f)
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        rng.shuffle(pairs)
        factored = []
        factor_panel = approx_module._factor_panel

        def recording(state, lo, dtype, lam):
            factored.append(lo)
            return factor_panel(state, lo, dtype, lam)

        monkeypatch.setattr(approx_module, "_factor_panel", recording)
        extended = 0
        for lo in range(0, 600, 100):
            before, lam, o = list(state._panels), state.ridge_lambda, state.num_columns
            rows_before = _panel_rows(state)
            factored.clear()
            add_columns(state, pairs[lo : lo + 100])
            if lam == 0.0:
                continue
            extended += 1
            new_tiles = _tiles(o, state.num_columns)
            assert state.ridge_lambda == lam
            assert factored == [start for start, _ in new_tiles]
            assert all(held is panel for held, panel in zip(before, state._panels))
            assert _panel_rows(state) == rows_before + new_tiles
            assert not self._check_against_full_refactor(state)  # dependent columns
        assert extended >= 3 and state.ridge_lambda == RIDGE_LADDER[1]

    def test_panels_hold_the_cholesky_factor(self):
        # 300 and 135 pair columns on 30 first-order ones: each batch is
        # cut into panels from its own first row, the first into several
        f = _disjoint_formula(30)
        state = init_first_order(f)
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        random.Random(48).shuffle(pairs)
        add_columns(state, pairs[:300])
        add_columns(state, pairs[300:])
        k = state.num_columns
        assert state.ridge_lambda == 0.0 and k == 466
        ranges = [(0, 31)] + _tiles(31, 331) + _tiles(331, 466)
        assert _panel_rows(state) == ranges and len(_tiles(31, 331)) > 1
        # no square is stored: each panel holds its L21 rows and exactly the
        # d(d+1)/2 entries of its diagonal block's inverse, K(K+1)/2 in all
        diagonal = [panel.diag.size for panel in state._panels]
        assert diagonal == [(hi - lo) * (hi - lo + 1) // 2 for lo, hi in ranges]
        below = [panel.rows.size for panel in state._panels]
        assert below == [(hi - lo) * lo for lo, hi in ranges]
        assert sum(diagonal) + sum(below) == k * (k + 1) // 2
        factor = _dense_factor(state)
        assert np.allclose(factor @ factor.T, state.gram, atol=TOL)

    def test_incremental_round_factors_only_its_new_rows(self):
        # A round of d new columns on uf50-001: appending them adds only
        # their cubes, and the solve adds int16 panels for their rows alone,
        # leaving every earlier panel as it was; no d x d temporary is made.
        # L L^T reproduces the new Gram rows to float32 Cholesky's backward
        # error (Higham, Accuracy and Stability of Numerical Algorithms,
        # Thm 10.3): |L L^T - G| <= gamma_(K+1) |L| |L^T| entrywise, and
        # (|L| |L^T|)_ij <= |L_i| |L_j| = sqrt(G_ii G_jj) <= max |G|, so the
        # bound is (K + 1) u_32 max |G| with u_32 = 2^-24; the int16 rounding
        # of the rows stays under it here (1.9e-6 against 8.3e-5). The
        # weights are refined to float64 accuracy all the same.
        f = parse_dimacs(UF50_001.read_text())
        state = init_first_order(f)
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        random.Random(50).shuffle(pairs)
        assert add_columns(state, pairs[:200]) > 0
        columns = {}
        for key in pairs[200:]:
            cube = column_signature(state.cache, key)
            if cube is not None and cube not in state.signatures:
                columns.setdefault(cube, key)
            if len(columns) == 1000:
                break
        before = list(state._panels)
        o = state.num_columns
        state._append([(key, cube) for cube, key in columns.items()])
        assert len(state._panels) == len(before) and state.num_columns == o + 1000
        tracemalloc.start()
        try:
            solve_weights(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.ridge_lambda == 0.0
        assert all(held is panel for held, panel in zip(before, state._panels))
        added = state._panels[len(before) :]
        assert _panel_rows(state)[len(before) :] == _tiles(o, o + 1000)
        assert all(panel.rows.dtype == np.int16 for panel in added)
        k = state.num_columns
        gram = state.gram
        factor = _dense_factor(state)
        bound = (k + 1) * 2.0**-24 * np.abs(gram).max()
        assert np.abs(factor[o:] @ factor.T - gram[o:]).max() <= bound
        assert peak < 1000 * 1000 * 8
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), _unit_rhs(k))
        assert np.abs(state.weights - ref).max() <= TOL * max(1.0, np.abs(ref).max())

    def test_refinement_panels_are_int16(self):
        # uf50-001 grown past K = 2000: every panel after the float64
        # first-order block holds int16 rows with float32 row scales and a
        # float32 diagonal inverse, so the factor takes about a quarter of
        # the bytes of a float64 one, and no ridge was needed on the way.
        state, _ = grown_uf50_001()
        first_order = state.formula.num_clauses + 1  # no two clauses share a cube
        k = state.num_columns
        assert k > 2000 and state.ridge_lambda == 0.0
        ranges = _panel_rows(state)
        assert ranges[: len(_tiles(0, first_order))] == _tiles(0, first_order)
        for (lo, _), panel in zip(ranges, state._panels):
            assert panel.rows.dtype == (np.float64 if lo < first_order else np.int16)
        below = sum(d * o for o, d in ((lo, hi - lo) for lo, hi in ranges if lo >= first_order))
        diagonal = sum((hi - lo) * (hi - lo + 1) // 2 for lo, hi in ranges if lo >= first_order)
        stored = sum(array.nbytes for panel in state._panels for array in panel)
        assert stored <= 2 * below + 4 * diagonal + 4 * k + 8 * first_order**2

    def test_a_round_holds_its_packed_panels_and_one_bounded_block(self):
        # uf50-001 grown past K = 2000, then a round of 1000 columns: the
        # round's peak is the int16 panels it adds, the term table, whose
        # sorted keys the extension reallocates, and at most 2 MiB for a
        # panel's raw rows and the one bounded block any step of the
        # extension, factor or refined solve holds.
        state, pairs = grown_uf50_001()
        columns = _new_columns(state, pairs, 1000)
        before = state.num_columns
        panels = len(state._panels)
        tracemalloc.start()
        try:
            state._append(columns)
            solve_weights(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = state.num_columns
        assert state.ridge_lambda == 0.0 and k == before + 1000
        added = state._panels[panels:]
        assert all(panel.rows.dtype == np.int16 for panel in added)
        factor = sum(array.nbytes for panel in added for array in panel)
        terms = state._terms
        table = terms.keys.nbytes + terms.key_ids.nbytes
        table += sum(
            array.nbytes
            for block in terms.blocks
            for array in (block.columns, block.ids, block.signs)
        )
        assert factor < 2.1 * (k * (k + 1) // 2 - before * (before + 1) // 2)
        assert peak <= factor + table + 2 * 2**20

    def test_solve_casts_one_column_chunk_and_factor_one_panel(self, monkeypatch):
        # uf50-001 grown past K = 2000, then a round of 1000 columns, the
        # refined solve casting 256 columns at a time and Gram blocks cut
        # to 2^12 entries. Above what it started with, each refined solve
        # holds at most one chunk's float32 copy, three K-vectors and two
        # expanded diagonal blocks, far under one whole-panel cast (4 * 64
        # * K bytes). Each panel's factoring holds its float32 rows and, one
        # at a time, a Gram block, one earlier panel cast whole or its own
        # int16 copy: max |row| is taken without a copy of |rows|.
        state, pairs = grown_uf50_001()
        columns = _new_columns(state, pairs, 1000)
        monkeypatch.setattr(approx_module, "_CAST_COLUMNS", 256)
        monkeypatch.setattr(approx_module, "_GRAM_BLOCK_ENTRIES", 1 << 12)
        chunk = 4 * _PANEL_ROWS * 256
        squares = 2 * 8 * _PANEL_ROWS**2
        calls = []

        def traced(function):
            def call(*args):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return function(*args)
                finally:
                    calls.append((function, args, tracemalloc.get_traced_memory()[1] - start))

            return call

        factor_panel, solve_factored = approx_module._factor_panel, approx_module._solve_factored
        monkeypatch.setattr(approx_module, "_factor_panel", traced(factor_panel))
        monkeypatch.setattr(approx_module, "_solve_factored", traced(solve_factored))
        tracemalloc.start()
        try:
            state._append(columns)
            solve_weights(state)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state._gram_block(slice(0, 4), 1024)
            gram = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        k = state.num_columns
        assert state.ridge_lambda == 0.0 and state._panels[-1].rows.dtype == np.int16
        factored = [(args[1], peak) for function, args, peak in calls if function is factor_panel]
        solved = [peak for function, _, peak in calls if function is solve_factored]
        assert len(factored) == len(_tiles(k - 1000, k)) and len(solved) >= 3
        assert 4 * _PANEL_ROWS * k > 2 * (chunk + squares + 24 * k)
        for peak in solved:
            assert peak <= chunk + squares + 24 * k
        for lo, peak in factored:
            d = min(_PANEL_ROWS, k - lo)
            assert peak <= 4 * d * lo + max(gram, 4 * _PANEL_ROWS * lo) + squares + 24 * k

    @staticmethod
    def _check_ladder_then_float64(monkeypatch, name, failing):
        # The first batch after the first-order fit is solved with
        # approx.<name> replaced by `failing`; it lands on the float64
        # lambda = 0 rung, and every later batch is factored in float64 too.
        f = _disjoint_formula(30)
        state = init_first_order(f)
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        with monkeypatch.context() as m:
            m.setattr(approx_module, name, failing)
            add_columns(state, pairs[:100])
        assert state.ridge_lambda == 0.0
        assert all(array.dtype == np.float64 for panel in state._panels for array in panel)
        add_columns(state, pairs[100:200])
        assert state.ridge_lambda == 0.0 and state.num_columns == 231
        assert _panel_rows(state) == _tiles(0, 131) + _tiles(131, 231)
        assert all(array.dtype == np.float64 for panel in state._panels for array in panel)
        k = state.num_columns
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(state.gram, lower=True), _unit_rhs(k))
        assert np.abs(state.weights - ref).max() <= TOL * max(1.0, np.abs(ref).max())

    def test_a_state_that_took_the_ladder_keeps_float64_panels(self, monkeypatch):
        # an int16 panel whose Schur block is not positive definite
        factor_panel = approx_module._factor_panel

        def failing(state, lo, dtype, lam):
            return None if dtype == np.int16 else factor_panel(state, lo, dtype, lam)

        self._check_ladder_then_float64(monkeypatch, "_factor_panel", failing)

    def test_an_int16_factor_that_misses_the_gate_lands_on_the_float64_rung(self, monkeypatch):
        # An int16 factor whose corrections come out 4x too large: every
        # refinement step triples the error, so the solve misses the
        # residual check and the ridge ladder takes over.
        solve_factored = approx_module._solve_factored
        skewed = []

        def overshooting(panels, rhs):
            x = solve_factored(panels, rhs)
            if any(panel.rows.dtype == np.int16 for panel in panels):
                skewed.append(len(panels))
                return 4 * x
            return x

        self._check_ladder_then_float64(monkeypatch, "_solve_factored", overshooting)
        assert skewed and set(skewed) == {len(_tiles(0, 31) + _tiles(31, 131))}

    @staticmethod
    def _long_and_short_formula():
        """Clauses of 7 and 3 literals in turn, on disjoint variables: the
        products of two long clauses fix 14 variables, past _TABLE_VARS."""
        lines, v = ["p cnf 100 20"], 0
        for m in range(20):
            width = 7 if m % 2 else 3
            lits = [-(v + i + 1) if i % 2 else v + i + 1 for i in range(width)]
            lines.append(" ".join(map(str, lits + [0])))
            v += width
        return parse_dimacs("\n".join(lines))

    def test_gram_times_is_the_closed_form_product(self):
        # K = 31 (K^2 <= _GRAM_BLOCK_ENTRIES): every row in closed form, and
        # no table. K = 466: the term table holds a block of each cube size.
        # K = 211: the 45 products of two 7-literal clauses are wide, so
        # their rows are closed-form and the table holds the rest.
        def all_pairs(f):
            state = init_first_order(f)
            m = f.num_clauses
            add_columns(state, [(i, j) for i in range(m) for j in range(i + 1, m)])
            return state

        no_table = init_first_order(_disjoint_formula(30))
        table = all_pairs(_disjoint_formula(30))
        wide = all_pairs(self._long_and_short_formula())
        assert no_table.num_columns == 31
        assert no_table._terms.columns == 0 and not no_table._terms.blocks
        assert [block.size for block in table._terms.blocks] == [0, 2, 4]
        assert not len(table._terms.wide)
        assert wide.num_columns == wide._terms.columns == 211 and len(wide._terms.wide) == 45
        assert {block.size for block in wide._terms.blocks} == {0, 3, 6, 7, 10}
        rng = np.random.default_rng(54)
        for state in (no_table, table, wide):
            k = state.num_columns
            gram = state.gram
            for x in (state.weights, rng.standard_normal(k), rng.uniform(0, 1e3, k)):
                bound = k * np.finfo(float).eps * (np.abs(gram) @ np.abs(x))
                assert np.all(np.abs(state._gram_times(x) - gram @ x) <= bound)

    def test_ridge_ladder_holds_only_the_lower_triangle(self):
        # A second constant column at K > 1000 on uf50-001: e_0 then meets
        # the null space of G, so G a = e_0 has no solution and the solve
        # takes the ridge ladder, which rebuilds the Gram rows as bounded
        # panels: its peak stays below one dense K x K matrix.
        f = parse_dimacs(UF50_001.read_text())
        state = init_first_order(f)
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        random.Random(52).shuffle(pairs)
        for lo in range(0, len(pairs), 400):
            add_columns(state, pairs[lo : lo + 400])
            if state.num_columns >= 1000:
                break
        assert state.ridge_lambda == 0.0
        state._append([((), column_signature(state.cache, ()))])
        k = state.num_columns
        tracemalloc.start()
        try:
            solve_weights(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.ridge_lambda > 0.0 and k > 1000
        assert _panel_rows(state) == _tiles(0, k)
        assert peak < k * k * 8
        a = state.weights
        residual = state.gram @ a + state.ridge_lambda * a - _unit_rhs(k)
        assert np.abs(residual).max() <= 1e-6 * max(1.0, np.abs(a).max())

    def test_incremental_solve_never_rebuilds_the_whole_gram(self, monkeypatch):
        # Each closed-form Gram block the factor builds, as its row range.
        rows = []
        factoring = []
        gram_block = ApproxState._gram_block
        factor_panel = approx_module._factor_panel

        def recording(self, block_rows, width):
            if factoring:
                rows.append((block_rows.start, block_rows.stop))
            return gram_block(self, block_rows, width)

        def factor(*args):
            factoring.append(args)
            try:
                return factor_panel(*args)
            finally:
                factoring.pop()

        monkeypatch.setattr(ApproxState, "_gram_block", recording)
        monkeypatch.setattr(approx_module, "_factor_panel", factor)
        f = parse_dimacs("p cnf 6 3\n1 2 0\n3 4 0\n5 6 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        add_columns(state, [(0, 2), (1, 2)])
        assert state.ridge_lambda == 0.0
        assert rows == [(0, 4), (4, 5), (5, 7)]  # only the new rows, once per batch
        # a batch taller than a panel: its rows once, a panel at a time
        rows.clear()
        state = init_first_order(_disjoint_formula(30))
        add_columns(state, [(i, j) for i in range(30) for j in range(i + 1, 30)][:300])
        assert state.ridge_lambda == 0.0
        assert rows == [(0, 31)] + _tiles(31, 331)
        assert _panel_rows(state) == [(0, 31)] + _tiles(31, 331)


class TestDeadline:
    """A solve checks the state's deadline before each panel and each
    refinement step, so it overshoots it by at most one of them. A fake
    clock advances one unit per panel factored and per step solved."""

    @staticmethod
    def _clocked(monkeypatch):
        now = [0.0]
        monkeypatch.setattr(approx_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        for name in ("_factor_panel", "_solve_factored"):
            function = getattr(approx_module, name)

            def ticking(*args, function=function):
                now[0] += 1.0
                return function(*args)

            monkeypatch.setattr(approx_module, name, ticking)
        return now

    def test_a_fit_ends_within_one_panel_or_step_of_its_deadline(self, monkeypatch):
        # 300 pair columns on 30 first-order ones: five panels, then the
        # refinement steps. Every deadline before the last unit starts ends
        # the solve at most one unit past it, with the first-order weights
        # in place; one inside the last unit lets the solve finish.
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)][:300]
        now = self._clocked(monkeypatch)
        state = init_first_order(_disjoint_formula(30))
        now[0] = 0.0
        assert add_columns(state, pairs) == 300
        units = now[0]
        assert units >= len(_tiles(31, 331)) + 2
        for deadline in np.arange(0.5, units - 1.0, 1.0):
            state = init_first_order(_disjoint_formula(30))
            first_order = state.weights
            state.deadline, now[0] = deadline, 0.0
            with pytest.raises(DeadlineReached):
                add_columns(state, pairs)
            assert deadline <= now[0] <= deadline + 1.0
            assert state.weights is first_order
        state = init_first_order(_disjoint_formula(30))
        state.deadline, now[0] = units - 0.5, 0.0
        assert add_columns(state, pairs) == 300 and now[0] == units

    def test_the_first_order_fit_ends_within_one_panel_or_step_of_its_deadline(
        self, monkeypatch
    ):
        # 201 first-order columns: four panels, then the refinement steps.
        f = _disjoint_formula(200)
        now = self._clocked(monkeypatch)
        assert init_first_order(f).deadline is None
        units = now[0]
        assert units >= len(_tiles(0, 201)) + 1
        for deadline in np.arange(0.5, units - 1.0, 1.0):
            now[0] = 0.0
            with pytest.raises(DeadlineReached):
                init_first_order(f, deadline=deadline)
            assert deadline <= now[0] <= deadline + 1.0
        now[0] = 0.0
        assert init_first_order(f, deadline=units - 0.5).num_columns == 201
        assert now[0] == units

    def test_the_ridge_ladder_ends_within_one_panel_of_its_deadline(self, monkeypatch):
        # A duplicate column sends the solve to the ladder, whose rungs
        # each rebuild every panel; the deadline cuts it short there too.
        f = _disjoint_formula(30)
        now = self._clocked(monkeypatch)
        state = init_first_order(f)
        add_columns(state, [(i, j) for i in range(30) for j in range(i + 1, 30)][:100])
        state._append([((0,), column_signature(state.cache, (1,)))])
        state.deadline = now[0] + 4.5
        with pytest.raises(DeadlineReached):
            solve_weights(state)
        assert not state._int16_panels  # on the ladder
        assert state.deadline <= now[0] <= state.deadline + 1.0
        assert len(state.weights) == 131


class TestOmegaTilde:
    @staticmethod
    def _check(state):
        # omega_tilde is the column-order sum of the weighted expansions
        acc = {}
        for w, key in zip(state.weights.tolist(), state.keys):
            for term, coeff in state.cache.column_poly(key).terms.items():
                acc[term] = acc.get(term, 0.0) + w * coeff
        expected = {term: v for term, v in acc.items() if abs(v) > PRUNE_EPSILON}
        assert dict(state.omega_tilde.terms) == expected
        assert list(state.omega_tilde.terms) == list(expected)

    def test_omega_tilde_is_the_column_order_sum(self):
        rng = random.Random(51)
        formulas = [
            random_formula(rng, rng.randrange(2, 9), rng.randrange(2, 14)) for _ in range(20)
        ]
        formulas += [
            # duplicate clause 1, clashing pairs (0, 2) and (2, 4)
            parse_dimacs("p cnf 3 5\n1 2 0\n1 2 0\n-1 3 0\n1 0\n2 -3 0"),
            # n = 72: cubes on x63..x66 straddle the bit-64 word boundary
            parse_dimacs(
                "p cnf 72 5\n63 64 65 0\n-64 66 0\n-65 -66 0\n1 64 72 0\n-63 70 0"
            ),
        ]
        zeroed = 0
        for f in formulas:
            state = init_first_order(f)
            self._check(state)
            plan_rng = random.Random(rng.randrange(1 << 30))
            for _ in range(6):
                try:
                    plan = plan_refinement(
                        f, random_assignment(rng, f.num_vars), state, plan_rng
                    )
                except RefinementSaturated:
                    break
                if add_columns(state, plan.keys):
                    self._check(state)
            # a column weighing exactly 0.0 contributes nothing, and its own
            # terms are pruned
            j = int(np.argmax(np.bitwise_count(state.masks[0] | state.masks[1]).sum(axis=0)))
            if j:
                weights = state.weights.copy()
                weights[j] = 0.0
                state.weights = weights
                self._check(state)
                zeroed += 1
        assert zeroed

    def test_solve_weights_renews_the_cached_omega_tilde(self):
        # clause 3 repeats clause 0, so (1, 3) is the column (0, 1) again
        f = parse_dimacs("p cnf 6 4\n1 2 0\n3 4 0\n5 6 0\n2 1 0")
        state = init_first_order(f)
        first = state.omega_tilde
        assert state.omega_tilde is first  # kept while the weights stand
        # an incremental solve
        state._append([((0, 1), column_signature(state.cache, (0, 1)))])
        solve_weights(state)
        assert state.ridge_lambda == 0.0
        incremental = state.omega_tilde
        assert incremental is not first
        self._check(state)
        # a ridge-ladder re-solve
        state._append([((1, 3), column_signature(state.cache, (0, 1)))])
        solve_weights(state)
        assert state.ridge_lambda > 0.0
        assert state.omega_tilde is not incremental
        self._check(state)


class TestAddColumns:
    def test_existing_key_is_noop(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        state = init_first_order(f)
        before = state.weights.copy()
        assert add_columns(state, [(0,)]) == 0
        assert state.num_columns == 2
        assert state.weights == pytest.approx(before)

    def test_disjoint_pair_gram_diagonal(self):
        f = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0")
        state = init_first_order(f)
        assert add_columns(state, [(0, 1)]) == 1
        assert state.gram[3, 3] == pytest.approx(2.0 ** -4, abs=TOL)

    def test_all_pairs_of_three_clauses(self):
        f = parse_dimacs("p cnf 6 3\n1 2 0\n3 4 0\n5 6 0")
        state = init_first_order(f)
        added = add_columns(state, [(0, 1), (0, 2), (1, 2)])
        assert added == 3
        assert state.num_columns == 7

    def test_zero_product_skipped_but_recorded(self):
        # (x1) and (-x1) are never simultaneously violated: their product is
        # the zero polynomial and must not become a (singular) column.
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        state = init_first_order(f)
        cubes = {column_signature(state.cache, key) for key in state.keys}
        assert state.signatures == cubes
        assert add_columns(state, [(0, 1)]) == 0
        assert state.keys == [(), (0,), (1,)]
        assert state.signatures == cubes | {None}
        assert not refine._is_new(state, (0, 1))

    def test_a_rejected_batch_records_no_cube(self):
        # Clause 7 does not exist, so the batch is rejected before any cube
        # is recorded: (0, 2) is still new afterwards.
        state = init_first_order(parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n2 -4 0"))
        signatures, k = set(state.signatures), state.num_columns
        with pytest.raises(ValueError):
            add_columns(state, [(0, 2), (0, 7)])
        assert state.signatures == signatures and state.num_columns == k
        assert add_columns(state, [(0, 2)]) == 1

    def test_signature_collision_skipped(self):
        # duplicate clauses 0 and 1: products (0,2) and (1,2) coincide
        f = parse_dimacs("p cnf 3 3\n1 2 0\n1 2 0\n2 3 0")
        state = init_first_order(f)
        assert add_columns(state, [(0, 2), (1, 2)]) == 1

    def test_incremental_matches_rebuild(self):
        rng = random.Random(43)
        for _ in range(8):
            f = random_formula(rng, rng.randrange(3, 7), rng.randrange(2, 6))
            pairs = [
                (i, j)
                for i in range(f.num_clauses)
                for j in range(i + 1, f.num_clauses)
            ]
            rng.shuffle(pairs)
            split = len(pairs) // 2

            incremental = init_first_order(f)
            add_columns(incremental, pairs[:split])
            add_columns(incremental, pairs[split:])

            rebuilt = init_first_order(f)
            add_columns(rebuilt, pairs[:split] + pairs[split:])

            assert incremental.keys == rebuilt.keys
            assert np.allclose(incremental.gram, rebuilt.gram, atol=TOL)
            assert incremental.weights == pytest.approx(rebuilt.weights, abs=TOL)


class TestApproximationQuality:
    def test_single_clause_omega_tilde_proportional_to_omega(self):
        rng = random.Random(44)
        for _ in range(10):
            n = rng.randrange(1, 7)
            f = random_formula(rng, n, 1)
            state = init_first_order(f)
            omega = dense_omega(f).values
            approx = dense_evaluate(state.omega_tilde).values
            ratio = approx[omega == 1.0]
            assert np.allclose(ratio, ratio[0], atol=TOL)
            assert np.allclose(approx[omega == 0.0], 0.0, atol=TOL)

    def test_true_rhs_solution_is_euclidean_projection(self):
        rng = random.Random(45)
        checked = 0
        while checked < 20:
            n = rng.randrange(2, 8)
            f = random_formula(rng, n, rng.randrange(1, 7))
            omega = dense_omega(f).values
            if omega.sum() == 0:
                continue
            checked += 1
            state = init_first_order(f)
            weights = exact_lstsq(f, state.keys)
            cols = np.stack(
                [dense_evaluate(state.cache.column_poly(k)).values for k in state.keys], axis=1
            )
            best = np.linalg.norm(omega - cols @ weights)
            for _ in range(100):
                c = np.array([rng.gauss(0, 1) for _ in range(state.num_columns)])
                assert best <= np.linalg.norm(omega - cols @ c) + TOL

    def test_heuristic_rhs_matches_true_rhs_biases_statistically(self):
        # The all-ones overlap is set to exactly 1 instead of the (unknown)
        # true value; decimation outputs should almost always coincide.
        rng = random.Random(46)
        agree = {BiasKind.BIAS1: 0, BiasKind.BIAS2: 0}
        total = 0
        while total < 100:
            n = rng.randrange(3, 9)
            f = random_formula(rng, n, rng.randrange(2, 2 * n))
            omega = dense_omega(f).values
            if omega.sum() == 0:
                continue
            total += 1
            state = init_first_order(f)
            true_weights = exact_lstsq(f, state.keys)
            omega_true = SparsePoly.zero(n)
            for w, key in zip(true_weights, state.keys):
                omega_true = omega_true.add_scaled(state.cache.column_poly(key), float(w))
            for kind in agree:
                if measure_bias(state.omega_tilde, kind) == measure_bias(
                    omega_true, kind
                ):
                    agree[kind] += 1
        for kind, count in agree.items():
            assert count >= 95, f"{kind}: {count}/{total}"


class TestSignature:
    def test_duplicate_clauses_share_a_signature(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n2 1 0")
        state = init_first_order(f)
        assert column_signature(state.cache, (0,)) == column_signature(state.cache, (1,))
        assert state.num_columns == 2

    def test_signature_is_the_falsifying_cube(self):
        f = parse_dimacs("p cnf 3 3\n1 -2 0\n-1 3 0\n-2 0")
        cache = init_first_order(f).cache
        assert column_signature(cache, ()) == (0, 0)
        assert column_signature(cache, (0,)) == (0b010, 0b001)  # x1 = -1, x2 = +1
        assert column_signature(cache, (0, 1)) is None  # x1 clashes
        assert column_signature(cache, (0, 2)) == column_signature(cache, (0,))

    def test_cube_dedup_replays_the_rounded_fourier_rule(self, monkeypatch):
        # Seeded refinement sequences, deduplicated twice: by the state (cube
        # signatures) and by a twin that keeps the rounded-Fourier-signature
        # rule. Every _is_new verdict, and with it every draw of the
        # refinement RNG, must agree, as must the accepted keys and the
        # recorded signatures, the zero product's included.
        rng = random.Random(49)
        original_is_new = refine._is_new
        zero = collided = 0
        for _ in range(30):
            f = random_formula(rng, rng.randrange(2, 6), rng.randrange(3, 12))
            state = init_first_order(f)
            twin = _RoundedFourierDedup(f)
            twin.add([()] + [(m,) for m in range(f.num_clauses)])

            def checked_is_new(st, key, twin=twin):
                verdict = original_is_new(st, key)
                assert twin.is_new(key) == verdict, key
                return verdict

            monkeypatch.setattr(refine, "_is_new", checked_is_new)
            plan_rng = random.Random(rng.randrange(1 << 30))
            for _ in range(12):
                s = random_assignment(rng, f.num_vars)
                try:
                    plan = plan_refinement(f, s, state, plan_rng)
                except RefinementSaturated:
                    break
                assert add_columns(state, plan.keys) == twin.add(plan.keys)
                assert state.keys == twin.keys
                assert len(state.signatures) == len(twin.index)
                assert {
                    _rounded_fourier_signature(state.cache.column_poly(key))
                    for key in state.keys
                } | ({()} if None in state.signatures else set()) == twin.index
            zero += None in state.signatures
            collided += len(twin.seen) > state.num_columns + 1
        assert zero and collided


class _RoundedFourierDedup:
    """add_columns' and _is_new's deduplication by rounded Fourier signatures
    of the reference expansions, without the weights."""

    def __init__(self, formula):
        self.formula = formula
        self.keys = []
        self.seen = set()
        self.index = set()

    def is_new(self, key):
        if key in self.seen:
            return False
        if _rounded_fourier_signature(_fourier_column(self.formula, key)) in self.index:
            self.seen.add(key)
            return False
        return True

    def add(self, keys):
        added = 0
        for key in map(tuple, keys):
            if key in self.seen:
                continue
            poly = _fourier_column(self.formula, key)
            self.seen.add(key)
            sig = _rounded_fourier_signature(poly)
            if sig in self.index:
                continue
            self.index.add(sig)
            if not poly.is_zero:
                self.keys.append(key)
                added += 1
        return added
