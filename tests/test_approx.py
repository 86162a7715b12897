"""Approximation state: Gram assembly, weight solving, incremental growth."""

import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import ampsat.approx as approx_module
from ampsat import SparsePoly, measure_bias, parse_dimacs, refine
from ampsat.approx import (
    _PANEL_ROWS,
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
from ampsat.oracle import dense_evaluate, dense_omega, exact_lstsq, solution_count
from ampsat.refine import RefinementSaturated, plan_refinement
from ampsat.solver import SolverConfig, Status, solve

from helpers import UF50_001, grown_uf50_001, random_assignment, random_formula

UF20_009 = UF50_001.parents[1] / "uf20" / "uf20-009.cnf"

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
    after the first-order fit and (state, (the panels and weights before the
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
            before = (list(state._panels), state.weights)
            if add_columns(state, pairs[lo:hi]):
                yield state, before


def _dense_columns(state):
    """The (2^n x K) values of the state's columns at every assignment."""
    return np.stack(
        [dense_evaluate(state.cache.column_poly(key)).values for key in state.keys], axis=1
    )


def _min_norm_fit(state):
    """The minimum-norm least-squares fit's function, cols @ pinv(G) e_0,
    or None when G a = e_0 has no solution."""
    gram = state.gram
    a = np.linalg.pinv(gram)[:, 0]
    if np.abs(gram @ a - _unit_rhs(len(a))).max() > 1e-6:
        return None
    return _dense_columns(state) @ a


def _decoupled(state):
    """The columns the factor decouples: those of zero row scale."""
    return [p.rows.shape[1] + j for p in state._panels for j in np.flatnonzero(p.scale == 0)]


def _dense_factor(state):
    """The factor panels laid out as one dense lower-triangular matrix; each
    panel keeps its rows scaled and its diagonal block inverted, which is
    inverted back."""
    k = state.num_columns
    out = np.zeros((k, k))
    for rows, scale, diag in state._panels:
        d, o = rows.shape
        out[o : o + d, :o] = rows * scale[:, None].astype(float)
        out[o : o + d, o : o + d] = np.tril(np.linalg.inv(diag))
    return out


def _panel_rows(state):
    """The row range [o, o + d) of every panel, checking that each is at
    most _PANEL_ROWS tall, holds its rows left of the diagonal, one scale
    per row and its diagonal block's inverse as a (d, d) square with exact
    zeros above the diagonal, as int8 or int16 rows with float32 scales and
    square or all float64, and follows the last."""
    ranges = []
    for rows, scale, diag in state._panels:
        d, o = rows.shape
        assert 0 < d <= _PANEL_ROWS
        assert scale.shape == (d,) and diag.shape == (d, d)
        assert not np.triu(diag, 1).any()
        assert (rows.dtype, scale.dtype, diag.dtype) in (
            (np.int8, np.float32, np.float32),
            (np.int16, np.float32, np.float32),
            (np.float64, np.float64, np.float64),
        )
        assert o == (ranges[-1][1] if ranges else 0)
        ranges.append((o, o + d))
    return ranges


def _check_quantized_panels(state, panels, gram):
    """Each of `panels`, quantized, against the factor stored before it:
    its rows times their scales are X = G21 L11^-T, taken in float64 from
    the dequantized earlier panels, to within half a quantization step and
    float32 rounding, (K + 1) u_32 max |X| with u_32 = 2^-24; and its
    diagonal block factors the Schur complement G22 - X X^T to float32
    Cholesky's backward error, (K + 1) u_32 max |G| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3)."""
    k = state.num_columns
    factor = _dense_factor(state)
    u32 = (k + 1) * 2.0**-24
    for rows, scale, _ in panels:
        d, o = rows.shape
        assert rows.dtype in (np.int8, np.int16) and np.abs(rows).max() <= np.iinfo(rows.dtype).max
        x = scipy.linalg.solve_triangular(factor[:o, :o], gram[o : o + d, :o].T, lower=True).T
        step = scale[:, None].astype(float)
        assert np.all(np.abs(rows * step - x) <= step / 2 + u32 * np.abs(x).max())
        l22 = factor[o : o + d, o : o + d]
        schur = gram[o : o + d, o : o + d] - x @ x.T
        assert np.abs(l22 @ l22.T - schur).max() <= u32 * np.abs(gram).max()


def _table_bytes(terms):
    """The bytes of a term table's arrays."""
    return (
        terms.keys.nbytes
        + terms.key_ids.nbytes
        + terms.wide.nbytes
        + sum(a.nbytes for block in terms.blocks for a in (block.columns, block.ids, block.signs))
    )


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
        assert state.inconsistent_from is None

    def test_a_duplicate_column_is_decoupled_and_keeps_the_min_norm_fit(self):
        # The duplicate leaves G singular and G a = e_0 consistent: its int8
        # panel fails, the int16 rung decouples it in the factor, and PCG
        # solves the unchanged system to the minimum-norm fit's function.
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        state = init_first_order(f)
        state._append([((0,), column_signature(state.cache, (0,)))])
        weights = solve_weights(state)
        assert state._panel_dtype == np.int16 and _decoupled(state) == [2]
        assert np.abs(state.gram @ weights - _unit_rhs(3)).max() < 1e-6
        assert np.abs(_dense_columns(state) @ weights - _min_norm_fit(state)).max() < 1e-12
        assert state.inconsistent_from is None

    def test_unsolvable_raises(self, monkeypatch):
        state = ApproxState(parse_dimacs("p cnf 1 0\n"))
        _serve_gram(monkeypatch, np.full((2, 2), np.nan))
        state._append([((), (0, 0)), ((0,), (1, 0))])
        with pytest.raises(WeightSolveError):
            solve_weights(state)


class TestIncrementalFactor:
    @staticmethod
    def _check_against_full_refactor(state, last=None):
        """The state's fit against a dense reference, by the kind of its
        system, which it returns: "full" rank, the weights against one
        Cholesky of the whole rebuilt Gram matrix; "dependent" columns with
        G a = e_0 consistent, the fitted function and omega_tilde against
        the minimum-norm least-squares fit (dependent columns leave the
        split of weight between them open), to 1e-7 relative to its largest
        value; "inconsistent", the weights are `last`, the last solved ones,
        padded with zeros."""
        k = state.num_columns
        gram = state.gram
        cols = _dense_columns(state)
        omega = dense_evaluate(state.omega_tilde).values
        if np.linalg.matrix_rank(cols) == k:
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), _unit_rhs(k))
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(state.weights - ref).max() <= TOL * scale
            assert np.abs(cols @ state.weights - cols @ ref).max() <= TOL * scale
            assert np.abs(omega - cols @ ref).max() <= TOL * scale
            return "full"
        fit = _min_norm_fit(state)
        if fit is None:
            expected = _unit_rhs(k)
            expected[: len(last)] = last
            assert np.array_equal(state.weights, expected)
            assert state.inconsistent_from is not None
            return "inconsistent"
        bound = 1e-7 * max(1.0, np.abs(fit).max())
        assert np.abs(cols @ state.weights - fit).max() <= bound
        assert np.abs(omega - fit).max() <= bound
        return "dependent"

    def test_matches_full_refactor_over_random_batches(self):
        # Every batch adds its own panels to the factor held, or, when an
        # int8 panel fails, takes the int16 rung, which keeps the float64
        # first-order panels and factors the rest again. Every fit is
        # checked by the kind of its system.
        kinds, paths = Counter(), Counter()
        for state, before in _random_batch_runs():
            if before is None:
                kinds[self._check_against_full_refactor(state, np.zeros(0))] += 1
                continue
            panels, weights = before
            kept = [panel for panel in panels if panel.rows.dtype == np.float64]
            assert all(held is panel for held, panel in zip(kept, state._panels))
            if all(held is panel for held, panel in zip(panels, state._panels)):
                paths["extended"] += 1
            else:
                assert state._panel_dtype == np.int16
                assert any(panel.rows.dtype == np.int8 for panel in panels)
                paths["rung"] += 1
            kinds[self._check_against_full_refactor(state, weights)] += 1
        # every path is exercised: extensions, rungs, and full-rank,
        # dependent and inconsistent systems
        assert paths["extended"] and paths["rung"]
        assert kinds["full"] and kinds["dependent"] and kinds["inconsistent"]

    def test_singular_gram_never_yields_runaway_weights(self):
        # A singular Gram matrix leaves PCG the null space to drift in, but
        # from a = 0 on a consistent system it stays out of it: the weights
        # stay bounded and every consistent singular fit is the minimum-norm
        # least-squares fit's function. An inconsistent system's weights
        # are the last solved ones.
        singular = 0
        for state, _ in _random_batch_runs():
            assert np.abs(state.weights).max() <= 1e3
            gram = state.gram
            if np.linalg.matrix_rank(gram) == state.num_columns:
                continue
            singular += 1
            fit = _min_norm_fit(state)
            if fit is not None:
                assert np.abs(dense_evaluate(state.omega_tilde).values - fit).max() <= 1e-7
        assert singular

    def test_rank_deficient_hundreds_of_columns_take_the_first_ridge_rung(self):
        # Named for the ridge rung it once took. n = 7 leaves a
        # 128-dimensional function space for ~500 columns of an UNSAT
        # formula whose G a = e_0 has no solution, from the first-order fit
        # on: every fit misses the residual check and keeps the weights e_0,
        # the state records the first-order K, and the factor, int16 past
        # the rung, covers every column with hundreds decoupled.
        rng = random.Random(2)
        f = random_formula(rng, 7, 60)
        state = init_first_order(f)
        first_order = state.num_columns
        assert solution_count(f) == 0 and state.inconsistent_from == first_order
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        rng.shuffle(pairs)
        for lo in range(0, len(pairs), 200):
            add_columns(state, pairs[lo : lo + 200])
            assert np.array_equal(state.weights, _unit_rhs(state.num_columns))
        assert state.num_columns > 400 and state.inconsistent_from == first_order
        assert _panel_rows(state)[-1][1] == state.num_columns
        assert state._panel_dtype == np.int16 and len(_decoupled(state)) > 200

    def test_later_batches_extend_a_factor_decoupling_a_duplicate(self):
        # Clause 3 repeats clause 0, so (1, 3) is the column (0, 1) again:
        # its int8 panel fails, and the int16 rung factors both pair columns
        # again, decoupling the duplicate. Later batches extend that factor.
        f = parse_dimacs("p cnf 6 4\n1 2 0\n3 4 0\n5 6 0\n2 1 0")
        state = init_first_order(f)
        add_columns(state, [(0, 1)])
        assert len(state._panels) == 2 and state._panels[1].rows.dtype == np.int8
        state._append([((1, 3), column_signature(state.cache, (0, 1)))])  # duplicate
        solve_weights(state)
        landed = state._panels[1]
        assert state._panel_dtype == np.int16 and _decoupled(state) == [5]
        assert add_columns(state, [(0, 2), (1, 2)]) == 2
        assert state._panels[1] is landed and _decoupled(state) == [5]
        assert _panel_rows(state) == [(0, 4), (4, 6), (6, 8)]
        assert self._check_against_full_refactor(state) == "dependent"

    def test_a_dependent_factor_grows_by_its_new_panels(self, monkeypatch):
        # Random 3-SAT on 10 variables, UNSAT but with G a = e_0 consistent,
        # grown by all its pairs in batches of 150 to K = 710: the columns
        # become dependent, the second batch takes the int16 rung, and from
        # then on each batch factors only its own rows onto the panels the
        # state holds, decoupling more columns. The fit stays the
        # minimum-norm least-squares fit's function, which a ridge of 1e-10
        # missed by 4e-3 at K = 710.
        rng = random.Random(2)
        f = random_formula(rng, 10, 50, widths=(3,))
        state = init_first_order(f)
        pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
        rng.shuffle(pairs)
        factored = []
        factor_panel = approx_module._factor_panel

        def recording(state, lo, dtype):
            factored.append(lo)
            return factor_panel(state, lo, dtype)

        monkeypatch.setattr(approx_module, "_factor_panel", recording)
        extended = 0
        decoupled = []
        for lo in range(0, len(pairs), 150):
            before, o = list(state._panels), state.num_columns
            rows_before = _panel_rows(state)
            dtype = state._panel_dtype
            factored.clear()
            add_columns(state, pairs[lo : lo + 150])
            assert self._check_against_full_refactor(state) != "inconsistent"
            if dtype == np.int8:
                continue
            extended += 1
            new_tiles = _tiles(o, state.num_columns)
            assert factored == [start for start, _ in new_tiles]
            assert all(held is panel for held, panel in zip(before, state._panels))
            assert _panel_rows(state) == rows_before + new_tiles
            decoupled.append(len(_decoupled(state)))
        assert solution_count(f) == 0 and state.num_columns == 710
        assert extended >= 5 and decoupled == sorted(decoupled) and decoupled[0] < decoupled[-1]

    def test_panels_hold_the_cholesky_factor(self):
        # 300 and 135 pair columns on 30 first-order ones: each batch is
        # cut into panels from its own first row, the first into several.
        # The panels past the first-order fit are int8, as solve_weights
        # makes them, and then int16, as the rung after a failed int8
        # extension makes them.
        for dtype in (np.int8, np.int16):
            self._check_the_panels_hold_the_cholesky_factor(dtype)

    @staticmethod
    def _check_the_panels_hold_the_cholesky_factor(dtype):
        f = _disjoint_formula(30)
        state = init_first_order(f)
        state._panel_dtype = dtype
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        random.Random(48).shuffle(pairs)
        add_columns(state, pairs[:300])
        add_columns(state, pairs[300:])
        k = state.num_columns
        assert k == 466
        ranges = [(0, 31)] + _tiles(31, 331) + _tiles(331, 466)
        assert _panel_rows(state) == ranges and len(_tiles(31, 331)) > 1
        # no K x K square is stored: each panel holds its L21 rows and the
        # d^2 entries of its diagonal block's inverse, K(K+1)/2 in all but
        # for the zero upper halves of the diagonal blocks
        diagonal = [panel.diag.size for panel in state._panels]
        assert diagonal == [(hi - lo) ** 2 for lo, hi in ranges]
        below = [panel.rows.size for panel in state._panels]
        assert below == [(hi - lo) * lo for lo, hi in ranges]
        upper = sum((hi - lo) * (hi - lo - 1) // 2 for lo, hi in ranges)
        assert sum(diagonal) + sum(below) == k * (k + 1) // 2 + upper
        assert all(panel.rows.dtype == dtype for panel in state._panels[1:])
        factor = _dense_factor(state)
        gram = state.gram
        assert np.allclose(factor[:31] @ factor[:31].T, gram[:31, :31], atol=TOL)
        _check_quantized_panels(state, state._panels[1:], gram)
        if dtype == np.int16:
            assert np.allclose(factor @ factor.T, gram, atol=TOL)

    def test_incremental_round_factors_only_its_new_rows(self):
        # A round of d new columns on uf50-001: appending them adds only
        # their cubes, and the solve adds int8 panels for their rows alone,
        # leaving every earlier panel as it was; no d x d temporary is made.
        # Each new panel is the rounded block forward substitution against
        # the factor before it, and its diagonal block factors the Schur
        # complement to float32 Cholesky's backward error
        # (_check_quantized_panels). The weights are solved to float64
        # accuracy all the same.
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
        assert all(held is panel for held, panel in zip(before, state._panels))
        added = state._panels[len(before) :]
        assert _panel_rows(state)[len(before) :] == _tiles(o, o + 1000)
        assert all(panel.rows.dtype == np.int8 for panel in added)
        k = state.num_columns
        gram = state.gram
        _check_quantized_panels(state, added, gram)
        assert peak < 1000 * 1000 * 8
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), _unit_rhs(k))
        assert np.abs(state.weights - ref).max() <= TOL * max(1.0, np.abs(ref).max())

    def test_refinement_panels_are_int8(self):
        # uf50-001 grown past K = 2000: every panel after the float64
        # first-order block holds int8 rows with float32 row scales and a
        # float32 diagonal inverse, so the factor takes about an eighth of
        # the bytes of a float64 one, and no column was decoupled on the way.
        state, _ = grown_uf50_001()
        first_order = state.formula.num_clauses + 1  # no two clauses share a cube
        k = state.num_columns
        assert k > 2000 and not _decoupled(state)
        ranges = _panel_rows(state)
        assert ranges[: len(_tiles(0, first_order))] == _tiles(0, first_order)
        for (lo, _), panel in zip(ranges, state._panels):
            assert panel.rows.dtype == (np.float64 if lo < first_order else np.int8)
        below = sum(d * o for o, d in ((lo, hi - lo) for lo, hi in ranges if lo >= first_order))
        diagonal = sum((hi - lo) ** 2 for lo, hi in ranges if lo >= first_order)
        stored = sum(array.nbytes for panel in state._panels for array in panel)
        assert stored <= 1 * below + 4 * diagonal + 4 * k + 8 * first_order**2

    def test_a_round_holds_its_new_panels_and_one_bounded_block(self):
        # uf50-001 grown past K = 2000, then a round of 1000 columns: the
        # round's peak is the int8 panels it adds, the term table, whose
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
        assert k == before + 1000
        added = state._panels[panels:]
        assert all(panel.rows.dtype == np.int8 for panel in added)
        factor = sum(array.nbytes for panel in added for array in panel)
        table = _table_bytes(state._terms)
        assert factor < 1.1 * (k * (k + 1) // 2 - before * (before + 1) // 2)
        assert peak <= factor + table + 2 * 2**20

    def test_solve_casts_one_column_chunk_and_factor_one_panel(self, monkeypatch):
        # uf50-001 grown past K = 2000, then a round of 1000 columns, Gram
        # blocks cut to 2^12 entries. Above what it started with, each
        # solve with the factor (one per PCG step) holds at most one
        # whole-panel float32 cast (4 * d * o bytes for a panel of d rows
        # at column o) and three K-vectors, with room for two diagonal
        # squares, though each stored diagonal inverse is multiplied as it is.
        # Each panel's factoring holds its float32 rows and, one at a time,
        # a Gram block, one earlier panel cast whole or its own int8 copy:
        # max |row| is taken without a copy of |rows|.
        state, pairs = grown_uf50_001()
        columns = _new_columns(state, pairs, 1000)
        monkeypatch.setattr(approx_module, "_GRAM_BLOCK_ENTRIES", 1 << 12)
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
        assert state._panels[-1].rows.dtype == np.int8
        factored = [(args[1], peak) for function, args, peak in calls if function is factor_panel]
        solved = [peak for function, _, peak in calls if function is solve_factored]
        assert len(factored) == len(_tiles(k - 1000, k)) and len(solved) >= 3
        cast = 4 * max(panel.rows.size for panel in state._panels)
        for peak in solved:
            assert peak <= cast + squares + 24 * k
        for lo, peak in factored:
            d = min(_PANEL_ROWS, k - lo)
            assert peak <= 4 * d * lo + max(gram, 4 * _PANEL_ROWS * lo) + squares + 24 * k

    def test_the_factored_solve_solves_with_the_stored_factor(self, monkeypatch):
        # _solve_factored(panels, r) against L L^T a = r solved in float64
        # by two triangular solves with L = _dense_factor (forming L L^T
        # would square L's condition number and take 150 MiB more), for
        # three random r, on uf50-001's float64 first-order fit, grown past
        # K = 4200 with int8 panels over 4000 columns wide, and after the
        # int16 rung on that state. Each pass rounds a panel's products
        # once in its working precision, with unit roundoff u (2^-24 for
        # float32, 2^-53 for float64); the error was at most 7.3 u max |a|
        # on all three, and is bounded at _PANEL_ROWS u max |a|.
        def check(state, dtype):
            assert state._panels[-1].rows.dtype == dtype
            factor = _dense_factor(state)
            u = np.finfo(state._panels[-1].diag.dtype).eps / 2
            rng = np.random.default_rng(54)
            for _ in range(3):
                r = rng.standard_normal(state.num_columns)
                ref = scipy.linalg.cho_solve((factor.T, False), r)
                a = approx_module._solve_factored(state._panels, r)
                assert np.abs(a - ref).max() <= _PANEL_ROWS * u * np.abs(ref).max()

        check(init_first_order(parse_dimacs(UF50_001.read_text())), np.float64)
        state, pairs = grown_uf50_001()
        while state.num_columns <= 4200:
            add_columns(state, pairs[:500])
            del pairs[:500]
        assert max(panel.rows.shape[1] for panel in state._panels) > 4000
        check(state, np.int8)
        factor_panel = approx_module._factor_panel

        def failing(state, lo, dtype):
            return None if dtype == np.int8 else factor_panel(state, lo, dtype)

        state._append(_new_columns(state, pairs, 64))
        monkeypatch.setattr(approx_module, "_factor_panel", failing)
        solve_weights(state)
        assert state._panel_dtype == np.int16
        check(state, np.int16)

    @staticmethod
    def _check_the_rung_then_int16(monkeypatch, name, failing):
        # The first batch after the first-order fit is solved with
        # approx.<name> replaced by `failing`: its int8 extension fails, and
        # it takes the int16 rung; every later batch is factored in int16,
        # on the float64 first-order panels. Returns the state.
        f = _disjoint_formula(30)
        state = init_first_order(f)
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        dtypes = []
        with monkeypatch.context() as m:
            m.setattr(approx_module, name, failing)
            factor_panel = approx_module._factor_panel

            def recording(state, lo, dtype):
                dtypes.append(np.dtype(dtype))
                return factor_panel(state, lo, dtype)

            m.setattr(approx_module, "_factor_panel", recording)
            add_columns(state, pairs[:100])
        # int8 panels, then the rung's int16 ones
        runs = [d for i, d in enumerate(dtypes) if i == 0 or d != dtypes[i - 1]]
        assert runs == [np.int8, np.int16] and state._panel_dtype == np.int16
        first_order = state._panels[0]
        add_columns(state, pairs[100:200])
        assert state.num_columns == 231 and state._panels[0] is first_order
        assert _panel_rows(state) == [(0, 31)] + _tiles(31, 131) + _tiles(131, 231)
        assert all(panel.rows.dtype == np.int16 for panel in state._panels[1:])
        return state

    def test_a_state_that_took_the_rung_keeps_int16_panels(self, monkeypatch):
        # int8 panels whose Schur blocks are not positive definite take the
        # int16 rung, and the state keeps int16 panels, solved to float64
        # accuracy.
        factor_panel = approx_module._factor_panel

        def failing(state, lo, dtype):
            return None if dtype == np.int8 else factor_panel(state, lo, dtype)

        state = self._check_the_rung_then_int16(monkeypatch, "_factor_panel", failing)
        k = state.num_columns
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(state.gram, lower=True), _unit_rhs(k))
        assert np.abs(state.weights - ref).max() <= TOL * max(1.0, np.abs(ref).max())
        assert state.inconsistent_from is None

    def test_a_gate_missed_at_int16_keeps_the_last_weights(self, monkeypatch):
        # PCG cut to one step: the int8 factor's solve misses the residual
        # check, and so does the int16 rung's, each over the whole batch.
        # The fit then keeps the first-order weights, the batch's columns
        # weighing 0, and records its K as evidence of an inconsistent
        # system.
        solve_factored = approx_module._solve_factored
        quantized = []

        def recording(panels, rhs):
            if panels[-1].rows.dtype != np.float64:
                quantized.append((len(panels), panels[-1].rows.dtype))
            return solve_factored(panels, rhs)

        first_order = init_first_order(_disjoint_formula(30)).weights
        monkeypatch.setattr(approx_module, "_solve_factored", recording)
        with monkeypatch.context() as m:
            m.setattr(approx_module, "_PCG_STEPS", 1)
            state = init_first_order(_disjoint_formula(30))
            add_columns(state, [(i, j) for i in range(30) for j in range(i + 1, 30)][:100])
        panels = len(_tiles(0, 31) + _tiles(31, 131))
        assert quantized == [(panels, np.int8), (panels, np.int16)]
        assert np.array_equal(state.weights[:31], first_order) and not state.weights[31:].any()
        assert state._panel_dtype == np.int16 and state.inconsistent_from == 131

    def test_a_column_repeated_after_the_rung_is_decoupled(self, monkeypatch):
        # A batch whose int8 Schur block fails takes the int16 rung; a later
        # column that repeats an earlier one is decoupled in its own int16
        # panel, on the factor held. Its weight and column 2's, whose cube
        # it repeats, sum to column 2's weight in the fit without it.
        factor_panel = approx_module._factor_panel

        def failing(state, lo, dtype):
            return None if dtype == np.int8 else factor_panel(state, lo, dtype)

        state = self._check_the_rung_then_int16(monkeypatch, "_factor_panel", failing)
        held = list(state._panels)
        state._append([((0,), column_signature(state.cache, (1,)))])
        a = solve_weights(state)
        assert all(held_panel is panel for held_panel, panel in zip(held, state._panels))
        assert _panel_rows(state)[-1] == (231, 232) and _decoupled(state) == [231]
        gram = state.gram[:231, :231]
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram, lower=True), _unit_rhs(231))
        merged = a[:231].copy()
        merged[2] += a[231]
        assert np.abs(merged - ref).max() <= TOL * max(1.0, np.abs(ref).max())

    def test_an_int8_schur_failure_rebuilds_at_int16(self, monkeypatch):
        # uf50-001 grown past K = 2000 with int8 panels, then a round of
        # 1000 columns whose last int8 panel is not positive definite: every
        # int8 panel is dropped, and each column past the first-order fit
        # is factored again as int16, in panels cut from its first row. The
        # state keeps its float64 first-order panels and the int16 dtype.
        # The solve's peak, all of it traced, is what it started with less
        # the int8 panels, plus the int16 factor, the term table's
        # extension (its sorted keys reallocated) and one bounded block.
        factor_panel = approx_module._factor_panel
        tracemalloc.start()
        try:
            state, pairs = grown_uf50_001()
            first_order = state.formula.num_clauses + 1  # no two clauses share a cube
            float64 = state._panels[: len(_tiles(0, first_order))]
            int8 = sum(array.nbytes for panel in state._panels[len(float64) :] for array in panel)
            assert all(panel.rows.dtype == np.int8 for panel in state._panels[len(float64) :])
            state._append(_new_columns(state, pairs, 1000))
            k = state.num_columns
            last = _tiles(k - 1000, k)[-1][0]

            def failing(state, lo, dtype):
                if dtype == np.int8 and lo == last:
                    return None
                return factor_panel(state, lo, dtype)

            monkeypatch.setattr(approx_module, "_factor_panel", failing)
            table = _table_bytes(state._terms)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_weights(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state._panel_dtype == np.int16
        assert _panel_rows(state) == _tiles(0, first_order) + _tiles(first_order, k)
        assert all(held is panel for held, panel in zip(float64, state._panels))
        int16 = state._panels[len(float64) :]
        assert all(panel.rows.dtype == np.int16 for panel in int16)
        factor = sum(array.nbytes for panel in int16 for array in panel)
        extension = _table_bytes(state._terms) - table
        keys = state._terms.keys.nbytes + state._terms.key_ids.nbytes
        assert peak <= start - int8 + factor + extension + keys + 2 * 2**20
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(state.gram, lower=True), _unit_rhs(k))
        assert np.abs(state.weights - ref).max() <= TOL * max(1.0, np.abs(ref).max())

    def test_uf20_009_stays_quantized_under_pcg(self, monkeypatch):
        # uf20-009 with the solver seeds derive_seed(0) and derive_seed(4)
        # of its file name: round 2 extends the K = 92 first-order fit to
        # K = 165. Stationary refinement with an int16 factor missed the
        # residual check there and rebuilt the factor in float64; PCG meets
        # it with the int8 factor, and the solve ends SAT in round 2.
        f = parse_dimacs(UF20_009.read_text())
        solves = []
        factor_and_solve = approx_module._factor_and_solve

        def recording(state, rhs, start, dtype):
            a = factor_and_solve(state, rhs, start, dtype)
            solves.append((state.num_columns, np.dtype(dtype), a is not None))
            return a

        monkeypatch.setattr(approx_module, "_factor_and_solve", recording)
        for seed in (2041552444505839552, 2729568804755877532):
            solves.clear()
            stats = solve(f, SolverConfig(seed=seed, max_rounds=8))
            assert (stats.status, stats.rounds, stats.columns_final) == (Status.SAT, 2, 165)
            assert solves == [(92, np.float64, True), (165, np.int8, True)]

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
        # Named for the float64 ridge ladder, which rebuilt the whole factor
        # in float64 for a dependent column (1.2 GB on uf50-009 at
        # K = 16758). On uf50-001 grown past K = 2000, a repeated column
        # takes the int16 rung and is decoupled there; a second repeated
        # column is decoupled in its own int16 panel, and that solve's peak
        # stays within 2 MiB, an eighth of a float64 factor.
        state, _ = grown_uf50_001()
        state._append([((0,), column_signature(state.cache, (0,)))])
        solve_weights(state)
        assert state._panel_dtype == np.int16 and _decoupled(state) == [state.num_columns - 1]
        k = state.num_columns + 1
        state._append([((1,), column_signature(state.cache, (1,)))])
        tracemalloc.start()
        try:
            solve_weights(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _decoupled(state) == [k - 2, k - 1] and _panel_rows(state)[-1][1] == k
        first_order = len(_tiles(0, state.formula.num_clauses + 1))
        assert all(panel.rows.dtype == np.int16 for panel in state._panels[first_order:])
        assert peak <= 2 * 2**20 and 8 * peak <= 8 * k * (k + 1) // 2
        assert np.abs(state.gram @ state.weights - _unit_rhs(k)).max() <= 1e-6
        assert state.inconsistent_from is None

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
        assert rows == [(0, 4), (4, 5), (5, 7)]  # only the new rows, once per batch
        # a batch taller than a panel: its rows once, a panel at a time
        rows.clear()
        state = init_first_order(_disjoint_formula(30))
        add_columns(state, [(i, j) for i in range(30) for j in range(i + 1, 30)][:300])
        assert rows == [(0, 31)] + _tiles(31, 331)
        assert _panel_rows(state) == [(0, 31)] + _tiles(31, 331)


class TestDeadline:
    """A solve checks the state's deadline before each panel and each G a
    product, one per refinement or PCG step, so it overshoots it by at most
    one of them. A fake clock advances one unit per panel factored and per
    product taken."""

    @staticmethod
    def _clocked(monkeypatch):
        now = [0.0]
        monkeypatch.setattr(approx_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
        for owner, name in ((approx_module, "_factor_panel"), (ApproxState, "_gram_times")):
            function = getattr(owner, name)

            def ticking(*args, function=function):
                now[0] += 1.0
                return function(*args)

            monkeypatch.setattr(owner, name, ticking)
        return now

    def test_a_fit_ends_within_one_panel_or_step_of_its_deadline(self, monkeypatch):
        # 300 pair columns on 30 first-order ones: five int8 panels, then
        # the PCG products. Every deadline before the last unit starts ends
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
        # 201 first-order columns: four float64 panels, then the
        # refinement steps' products.
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
        # Named for the ridge ladder the rung once fell back to. A duplicate
        # column fails the int8 extension and sends the solve to the int16
        # rung, which factors every column past the first-order fit again;
        # the deadline cuts it short there too, before its second panel.
        f = _disjoint_formula(30)
        now = self._clocked(monkeypatch)
        state = init_first_order(f)
        add_columns(state, [(i, j) for i in range(30) for j in range(i + 1, 30)][:100])
        state._append([((0,), column_signature(state.cache, (1,)))])
        state.deadline = now[0] + 1.5
        with pytest.raises(DeadlineReached):
            solve_weights(state)
        assert state._panel_dtype == np.int16  # on the rung
        assert _panel_rows(state) == [(0, 31), (31, 95)]
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
        assert not _decoupled(state)
        incremental = state.omega_tilde
        assert incremental is not first
        self._check(state)
        # a solve through the int16 rung that decouples the repeated column
        state._append([((1, 3), column_signature(state.cache, (0, 1)))])
        solve_weights(state)
        assert _decoupled(state) == [5]
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

    def test_a_satisfiable_fit_is_the_projection(self):
        # For a satisfiable formula every column but the constant vanishes
        # on the solutions, so G a = e_0 is consistent whatever the rank of
        # G, and its fit is the minimum-norm least-squares fit's function
        # (2^n/|SAT| times the projection of omega onto the columns' span).
        # Seeded random formulas, n = 3..10 with 3 to 5n clauses, each grown
        # by all its pairs in shuffled batches of 10, 50 or 200: every fit
        # meets the residual check and is that function to 1e-7, singular
        # Gram matrices included. The weights stay under 1e3 (at most 302;
        # a ridge of 1e-10 drifted up to 5.7e-5 from the function, with
        # weights up to 5.4e3).
        rng = random.Random(60)
        fits = singular = 0
        for _ in range(1200):
            n = rng.randrange(3, 11)
            f = random_formula(rng, n, rng.randrange(3, 5 * n + 1))
            if solution_count(f) == 0:
                continue
            state = init_first_order(f)
            pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
            rng.shuffle(pairs)
            size = rng.choice((10, 50, 200))
            for lo in range(-size, len(pairs), size):
                if lo >= 0 and not add_columns(state, pairs[lo : lo + size]):
                    continue
                gram, a = state.gram, state.weights
                assert state.inconsistent_from is None
                assert np.abs(gram @ a - _unit_rhs(len(a))).max() <= 1e-6
                assert np.abs(a).max() <= 1e3
                cols = _dense_columns(state)
                assert np.abs(cols @ a - cols @ np.linalg.pinv(gram)[:, 0]).max() <= 1e-7
                fits += 1
                singular += np.linalg.matrix_rank(gram) < len(a)
        assert fits > 1000 and singular > 400

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
