"""Property tests: the DIMACS round trip, the soundness of solve against
the brute-force oracle on small random formulas, the fit's closed-form
Gram matrix and mixed-precision weight solve against dense references, and
its Fourier-domain G a against the closed form."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ampsat import Formula, SolverConfig, Status, parse_dimacs, solve, to_dimacs, verify
from ampsat import approx
from ampsat.approx import add_columns, init_first_order
from ampsat.cnf import make_clause
from ampsat.oracle import dense_evaluate, solution_count

# derandomized: the same examples on every run, and no example database
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def raw_cnfs(draw, max_vars=12, max_width=5):
    """(num_vars, clauses as DIMACS literal codes): duplicate literals,
    tautologies and repeated clauses all allowed."""
    n = draw(st.integers(0, max_vars))
    if n == 0:
        return 0, []
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=max_width), max_size=3 * n))
    return n, clauses


def _dimacs_text(n, clauses):
    body = "".join(" ".join(map(str, codes)) + " 0\n" for codes in clauses)
    return f"c generated\np cnf {n} {len(clauses)}\n{body}"


@PROPERTY_SETTINGS
@given(raw_cnfs())
def test_dimacs_round_trip(raw):
    n, codes = raw
    formula = parse_dimacs(_dimacs_text(n, codes))
    # parsing canonicalizes every clause in order and drops tautologies
    canonical = [make_clause(c) for c in codes]
    assert list(formula.clauses) == [c for c in canonical if c is not None]
    assert formula.tautology_count == canonical.count(None)
    # serialization is lossless and a fixed point
    text = to_dimacs(formula)
    assert parse_dimacs(text) == formula
    assert to_dimacs(parse_dimacs(text)) == text


@st.composite
def small_formulas(draw):
    n, codes = draw(raw_cnfs(max_vars=8, max_width=3))
    clauses = tuple(c for c in map(make_clause, codes) if c is not None)
    return Formula(num_vars=n, clauses=clauses)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(small_formulas(), st.integers(0, 2**16))
def test_solve_is_sound(formula, seed):
    stats = solve(formula, SolverConfig(seed=seed, max_rounds=3))
    count = solution_count(formula)
    if stats.status is Status.SAT:
        assert count > 0
        assert verify(formula, stats.assignment)
    else:
        assert stats.assignment is None


@st.composite
def grown_fits(draw):
    """(formula of 3-literal clauses, or n-literal ones when n < 3, with
    1 <= n <= 10; batches of pair-column keys): up to four consecutive
    batches of the formula's clause pairs in a drawn order."""
    n = draw(st.integers(1, 10))
    clause = st.lists(st.integers(1, n), min_size=min(n, 3), max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    codes = draw(st.lists(clause, min_size=n, max_size=3 * n))
    clauses = tuple(c for c in map(make_clause, codes) if c is not None)
    m = len(clauses)
    pairs = draw(st.permutations([(i, j) for i in range(m) for j in range(i + 1, m)]))
    cuts = np.cumsum([0] + draw(st.lists(st.integers(1, 100), max_size=4))).tolist()
    batches = [pairs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    return Formula(num_vars=n, clauses=clauses), batches


def _dense_columns(state):
    """The columns' values on all 2^n assignments, one column each."""
    return np.stack(
        [dense_evaluate(state.cache.column_poly(key)).values for key in state.keys], axis=1
    )


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(grown_fits())
def test_closed_form_gram_is_the_dense_gram(fit):
    formula, batches = fit
    state = init_first_order(formula)
    for batch in batches:
        add_columns(state, batch)
    cols = _dense_columns(state)
    dense = cols.T @ cols / len(cols)  # <f, g> = 2^-n sum over assignments
    assert np.abs(state.gram - dense).max() <= 1e-12


def _check_full_rank_weights(state):
    """A full-rank state's weights against a float64 dense Cholesky solve."""
    k = state.num_columns
    if np.linalg.matrix_rank(_dense_columns(state)) < k:
        return
    rhs = np.zeros(k)
    rhs[0] = 1.0
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(state.gram, lower=True), rhs)
    assert np.abs(state.weights - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(grown_fits())
def test_full_rank_weights_match_a_dense_cholesky_solve(fit):
    # After the first-order fit a batch appends int8 factor panels (int16
    # past the rung); PCG keeps the weights at float64 accuracy on either.
    formula, batches = fit
    state = init_first_order(formula)
    _check_full_rank_weights(state)
    for batch in batches:
        add_columns(state, batch)
        _check_full_rank_weights(state)


@st.composite
def wide_fits(draw):
    """(formula on 1 <= n <= 12 variables, or n = 72 for two mask words,
    with clauses of up to 14 literals; pair-column batches): up to three
    batches of at most 40 clause pairs in all, so that some cubes fix
    more variables than the term table holds."""
    n = draw(st.one_of(st.integers(1, 12), st.just(72)))
    clause = st.lists(st.integers(1, n), min_size=1, max_size=min(n, 14), unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs))
    )
    codes = draw(st.lists(clause, min_size=1, max_size=12))
    clauses = tuple(c for c in map(make_clause, codes) if c is not None)
    m = len(clauses)
    pairs = draw(st.permutations([(i, j) for i in range(m) for j in range(i + 1, m)]))[:40]
    cuts = np.cumsum([0] + draw(st.lists(st.integers(1, 20), max_size=3))).tolist()
    batches = [pairs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    return Formula(num_vars=n, clauses=clauses), batches


@settings(PROPERTY_SETTINGS, max_examples=80)
@given(wide_fits(), st.integers(0, 2**16))
def test_gram_times_is_the_dense_gram_product(fit, seed):
    # G a over the term table (and, for wide cubes, closed-form rows)
    # against the rebuilt Gram matrix, to the rounding of its sums: a term
    # of A a sums at most K products, a column of A^T (A a) at most 2^|V|,
    # and both A^T A and |A|^T |A| are bounded entrywise by
    # M_ij = 2^-|V_i ∪ V_j| (G_ij itself, unless the cubes clash). The
    # bound is not K eps (|G| |x|): a 7-literal clause alone (K = 2) sums
    # 128 terms per product. Blocks of 64 entries take every fit past
    # K = 8 to the table, and cut it into many blocks.
    formula, batches = fit
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(approx, "_GRAM_BLOCK_ENTRIES", 64)
        state = init_first_order(formula)
        for batch in [[]] + batches:
            add_columns(state, batch)
            gram = state.gram
            k = state.num_columns
            either = state.masks[0] | state.masks[1]
            union = sum(np.bitwise_count(word[:, None] | word) for word in either)
            sums = k + 2 ** int(np.bitwise_count(either).sum(axis=0).max())
            for x in (state.weights, rng.standard_normal(k), rng.uniform(0, 1e3, k)):
                bound = sums * np.finfo(float).eps * (np.ldexp(1.0, -union) @ np.abs(x))
                assert np.all(np.abs(state._gram_times(x) - gram @ x) <= bound)
            if k > 8:
                assert state._terms.columns == k  # the table route ran
