"""Least-squares approximation of the solution-set indicator over sub-cube
columns.

The approximation is omega_tilde = sum_i a_i * column_i where column 0 is the
constant 1 and the rest are clause indicators or pairwise indicator products,
each the indicator of a sub-cube (see ampsat.indicator) and deduplicated
exactly by it. The fit is kept as the column cubes (packed sign masks) and
their weights, and nothing else: no column keeps a Fourier expansion, and
bias-1 decimation runs on the cubes and weights directly (ampsat.bias).
omega_tilde as a polynomial is expanded on demand, for bias-2 decimation and
as a reference. The weights solve G a = e_0: the Gram matrix of normalized
inner products against the right-hand side that encodes "the solution set
overlaps the all-ones column and is orthogonal to every indicator column".
The right-hand side's leading entry is fixed at exactly 1; bias decimation is
scale-invariant, so its true value is immaterial.

G is reached by two independent routes. In closed form, G_ij = 2^-|V_i ∪ V_j|
for cubes on variables V_i and V_j that agree on every shared variable, 0
otherwise, read off packed uint64 sign masks a bounded block of rows at a
time; the factor is built from these rows. In the Fourier domain, G = A^T A
with A the columns' Fourier incidence: column j has the 2^|V_j| terms
chi_T, T ⊆ V_j, each with coefficient ±2^-|V_j|, about 60 per column on
3-SAT pairs against K for a closed-form row. The refinement residual's G a
is A^T (A a) over a compact table of these terms (`_TermTable`), and the
closed form for the rows the table leaves out: every row while G fits in
one bounded block, and the columns fixing too many variables. The table is
kept as bounded blocks, each with its own entries and interned as it is
built, so extending it copies none of the old ones. Nothing is ever
enumerated over 2^n.

No Gram matrix is kept. The only K-squared state is a lower Cholesky factor
L of G, stored as row panels of at most _PANEL_ROWS rows: a panel holds L's
rows left of its diagonal block, and the block's inverse as a square of at
most _PANEL_ROWS^2 entries, zero above the diagonal. A batch of d columns
appended at K = o costs O(K^2 d), not O(K^3): each new panel's raw Gram
rows are built, factored by the block Cholesky update (Golub & Van Loan,
Matrix Computations, section 4.2)

    L21 = G21 L11^-T,    L22 = chol(G22 - L21 L21^T),

and stored, one panel at a time, with numpy's matrix product and Cholesky.
Each diagonal block is kept as its inverse, so both triangular solves, in
the update and in the weight solve, are matrix products too, and a
quantized panel is cast to float32 whole, one panel at a time.
Every other array that grows with K beyond O(K) is built one bounded block
of _GRAM_BLOCK_ENTRIES entries at a time, cut by `row_blocks`, which also
cuts the decimation's sign matrix (`weighted_row_sum`, ampsat.bias).

Precision: the factor only preconditions the solve (Langou et al., SC'06;
Carson & Higham, SIAM J. Sci. Comput. 40(2), 2018), so it is stored
coarsely. The panels of the first-order fit are float64; every later panel
stores its L21 rows quantized, rint(row / s) with one float32 scale
s = max |row| / 127 per row as int8 (32767 as int16), and its diagonal
inverse as float32, so an int8 factor takes about a quarter of the bytes of
a float32 one. The weights, the right-hand side, the residuals and the Gram
entries stay float64. Every fit is one solve of the unmodified G a = e_0 by
preconditioned conjugate gradients (PCG) with M = L L^T, each step one
solve with the factor and one Fourier-domain G a: about a dozen steps where
cond(G) is 3e3 to 5e3 (the uf50 fits, up to K ~ 5000), one on the exact
float64 factor of a first-order fit.

Every column but the constant vanishes on every satisfying assignment, so
for a satisfiable formula G a = e_0 is consistent whatever the rank of G,
and PCG with any positive definite M solves it (Kaasschieter, J. Comput.
Appl. Math. 24, 1988), to 2^n/|SAT| times the projection of the
solution-set indicator onto the columns' span. A column that depends on
earlier ones is therefore decoupled in M alone: when a panel's Schur block
fails Cholesky or has a pivot^2 under _PIVOT_FLOOR * G_jj, such a column
gets a zero row of L and a zero row scale, with sqrt(G_jj) on the diagonal.
An int8 panel is not decoupled, as its failures are int8 rounding (on
uf50-009 at K = 6077 the exact Schur block has eigenvalues 0.004 to
0.014): its int8 panels, and those of an int8 solve that misses the
residual check, are dropped and every column past the first-order fit is
factored again as int16, kept from then on. A fit that still misses the
check, max |G a - e_0| <= _RESIDUAL_TOL, solved an inconsistent system,
which in exact arithmetic only an UNSAT formula has: it keeps the last
solved weights, the columns added since at 0, and records its K
(`ApproxState.inconsistent_from`) as floating-point evidence of UNSAT.

A solve checks the state's deadline before each panel and each G a
product, so it overshoots the deadline by at most one of them.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple

import numpy as np

from .cnf import Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, Cube, IndicatorCache, validate_key

_RESIDUAL_TOL = 1e-6
# Dense entries per block of Gram rows, of term-table entries, or of the
# decimation's sign matrix: bounds the temporaries of a Gram extension, a
# Gram-vector product or a decimation step however many columns there are,
# to about 1.2 MiB for a Gram block of 256 KiB.
_GRAM_BLOCK_ENTRIES = 1 << 15
# Rows per factor panel: bounds every block the factor updates, factors,
# inverts or stores as its diagonal. At 64 rows the float64 copies
# np.linalg.cholesky makes of a block take 96 KiB (about 1 MiB at 256), far
# under one Gram block, and a stored float32 diagonal square 16 KiB.
_PANEL_ROWS = 64
# A column fixing c variables adds 2^c entries to the term table, without
# bound for long clauses. Past this many (4096 entries, a closed-form Gram
# row at K = 4096) it stays out of the table, and G a takes its rows in
# closed form.
_TABLE_VARS = 12
# PCG stops once max |r| is at most this much relative to max(1, max |a|),
# far under _RESIDUAL_TOL, or after _PCG_STEPS steps. It took at most 24
# steps on a quantized factor (uf50-009 and uf50-018 at 60 rounds, K up to
# 9549), and at most 14 on the uf50 fits past K = 1000 at 8 rounds.
_PCG_TARGET = 1e-12
_PCG_STEPS = 40
# A column whose Schur pivot^2 falls under this fraction of G_jj is
# decoupled in the preconditioner (see the module docstring): it is that
# close to the span of the columns before it.
_PIVOT_FLOOR = 1e-3


class WeightSolveError(RuntimeError):
    """There is nothing to solve, or a Gram-vector product is not finite."""


class DeadlineReached(Exception):
    """A solve reached the state's deadline before its weights were solved.
    The state then holds columns its factor and weights do not cover; the
    caller drops it."""


class _Panel(NamedTuple):
    """Rows [o, o + d) of the lower factor L. L[o:o+d, :o] is
    `rows * scale[:, None]`: int8 or int16 rows with float32 scales, or
    float64 rows with unit scales; a decoupled column's row and scale are 0.
    `diag` is the inverse of the diagonal block L[o:o+d, o:o+d], a (d, d)
    lower triangle with exact zeros above the diagonal; its dtype (float32
    beside quantized rows, float64 otherwise) is the one the panel's
    products are taken in."""

    rows: np.ndarray
    scale: np.ndarray
    diag: np.ndarray


def column_signature(cache: IndicatorCache, key: ColumnKey) -> Cube | None:
    """Exact identity of a column as a function: its cube, or None, shared by
    every identically-zero product. Columns are deduplicated on this."""
    return cache.cube(key)


class _TermBlock(NamedTuple):
    """The term-table entries of `columns`, whose cubes each fix `size`
    variables: their term ids (int32) and the signs of their coefficients
    (int8), 2^size per column, column by column in _cube_terms' order. Both
    stay flat: np.add.at and fancy indexing take a 1-d index several times
    faster than the same index as a (columns, 2^size) array."""

    columns: np.ndarray
    size: int
    ids: np.ndarray
    signs: np.ndarray


class _TermTable:
    """A, the columns' Fourier incidence, so that G = A^T A: a cube on the
    variables V with signs sigma has the terms chi_T for T ⊆ V, each with
    coefficient 2^-|V| prod_{v in T} sigma_v (ampsat.indicator).

    The entries are held in `blocks`, `_TermBlock`s of at most
    _GRAM_BLOCK_ENTRIES entries each, and nothing holds them all in one
    array. A term keeps the id it is given when first seen; `keys` holds
    the distinct term masks sorted (a uint64 each, or a void of all mask
    words when n > 64) and `key_ids` their ids.
    The table covers the first `columns` columns. Those fixing more than
    _TABLE_VARS variables have no entries and are listed in `wide`."""

    def __init__(self, words: int):
        self.words = words
        self.columns = 0
        self.keys = self._as_keys(np.zeros((0, words), np.uint64))
        self.key_ids = np.zeros(0, np.int32)
        self.blocks: list[_TermBlock] = []
        self.wide = np.zeros(0, np.intp)

    def _as_keys(self, masks: np.ndarray) -> np.ndarray:
        """(N, words) term masks as N sortable keys."""
        if self.words == 1:
            return masks[:, 0]
        return np.ascontiguousarray(masks).view(np.dtype((np.void, 8 * self.words)))[:, 0]

    def extend(self, masks: np.ndarray) -> None:
        """Add the entries of the columns past the first `columns` of
        `masks` ((2, words, K) as ApproxState.masks): one bounded block of
        columns of one cube size at a time, each block's term masks
        interned as it is built."""
        first, self.columns = self.columns, masks.shape[2]
        plus, minus = (np.ascontiguousarray(m.T) for m in masks[:, :, first:])
        size = np.bitwise_count(plus | minus).sum(axis=1)
        for c in np.flatnonzero(np.bincount(size)).tolist():
            cols = np.flatnonzero(size == c)
            if c > _TABLE_VARS:
                self.wide = np.concatenate([self.wide, cols + first])
                continue
            for block in row_blocks(len(cols), 1 << c):
                part = cols[block]
                term_masks, signs = _cube_terms(plus[part], minus[part], c)
                self.blocks.append(_TermBlock(part + first, c, self._intern(term_masks), signs))

    def _intern(self, masks: np.ndarray) -> np.ndarray:
        """The ids of (N, words) term masks, giving each new one the next
        id: one sort, a boolean diff and a searchsorted of the sorted
        distinct masks. np.unique imports numpy.ma on its first call, and
        holds several copies of its input."""
        keys = self._as_keys(masks)
        order = np.argsort(keys)
        ordered = keys[order]
        first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
        distinct = ordered[first]
        pos = np.searchsorted(self.keys, distinct)
        known = pos < len(self.keys)
        known[known] = self.keys[pos[known]] == distinct[known]
        fresh = ~known
        distinct_ids = np.empty(len(distinct), np.int32)
        distinct_ids[known] = self.key_ids[pos[known]]
        distinct_ids[fresh] = np.arange(len(self.keys), len(self.keys) + fresh.sum())
        self.keys = np.insert(self.keys, pos[fresh], distinct[fresh])
        self.key_ids = np.insert(self.key_ids, pos[fresh], distinct_ids[fresh])
        ids = np.empty(len(keys), np.int32)
        ids[order] = distinct_ids[np.cumsum(first) - 1]
        return ids

    def times(self, a: np.ndarray) -> np.ndarray:
        """A^T (A a), with a's entries at wide columns ignored and zeros
        at their rows. A a is summed per term by np.add.at, one block at a
        time (a np.bincount per block would make and add a vector of every
        term), and A^T y per column over the block's rows."""
        y = np.zeros(len(self.keys))
        for cols, c, ids, signs in self.blocks:
            coeffs = signs.reshape(len(cols), -1) * np.ldexp(a[cols], -c)[:, None]
            np.add.at(y, ids, coeffs.ravel())
        out = np.zeros(len(a))
        for cols, c, ids, signs in self.blocks:
            terms = y[ids] * signs
            out[cols] = np.ldexp(terms.reshape(len(cols), -1).sum(axis=1), -c)
        return out


def _cube_terms(plus: np.ndarray, minus: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier terms of B cubes that each fix c variables, given as
    (B, words) masks: their (B * 2^c, words) term masks and int8 signs,
    cube by cube, each cube's 2^c subsets in cube_poly's order (subset t
    holds the cube's i-th variable when bit i of t is set). The variables'
    bits are distinct, so a subset's mask is the sum of its bits, and its
    sign the parity of its variables fixed to -1: both are products with
    the (2^c, c) subset table."""
    count, words = plus.shape
    cubes = np.ascontiguousarray([plus | minus, minus], dtype="<u8")
    bits = np.unpackbits(cubes.view(np.uint8), axis=2, bitorder="little").view(bool)
    var = np.flatnonzero(bits[0]).reshape(count, c) % (64 * words)
    subsets = (np.arange(1 << c)[:, None] >> np.arange(c)) & 1
    parity = np.take_along_axis(bits[1], var, axis=1) @ subsets.T
    signs = (1 - 2 * (parity & 1)).astype(np.int8)
    low = np.left_shift(np.uint64(1), (var & 63).astype(np.uint64))
    table = subsets.T.astype(np.uint64)
    masks = np.stack([np.where(var >> 6 == w, low, 0) @ table for w in range(words)], axis=2)
    return masks.reshape(-1, words), signs.ravel()


class ApproxState:
    """Columns, the factored Gram system and the solved weights: the fit.

    Single-owner mutable: one solver run drives add_columns/solve_weights
    sequentially. keys[0] is always the empty key (constant-1 column).
    `signatures` holds the cube of every key offered in a batch that passed
    validation, None for the identically-zero products, and is the only
    record of what was tried. `deadline`, a time.monotonic() value or None
    (set by init_first_order), bounds every solve.

    Column j's cube is `masks[:, :, j]`: its (variables fixed to +1,
    variables fixed to -1) masks as max(1, ceil(n/64)) uint64 words each, bit v of
    word w standing for s_(64w+v); no other module of the package reads this
    layout, and `signs()` unpacks it for decimation. The cubes and `weights`
    are the whole fit; the Gram matrix is not stored, and `omega_tilde` is
    expanded from the keys when first read after the weights change.
    `_terms` is the columns' Fourier term table, which `_gram_times`
    extends to every column when it next reads it past one bounded block,
    interning each new block of term masks as it is built.
    `_panels` holds the preconditioner's lower Cholesky factor L as
    `_Panel`s of d <= _PANEL_ROWS rows each, covering the columns the last
    solve saw; solve_weights factors the columns appended since onto it,
    one new panel at a time. The first-order fit's panels are float64 and
    later ones `_panel_dtype` with row scales: int8, or int16 once an int8
    extension failed and its panels were factored again.
    `inconsistent_from` is the K of the first fit that missed the residual
    check, or None. `ridge_lambda` is always 0.0, as the fit takes no ridge;
    the benchmark's tracer (benchmark/spans.py) reads it. Apart from the
    panels, no array the fit builds grows faster than O(K) beyond one block
    of _GRAM_BLOCK_ENTRIES entries or one panel and its float32 cast, and
    the term table holds about 5 bytes per Fourier term, in blocks that are
    never copied again.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.cache = IndicatorCache(formula)
        self.keys: list[ColumnKey] = []
        self.weights = np.zeros(0)
        self.signatures: set[Cube | None] = set()
        self.ridge_lambda = 0.0
        self.inconsistent_from: int | None = None
        self.deadline: float | None = None
        words = max(1, -(-formula.num_vars // 64))
        self.masks = np.zeros((2, words, 0), dtype=np.uint64)
        self._omega_tilde: tuple[np.ndarray | None, SparsePoly | None] = (None, None)
        self._terms = _TermTable(words)
        self._panels: list[_Panel] = []
        self._panel_dtype = np.int8

    @property
    def num_columns(self) -> int:
        return len(self.keys)

    @property
    def omega_tilde(self) -> SparsePoly:
        """sum_i a_i * column_i as a polynomial, built from the columns'
        expansions and kept until `weights` is next assigned.

        Every coefficient is the column-order sum of a_i * coeff, terms are
        listed in order of first appearance, and sums of magnitude at most
        PRUNE_EPSILON are dropped."""
        weights, poly = self._omega_tilde
        if weights is not self.weights:
            acc: dict[frozenset[int], float] = {}
            for w, key in zip(self.weights.tolist(), self.keys):
                for term, coeff in self.cache.column_poly(key).terms.items():
                    acc[term] = acc.get(term, 0.0) + w * coeff
            pruned = {term: c for term, c in acc.items() if abs(c) > PRUNE_EPSILON}
            poly = SparsePoly._raw(self.formula.num_vars, pruned)
            self._omega_tilde = (self.weights, poly)
        return poly

    @property
    def terms(self):
        """omega_tilde's terms (expanding it), to size a state like a polynomial."""
        return self.omega_tilde.terms

    @property
    def gram(self) -> np.ndarray:
        """The (K x K) Gram matrix, rebuilt from the column cubes.

        A reference for tests and debugging; the solve path never builds it.
        """
        k = self.num_columns
        out = np.empty((k, k))
        for block in row_blocks(k, k):
            out[block] = self._gram_block(block, k)
        return out

    def signs(self) -> np.ndarray:
        """A new (K x n) int8 matrix of the cubes' signs: entry (i, j) is
        +1 or -1 where cube i fixes s_j to that value, 0 where it leaves s_j
        free."""
        words = np.ascontiguousarray(self.masks.transpose(0, 2, 1), dtype="<u8")
        plus, minus = np.unpackbits(
            words.view(np.uint8), axis=2, count=self.formula.num_vars, bitorder="little"
        ).view(np.int8)
        return plus - minus

    def _append(self, columns: list[tuple[ColumnKey, Cube]]) -> None:
        """Append (key, cube) columns past deduplication: pack their cubes.
        The next solve_weights factors them, and the next G a product adds
        them to the term table."""
        words = self.masks.shape[1]
        raw = b"".join(m.to_bytes(8 * words, "little") for _, cube in columns for m in cube)
        packed = np.frombuffer(raw, dtype="<u8").reshape(len(columns), 2, words)
        self.keys += [key for key, _ in columns]
        self.masks = np.concatenate([self.masks, packed.transpose(1, 2, 0)], axis=2)

    def _gram_block(self, rows: slice | np.ndarray, width: int) -> np.ndarray:
        """Gram rows `rows` (a slice or an index array) against columns
        [0, width), in closed form: the intersection of two cubes fixes the
        union of their variables, and is empty when one variable is fixed
        to +1 by one cube and to -1 by the other."""
        cubes = self.masks[:, :, :width]
        union = np.zeros((len(cubes[0, 0, rows]), width), dtype=np.int32)
        consistent = np.ones(union.shape, dtype=bool)
        for p, q in zip(*cubes):
            fixed_plus = p[rows, None] | p
            fixed_minus = q[rows, None] | q
            union += np.bitwise_count(fixed_plus | fixed_minus)
            consistent &= (fixed_plus & fixed_minus) == 0
        block = np.ldexp(1.0, -union)
        block *= consistent
        return block

    def _gram_times(self, a: np.ndarray) -> np.ndarray:
        """G a: A^T (A a) over the term table for the table's columns, and
        the closed form for every other row. Those are the wide columns and,
        while G fits in one bounded block, every column: the table is
        extended to every column only past that, since on such a fit (a uf20
        first-order fit, K = 92) building it would cost more than the
        products it saves. Each bounded block of the other rows gives those
        rows of G a against the table's columns and, transposed, every
        row's share of the block's columns."""
        k = len(a)
        terms = self._terms
        if terms.columns < k and k * k > _GRAM_BLOCK_ENTRIES:
            terms.extend(self.masks)
        out = terms.times(a)
        rows = np.concatenate([terms.wide, np.arange(terms.columns, k)])
        table_a = a.copy()
        table_a[rows] = 0.0
        for block in row_blocks(len(rows), k):
            gram = self._gram_block(rows[block], k)
            out[rows[block]] += gram @ table_a
            out += gram.T @ a[rows[block]]
        return out


def row_blocks(hi: int, width: int) -> list[slice]:
    """Rows [0, hi) cut into blocks of at most _GRAM_BLOCK_ENTRIES // width
    rows (one at least), so that a block of `width` columns stays bounded."""
    step = max(1, _GRAM_BLOCK_ENTRIES // max(1, width))
    return [slice(r, min(r + step, hi)) for r in range(0, hi, step)]


def weighted_row_sum(
    w: np.ndarray, rows: np.ndarray, blocks: list[slice] | None = None
) -> np.ndarray:
    """w @ rows in float64 for a (K x m) array of any numeric dtype, cast to
    float one block of row_blocks(K, m) at a time; a caller that sums the
    same array many times passes those blocks, computed once. Rows that fit
    in one block give exactly w @ rows.astype(float)."""
    first, *rest = row_blocks(len(rows), rows.shape[1]) if blocks is None else blocks
    out = w[first] @ rows[first].astype(float)
    for block in rest:
        out += w[block] @ rows[block].astype(float)
    return out


def init_first_order(formula: Formula, deadline: float | None = None) -> ApproxState:
    """Constant column plus one column per distinct clause, solved and
    assembled. The solve, and every later one, stops at `deadline` (see
    ApproxState) by raising DeadlineReached."""
    state = ApproxState(formula)
    state.deadline = deadline
    keys: list[ColumnKey] = [()]
    keys.extend((m,) for m in range(formula.num_clauses))
    add_columns(state, keys)
    return state


def add_columns(state: ApproxState, new_keys: Iterable[ColumnKey]) -> int:
    """Append columns for keys whose cube (signature) is not yet recorded.

    Identically-zero products are recorded, as the signature None, but never
    added. Returns the number of columns actually appended; when nonzero
    they are factored onto the Gram system and the weights re-solved. Every
    key is validated before any cube is recorded, so a batch that raises
    ValueError leaves the state as it was.
    """
    keys = [tuple(key) for key in new_keys]
    for key in keys:
        validate_key(key, state.formula.num_clauses)
    accepted: list[tuple[ColumnKey, Cube]] = []
    for key in keys:
        sig = column_signature(state.cache, key)
        if sig in state.signatures:
            continue
        state.signatures.add(sig)
        if sig is not None:  # a zero column would make the Gram matrix singular
            accepted.append((key, sig))
    if not accepted:
        return 0
    state._append(accepted)
    solve_weights(state)
    return len(accepted)


def solve_weights(state: ApproxState) -> np.ndarray:
    """Solve G a = e_0 by PCG, store the weights on the state and return them.

    The columns appended since the last solve are factored onto the state's
    factor: float64 panels for the first-order fit, and the state's
    `_panel_dtype` after it. If an int8 extension fails, its int8 panels are
    dropped and every column past the first-order fit is factored again as
    int16. A fit that misses the residual check keeps the last solved
    weights, padded with zeros (e_0 if it is the first fit), and records its
    K in `inconsistent_from` if no fit did before. Raises DeadlineReached
    once the state's deadline passes, and WeightSolveError when there are no
    columns or a G a product is not finite.
    """
    k = state.num_columns
    if k == 0:
        raise WeightSolveError("no columns to solve")
    rhs = np.zeros(k)
    rhs[0] = 1.0
    covered = sum(len(panel.rows) for panel in state._panels)
    dtype = state._panel_dtype if covered else np.float64
    a = _factor_and_solve(state, rhs, covered, dtype)
    if a is None and dtype == np.int8:
        state._panels = [panel for panel in state._panels if panel.rows.dtype == np.float64]
        state._panel_dtype = np.int16
        first_order = sum(len(panel.rows) for panel in state._panels)
        a = _factor_and_solve(state, rhs, first_order, np.int16)
    if a is None:
        if state.inconsistent_from is None:
            state.inconsistent_from = k
        a = rhs.copy()
        a[: len(state.weights)] = state.weights
    state.weights = a
    return a


def _factor_and_solve(state: ApproxState, rhs: np.ndarray, start: int, dtype) -> np.ndarray | None:
    """Factor the columns from `start` on into new panels of `dtype`, solve
    G a = rhs by PCG with the whole factor, and check the true residual
    (max |G a - rhs| <= _RESIDUAL_TOL: rhs has unit norm). None when an
    int8 panel fails or the check is missed. Raises DeadlineReached, before
    a panel or a G a product, once the state's deadline has passed."""
    for lo in range(start, state.num_columns, _PANEL_ROWS):
        _check_deadline(state)
        panel = _factor_panel(state, lo, dtype)
        if panel is None:
            return None
        state._panels.append(panel)
    a, norm = _conjugate_gradients(state, rhs)
    return a if norm <= _RESIDUAL_TOL else None


def _conjugate_gradients(state: ApproxState, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """PCG on G a = rhs from a = 0, preconditioned by the state's factor
    (Golub & Van Loan, Matrix Computations, section 11.5): the last iterate
    and the max |r| of its true residual, rhs - G a.

    Each step is one solve with the factor and one G a product. The
    recurred residual stops the loop at _PCG_TARGET or after _PCG_STEPS;
    it drifts from the true one by rounding alone, and one more product
    takes the true one for the residual check. A step whose curvature
    p^T G p is not positive ends the loop: G is only semidefinite. Raises
    WeightSolveError when the curvature is not finite."""
    a, r = np.zeros_like(rhs), rhs
    p, rz = None, 1.0
    for _ in range(_PCG_STEPS):
        z = _solve_factored(state._panels, r)
        rz, previous = r @ z, rz
        p = z if p is None else z + (rz / previous) * p
        _check_deadline(state)
        q = state._gram_times(p)
        curvature = p @ q
        if not np.isfinite(curvature):
            raise WeightSolveError(f"Gram product is not finite (K={state.num_columns})")
        if curvature <= 0.0:
            break
        step = rz / curvature
        a = a + step * p
        r = r - step * q
        if np.abs(r).max() <= _PCG_TARGET * max(1.0, np.abs(a).max()):
            break
    _check_deadline(state)
    return a, np.abs(rhs - state._gram_times(a)).max()


def _check_deadline(state: ApproxState) -> None:
    """Raise DeadlineReached if the state's deadline has passed."""
    if state.deadline is not None and time.monotonic() >= state.deadline:
        raise DeadlineReached(f"deadline reached at K={state.num_columns}")


def _factor_panel(state: ApproxState, lo: int, dtype) -> _Panel | None:
    """The panel of factor rows [lo, lo + d), given the panels before it,
    stored as `dtype` (int8, int16 or float64). Its raw Gram rows G21 are
    built in the working precision (float32 for int8 and int16, float64
    otherwise) and G22 as a float64 square, then X = G21 L11^-T by block
    forward substitution, each prior panel read in that precision, its
    scales applied to the product and its decoupled columns of X zeroed,
    and L22 = chol(G22 - X X^T), cast to the working precision and stored
    as its inverse. When that Cholesky fails or has a pivot^2 under
    _PIVOT_FLOOR * G_jj, an int8 panel is None and any other is factored by
    `_decoupling_cholesky`. X is quantized only after the Schur complement.
    Every product, and so every temporary beyond X and one prior panel's
    cast, is at most _PANEL_ROWS square.

    Each prior panel is cast and multiplied whole because the float32
    rounding of X decides whether the Schur block of a column that depends
    on earlier ones comes out positive definite: with X summed in another
    order, uf50-018's int16 Schur block at K = 11084 in the uf50 acceptance
    run (criterion 6) was not."""
    d = min(_PANEL_ROWS, state.num_columns - lo)
    quantized = dtype != np.float64
    work = np.float32 if quantized else np.float64
    rows = np.empty((d, lo), work)
    g22 = np.empty((d, d))
    for block in row_blocks(d, lo + d):
        gram = state._gram_block(slice(lo + block.start, lo + block.stop), lo + d)
        rows[block], g22[block] = gram[:, :lo], gram[:, lo:]
    diagonal = g22.diagonal().copy()
    for prior in state._panels:
        dp, op = prior.rows.shape
        block = rows[:, op : op + dp]
        block -= (rows[:, :op] @ prior.rows.astype(work, copy=False).T) * prior.scale
        block[...] = block @ prior.diag.T
        block[:, prior.scale == 0.0] = 0.0
    g22 -= rows @ rows.T
    try:
        factor = np.linalg.cholesky(g22.astype(work, copy=False))
        coupled = np.diagonal(factor) ** 2 >= _PIVOT_FLOOR * diagonal
    except np.linalg.LinAlgError:
        factor = None
    if factor is None or not coupled.all():
        if dtype == np.int8:
            return None
        factor, coupled = _decoupling_cholesky(g22, diagonal)
        factor = factor.astype(work, copy=False)
        rows[~coupled] = 0.0
    _invert_lower(factor)
    if quantized:
        top = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
        scale = top / work(np.iinfo(dtype).max)  # max |row| without a copy of |rows|
        scale[scale == 0.0] = 1.0
        rows /= scale[:, None]
        rows = np.rint(rows, out=rows).astype(dtype)
    else:
        scale = np.ones(d)
    scale[~coupled] = 0.0
    return _Panel(rows, scale, factor)


def _decoupling_cholesky(schur: np.ndarray, diagonal: np.ndarray):
    """Column-order Cholesky of a Schur block that decouples every column j
    whose pivot^2 falls under _PIVOT_FLOOR * diagonal[j] (G_jj): j's row
    left of the diagonal and column below it are zero, with sqrt(G_jj) on
    the diagonal. The lower factor, which factors the block's coupled
    columns exactly, and the mask of coupled columns."""
    d = len(schur)
    factor = np.zeros((d, d))
    coupled = np.ones(d, dtype=bool)
    for j in range(d):
        pivot = schur[j, j] - factor[j, :j] @ factor[j, :j]
        if pivot < _PIVOT_FLOOR * diagonal[j]:
            coupled[j] = False
            factor[j, :j] = 0.0
            factor[j, j] = np.sqrt(diagonal[j])
            continue
        factor[j, j] = np.sqrt(pivot)
        below = schur[j + 1 :, j] - factor[j + 1 :, :j] @ factor[j, :j]
        factor[j + 1 :, j] = below / factor[j, j]
    return factor, coupled


def _invert_lower(block: np.ndarray) -> None:
    """Overwrite a lower triangular block with its inverse, by halves:

        [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]],

    so beyond blocks of at most 32 rows the work is matrix products, and
    the zero triangle is never factored as an LU-based inverse would."""
    n = len(block)
    if n <= 32:
        block[...] = np.tril(np.linalg.inv(block))
        return
    h = n // 2
    _invert_lower(block[:h, :h])
    _invert_lower(block[h:, h:])
    block[h:, :h] = -(block[h:, h:] @ block[h:, :h]) @ block[:h, :h]


def _solve_factored(panels: list[_Panel], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T a = rhs by panel-wise forward then back substitution,
    each panel's products in its own precision: its rows are cast to that
    precision whole, once per pass, as `_factor_panel` reads them, and the
    row scales applied to the d-vectors."""
    a = rhs.copy()
    for rows, scale, diag in panels:
        d, o = rows.shape
        work = diag.dtype
        product = rows.astype(work, copy=False) @ a[:o].astype(work, copy=False)
        a[o : o + d] = diag @ (a[o : o + d].astype(work) - scale * product)
    for rows, scale, diag in reversed(panels):
        d, o = rows.shape
        x = diag.T @ a[o : o + d].astype(diag.dtype, copy=False)
        a[o : o + d] = x
        a[:o] -= rows.astype(diag.dtype, copy=False).T @ (scale * x)
    return a
