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

Gram entries are closed-form: G_ij = 2^-|V_i ∪ V_j| for cubes on variables
V_i and V_j that agree on every shared variable, 0 otherwise. They are read
off packed uint64 sign masks, a bounded block of rows at a time; nothing is
ever enumerated over 2^n.

No Gram matrix is kept. The only K-squared state is the lower Cholesky factor
L of Gram + lambda*I, stored with no wasted entry as row panels of at most
_PANEL_ROWS rows: a panel holds L's rows left of its diagonal block, and the
block's inverse as a lower triangle packed by rows, so the factor takes
exactly K(K+1)/2 entries. A batch of d columns appended at K = o costs
O(K^2 d), not O(K^3): its raw Gram rows fill new panels, which become factor
rows in place by the block Cholesky update (Golub & Van Loan, Matrix
Computations, section 4.2)

    L21 = G21 L11^-T,    L22 = chol(G22 - L21 L21^T),

one bounded block at a time, with numpy's matrix product and Cholesky. Each
diagonal block is kept as its inverse, so both triangular solves, in the
update and in the weight solve, are matrix products too; a packed block is
expanded for them into a square of at most _PANEL_ROWS^2 entries, one at a
time. Every other array that grows with K beyond O(K) is built one bounded
block of _GRAM_BLOCK_ENTRIES entries at a time, and `weighted_row_sum`
applies the same rule to the decimation's sign matrix (ampsat.bias).

Precision: the panels of the first-order fit are float64 and every later
panel is float32, which halves the factor. The weights, the right-hand
side, the residuals and the Gram entries stay float64, and the solve reaches
float64 accuracy by iterative refinement (Langou et al., SC'06): from a = 0
and r = e_0, repeat a += L^-T L^-1 r, r = e_0 - (G + lambda*I) a, with G a in
closed form, until r is well under the residual check or stops halving. The
Gram matrices are well conditioned (cond(G) of 3e3 to 5e3 on the uf50 fits,
up to K ~ 5000), so each step shrinks r by about u_32 * cond(G) ~ 3e-4, and
two G a products per solve usually suffice. G a is evaluated from the lower triangle alone: each
bounded row block is built once and gives its own rows and, transposed, its
columns' share of the rows above it.

When that fails (the Schur complement is not positive definite, or the solve
misses the residual check), the ridge ladder rebuilds the Gram panels in
float64 with lambda on the diagonal and factors them all, lambda = 0 first;
a state that took the ladder keeps float64 panels from then on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .cnf import Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, Cube, IndicatorCache, validate_key

RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_RESIDUAL_TOL = 1e-6
# Dense entries per block of Gram rows (or of the decimation's sign
# matrix): bounds the temporaries of a Gram extension, a Gram-vector product
# or a decimation step however many columns there are, to about 1.2 MiB
# for a Gram block of 256 KiB.
_GRAM_BLOCK_ENTRIES = 1 << 15
# Rows per factor panel: bounds every block the factor updates, factors or
# inverts, and the square a packed diagonal block is expanded into. At 64
# rows the float64 copies np.linalg.cholesky makes of a block take 96 KiB
# (about 1 MiB at 256), far under one Gram block.
_PANEL_ROWS = 64
# A lower triangle of order d is _LOWER[:d, :d], in the row-major order its
# packed entries follow.
_LOWER = np.tri(_PANEL_ROWS, dtype=bool)
# Iterative refinement stops once max |r| is at most this much relative to
# max(1, max |a|), far under _RESIDUAL_TOL, or after _REFINE_STEPS solves.
_REFINE_TARGET = 1e-10
_REFINE_STEPS = 8


class WeightSolveError(RuntimeError):
    """The Gram system could not be solved even after ridge escalation."""


class _Panel(NamedTuple):
    """Rows [o, o + d) of the lower factor L: `rows` is the (d, o) block
    L[o:o+d, :o] and `diag` the inverse of the diagonal block
    L[o:o+d, o:o+d], a lower triangle packed by rows into d(d+1)/2 entries
    of the same dtype. A pending panel holds the raw Gram entries G[o:o+d, :o]
    and the lower triangle of G[o:o+d, o:o+d] in the same places."""

    rows: np.ndarray
    diag: np.ndarray


def column_signature(cache: IndicatorCache, key: ColumnKey) -> Cube | None:
    """Exact identity of a column as a function: its cube, or None, shared by
    every identically-zero product. Columns are deduplicated on this."""
    return cache.cube(key)


class ApproxState:
    """Columns, the factored Gram system and the solved weights: the fit.

    Single-owner mutable: one solver run drives add_columns/solve_weights
    sequentially. keys[0] is always the empty key (constant-1 column).

    Column j's cube is `masks[:, :, j]`: its (variables fixed to +1,
    variables fixed to -1) masks as ceil(n/64) uint64 words each, bit v of
    word w standing for s_(64w+v); no other module of the package reads this
    layout, and `signs()` unpacks it for decimation. The cubes and `weights`
    are the whole fit; neither the Gram matrix nor any Fourier term is
    stored, and `omega_tilde` is expanded from the keys when first read
    after the weights change.
    `_panels` holds the lower Cholesky factor L of Gram + ridge_lambda * I
    as `_Panel`s of d <= _PANEL_ROWS rows each, with no d x d square stored:
    L21 rows as a (d, o) array and the diagonal block's inverse packed, so
    the factor holds exactly K(K+1)/2 entries. Panels from index `_factored`
    on still hold raw Gram entries written by `_append`; solve_weights
    factors them in place. The first `_append` (the first-order fit) writes
    float64 panels and later ones float32, until the ridge ladder rebuilds
    every panel in float64 and clears `_float32_panels`. Either way
    solve_weights refines the weights to float64 accuracy against the
    closed-form G a of `_gram_times`, which reads only G's lower triangle.
    Apart from the panels, no array the fit builds grows faster than O(K)
    beyond one block of _GRAM_BLOCK_ENTRIES entries.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.cache = IndicatorCache(formula)
        self.keys: list[ColumnKey] = []
        self.weights = np.zeros(0)
        self.signatures: set[Cube | None] = set()
        self.seen_keys: set[ColumnKey] = set()
        self.ridge_lambda = 0.0
        self.masks = np.zeros((2, -(-formula.num_vars // 64), 0), dtype=np.uint64)
        self._omega_tilde: tuple[np.ndarray | None, SparsePoly | None] = (None, None)
        self._panels: list[_Panel] = []
        self._factored = 0
        self._float32_panels = True

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
        for lo, hi in self._row_blocks(0, k, k):
            out[lo:hi] = self._gram_block(lo, hi, k)
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
        """Append (key, cube) columns past deduplication: pack their cubes
        and write their raw Gram rows as new panels, float64 for the first
        batch and float32 after it (see the class docstring)."""
        start = self.num_columns
        words = self.masks.shape[1]
        raw = b"".join(m.to_bytes(8 * words, "little") for _, cube in columns for m in cube)
        packed = np.frombuffer(raw, dtype="<u8").reshape(len(columns), 2, words)
        self.keys += [key for key, _ in columns]
        self.masks = np.concatenate([self.masks, packed.transpose(1, 2, 0)], axis=2)
        single = start > 0 and self._float32_panels
        self._panels += self._gram_panels(start, np.float32 if single else np.float64)

    def _gram_panels(self, start: int, dtype=np.float64) -> list[_Panel]:
        """Raw Gram rows [start, K) as pending panels of at most _PANEL_ROWS
        rows, each against the columns before its first row, with its
        diagonal block's lower triangle packed."""
        k = self.num_columns
        panels = []
        for lo in range(start, k, _PANEL_ROWS):
            d = min(_PANEL_ROWS, k - lo)
            panel = _Panel(np.empty((d, lo), dtype), np.empty(d * (d + 1) // 2, dtype))
            lower = _LOWER[:d, :d]
            for r0, r1 in self._row_blocks(lo, lo + d, lo + d):
                block = self._gram_block(r0, r1, lo + d)
                i0, i1 = r0 - lo, r1 - lo
                panel.rows[i0:i1] = block[:, :lo]
                panel.diag[i0 * (i0 + 1) // 2 : i1 * (i1 + 1) // 2] = block[:, lo:][lower[i0:i1]]
            panels.append(panel)
        return panels

    @staticmethod
    def _row_blocks(lo: int, hi: int, width: int) -> Iterator[tuple[int, int]]:
        """Row ranges covering [lo, hi), each a bounded block of `width`
        columns."""
        step = max(1, _GRAM_BLOCK_ENTRIES // max(1, width))
        for r in range(lo, hi, step):
            yield r, min(r + step, hi)

    def _gram_block(self, lo: int, hi: int, width: int) -> np.ndarray:
        """Gram rows [lo, hi) against columns [0, width), in closed form: the
        intersection of two cubes fixes the union of their variables, and is
        empty when one variable is fixed to +1 by one cube and to -1 by the
        other."""
        union = np.zeros((hi - lo, width), dtype=np.int32)
        consistent = np.ones((hi - lo, width), dtype=bool)
        for p, q in zip(*self.masks[:, :, :width]):
            fixed_plus = p[lo:hi, None] | p
            fixed_minus = q[lo:hi, None] | q
            union += np.bitwise_count(fixed_plus | fixed_minus)
            consistent &= (fixed_plus & fixed_minus) == 0
        block = np.ldexp(1.0, -union)
        block *= consistent
        return block

    def _gram_times(self, a: np.ndarray) -> np.ndarray:
        """G a from G's lower triangle, without holding more than one block
        of G: the block of rows [lo, hi) and columns [0, hi) gives rows
        [lo, hi) of G a up to column hi and, transposed, the share of
        columns [lo, hi) in rows [0, lo)."""
        k = self.num_columns
        out = np.zeros(k)
        for lo, hi in self._row_blocks(0, k, k):
            block = self._gram_block(lo, hi, hi)
            out[lo:hi] += block @ a[:hi]
            out[:lo] += block[:, :lo].T @ a[lo:hi]
        return out


def weighted_row_sum(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """w @ rows in float64 for a (K x m) array of any numeric dtype, cast to
    float one block of at most _GRAM_BLOCK_ENTRIES entries at a time. Rows
    that fit in one block give exactly w @ rows.astype(float)."""
    blocks = ApproxState._row_blocks(0, len(rows), rows.shape[1])
    lo, hi = next(blocks)
    out = w[lo:hi] @ rows[lo:hi].astype(float)
    for lo, hi in blocks:
        out += w[lo:hi] @ rows[lo:hi].astype(float)
    return out


def init_first_order(formula: Formula) -> ApproxState:
    """Constant column plus one column per distinct clause, solved and assembled."""
    state = ApproxState(formula)
    keys: list[ColumnKey] = [()]
    keys.extend((m,) for m in range(formula.num_clauses))
    add_columns(state, keys)
    return state


def add_columns(state: ApproxState, new_keys: Iterable[ColumnKey]) -> int:
    """Append columns for keys not yet present (by key, then by signature).

    Identically-zero products are recorded as exhausted but never added.
    Returns the number of columns actually appended; when nonzero their Gram
    rows are appended as new factor panels and the weights re-solved.
    """
    accepted: list[tuple[ColumnKey, Cube]] = []
    for key in new_keys:
        key = tuple(key)
        if key in state.seen_keys:
            continue
        validate_key(key, state.formula.num_clauses)
        state.seen_keys.add(key)
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
    """Solve (A^T A) a = e_0, escalating a ridge term if the system is singular.

    While the factor carries no ridge, the panels appended since the last
    solve are factored onto it incrementally. If that fails, or a ridge is
    in use, the ridge ladder rebuilds and factors all the Gram panels from
    lambda = 0 up. Stores the result and the ridge value used on the state
    and returns the weight vector.
    """
    k = state.num_columns
    if k == 0:
        raise WeightSolveError("no columns to solve")
    rhs = np.zeros(k)
    rhs[0] = 1.0
    covered = sum(len(panel.rows) for panel in state._panels)
    if state.ridge_lambda == 0.0 and covered == k:
        a = _factor_and_solve(state, rhs, 0.0)
        if a is not None:
            state.weights = a
            return a
    state._float32_panels = False
    for lam in RIDGE_LADDER:
        state._panels = []  # drop the old factor before building its successor
        state._factored = 0
        state._panels = state._gram_panels(0)
        for panel in state._panels:
            i = np.arange(len(panel.rows))
            panel.diag[i * (i + 3) // 2] += lam  # the packed diagonal
        a = _factor_and_solve(state, rhs, lam)
        if a is not None:
            state.weights = a
            state.ridge_lambda = lam
            return a
    state._panels = []
    state._factored = 0
    raise WeightSolveError(f"Gram solve failed after ridge escalation (K={k})")


def _factor_and_solve(state: ApproxState, rhs: np.ndarray, lam: float) -> np.ndarray | None:
    """Factor the pending panels, solve by iterative refinement, and check
    the residual against (G + lam*I) a = rhs, with G the closed-form Gram
    matrix. None on failure.

    Each refinement step solves with the factor for the correction and takes
    the residual in float64. It stops at _REFINE_TARGET, when a step fails
    to halve max |r| (the best iterate is kept), or after _REFINE_STEPS; a
    float64 factor usually meets the target in one step.

    rhs has unit norm, so at lam = 0 the residual bound is absolute: a solve
    that meets it only relative to huge weights (a singular G whose null
    space meets rhs) fails, and the ridge ladder takes over. A ridge rung's
    weights are ~1/lam on such a G by design and G a is rounded relative to
    them, so for lam > 0 the bound scales with max |a|."""
    for q in range(state._factored, len(state._panels)):
        if not _factor_panel(state._panels, q):
            return None
        state._factored = q + 1
    best, best_norm = None, np.inf
    a, r = np.zeros_like(rhs), rhs
    for _ in range(_REFINE_STEPS):
        a = a + _solve_factored(state._panels, r)
        if not np.all(np.isfinite(a)):
            break
        r = rhs - lam * a - state._gram_times(a)
        norm = np.abs(r).max()
        halved = norm <= best_norm / 2
        if norm < best_norm:
            best, best_norm = a, norm
        if not halved or norm <= _REFINE_TARGET * max(1.0, np.abs(a).max()):
            break
    if best is None:
        return None
    scale = 1.0 if lam == 0.0 else max(1.0, np.abs(best).max())
    return best if best_norm <= _RESIDUAL_TOL * scale else None


def _unpack(packed: np.ndarray, d: int) -> np.ndarray:
    """The lower triangle of order d packed by rows in `packed`, as a new
    d x d square in packed's dtype, zero above the diagonal."""
    square = np.zeros((d, d), packed.dtype)
    square[_LOWER[:d, :d]] = packed
    return square


def _factor_panel(panels: list[_Panel], q: int) -> bool:
    """Turn panel q's raw Gram entries into factor rows, in place, given the
    factored panels before it: X = G21 L11^-T by block forward substitution,
    then L22 = chol(G22 - X X^T), stored packed as its inverse. False when
    G22 - X X^T is not positive definite.

    Every product, and so every temporary, is at most _PANEL_ROWS
    square."""
    rows, diag = panels[q]
    for prior in panels[:q]:
        dp, op = prior.rows.shape
        block = rows[:, op : op + dp]
        block -= rows[:, :op] @ prior.rows.T
        block[...] = block @ _unpack(prior.diag, dp).T
    lower = _LOWER[: len(rows), : len(rows)]
    schur = rows @ rows.T
    schur[lower] = diag - schur[lower]  # the upper triangle is never read
    try:
        factor = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    _invert_lower(factor)
    diag[...] = factor[lower]
    return True


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
    """Solve L L^T a = rhs by panel-wise forward then back substitution, each
    panel's products in its own precision: the vector segments are cast to
    the panel's dtype, never a panel to the vector's."""
    a = rhs.copy()
    for rows, diag in panels:
        d, o = rows.shape
        dtype = rows.dtype
        x = a[o : o + d].astype(dtype, copy=False) - rows @ a[:o].astype(dtype, copy=False)
        inverse = _unpack(diag, d)
        a[o : o + d] = inverse @ x
    for q in reversed(range(len(panels))):
        rows, diag = panels[q]
        d, o = rows.shape
        if q < len(panels) - 1:  # the last panel's is still expanded from the forward pass
            inverse = _unpack(diag, d)
        x = inverse.T @ a[o : o + d].astype(rows.dtype, copy=False)
        a[o : o + d] = x
        a[:o] -= rows.T @ x
    return a
