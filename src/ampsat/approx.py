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
L of Gram + lambda*I, stored as row panels of at most _PANEL_ROWS rows: a
panel holds L's rows from its first row up to the diagonal, so beyond the
lower triangle only the diagonal blocks' upper halves are stored. A batch
of d columns appended at K = o costs O(K^2 d), not O(K^3): its raw Gram rows
fill new panels, which become factor rows in place by the block Cholesky
update (Golub & Van Loan, Matrix Computations, section 4.2)

    L21 = G21 L11^-T,    L22 = chol(G22 - L21 L21^T),

one bounded block at a time, with numpy's matrix product and Cholesky. Each
diagonal block is kept as its inverse, so both triangular solves, in the
update and in the weight solve, are matrix products too.

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

from typing import Iterable, Iterator

import numpy as np

from .cnf import Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, Cube, IndicatorCache, validate_key

RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_RESIDUAL_TOL = 1e-6
# Dense entries per block of Gram rows: bounds the temporaries of a Gram
# extension or a Gram-vector product however many columns there are, and
# keeps each temporary (512 KiB) cache-sized.
_GRAM_BLOCK_ENTRIES = 1 << 16
# Rows per factor panel: bounds every block the factor updates, factors or
# inverts, and the unused upper half of each panel's diagonal block.
_PANEL_ROWS = 256
# Iterative refinement stops once max |r| is at most this much relative to
# max(1, max |a|), far under _RESIDUAL_TOL, or after _REFINE_STEPS solves.
_REFINE_TARGET = 1e-10
_REFINE_STEPS = 8


class WeightSolveError(RuntimeError):
    """The Gram system could not be solved even after ridge escalation."""


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
    by row panels of d <= _PANEL_ROWS rows: a panel of shape (d, o + d)
    holds L's rows [o, o + d), columns [0, o), and then the inverse of its
    diagonal block L[o:o+d, o:o+d], which is lower triangular too. Panels
    starting at or past row `_factored` still hold raw Gram rows written by
    `_append`; solve_weights factors them in place. The first `_append`
    (the first-order fit) writes float64 panels and later ones float32,
    until the ridge ladder rebuilds every panel in float64 and clears
    `_float32_panels`. Either way solve_weights refines the weights to
    float64 accuracy against the closed-form G a of `_gram_times`, which
    reads only G's lower triangle.
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
        self._panels: list[np.ndarray] = []
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
        return self._gram_rows(0, self.num_columns)

    def signs(self) -> np.ndarray:
        """A new (K x n) float matrix of the cubes' signs: entry (i, j) is
        +1 or -1 where cube i fixes s_j to that value, 0 where it leaves s_j
        free."""
        words = np.ascontiguousarray(self.masks.transpose(0, 2, 1), dtype="<u8")
        plus, minus = np.unpackbits(
            words.view(np.uint8), axis=2, count=self.formula.num_vars, bitorder="little"
        )
        return np.subtract(plus, minus, dtype=float)

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

    def _gram_panels(self, start: int, dtype=np.float64) -> list[np.ndarray]:
        """Raw Gram rows [start, K) as factor-shaped panels of at most
        _PANEL_ROWS rows, each against the columns up to its last row."""
        k = self.num_columns
        return [
            self._gram_rows(lo, min(lo + _PANEL_ROWS, k), dtype)
            for lo in range(start, k, _PANEL_ROWS)
        ]

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

    def _gram_rows(self, lo: int, hi: int, dtype=np.float64) -> np.ndarray:
        """Dense Gram rows [lo, hi) against columns [0, hi), stored as dtype."""
        out = np.empty((hi - lo, hi), dtype)
        for r0, r1 in self._row_blocks(lo, hi, hi):
            out[r0 - lo : r1 - lo] = self._gram_block(r0, r1, hi)
        return out

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
    covered = sum(panel.shape[0] for panel in state._panels)
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
            d, width = panel.shape
            diag = np.arange(d)
            panel[diag, width - d + diag] += lam
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
    for q, panel in enumerate(state._panels):
        if panel.shape[1] > state._factored:
            if not _factor_panel(state._panels, q):
                return None
            state._factored = panel.shape[1]
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


def _factor_panel(panels: list[np.ndarray], q: int) -> bool:
    """Turn panel q's raw Gram rows into factor rows, in place, given the
    factored panels before it: X = G21 L11^-T by block forward substitution,
    then L22 = chol(G22 - X X^T), stored as its inverse. False when
    G22 - X X^T is not positive definite.

    Every product, and so every temporary, is at most _PANEL_ROWS
    square."""
    new = panels[q]
    d, width = new.shape
    o = width - d
    for panel in panels[:q]:
        dp, wp = panel.shape
        op = wp - dp
        block = new[:, op:wp]
        block -= new[:, :op] @ panel[:, :op].T
        block[...] = block @ panel[:, op:].T
    schur = new[:, o:]
    schur -= new[:, :o] @ new[:, :o].T
    try:
        schur[...] = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    _invert_lower(schur)
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


def _solve_factored(panels: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T a = rhs by panel-wise forward then back substitution, each
    panel's products in its own precision: the vector segments are cast to
    the panel's dtype, never a panel to the vector's."""
    a = rhs.copy()
    for panel in panels:
        d, width = panel.shape
        o = width - d
        dtype = panel.dtype
        x = a[o:width].astype(dtype, copy=False) - panel[:, :o] @ a[:o].astype(dtype, copy=False)
        a[o:width] = panel[:, o:] @ x
    for panel in reversed(panels):
        d, width = panel.shape
        o = width - d
        x = panel[:, o:].T @ a[o:width].astype(panel.dtype, copy=False)
        a[o:width] = x
        a[:o] -= panel[:, :o].T @ x
    return a
