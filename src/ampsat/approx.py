"""Least-squares approximation of the solution-set indicator over sub-cube
columns.

The approximation is omega_tilde = sum_i a_i * column_i where column 0 is the
constant 1 and the rest are clause indicators or pairwise indicator products,
each the indicator of a sub-cube (see ampsat.indicator) and deduplicated
exactly by it. No column keeps a polynomial of its own: the state interns
every distinct Fourier term once, records each column as flat arrays of term
ids and +-2^-|V| coefficients, and assembles omega_tilde with one weighted
bincount over them. The weights solve G a = e_0: the Gram matrix of normalized
inner products against the right-hand side that encodes "the solution set
overlaps the all-ones column and is orthogonal to every indicator column".
The right-hand side's leading entry is fixed at exactly 1; bias decimation is
scale-invariant, so its true value is immaterial.

Gram entries are closed-form: G_ij = 2^-|V_i ∪ V_j| for cubes on variables
V_i and V_j that agree on every shared variable, 0 otherwise. They are read
off packed uint64 sign masks, a bounded block of rows at a time; nothing is
ever enumerated over 2^n.

No Gram matrix is kept. The only K-squared state is the lower Cholesky factor
L of Gram + lambda*I, stored as one column-major row panel per batch of added
columns. A batch of d columns appended at K = o costs O(K^2 d), not O(K^3):
its raw Gram rows fill a new panel, which becomes factor rows in place by the
block Cholesky update (Golub & Van Loan, Matrix Computations, section 4.2)

    L21 = G21 L11^-T,    L22 = chol(G22 - L21 L21^T),

each step one BLAS or LAPACK call that overwrites its contiguous block of
the panel (gemm, trsm, syrk, potrf), so no d x d temporary is made.

When that fails (the Schur complement is not positive definite, or the solve
misses the residual check), the ridge ladder rebuilds the Gram matrix and
re-factors it whole, lambda = 0 first.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .cnf import Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, Cube, IndicatorCache, validate_key

RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_RESIDUAL_TOL = 1e-6
# Dense entries per block of Gram rows: bounds the temporaries of a Gram
# extension or a Gram-vector product however many columns there are, and
# keeps each temporary (512 KiB) cache-sized.
_GRAM_BLOCK_ENTRIES = 1 << 16


class WeightSolveError(RuntimeError):
    """The Gram system could not be solved even after ridge escalation."""


def column_signature(cache: IndicatorCache, key: ColumnKey) -> Cube | None:
    """Exact identity of a column as a function: its cube, or None, shared by
    every identically-zero product. Columns are deduplicated on this."""
    return cache.cube(key)


class ApproxState:
    """Columns, the factored Gram system, solved weights, and the assembled
    approximation.

    Single-owner mutable: one solver run drives add_columns/solve_weights
    sequentially. keys[0] is always the empty key (constant-1 column).

    Column j's cube is `_masks[:, :, j]`: its (variables fixed to +1,
    variables fixed to -1) masks as ceil(n/64) uint64 words each; the Gram
    matrix is never stored. Its Fourier expansion is the j-th run of
    `_term_ids`/`_term_coeffs`, `_term_counts[j]` = 2^|V| entries long, in
    column_poly's order; ids index `_term_sets`, the interned term variable
    sets, and `_term_index` maps a term to its id.
    `_panels` holds the lower Cholesky factor of Gram + ridge_lambda * I by
    column-major row panels: a panel of shape (d, o + d) holds factor rows
    [o, o + d), columns [0, o + d). Panels starting at or past row
    `_factored` still hold raw Gram rows written by `_append`; solve_weights
    factors them in place.
    """

    def __init__(self, formula: Formula, cache: IndicatorCache | None = None):
        self.formula = formula
        self.cache = cache if cache is not None else IndicatorCache(formula)
        self.keys: list[ColumnKey] = []
        self.weights = np.zeros(0)
        self.omega_tilde = SparsePoly.zero(formula.num_vars)
        self.signatures: set[Cube | None] = set()
        self.seen_keys: set[ColumnKey] = set()
        self.ridge_lambda = 0.0
        self._masks = np.zeros((2, -(-formula.num_vars // 64), 0), dtype=np.uint64)
        self._term_index: dict[frozenset[int], int] = {}
        self._term_sets: list[frozenset[int]] = []
        self._term_ids = np.zeros(0, dtype=np.intp)
        self._term_coeffs = np.zeros(0)
        self._term_counts = np.zeros(0, dtype=np.intp)
        self._panels: list[np.ndarray] = []
        self._factored = 0

    @property
    def num_columns(self) -> int:
        return len(self.keys)

    @property
    def gram(self) -> np.ndarray:
        """The (K x K) Gram matrix, rebuilt from the column cubes.

        A reference for tests and debugging; the solve path never builds it
        outside the ridge ladder.
        """
        return self._gram_rows(0)

    def dump(self) -> str:
        """Debug text dump of keys and weights for refinement-trace analysis."""
        lines = [f"columns {self.num_columns} ridge {self.ridge_lambda:g}"]
        for key, w in zip(self.keys, self.weights):
            lines.append(f"{','.join(str(m) for m in key) or '-'} {w:.12g}")
        return "\n".join(lines) + "\n"

    def _append(self, columns: Iterable[tuple[ColumnKey, Cube, SparsePoly]]) -> None:
        """Append (key, cube, expansion) columns past deduplication, intern
        their Fourier terms and write their raw Gram rows as a new panel.

        columns is consumed once, so a lazy caller holds one expansion at a
        time; none is kept once its terms are interned."""
        start = self.num_columns
        words = self._masks.shape[1]
        index = self._term_index
        raw: list[bytes] = []
        ids: list[int] = []
        coeffs: list[float] = []
        counts: list[int] = []
        for key, cube, poly in columns:
            self.keys.append(key)
            raw += [m.to_bytes(8 * words, "little") for m in cube]
            ids += [index.setdefault(term, len(index)) for term in poly.terms]
            coeffs += poly.terms.values()
            counts.append(len(poly.terms))
        packed = np.frombuffer(b"".join(raw), dtype="<u8").reshape(len(counts), 2, words)
        self._term_sets += islice(index, len(self._term_sets), None)
        self._term_ids = np.concatenate([self._term_ids, ids])
        self._term_coeffs = np.concatenate([self._term_coeffs, coeffs])
        self._term_counts = np.concatenate([self._term_counts, counts])
        self._masks = np.concatenate([self._masks, packed.transpose(1, 2, 0)], axis=2)
        self._panels.append(self._gram_rows(start))

    def _row_blocks(self, start: int) -> Iterator[tuple[int, int]]:
        """Row ranges [lo, hi) covering [start, K), each a bounded block."""
        k = self.num_columns
        step = max(1, _GRAM_BLOCK_ENTRIES // max(1, k))
        for lo in range(start, k, step):
            yield lo, min(lo + step, k)

    def _gram_block(self, lo: int, hi: int) -> np.ndarray:
        """Gram rows [lo, hi) against columns [0, K), in closed form: the
        intersection of two cubes fixes the union of their variables, and is
        empty when one variable is fixed to +1 by one cube and to -1 by the
        other."""
        k = self.num_columns
        union = np.zeros((hi - lo, k), dtype=np.int32)
        consistent = np.ones((hi - lo, k), dtype=bool)
        for p, q in zip(*self._masks):
            fixed_plus = p[lo:hi, None] | p
            fixed_minus = q[lo:hi, None] | q
            union += np.bitwise_count(fixed_plus | fixed_minus)
            consistent &= (fixed_plus & fixed_minus) == 0
        block = np.ldexp(1.0, -union)
        block *= consistent
        return block

    def _gram_rows(self, start: int) -> np.ndarray:
        """Dense Gram rows [start, K) against columns [0, K), column-major."""
        out = np.empty((self.num_columns - start, self.num_columns), order="F")
        for lo, hi in self._row_blocks(start):
            out[lo - start : hi - start] = self._gram_block(lo, hi)
        return out

    def _gram_times(self, a: np.ndarray) -> np.ndarray:
        """G a, without holding more than one block of G."""
        out = np.empty(self.num_columns)
        for lo, hi in self._row_blocks(0):
            out[lo:hi] = self._gram_block(lo, hi) @ a
        return out


def init_first_order(formula: Formula, cache: IndicatorCache | None = None) -> ApproxState:
    """Constant column plus one column per distinct clause, solved and assembled."""
    state = ApproxState(formula, cache)
    keys: list[ColumnKey] = [()]
    keys.extend((m,) for m in range(formula.num_clauses))
    add_columns(state, keys)
    return state


def add_columns(state: ApproxState, new_keys: Iterable[ColumnKey]) -> int:
    """Append columns for keys not yet present (by key, then by signature).

    Identically-zero products are recorded as exhausted but never added.
    Returns the number of columns actually appended; when nonzero their Gram
    rows are appended as a new factor panel, weights re-solved, and
    omega_tilde rebuilt.
    """
    accepted: list[tuple[ColumnKey, Cube]] = []
    for key in new_keys:
        key = tuple(key)
        if key in state.seen_keys:
            continue
        validate_key(key, state.formula.num_clauses, state.cache.max_order)
        state.seen_keys.add(key)
        sig = column_signature(state.cache, key)
        if sig in state.signatures:
            continue
        state.signatures.add(sig)
        if sig is not None:  # a zero column would make the Gram matrix singular
            accepted.append((key, sig))
    if not accepted:
        return 0
    state._append((key, cube, state.cache.column_poly(key)) for key, cube in accepted)
    solve_weights(state)
    _assemble_omega_tilde(state)
    return len(accepted)


def solve_weights(state: ApproxState) -> np.ndarray:
    """Solve (A^T A) a = e_0, escalating a ridge term if the system is singular.

    While the factor carries no ridge, the panels appended since the last
    solve are factored onto it incrementally. If that fails, or a ridge is
    in use, the ridge ladder re-factors the whole Gram matrix from
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
    for lam in RIDGE_LADDER:
        state._panels = []  # drop the old factor before building its successor
        state._factored = 0
        gram = state._gram_rows(0)
        if lam:
            gram.flat[:: k + 1] += lam
        state._panels = [gram]
        a = _factor_and_solve(state, rhs, lam)
        if a is not None:
            state.weights = a
            state.ridge_lambda = lam
            return a
    state._panels = []
    state._factored = 0
    raise WeightSolveError(f"Gram solve failed after ridge escalation (K={k})")


def _factor_and_solve(state: ApproxState, rhs: np.ndarray, lam: float) -> np.ndarray | None:
    """Factor the pending panels, solve, and check the residual against
    (G + lam*I) a = rhs, with G the closed-form Gram matrix. None on failure.

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
    a = _solve_factored(state._panels, rhs)
    if not np.all(np.isfinite(a)):
        return None
    residual = np.abs(state._gram_times(a) + lam * a - rhs).max()
    scale = 1.0 if lam == 0.0 else max(1.0, np.abs(a).max())
    return a if residual <= _RESIDUAL_TOL * scale else None


def _factor_panel(panels: list[np.ndarray], q: int) -> bool:
    """Turn panel q's raw Gram rows into factor rows, in place, given the
    factored panels before it: X = G21 L11^-T by block forward substitution,
    then L22 = chol(G22 - X X^T). False when G22 - X X^T is not positive
    definite.

    Every block updated is a contiguous column range of a column-major
    panel, so each BLAS/LAPACK call overwrites it instead of a copy."""
    new = panels[q]
    d, width = new.shape
    o = width - d
    for panel in panels[:q]:
        dp, wp = panel.shape
        op = wp - dp
        block = new[:, op:wp]
        if op:
            blas.dgemm(-1.0, new[:, :op], panel[:, :op], 1.0, block, trans_b=1, overwrite_c=1)
        blas.dtrsm(1.0, panel[:, op:], block, side=1, lower=1, trans_a=1, overwrite_b=1)
    schur = new[:, o:]
    if o:
        blas.dsyrk(-1.0, new[:, :o], 1.0, schur, lower=1, overwrite_c=1)
    _, info = lapack.dpotrf(schur, lower=1, clean=1, overwrite_a=1)
    return info == 0


def _solve_factored(panels: list[np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve L L^T a = rhs by panel-wise forward then back substitution."""
    a = rhs.copy()
    for panel in panels:
        d, width = panel.shape
        o = width - d
        if o:
            a[o:width] -= panel[:, :o] @ a[:o]
        a[o:width] = scipy.linalg.solve_triangular(
            panel[:, o:], a[o:width], lower=True, check_finite=False
        )
    for panel in reversed(panels):
        d, width = panel.shape
        o = width - d
        a[o:width] = scipy.linalg.solve_triangular(
            panel[:, o:], a[o:width], lower=True, trans="T", check_finite=False
        )
        if o:
            a[:o] -= panel[:, :o].T @ a[o:width]
    return a


def _assemble_omega_tilde(state: ApproxState) -> None:
    """omega_tilde = sum_i a_i * column_i, term by term.

    bincount adds in input order, so every coefficient is the column-order
    sum of a_i * coeff; terms are listed in order of first appearance."""
    acc = np.bincount(
        state._term_ids,
        weights=np.repeat(state.weights, state._term_counts) * state._term_coeffs,
        minlength=len(state._term_sets),
    )
    keep = np.flatnonzero(np.abs(acc) > PRUNE_EPSILON)
    terms = state._term_sets
    # .tolist() so downstream polynomial algebra works on plain floats
    pruned = dict(zip([terms[i] for i in keep.tolist()], acc[keep].tolist()))
    state.omega_tilde = SparsePoly._raw(state.formula.num_vars, pruned)
