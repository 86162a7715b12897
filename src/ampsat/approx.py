"""Least-squares approximation of the solution-set indicator, built and
extended entirely in the coefficient domain.

The approximation is omega_tilde = sum_i a_i * column_i where column 0 is the
constant 1 and the rest are clause indicators or pairwise indicator products.
The weights solve (A^T A) a = e_0: the Gram matrix of normalized inner
products against the right-hand side that encodes "the solution set overlaps
the all-ones column and is orthogonal to every indicator column". The
right-hand side's leading entry is fixed at exactly 1; bias decimation is
scale-invariant, so its true value is immaterial.

Gram entries are Plancherel sums of coefficient products. They are evaluated
in bulk as sparse dot products over a shared term index (scipy.sparse), a
bounded block of rows at a time; nothing is ever enumerated over 2^n.

No Gram matrix is kept. The only K-squared state is the lower Cholesky factor
L of Gram + lambda*I, stored as one row panel per batch of added columns. A
batch of d columns appended at K = o costs O(K^2 d), not O(K^3): its raw Gram
rows fill a new panel, which becomes factor rows in place by the block
Cholesky update (Golub & Van Loan, Matrix Computations, section 4.2)

    L21 = G21 L11^-T,    L22 = chol(G22 - L21 L21^T).

When that fails (the Schur complement is not positive definite, or the solve
misses the residual check), the ridge ladder rebuilds the Gram matrix and
re-factors it whole, lambda = 0 first.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .cnf import Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, IndicatorCache

RIDGE_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
SIGNATURE_DECIMALS = 10
_RESIDUAL_TOL = 1e-6
# Dense entries per sparse product when computing Gram rows: bounds the
# temporaries of a Gram extension however many columns a batch adds.
_GRAM_BLOCK_ENTRIES = 1 << 20

# signature_index value for products that are identically zero and therefore
# never become columns (a zero column would make the Gram matrix singular).
ZERO_COLUMN = -1

Signature = tuple


class WeightSolveError(RuntimeError):
    """The Gram system could not be solved even after ridge escalation."""


def column_signature(poly: SparsePoly) -> Signature:
    """Hashable identity of a column as a function: its rounded term list.

    Distinct keys can produce identical polynomials (duplicate clauses,
    coinciding products); columns are deduplicated on this, not on the key.
    """
    return tuple(
        sorted(
            (tuple(sorted(key)), round(coeff, SIGNATURE_DECIMALS))
            for key, coeff in poly.terms.items()
        )
    )


class ApproxState:
    """Columns, the factored Gram system, solved weights, and the assembled
    approximation.

    Single-owner mutable: one solver run drives add_columns/solve_weights
    sequentially. keys[0] is always the empty key (constant-1 column).

    Each column's coefficients are kept as a sparse row over a shared term
    index; the Gram matrix is never stored. `_panels` holds the lower
    Cholesky factor of Gram + ridge_lambda * I by row panels: a panel of
    shape (d, o + d) holds factor rows [o, o + d), columns [0, o + d).
    Panels starting at or past row `_factored` still hold raw Gram rows
    written by `_extend_gram`; solve_weights factors them in place.
    """

    def __init__(self, formula: Formula, cache: IndicatorCache | None = None):
        self.formula = formula
        self.cache = cache if cache is not None else IndicatorCache(formula)
        self.keys: list[ColumnKey] = []
        self.polys: list[SparsePoly] = []
        self.weights = np.zeros(0)
        self.omega_tilde = SparsePoly.zero(formula.num_vars)
        self.signature_index: dict[Signature, int] = {}
        self.seen_keys: set[ColumnKey] = set()
        self.ridge_lambda = 0.0
        self._term_ids: dict[frozenset, int] = {}
        self._rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._panels: list[np.ndarray] = []
        self._factored = 0

    @property
    def num_columns(self) -> int:
        return len(self.keys)

    @property
    def gram(self) -> np.ndarray:
        """The (K x K) Gram matrix, rebuilt from the column coefficients.

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

    def _row_for(self, poly: SparsePoly) -> tuple[np.ndarray, np.ndarray]:
        ids = np.empty(len(poly.terms), dtype=np.int64)
        coeffs = np.empty(len(poly.terms), dtype=np.float64)
        term_ids = self._term_ids
        for pos, (key, coeff) in enumerate(poly.terms.items()):
            tid = term_ids.get(key)
            if tid is None:
                tid = len(term_ids)
                term_ids[key] = tid
            ids[pos] = tid
            coeffs[pos] = coeff
        return ids, coeffs

    def _csr(self, rows: Sequence[tuple[np.ndarray, np.ndarray]]) -> scipy.sparse.csr_matrix:
        width = len(self._term_ids)
        lengths = np.fromiter((len(ids) for ids, _ in rows), dtype=np.int64, count=len(rows))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if rows:
            indices = np.concatenate([ids for ids, _ in rows])
            data = np.concatenate([coeffs for _, coeffs in rows])
        else:
            indices = np.zeros(0, dtype=np.int64)
            data = np.zeros(0, dtype=np.float64)
        return scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(rows), width))

    def _gram_rows(self, start: int) -> np.ndarray:
        """Dense Gram rows [start, K) against columns [0, K).

        The sparse products cover a bounded block of rows each. The square
        part [start, K) x [start, K) is symmetrized, so both evaluation
        orders of an inner product count.
        """
        k = self.num_columns
        out = np.zeros((k - start, k))
        if k == start:
            return out
        everything_t = self._csr(self._rows).T.tocsr()
        step = max(1, _GRAM_BLOCK_ENTRIES // k)
        for lo in range(start, k, step):
            hi = min(lo + step, k)
            block = self._csr(self._rows[lo:hi]) @ everything_t
            block.toarray(out=out[lo - start : hi - start])
        square = out[:, start:]
        np.add(square, square.T, out=square)
        square *= 0.5
        return out

    def _extend_gram(self, start: int) -> None:
        """Append the raw Gram rows of columns [start, K) as a new panel."""
        self._panels.append(self._gram_rows(start))


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
    accepted: list[tuple[ColumnKey, SparsePoly]] = []
    for key in new_keys:
        key = tuple(key)
        if key in state.seen_keys:
            continue
        poly = state.cache.column_poly(key)
        state.seen_keys.add(key)
        sig = column_signature(poly)
        if sig in state.signature_index:
            continue
        if poly.is_zero:
            state.signature_index[sig] = ZERO_COLUMN
            continue
        state.signature_index[sig] = len(state.keys) + len(accepted)
        accepted.append((key, poly))
    if not accepted:
        return 0
    start = state.num_columns
    for key, poly in accepted:
        state.keys.append(key)
        state.polys.append(poly)
        state._rows.append(state._row_for(poly))
    state._extend_gram(start)
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
    columns = state._csr(state._rows)
    covered = sum(panel.shape[0] for panel in state._panels)
    if state.ridge_lambda == 0.0 and covered == k:
        a = _factor_and_solve(state, columns, rhs, 0.0)
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
        a = _factor_and_solve(state, columns, rhs, lam)
        if a is not None:
            state.weights = a
            state.ridge_lambda = lam
            return a
    state._panels = []
    state._factored = 0
    raise WeightSolveError(f"Gram solve failed after ridge escalation (K={k})")


def _factor_and_solve(
    state: ApproxState, columns: scipy.sparse.csr_matrix, rhs: np.ndarray, lam: float
) -> np.ndarray | None:
    """Factor the pending panels, solve, and check the residual against
    (A A^T + lam*I) a = rhs, with A the column rows. None on failure."""
    try:
        for q, panel in enumerate(state._panels):
            if panel.shape[1] > state._factored:
                _factor_panel(state._panels, q)
                state._factored = panel.shape[1]
    except scipy.linalg.LinAlgError:
        return None
    a = _solve_factored(state._panels, rhs)
    if not np.all(np.isfinite(a)):
        return None
    residual = np.abs(columns @ (columns.T @ a) + lam * a - rhs).max()
    if residual <= _RESIDUAL_TOL * max(1.0, np.abs(a).max()):
        return a
    return None


def _factor_panel(panels: list[np.ndarray], q: int) -> None:
    """Turn panel q's raw Gram rows into factor rows, in place, given the
    factored panels before it: X = G21 L11^-T by block forward substitution,
    then L22 = chol(G22 - X X^T)."""
    new = panels[q]
    d, width = new.shape
    o = width - d
    for panel in panels[:q]:
        dp, wp = panel.shape
        op = wp - dp
        block = new[:, op:wp]
        if op:
            block -= new[:, :op] @ panel[:, :op].T
        block[...] = scipy.linalg.solve_triangular(
            panel[:, op:], block.T, lower=True, check_finite=False
        ).T
    schur = new[:, o:]
    if o:
        schur -= new[:, :o] @ new[:, :o].T
    schur[...] = scipy.linalg.cholesky(schur, lower=True, check_finite=False)


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
    acc: dict[frozenset, float] = {}
    # .tolist() so downstream polynomial algebra works on plain floats
    for w, poly in zip(state.weights.tolist(), state.polys):
        if w == 0.0:
            continue
        for key, coeff in poly.terms.items():
            acc[key] = acc.get(key, 0.0) + w * coeff
    pruned = {k: v for k, v in acc.items() if abs(v) > PRUNE_EPSILON}
    state.omega_tilde = SparsePoly._raw(state.formula.num_vars, pruned)
