"""Brute-force reference implementations for tests and the `oracle` CLI command.

Everything here enumerates all 2^n assignments, so hard size caps apply.
Dense tables index assignments by the integer whose bit i (least significant
bit = variable 0) is 0 when s_i = +1 and 1 when s_i = -1; with that
convention the character x^S at index j is (-1)^popcount(j & mask(S)) and the
coefficient/value conversions are a single Walsh-Hadamard transform.

Never used by the production solve path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bias import BiasKind
from .cnf import Assignment, Formula
from .fourier import PRUNE_EPSILON, SparsePoly
from .indicator import ColumnKey, IndicatorCache

MAX_DENSE_VARS = 24
MAX_LSTSQ_VARS = 16


class SizeCapError(ValueError):
    """Instance too large for brute-force enumeration."""


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise SizeCapError(f"{what} supports at most {cap} variables, got {n}")


@dataclass(frozen=True)
class DenseTable:
    """Full enumeration of a pseudo-Boolean function over {-1,+1}^n."""

    num_vars: int
    values: np.ndarray

    def __post_init__(self):
        _check_cap(self.num_vars, MAX_DENSE_VARS, "DenseTable")
        if self.values.shape != (2 ** self.num_vars,):
            raise ValueError("values must have length 2^num_vars")


def index_to_assignment(j: int, n: int) -> Assignment:
    """Decode a table index into an assignment (bit 0 -> s_i=+1, bit 1 -> -1)."""
    return tuple(-1 if (j >> i) & 1 else 1 for i in range(n))


def assignment_to_index(s: Sequence[int]) -> int:
    j = 0
    for i, b in enumerate(s):
        if b == -1:
            j |= 1 << i
    return j


def all_assignments(n: int):
    """Iterate over all assignments in table-index order."""
    for j in range(2 ** n):
        yield index_to_assignment(j, n)


def _var_signs(n: int) -> np.ndarray:
    """(n, 2^n) array of s_i values per table index."""
    idx = np.arange(2 ** n, dtype=np.uint32)
    bits = (idx >> np.arange(n, dtype=np.uint32)[:, None]) & 1
    return 1 - 2 * bits.astype(np.int8)


def _violated_mask(formula: Formula, m: int, signs: np.ndarray) -> np.ndarray:
    """Boolean mask of assignments violating clause m."""
    mask = np.ones(signs.shape[1], dtype=bool)
    for lit in formula.clauses[m].literals:
        mask &= signs[lit.var] == -lit.polarity
    return mask


def dense_omega(formula: Formula) -> DenseTable:
    """Unnormalized solution indicator: 1 where every clause is satisfied."""
    n = formula.num_vars
    _check_cap(n, MAX_DENSE_VARS, "dense_omega")
    signs = _var_signs(n)
    sat = np.ones(2 ** n, dtype=bool)
    for m in range(formula.num_clauses):
        sat &= ~_violated_mask(formula, m, signs)
    return DenseTable(n, sat.astype(np.float64))


def solution_count(formula: Formula) -> int:
    return int(dense_omega(formula).values.sum())


def _wht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, natural (bitwise) ordering."""
    a = np.array(values, dtype=np.float64)
    h = 1
    size = a.shape[0]
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        right = a[:, h:].copy()
        a[:, :h] = left + right
        a[:, h:] = left - right
        a = a.reshape(-1)
        h *= 2
    return a


def dense_transform(table: DenseTable) -> SparsePoly:
    """Exact coefficients of the multilinear expansion of a dense table."""
    n = table.num_vars
    coeffs = _wht(table.values) / (2 ** n)
    terms: dict[frozenset, float] = {}
    for mask in np.nonzero(np.abs(coeffs) > PRUNE_EPSILON)[0]:
        key = frozenset(i for i in range(n) if (int(mask) >> i) & 1)
        terms[key] = float(coeffs[mask])
    return SparsePoly(n, terms)


def dense_evaluate(poly: SparsePoly) -> DenseTable:
    """Enumerate a sparse polynomial into a dense table (inverse of dense_transform)."""
    n = poly.num_vars
    _check_cap(n, MAX_DENSE_VARS, "dense_evaluate")
    coeffs = np.zeros(2 ** n, dtype=np.float64)
    for key, coeff in poly.terms.items():
        mask = 0
        for i in key:
            mask |= 1 << i
        coeffs[mask] = coeff
    return DenseTable(n, _wht(coeffs))


def exact_lstsq(formula: Formula, keys: Sequence[ColumnKey]) -> np.ndarray:
    """Least-squares weights against the TRUE right-hand side A^T omega.

    Minimizes ||omega - A c||_2 over c by dense enumeration, returning the
    least-norm solution when A is rank deficient.
    """
    n = formula.num_vars
    _check_cap(n, MAX_LSTSQ_VARS, "exact_lstsq")
    cache = IndicatorCache(formula)
    omega = dense_omega(formula).values
    cols = [dense_evaluate(cache.column_poly(tuple(k))).values for k in keys]
    a = np.stack(cols, axis=1)
    weights, *_ = np.linalg.lstsq(a, omega, rcond=None)
    return weights


class ExactBias(NamedTuple):
    """A bias at raw enumeration scale and at the sparse module's scale."""

    raw: float
    normalized: float


def exact_bias(table: DenseTable, i: int, kind: BiasKind) -> ExactBias:
    """Partition sum (BIAS1) or l2-norm difference (BIAS2) by direct summation.

    raw sums over the 2^(n-1)-point half-spaces; normalized divides by 2^n
    (BIAS1) or 2^(n-1) (BIAS2), which makes it equal the sparse-path bias of
    the same function.
    """
    n = table.num_vars
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range")
    idx = np.arange(2 ** n, dtype=np.uint32)
    plus = ((idx >> i) & 1) == 0
    v = table.values
    if kind == BiasKind.BIAS1:
        raw = float(v[plus].sum() - v[~plus].sum())
        return ExactBias(raw, raw / 2 ** n)
    raw = float((v[plus] ** 2).sum() - (v[~plus] ** 2).sum())
    return ExactBias(raw, raw / 2 ** (n - 1))
