"""Sparse multilinear polynomials over {-1,+1}^n.

A polynomial is stored as a map from variable subsets (frozensets of 0-based
indices) to real coefficients. All inner products and norms use the
normalized convention: <f,g> = sum_S fhat(S)*ghat(S) = 2^-n * sum_s f(s)g(s),
so nothing here ever scales with 2^n.

Coefficients with magnitude <= PRUNE_EPSILON are dropped on construction and
after every operation; exact cancellations (conditioning a satisfied clause
indicator, adding p and -p) therefore really vanish instead of leaving dust.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

PRUNE_EPSILON = 1e-12

VarSet = frozenset

_EMPTY: VarSet = frozenset()


def _canon_key(key: Iterable[int], num_vars: int) -> VarSet:
    s = frozenset(key)
    for i in s:
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range for n={num_vars}")
    return s


class SparsePoly:
    """Immutable sparse multilinear polynomial. All operations return new values."""

    __slots__ = ("num_vars", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[Iterable[int], float] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        self.num_vars = num_vars
        pruned: dict[VarSet, float] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = float(coeff)
                if abs(coeff) <= PRUNE_EPSILON:
                    continue
                k = _canon_key(key, num_vars)
                acc = pruned.get(k, 0.0) + coeff
                if abs(acc) <= PRUNE_EPSILON:
                    pruned.pop(k, None)
                else:
                    pruned[k] = acc
        self._terms = pruned

    @classmethod
    def _raw(cls, num_vars: int, pruned: dict[VarSet, float]) -> "SparsePoly":
        """Internal: wrap an already-pruned dict without validating or copying."""
        p = cls.__new__(cls)
        p.num_vars = num_vars
        p._terms = pruned
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePoly":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "SparsePoly":
        if abs(value) <= PRUNE_EPSILON:
            return cls.zero(num_vars)
        return cls._raw(num_vars, {_EMPTY: float(value)})

    @property
    def terms(self) -> Mapping[VarSet, float]:
        """Read-only view of the coefficient map. Do not mutate."""
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return f"SparsePoly(n={self.num_vars}, nnz={len(self._terms)})"

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key: Iterable[int]) -> float:
        return self._terms.get(frozenset(key), 0.0)

    def degree1_coefficient(self, i: int) -> float:
        """Coefficient of the singleton subset {i} (0.0 if absent)."""
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        return self._terms.get(frozenset((i,)), 0.0)

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"num_vars mismatch: {self.num_vars} != {other.num_vars}"
            )

    def evaluate(self, s: Sequence[int]) -> float:
        """sum_S coeff(S) * prod_{i in S} s_i for s in {-1,+1}^n."""
        if len(s) != self.num_vars:
            raise ValueError(f"assignment length {len(s)} != num_vars {self.num_vars}")
        total = 0.0
        for key, coeff in self._terms.items():
            sign = 1
            for i in key:
                sign *= s[i]
            total += coeff * sign
        return total

    def add_scaled(self, other: "SparsePoly", alpha: float = 1.0) -> "SparsePoly":
        """Termwise self + alpha * other, pruned."""
        self._check_compatible(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, 0.0) + alpha * coeff
            if abs(acc) <= PRUNE_EPSILON:
                out.pop(key, None)
            else:
                out[key] = acc
        return SparsePoly._raw(self.num_vars, out)

    def multiply(self, other: "SparsePoly") -> "SparsePoly":
        """Pointwise product, computed in the coefficient domain.

        Since s_i^2 = 1, the product of monomials x^S * x^T is x^(S xor T),
        so each coefficient pair accumulates into the symmetric difference.
        """
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[VarSet, float] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = ka ^ kb
                out[key] = out.get(key, 0.0) + ca * cb
        for key in [k for k, c in out.items() if abs(c) <= PRUNE_EPSILON]:
            del out[key]
        return SparsePoly._raw(self.num_vars, out)

    def inner_product(self, other: "SparsePoly") -> float:
        """Normalized inner product: sum_S self(S)*other(S) = 2^-n <f,g>."""
        self._check_compatible(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        return sum(coeff * b.get(key, 0.0) for key, coeff in a.items())

    def condition(self, i: int, b: int) -> "SparsePoly":
        """Restriction f(s | s_i = b); the result never references variable i."""
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        if b not in (-1, 1):
            raise ValueError(f"conditioning value must be +/-1, got {b}")
        out: dict[VarSet, float] = {}
        single = frozenset((i,))
        for key, coeff in self._terms.items():
            if i in key:
                key = key - single
                coeff = b * coeff
            acc = out.get(key, 0.0) + coeff
            if abs(acc) <= PRUNE_EPSILON:
                out.pop(key, None)
            else:
                out[key] = acc
        return SparsePoly._raw(self.num_vars, out)

    def parseval_sq_norm(self) -> float:
        """sum_S coeff(S)^2 = 2^-n * sum_s f(s)^2."""
        return sum(c * c for c in self._terms.values())
