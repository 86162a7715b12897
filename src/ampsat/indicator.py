"""Columns as sub-cubes: clause-complement indicators and their products.

A clause is unsatisfied exactly on the sub-cube that fixes each of its
variables to the falsifying sign. A product of clause indicators is the
indicator of the intersected cube, or identically 0 when two literals clash,
so a column is identified exactly by its cube. The Fourier expansion of a
cube on variables V with signs sigma is 2^-|V| * prod_{j in V} (1 + sigma_j
s_j): 2^|V| terms of magnitude 2^-|V|.
"""

from __future__ import annotations

from .cnf import Clause, Formula
from .fourier import SparsePoly

# A column of the approximation matrix, identified by the sorted tuple of
# clause indices whose indicators are multiplied together. () is the constant
# all-ones column.
ColumnKey = tuple[int, ...]

# (variables fixed to +1, variables fixed to -1) as bit masks, bit j for s_j.
# The empty cube (0, 0) is the constant all-ones column.
Cube = tuple[int, int]

# Columns are products of at most this many clause indicators: the
# first-order fit's single clauses and refinement's pairs.
MAX_ORDER = 2


def clause_cube(clause: Clause) -> Cube:
    """The cube on which the clause is unsatisfied: every literal false."""
    plus = minus = 0
    for lit in clause.literals:
        if lit.polarity > 0:
            minus |= 1 << lit.var
        else:
            plus |= 1 << lit.var
    return plus, minus


def cube_poly(cube: Cube, num_vars: int) -> SparsePoly:
    """Exact 2^|V|-term expansion of the cube's indicator."""
    plus, minus = cube
    either = plus | minus
    if either.bit_length() > num_vars:
        raise ValueError(f"cube fixes a variable beyond num_vars={num_vars}")
    terms = {frozenset(): 2.0 ** -either.bit_count()}
    for j in range(either.bit_length()):
        if either >> j & 1:
            sign = -1.0 if minus >> j & 1 else 1.0
            terms.update([(key | {j}, sign * coeff) for key, coeff in terms.items()])
    return SparsePoly._raw(num_vars, terms)


def clause_indicator(clause: Clause, num_vars: int) -> SparsePoly:
    """Exact 2^k-term expansion of the unsatisfied-clause indicator."""
    return cube_poly(clause_cube(clause), num_vars)


def validate_key(key: ColumnKey, num_clauses: int) -> None:
    if list(key) != sorted(set(key)):
        raise ValueError(f"column key must be sorted and distinct: {key!r}")
    if len(key) > MAX_ORDER:
        raise ValueError(f"column key {key!r} exceeds max order {MAX_ORDER}")
    for m in key:
        if not 0 <= m < num_clauses:
            raise ValueError(f"column key {key!r} references missing clause {m}")


class IndicatorCache:
    """The clause cubes of one formula, and the columns built from them.

    cube(key) intersects clause cubes and is all the solve path needs to
    identify a column; column_poly(key) validates the key (at most MAX_ORDER
    clauses) and builds its Fourier expansion afresh.
    """

    def __init__(self, formula: Formula):
        self.formula = formula
        self.clause_cubes = [clause_cube(clause) for clause in formula.clauses]

    def cube(self, key: ColumnKey) -> Cube | None:
        """The key's cube, or None when two of its literals clash and the
        product is identically zero. The key is not validated."""
        plus = minus = 0
        for m in key:
            p, q = self.clause_cubes[m]
            plus |= p
            minus |= q
        return None if plus & minus else (plus, minus)

    def column_poly(self, key: ColumnKey) -> SparsePoly:
        """() -> constant 1; (m,) -> k_m; (m, n) -> k_m * k_n."""
        validate_key(key, self.formula.num_clauses)
        cube = self.cube(key)
        if cube is None:
            return SparsePoly.zero(self.formula.num_vars)
        return cube_poly(cube, self.formula.num_vars)
