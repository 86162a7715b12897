"""The DIMACS parser and data model as they were before parsing interned
literals: every literal occurrence its own Literal, every clause validated by
make_clause and again by Clause.__post_init__, unslotted dataclasses. Kept
verbatim as the reference the tests compare ampsat.cnf.parse_dimacs against,
for results, errors and memory, but for the empty clause: both keep a bare
0 as Clause(()), in its place."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import ampsat.cnf
from ampsat.cnf import DimacsError


@dataclass(frozen=True)
class Literal:
    """A variable occurrence: polarity +1 for x_var, -1 for its negation."""

    var: int
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +/-1, got {self.polarity}")
        if self.var < 0:
            raise ValueError(f"variable index must be >= 0, got {self.var}")


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals, sorted by variable, one literal per variable."""

    literals: tuple[Literal, ...]

    def __post_init__(self):
        vars_ = [lit.var for lit in self.literals]
        if vars_ != sorted(set(vars_)):
            raise ValueError("clause literals must be sorted with distinct variables")

    @property
    def width(self) -> int:
        return len(self.literals)

    def variables(self) -> tuple[int, ...]:
        return tuple(lit.var for lit in self.literals)


@dataclass(frozen=True)
class Formula:
    """A CNF formula. Clause order is stable: index m is the clause identity.

    tautology_count records clauses dropped at parse time; it does not take
    part in equality so that a serialize/reparse round trip compares equal.
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    tautology_count: int = field(default=0, compare=False)

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause.literals:
                if lit.var >= self.num_vars:
                    raise ValueError(
                        f"literal on variable {lit.var} exceeds num_vars={self.num_vars}"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def make_clause(signed_literals: Iterable[int]) -> Clause | None:
    """Canonicalize DIMACS-style signed literal codes (+/-(var+1)) into a Clause.

    Duplicate literals are merged; returns None for a tautology (both
    polarities of one variable present).
    """
    by_var: dict[int, int] = {}
    for code in signed_literals:
        if code == 0:
            raise ValueError("literal code 0 is not a literal")
        var = abs(code) - 1
        pol = 1 if code > 0 else -1
        seen = by_var.get(var)
        if seen is None:
            by_var[var] = pol
        elif seen != pol:
            return None
    lits = tuple(Literal(var, pol) for var, pol in sorted(by_var.items()))
    return Clause(lits)


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a canonicalized Formula.

    Comment lines start with 'c'; the header is 'p cnf <num_vars> <num_clauses>'.
    Clauses are whitespace-separated nonzero integers terminated by 0 and may
    span lines. SATLIB-style trailing '%' (and anything after it) is ignored.
    Duplicate literals within a clause are merged; tautological clauses are
    dropped and counted in Formula.tautology_count. An empty clause (a bare
    0) is kept in its place.
    """
    num_vars: int | None = None
    declared_clauses = 0  # validated for shape only; the count is not enforced
    tokens: list[tuple[int, int]] = []  # (literal code, line number)

    lines = text.splitlines()
    header_line = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"malformed header {line!r}", lineno)
            header_line = lineno
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        for tok in line.split():
            try:
                code = int(tok)
            except ValueError:
                raise DimacsError(f"non-integer token {tok!r}", lineno) from None
            tokens.append((code, lineno))

    if num_vars is None:
        raise DimacsError("empty input: no 'p cnf' header found")

    clauses: list[Clause] = []
    tautologies = 0
    pending: list[int] = []
    pending_line = header_line or 1
    for code, lineno in tokens:
        if code == 0:
            if not pending:
                clauses.append(Clause(()))
                continue
            clause = make_clause(pending)
            if clause is None:
                tautologies += 1
            else:
                clauses.append(clause)
            pending = []
            continue
        if abs(code) > num_vars:
            raise DimacsError(
                f"literal {code} out of range for {num_vars} variables", lineno
            )
        pending.append(code)
        pending_line = lineno
    if pending:
        raise DimacsError("unterminated clause at end of input", pending_line)

    return Formula(num_vars=num_vars, clauses=tuple(clauses), tautology_count=tautologies)


def as_current(formula: Formula) -> ampsat.cnf.Formula:
    """The same formula built from ampsat.cnf's classes, tautology_count
    included."""
    return ampsat.cnf.Formula(
        num_vars=formula.num_vars,
        clauses=tuple(
            ampsat.cnf.Clause(
                tuple(ampsat.cnf.Literal(lit.var, lit.polarity) for lit in clause.literals)
            )
            for clause in formula.clauses
        ),
        tautology_count=formula.tautology_count,
    )
