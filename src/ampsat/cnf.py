r"""CNF data model, DIMACS parsing and serialization, formula evaluation.

Variables are 0-based internally; all DIMACS I/O is 1-based. Assignments use
the +/-1 convention with s_i = +1 meaning variable i is true, so a positive
literal on variable i is satisfied exactly when s_i == +1.

Literal, Clause and Formula are frozen dataclasses with slots. A Clause or
Formula built directly validates itself in __post_init__. The empty clause
(a bare 0 in DIMACS) is a Clause like any other. parse_dimacs
builds a formula in one pass over the text: it canonicalizes each clause as
plain ints and takes the clause's literals from a per-formula table, so
equal literals of one formula are one object (at most 2n of them), and it
checks each clause once, skipping the constructors' re-validation.

parse_dimacs takes str and breaks it into lines at \r\n, \r and \n only
(split_lines), so a comment may hold a form feed or U+2028 and every line
number is the one an editor shows. The command line decodes a file as UTF-8
with undecodable bytes escaped (surrogateescape), so a comment may hold any
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

Assignment = tuple[int, ...]


def split_lines(text: str) -> list[str]:
    r"""The lines of text, broken at \r\n, \r and \n only. str.splitlines
    also breaks at \v, \f, \x1c-\x1e, U+0085, U+2028 and U+2029, which
    would cut a comment holding one and shift every later line number."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class DimacsError(ValueError):
    """Malformed DIMACS input. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Literal:
    """A variable occurrence: polarity +1 for x_var, -1 for its negation."""

    var: int
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be +/-1, got {self.polarity}")
        if self.var < 0:
            raise ValueError(f"variable index must be >= 0, got {self.var}")


@dataclass(frozen=True, slots=True)
class Clause:
    """Disjunction of literals, sorted by variable, one literal per variable.
    The empty clause, Clause(()), is one that no assignment satisfies."""

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


@dataclass(frozen=True, slots=True)
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


def empty_clause_diagnostic(formula: Formula) -> str | None:
    """What is wrong with a formula holding the empty clause, naming the
    first one (1-based), or None when it holds none."""
    empty = next((m for m, clause in enumerate(formula.clauses) if not clause.literals), None)
    if empty is None:
        return None
    return f"clause {empty + 1} is empty: no assignment satisfies the formula"


class _LiteralTable(dict):
    """Signed DIMACS code -> the one Literal object standing for it, made
    on first use."""

    def __missing__(self, code: int) -> Literal:
        lit = self[code] = Literal(abs(code) - 1, 1 if code > 0 else -1)
        return lit


def _canonical_codes(codes: list[int]) -> list[int] | None:
    """One clause's distinct nonzero codes sorted by variable, or None for
    a tautology (both polarities of one variable present)."""
    distinct_vars = len(set(map(abs, codes)))
    if distinct_vars < len(codes):
        codes = list(set(codes))
        if distinct_vars < len(codes):
            return None
    return sorted(codes, key=abs)


def make_clause(signed_literals: Iterable[int]) -> Clause | None:
    """Canonicalize DIMACS-style signed literal codes (+/-(var+1)) into a Clause.

    Duplicate literals are merged; returns None for a tautology (both
    polarities of one variable present). No codes give the empty clause.
    """
    codes = list(signed_literals)
    if 0 in codes:
        raise ValueError("literal code 0 is not a literal")
    canonical = _canonical_codes(codes)
    if canonical is None:
        return None
    return Clause(tuple(map(_LiteralTable().__getitem__, canonical)))


def _is_integer(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a canonicalized Formula, in one pass.

    Comment lines start with 'c'; the header is 'p cnf <num_vars> <num_clauses>'.
    Clauses are whitespace-separated nonzero integers terminated by 0 and may
    span lines. SATLIB-style trailing '%' (and anything after it) is ignored.
    Duplicate literals within a clause are merged; tautological clauses are
    dropped and counted in Formula.tautology_count. A bare 0 is the empty
    clause, kept in its place like any other. Every clause of the result
    takes its literals from one table, so equal literals are the same
    object and the formula holds at most 2 * num_vars Literal objects.

    Errors are DimacsError with the line number. A header error or a
    non-integer token anywhere in the text wins over an out-of-range
    literal, which wins over an unterminated last clause; within one kind
    the first in the text wins.
    """
    num_vars: int | None = None
    declared_clauses = 0  # validated for shape only; the count is not enforced
    table = _LiteralTable()
    clauses: list[Clause] = []
    tautologies = 0
    pending: list[int] = []  # codes of a clause not yet terminated by 0
    pending_line = 0
    out_of_range: DimacsError | None = None  # raised once no earlier-ranked error can follow

    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        lead = line[0]
        if lead == "c":
            continue
        if lead == "%":
            break
        if lead == "p":
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
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        tokens = line.split()
        try:
            codes = list(map(int, tokens))
        except ValueError:
            bad = next(tok for tok in tokens if not _is_integer(tok))
            raise DimacsError(f"non-integer token {bad!r}", lineno) from None
        if out_of_range is not None:
            continue
        if max(codes) > num_vars or min(codes) < -num_vars:
            code = next(c for c in codes if abs(c) > num_vars)
            out_of_range = DimacsError(
                f"literal {code} out of range for {num_vars} variables", lineno
            )
            continue
        start = 0
        for _ in range(codes.count(0)):
            end = codes.index(0, start)
            clause_codes = pending + codes[start:end]
            pending = []
            start = end + 1
            canonical = _canonical_codes(clause_codes)
            if canonical is None:
                tautologies += 1
            else:
                # canonical and in range already: skip Clause.__post_init__
                clause = object.__new__(Clause)
                object.__setattr__(clause, "literals", tuple(map(table.__getitem__, canonical)))
                clauses.append(clause)
        if start < len(codes):
            pending += codes[start:]
            pending_line = lineno

    if num_vars is None:
        raise DimacsError("empty input: no 'p cnf' header found")
    if out_of_range is not None:
        raise out_of_range
    if pending:
        raise DimacsError("unterminated clause at end of input", pending_line)
    formula = object.__new__(Formula)  # in range already: skip Formula.__post_init__
    object.__setattr__(formula, "num_vars", num_vars)
    object.__setattr__(formula, "clauses", tuple(clauses))
    object.__setattr__(formula, "tautology_count", tautologies)
    return formula


def to_dimacs(formula: Formula) -> str:
    """Serialize a Formula back to DIMACS CNF text (1-based literals)."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        codes = [lit.polarity * (lit.var + 1) for lit in clause.literals]
        lines.append(" ".join(map(str, [*codes, 0])))
    return "\n".join(lines) + "\n"


def clause_satisfied(clause: Clause, s: Sequence[int]) -> bool:
    """True iff some literal agrees with the assignment."""
    return any(s[lit.var] == lit.polarity for lit in clause.literals)


def count_unsat(formula: Formula, s: Sequence[int]) -> int:
    """Number of clauses the assignment leaves unsatisfied (0 means SAT)."""
    if len(s) != formula.num_vars:
        raise ValueError(f"assignment length {len(s)} != num_vars {formula.num_vars}")
    return sum(1 for clause in formula.clauses if not clause_satisfied(clause, s))


def hamming_distance(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("assignments differ in length")
    return sum(1 for x, y in zip(a, b) if x != y)
