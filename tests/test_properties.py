"""Property tests: the DIMACS round trip, and the soundness of solve against
the brute-force oracle on small random formulas."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ampsat import Formula, SolverConfig, Status, parse_dimacs, solve, to_dimacs, verify
from ampsat.cnf import make_clause
from ampsat.oracle import solution_count

# derandomized: the same examples on every run, and no example database
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def raw_cnfs(draw, max_vars=12, max_width=5):
    """(num_vars, clauses as DIMACS literal codes): duplicate literals,
    tautologies and repeated clauses all allowed."""
    n = draw(st.integers(0, max_vars))
    if n == 0:
        return 0, []
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=max_width), max_size=3 * n))
    return n, clauses


def _dimacs_text(n, clauses):
    body = "".join(" ".join(map(str, codes)) + " 0\n" for codes in clauses)
    return f"c generated\np cnf {n} {len(clauses)}\n{body}"


@PROPERTY_SETTINGS
@given(raw_cnfs())
def test_dimacs_round_trip(raw):
    n, codes = raw
    formula = parse_dimacs(_dimacs_text(n, codes))
    # parsing canonicalizes every clause in order and drops tautologies
    canonical = [make_clause(c) for c in codes]
    assert list(formula.clauses) == [c for c in canonical if c is not None]
    assert formula.tautology_count == canonical.count(None)
    # serialization is lossless and a fixed point
    text = to_dimacs(formula)
    assert parse_dimacs(text) == formula
    assert to_dimacs(parse_dimacs(text)) == text


@st.composite
def small_formulas(draw):
    n, codes = draw(raw_cnfs(max_vars=8, max_width=3))
    clauses = tuple(c for c in map(make_clause, codes) if c is not None)
    return Formula(num_vars=n, clauses=clauses)


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(small_formulas(), st.integers(0, 2**16))
def test_solve_is_sound(formula, seed):
    stats = solve(formula, SolverConfig(seed=seed, max_rounds=3))
    count = solution_count(formula)
    if stats.status is Status.SAT:
        assert count > 0
        assert verify(formula, stats.assignment)
    else:
        assert stats.assignment is None
