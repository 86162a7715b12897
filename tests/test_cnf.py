"""DIMACS parsing, canonicalization, and formula evaluation."""

import dataclasses
import gc
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_cnf
from ampsat import (
    DimacsError,
    Formula,
    clause_satisfied,
    count_unsat,
    parse_dimacs,
    to_dimacs,
)
from ampsat.cnf import Clause, Literal, hamming_distance, make_clause
from ampsat.indicator import clause_indicator

from helpers import all_assignments, random_formula

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def _committed_instances():
    paths = sorted(INSTANCES.glob("*/*.cnf"))
    assert len(paths) == 90  # uf20-001…060 and uf50-001…030
    return paths


class TestParse:
    def test_single_clause(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        assert f.num_vars == 2
        assert f.num_clauses == 1
        assert f.clauses[0].literals == (Literal(0, 1), Literal(1, 1))

    def test_tautology_dropped_with_warning(self):
        f = parse_dimacs("p cnf 2 1\n1 -1 0")
        assert f.clauses == ()
        assert f.tautology_count == 1

    def test_comments_and_negative_literals(self):
        f = parse_dimacs("p cnf 3 2\nc comment\n1 -2 3 0\n-1 2 0")
        assert f.num_vars == 3
        assert f.num_clauses == 2
        assert f.clauses[0].literals == (Literal(0, 1), Literal(1, -1), Literal(2, 1))

    def test_duplicate_literals_merged(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0")
        assert f.clauses[0].width == 2

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0")
        assert f.clauses[0].width == 3

    def test_satlib_percent_trailer(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n%\n0\n")
        assert f.num_clauses == 2

    def test_duplicate_clauses_retained(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n1 2 0")
        assert f.num_clauses == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "header"),
            ("p cnf x 1\n1 0", "header"),
            ("p dnf 2 1\n1 0", "header"),
            ("p cnf 2 1\n3 0", "out of range"),
            ("p cnf 2 1\n1 2", "unterminated"),
            ("1 2 0", "before header"),
            ("p cnf 2 2\n0\n3 0", "out of range"),  # after an empty clause
            ("p cnf 2 1\np cnf 2 1\n1 0", "duplicate header"),
            ("p cnf 2 1\n1 z 0", "non-integer"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError) as err:
            parse_dimacs("p cnf 2 2\n1 2 0\n5 0")
        assert err.value.line == 3

    def test_an_empty_clause_is_kept_in_its_place(self):
        f = parse_dimacs("p cnf 2 4\n0\n1 2 0 0\n-1 0\n")
        assert f.num_vars == 2
        assert f.clauses == (
            Clause(()), make_clause((1, 2)), Clause(()), make_clause((-1,))
        )
        assert [clause.width for clause in f.clauses] == [0, 2, 0, 1]
        assert count_unsat(f, (-1, 1)) == 2

    def test_a_formula_holding_an_empty_clause_round_trips_through_pickle(self):
        # as `ampsat bench --jobs` hands it to a worker
        f = parse_dimacs("p cnf 2 2\n1 2 0\n0\n")
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and copy.clauses[1] == Clause(())

    def test_to_dimacs_writes_the_empty_clause_as_a_bare_zero(self):
        f = parse_dimacs("p cnf 2 3\n0\n1 -2 0\n0\n")
        assert to_dimacs(f) == "p cnf 2 3\n0\n1 -2 0\n0\n"
        assert parse_dimacs(to_dimacs(f)) == f
        assert to_dimacs(Formula(0, (Clause(()),))) == "p cnf 0 1\n0\n"

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_formula(rng, rng.randrange(1, 9), rng.randrange(0, 15))
            assert parse_dimacs(to_dimacs(f)) == f


class TestEvaluate:
    def test_clause_satisfied(self):
        c = parse_dimacs("p cnf 2 1\n1 2 0").clauses[0]
        assert clause_satisfied(c, (1, -1))
        assert not clause_satisfied(c, (-1, -1))
        neg = parse_dimacs("p cnf 1 1\n-1 0").clauses[0]
        assert clause_satisfied(neg, (-1,))

    def test_count_unsat(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        assert count_unsat(f, (-1, -1)) == 1
        assert count_unsat(parse_dimacs("p cnf 2 0\n"), (1, 1)) == 0
        f2 = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        assert count_unsat(f2, (1,)) == 1

    def test_count_unsat_length_check(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        with pytest.raises(ValueError):
            count_unsat(f, (1,))

    def test_satisfied_xor_indicator(self):
        # A clause is satisfied exactly where its complement indicator is 0.
        rng = random.Random(5)
        for _ in range(20):
            f = random_formula(rng, rng.randrange(1, 7), rng.randrange(1, 8))
            for clause in f.clauses:
                ind = clause_indicator(clause, f.num_vars)
                for s in all_assignments(f.num_vars):
                    value = ind.evaluate(s)
                    assert clause_satisfied(clause, s) != (value == 1.0)

    def test_count_unsat_equals_indicator_sum(self):
        rng = random.Random(6)
        for _ in range(20):
            f = random_formula(rng, rng.randrange(1, 7), rng.randrange(0, 10))
            inds = [clause_indicator(c, f.num_vars) for c in f.clauses]
            for s in all_assignments(f.num_vars):
                assert count_unsat(f, s) == sum(p.evaluate(s) for p in inds)


class TestHamming:
    def test_distance(self):
        assert hamming_distance((1, 1, -1), (1, -1, -1)) == 1
        with pytest.raises(ValueError):
            hamming_distance((1,), (1, 1))


class TestClauseValidation:
    def test_make_clause_merges_and_detects_tautology(self):
        assert make_clause((1, 1)).width == 1
        assert make_clause((1, -1)) is None

    def test_the_empty_clause_is_a_clause(self):
        assert Clause(()).width == 0 and Clause(()).variables() == ()
        assert make_clause([]) == Clause(())
        assert not clause_satisfied(Clause(()), (1, -1))

    def test_formula_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            Formula(num_vars=1, clauses=(make_clause((2,)),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Literal(0, 0),
            lambda: Literal(-1, 1),
            lambda: Clause((Literal(0, 1), Literal(0, 1))),
            lambda: Clause((Literal(1, 1), Literal(0, 1))),
            lambda: Clause((Literal(0, 1), Literal(0, -1))),
        ],
    )
    def test_direct_construction_validates(self, build):
        with pytest.raises(ValueError):
            build()


def _outcome(parse, text):
    """("ok", formula, tautology_count) or ("error", type, message, line)."""
    try:
        formula = parse(text)
    except DimacsError as exc:
        return ("error", type(exc), str(exc), exc.line)
    if isinstance(formula, reference_cnf.Formula):
        formula = reference_cnf.as_current(formula)
    return ("ok", formula, formula.tautology_count)


# Characters str.splitlines breaks at besides \r and \n. parse_dimacs keeps
# them inside their line, where they are whitespace; the reference, which
# splits with str.splitlines, reads them as spaces.
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
AS_SPACES = str.maketrans(OTHER_BREAKS, " " * len(OTHER_BREAKS))


def _assert_parses_like_reference(text):
    expected = _outcome(reference_cnf.parse_dimacs, text.translate(AS_SPACES))
    got = _outcome(parse_dimacs, text)
    assert got == expected
    if got[0] == "ok":
        assert type(got[1]) is Formula


BAD_TOKENS = ("z", "1.5", "0x1", "--1", "2-", "caf\xe9", "1/2")
INT_FORMS = ("+1", "-0", "007", "+0")
MALFORMED_HEADERS = ("p", "p cnf", "p cnf x 1", "p dnf 2 1", "p cnf -1 1",
                     "p cnf 2 1 1", "pcnf 2 1", "p cnf 2 -3")
FILLER = ("c", "c comment 1 2 0", "cnf 3 0", "", "   ", "\t",
          "c note\u2028 see above", "c \x0c1 0", "\x0bc " + OTHER_BREAKS + " 0")


@st.composite
def dimacs_texts(draw):
    """DIMACS text: a header, clauses laid out over lines at random, comments
    and blank lines, and zero to three faults from the list below placed at
    random lines, so that one text can hold several errors."""
    n = draw(st.integers(0, 6))
    clauses = []
    if n:
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=5), max_size=8))
    tokens = [str(code) for clause in clauses for code in clause + [0]]
    cuts = sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=len(tokens))))
    lines = [" ".join(tokens[a:b]) for a, b in zip([0, *cuts], [*cuts, len(tokens)])]
    header = f"p cnf {n} {len(clauses)}"
    lines.insert(0, header)

    def at():  # a line index past the header's first place
        return draw(st.integers(min(1, len(lines)), len(lines)))

    for _ in range(draw(st.integers(0, 3))):
        lines.insert(at(), draw(st.sampled_from(FILLER)))
    out_of_range = st.integers(n + 1, n + 3).flatmap(lambda v: st.sampled_from((v, -v)))
    for fault in draw(st.lists(st.sampled_from((
        "duplicate header", "late header", "no header", "malformed header",
        "bad token", "int form", "out of range", "bare zero", "unterminated",
        "percent trailer",
    )), max_size=3)):
        if fault == "duplicate header":
            lines.insert(at(), f"p cnf {n} 0")
        elif fault == "late header" and header in lines:
            lines.remove(header)
            lines.insert(at(), header)
        elif fault == "no header":
            lines = [line for line in lines if line != header]
        elif fault == "malformed header" and header in lines:
            lines[lines.index(header)] = draw(st.sampled_from(MALFORMED_HEADERS))
        elif fault in ("bad token", "int form", "out of range"):
            token = draw(
                st.sampled_from(BAD_TOKENS) if fault == "bad token"
                else st.sampled_from(INT_FORMS) if fault == "int form"
                else out_of_range.map(str)
            )
            row = at()
            if row < len(lines) and lines[row][:1] not in ("c", "p", "%"):
                words = lines[row].split()
                words.insert(draw(st.integers(0, len(words))), token)
                lines[row] = " ".join(words)
            else:
                lines.insert(row, f"{token} 0")
        elif fault == "bare zero":
            lines.insert(at(), "0")
        elif fault == "unterminated":
            lines.append("1")
        elif fault == "percent trailer":
            lines.insert(at(), "%")
    sep = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return sep.join(lines) + (sep if draw(st.booleans()) else "")


class TestParseMatchesReference:
    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(dimacs_texts())
    @example("p cnf 2 1\np cnf 2 1\n1 0\n")  # duplicate header
    @example("1 2 0\np cnf 2 1\n")  # data before the header
    @example("p cnf 2 1\n1 z 0\n")  # non-integer token
    @example("p cnf 2 1\n1 3 0\n")  # out of range
    @example("p cnf 2 1\n0\n")  # bare 0
    @example("p cnf 2 1\n1 2\n")  # unterminated
    @example("p cnf 2 2\n1 2 0\n%\n0\nz\n")  # SATLIB trailer
    @example("p cnf 2 3\n0\n1 2\n5 0\n2 1")  # empty, out of range, unterminated
    @example("p cnf 2 3\n0\n5 0\nx 0\np cnf 2 3\n")  # out of range, then token errors
    @example("p cnf 2 2\n0\n1")  # unterminated after an empty clause
    @example("p cnf 3 3\n1 1 -2 0 2 -2 3 0\n3 -1 1 0\n")  # merge, tautologies
    @example("")
    def test_every_text(self, text):
        _assert_parses_like_reference(text)

    def test_committed_instances(self):
        for path in _committed_instances():
            _assert_parses_like_reference(path.read_text())


class TestLineBreaks:
    @pytest.mark.parametrize("char", OTHER_BREAKS)
    def test_a_comment_holds_any_line_separator_character(self, char):
        plain = parse_dimacs("c see below\np cnf 2 1\n1 -2 0\n")
        assert parse_dimacs(f"c note{char} see above\np cnf 2 1\n1 -2 0\n") == plain
        assert parse_dimacs(f"c{char}-1 0\np cnf 2 1\n1{char}-2 0\n") == plain

    @pytest.mark.parametrize("char", OTHER_BREAKS)
    def test_later_errors_keep_the_editor_line_number(self, char):
        text = f"c note{char} see above\nc {char}{char}\r\np cnf 2 1\r1 3 0\n"
        with pytest.raises(DimacsError) as err:
            parse_dimacs(text)
        assert str(err.value) == "line 4: literal 3 out of range for 2 variables"
        with pytest.raises(DimacsError, match=r"^line 3: clause data before header: '1 0'$"):
            parse_dimacs(f"c a{char}b\n\n1 0\np cnf 1 1\n")


class TestSlottedModel:
    def test_pickle_hash_and_equality_round_trip(self):
        formula = parse_dimacs((INSTANCES / "uf20" / "uf20-001.cnf").read_text())
        direct = Formula(formula.num_vars, formula.clauses)
        for obj in (formula, formula.clauses[0], formula.clauses[0].literals[0], direct):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj
            assert hash(copy) == hash(obj)
            assert repr(copy) == repr(obj)
            assert not hasattr(obj, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, None)
        assert direct == formula and hash(direct) == hash(formula)
        tautological = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        assert pickle.loads(pickle.dumps(tautological)).tautology_count == 1

    def test_equal_literals_are_one_object(self):
        for path in _committed_instances():
            formula = parse_dimacs(path.read_text())
            one = {}
            for clause in formula.clauses:
                for lit in clause.literals:
                    assert one.setdefault(lit, lit) is lit
            assert len(one) <= 2 * formula.num_vars

    def test_uf20_formulas_hold_at_most_four_tenths_of_the_reference(self):
        texts = [path.read_text() for path in sorted((INSTANCES / "uf20").glob("*.cnf"))]
        assert len(texts) == 60  # the uf20-sweep benchmark corpus

        def held_bytes(parse):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                formulas = [parse(text) for text in texts]
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
                del formulas

        assert held_bytes(parse_dimacs) <= 0.4 * held_bytes(reference_cnf.parse_dimacs)
