"""DIMACS parsing, canonicalization, and formula evaluation."""

import random

import pytest

from ampsat import (
    DimacsError,
    Formula,
    clause_satisfied,
    count_unsat,
    parse_dimacs,
    to_dimacs,
)
from ampsat.cnf import Literal, hamming_distance, make_clause
from ampsat.indicator import clause_indicator

from helpers import all_assignments, random_formula


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
            ("p cnf 2 1\n0", "empty clause"),
            ("p cnf 2 2\n0\n3 0", "out of range"),  # not masked by the empty clause
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

    def test_formula_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            Formula(num_vars=1, clauses=(make_clause((2,)),))
