"""Annealing schedules and local search."""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ampsat.anneal as anneal_module
from ampsat import count_unsat, parse_dimacs
from ampsat.anneal import (
    _CLOCK_STEPS,
    AnnealSchedule,
    _interp_steps,
    default_schedule,
    local_search,
    sa_solve,
)

import reference_anneal
from helpers import random_formula, random_assignment


class TestSchedule:
    @pytest.mark.parametrize(
        "n,steps,t_max",
        [(20, 1000, 2.0), (50, 2000, 5.0), (75, 4000, 7.5), (100, 6000, 10.0)],
    )
    def test_anchor_sizes(self, n, steps, t_max):
        sched = default_schedule(n)
        assert sched.steps == steps
        assert sched.t_max == pytest.approx(t_max)
        assert sched.repeats == 2

    def test_t_min_rule(self):
        assert default_schedule(20).t_min == pytest.approx(5e-5 / 20)

    def test_interpolation_between_anchors(self):
        assert _interp_steps(35) == 1500
        assert _interp_steps(60) == pytest.approx(2800, abs=1)

    def test_extrapolation_clamps_at_minimum(self):
        assert _interp_steps(1) == 500
        assert default_schedule(5).steps == 500

    def test_extrapolation_beyond_largest(self):
        assert _interp_steps(125) == 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSchedule(t_max=1.0, t_min=2.0, steps=10, repeats=1)
        with pytest.raises(ValueError):
            AnnealSchedule(t_max=1.0, t_min=0.5, steps=0, repeats=1)
        with pytest.raises(ValueError):
            AnnealSchedule(t_max=1.0, t_min=0.0, steps=1, repeats=1)

    def test_temperature_is_linear(self):
        sched = AnnealSchedule(t_max=10.0, t_min=1.0, steps=10, repeats=1)
        assert sched.temperature(0) == 10.0
        assert sched.temperature(9) == pytest.approx(1.0)
        assert sched.temperature(3) == pytest.approx(10.0 + (1.0 - 10.0) * 3 / 9)

    def test_single_step_temperature(self):
        sched = AnnealSchedule(t_max=4.0, t_min=1.0, steps=1, repeats=1)
        assert sched.temperature(0) == 4.0


class TestLocalSearch:
    def test_satisfying_start_returned_unchanged(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        sched = AnnealSchedule(t_max=1.0, t_min=0.1, steps=5, repeats=2)
        assert local_search(f, (1, 1), sched, random.Random(0)) == (1, 1)

    def test_single_flip_reaches_solution(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        sched = AnnealSchedule(t_max=0.5, t_min=0.1, steps=10, repeats=1)
        assert local_search(f, (-1,), sched, random.Random(1)) == (1,)

    def test_never_worsens(self):
        rng = random.Random(71)
        sched = AnnealSchedule(t_max=2.0, t_min=0.01, steps=50, repeats=2)
        for _ in range(20):
            f = random_formula(rng, rng.randrange(2, 9), rng.randrange(1, 15))
            start = random_assignment(rng, f.num_vars)
            result = local_search(f, start, sched, rng)
            assert count_unsat(f, result) <= count_unsat(f, start)

    def test_fixed_seed_deterministic(self):
        rng_a, rng_b = random.Random(9), random.Random(9)
        f = parse_dimacs("p cnf 4 3\n1 2 0\n-2 3 0\n-1 4 0")
        sched = AnnealSchedule(t_max=1.0, t_min=0.05, steps=40, repeats=2)
        start = (-1, -1, -1, -1)
        assert local_search(f, start, sched, rng_a) == local_search(f, start, sched, rng_b)

    def test_single_rejected_step_returns_start(self):
        # cost-worsening proposal at freezing temperature: nothing accepted,
        # best-seen stays at the start
        f = parse_dimacs("p cnf 2 2\n1 0\n2 0")
        start = (1, -1)  # one unsatisfied clause; flipping var 0 worsens
        sched = AnnealSchedule(t_max=0.01, t_min=0.01, steps=1, repeats=1)
        seed = next(
            s for s in range(100) if random.Random(s).randrange(2) == 0
        )
        assert local_search(f, start, sched, random.Random(seed)) == start

    def test_start_length_checked(self):
        f = parse_dimacs("p cnf 2 1\n1 2 0")
        sched = AnnealSchedule(t_max=1.0, t_min=0.1, steps=1, repeats=1)
        with pytest.raises(ValueError):
            local_search(f, (1,), sched, random.Random(0))

    @pytest.mark.parametrize("start", [(0, 0), (1, 2), (-1, 0.5)])
    def test_start_entries_checked(self, start):
        # (0, 0) falsifies both clauses, but per-clause counts that compare
        # entries with literal signs would see them both as satisfied
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
        with pytest.raises(ValueError):
            local_search(f, start, default_schedule(2), random.Random(0))


class _CountingRandom(random.Random):
    """A Random that counts local_search's steps: each step draws one
    randrange."""

    steps = 0

    def randrange(self, *args):
        self.steps += 1
        return super().randrange(*args)


class TestDeadline:
    """local_search reads its clock before every _CLOCK_STEPS steps of a
    repeat, so it overshoots a deadline by at most that many steps. The fake
    clock reads the number of steps taken."""

    # every assignment of three variables falsifies exactly one clause
    UNSAT = parse_dimacs(
        "p cnf 3 8\n"
        + "".join(f"{a} {2 * b} {3 * c} 0\n" for a, b, c in itertools.product((1, -1), repeat=3))
    )

    def _steps_taken(self, monkeypatch, deadline):
        rng = _CountingRandom(3)
        monkeypatch.setattr(anneal_module, "time", SimpleNamespace(monotonic=lambda: rng.steps))
        sched = AnnealSchedule(t_max=1.0, t_min=0.05, steps=5000, repeats=2)
        assert count_unsat(self.UNSAT, local_search(self.UNSAT, (1, 1, 1), sched, rng, deadline)) == 1
        return rng.steps

    def test_a_search_ends_within_one_chunk_of_its_deadline(self, monkeypatch):
        # two repeats of 5000 steps: deadlines inside the first, at the
        # boundary and inside the second
        for deadline in (0.5, 1023.5, 1024.5, 4999.5, 5000.5, 9999.5):
            steps = self._steps_taken(monkeypatch, deadline)
            assert deadline <= steps <= deadline + _CLOCK_STEPS
        assert self._steps_taken(monkeypatch, 10000.5) == 10000

    def test_the_clock_draws_nothing_from_the_rng(self, monkeypatch):
        monkeypatch.setattr(anneal_module, "time", SimpleNamespace(monotonic=lambda: 0.0))
        rng = random.Random(5)
        f = random_formula(rng, 20, 91, widths=(3,))
        start = random_assignment(rng, 20)
        sched = AnnealSchedule(t_max=2.0, t_min=1e-4, steps=3000, repeats=2)
        timed, untimed = random.Random(6), random.Random(6)
        assert local_search(f, start, sched, timed, 1.0) == local_search(f, start, sched, untimed)
        assert timed.getstate() == untimed.getstate()

    def test_a_deadline_cuts_the_reference_trajectory_at_the_same_step(self, monkeypatch):
        rng = random.Random(8)
        f = random_formula(rng, 20, 91, widths=(3,))
        start = random_assignment(rng, 20)
        sched = AnnealSchedule(t_max=2.0, t_min=1e-4, steps=3000, repeats=2)
        ours, reference = _CountingRandom(9), _CountingRandom(9)
        for module, counted in ((anneal_module, ours), (reference_anneal, reference)):
            clock = SimpleNamespace(monotonic=lambda counted=counted: counted.steps)
            monkeypatch.setattr(module, "time", clock)
        deadline = sched.steps + _CLOCK_STEPS + 0.5  # inside the second repeat
        assert local_search(f, start, sched, ours, deadline) == reference_anneal.local_search(
            f, start, sched, reference, deadline
        )
        assert ours.steps == reference.steps == sched.steps + 2 * _CLOCK_STEPS
        assert ours.getstate() == reference.getstate()


class TestSaBaseline:
    def test_solves_easy_instance(self):
        f = parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0")
        sched = default_schedule(3)
        assignment, restarts = sa_solve(f, sched, random.Random(2), timeout=10.0)
        assert assignment is not None
        assert count_unsat(f, assignment) == 0
        assert restarts >= 1

    def test_empty_formula(self):
        f = parse_dimacs("p cnf 2 0\n")
        assignment, restarts = sa_solve(f, default_schedule(2), random.Random(0), 1.0)
        assert assignment == (1, 1)
        assert restarts == 1

    @pytest.mark.parametrize("text", ["p cnf 2 2\n1 2 0\n0\n", "p cnf 0 1\n0\n"])
    def test_an_empty_clause_returns_at_once(self, text):
        f = parse_dimacs(text)
        schedule = default_schedule(max(1, f.num_vars))
        assert sa_solve(f, schedule, random.Random(0), timeout=60.0) == (None, 0)


_STEPS = st.one_of(
    st.sampled_from((1, _CLOCK_STEPS, 2 * _CLOCK_STEPS)),
    st.integers(2, 2 * _CLOCK_STEPS + 100).filter(lambda steps: steps % _CLOCK_STEPS),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 5 * n))),
    _STEPS,
    st.integers(1, 3),
    st.floats(1e-3, 3.0),
    st.floats(1e-3, 1.0),
    st.integers(0, 1 << 30),
)
def test_local_search_matches_the_reference(size, steps, repeats, t_max, cool, seed):
    """Same result and same rng state afterwards as the _FlipState loop."""
    (n, m), rng = size, random.Random(seed)
    f = random_formula(rng, n, m, widths=tuple(range(1, 9)))
    start = random_assignment(rng, n)
    sched = AnnealSchedule(t_max=t_max, t_min=t_max * cool, steps=steps, repeats=repeats)
    ours, reference = random.Random(seed + 1), random.Random(seed + 1)
    assert local_search(f, start, sched, ours) == reference_anneal.local_search(
        f, start, sched, reference
    )
    assert ours.getstate() == reference.getstate()
