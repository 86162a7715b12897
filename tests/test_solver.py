"""Solver loop: orchestration, statuses, determinism, soundness."""

import dataclasses
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ampsat.approx as approx_module
import ampsat.solver as solver_module
from ampsat import indicator, parse_dimacs, solve, verify
from ampsat.bias import BiasKind
from ampsat.indicator import IndicatorCache
from ampsat.oracle import solution_count
from ampsat.solver import SolverConfig, SolverStats, Status

import reference_solver
from helpers import random_formula

UF50_005 = Path(__file__).resolve().parents[1] / "instances" / "uf50" / "uf50-005.cnf"


def _random_satisfiable(rng, n_range, m_of_n, widths=(1, 2, 3)):
    """Small random formula guaranteed satisfiable (brute-force checked)."""
    while True:
        n = rng.randrange(*n_range)
        m = max(1, m_of_n(n, rng))
        f = random_formula(rng, n, m, widths=widths)
        if solution_count(f) > 0:
            return f


def _cfg(**kwargs):
    kwargs.setdefault("timeout", 30.0)
    kwargs.setdefault("seed", 0)
    return SolverConfig(**kwargs)


def _outcome(stats):
    return (
        stats.status,
        stats.assignment,
        stats.rounds,
        stats.columns_final,
        stats.random_refinements,
        stats.candidate_history,
        stats.diagnostic,
    )


class TestSolveBasics:
    def test_empty_formula(self):
        stats = solve(parse_dimacs("p cnf 3 0\n"), _cfg())
        assert stats.status == Status.SAT
        assert stats.assignment == (1, 1, 1)
        assert stats.rounds == 1

    @pytest.mark.parametrize(
        "text, clause", [("p cnf 2 3\n1 2 0\n0\n-1 0\n", 2), ("p cnf 0 1\n0\n", 1)]
    )
    def test_an_empty_clause_is_answered_before_any_fit(self, monkeypatch, text, clause):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a formula holding the empty clause")

        monkeypatch.setattr(solver_module, "init_first_order", no_fit)
        stats = solve(parse_dimacs(text), _cfg())
        assert stats.status == Status.UNKNOWN and stats.assignment is None
        assert (stats.rounds, stats.columns_final, stats.random_refinements) == (0, 0, 0)
        assert stats.candidate_history == []
        assert stats.diagnostic == (
            f"clause {clause} is empty: no assignment satisfies the formula"
        )

    def test_single_clause_first_round(self):
        stats = solve(parse_dimacs("p cnf 2 1\n1 2 0"), _cfg())
        assert stats.status == Status.SAT
        assert stats.rounds == 1
        assert stats.random_refinements == 0

    def test_verify_gate(self):
        f = parse_dimacs("p cnf 1 1\n1 0")
        assert verify(f, (1,))
        assert not verify(f, (-1,))
        assert verify(parse_dimacs("p cnf 1 0\n"), (-1,))

    def test_soundness_gate_survives_optimize_flag(self):
        # Under -O asserts vanish; a rejected SAT candidate must still come
        # back UNKNOWN with a diagnostic, never as SAT.
        script = textwrap.dedent(
            """
            import sys
            import ampsat.solver as solver
            from ampsat import parse_dimacs

            solver.verify = lambda formula, assignment: False
            stats = solver.solve(parse_dimacs("p cnf 2 1\\n1 2 0\\n"))
            print(sys.flags.optimize, stats.status.value, stats.assignment,
                  stats.diagnostic)
            """
        )
        env = dict(os.environ)
        src = str(Path(solver_module.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        ).stdout.split(maxsplit=3)
        assert out[:3] == ["1", "UNKNOWN", "None"]
        assert "verification" in out[3]

    def test_unsatisfiable_reports_unknown(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        stats = solve(f, _cfg(timeout=1.5))
        assert stats.status == Status.UNKNOWN
        assert stats.assignment is None

    def test_config_validation(self):
        for timeout in (0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SolverConfig(timeout=timeout)
        with pytest.raises(ValueError):
            SolverConfig(max_rounds=0)


class TestStatsInvariants:
    def test_candidate_and_gap_bookkeeping(self):
        rng = random.Random(81)
        runs = []
        for _ in range(15):
            f = _random_satisfiable(rng, (2, 9), lambda n, r: r.randrange(1, 12))
            runs.append((f, solve(f, _cfg(timeout=5.0, seed=rng.randrange(1000)))))
        # the small formulas all end in round 1; these reach refinement rounds
        for name in ("uf50-001.cnf", "uf50-005.cnf"):
            f = parse_dimacs((UF50_005.parent / name).read_text())
            runs.append((f, solve(f, _cfg(max_rounds=4))))
        assert any(stats.rounds > 1 for _, stats in runs)
        for f, stats in runs:
            assert len(stats.hamming_gaps) == max(stats.rounds - 1, 0)
            assert len(stats.candidate_history) == stats.rounds
            if stats.status == Status.SAT:
                assert verify(f, stats.assignment)

    def test_mean_hamming_gap(self):
        stats = SolverStats(
            status=Status.SAT,
            assignment=(1,),
            rounds=3,
            columns_final=5,
            random_refinements=0,
            candidate_history=[(1, 1, 1, 1), (-1, -1, 1, 1), (1, 1, -1, -1)],
        )
        assert stats.hamming_gaps == [2, 4]
        assert stats.mean_hamming_gap == 3.0
        stats_single = dataclasses.replace(
            stats, candidate_history=stats.candidate_history[:1], rounds=1
        )
        assert stats_single.mean_hamming_gap is None


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        # determinism holds whenever the timeout is not the stopping reason,
        # so compare on satisfiable instances the solver finishes quickly
        rng = random.Random(82)
        for _ in range(8):
            f = _random_satisfiable(rng, (2, 8), lambda n, r: r.randrange(1, 10))
            cfg = _cfg(timeout=30.0, seed=rng.randrange(10_000))
            a = solve(f, cfg)
            b = solve(f, cfg)
            assert a.status == b.status
            assert a.assignment == b.assignment
            assert a.rounds == b.rounds
            assert a.columns_final == b.columns_final
            assert a.random_refinements == b.random_refinements
            assert a.candidate_history == b.candidate_history
            assert a.hamming_gaps == b.hamming_gaps

    def test_both_bias_kinds_run(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0")
        for kind in BiasKind:
            stats = solve(f, _cfg(bias_kind=kind))
            assert stats.status == Status.SAT


class TestRefinementIntegration:
    def test_saturation_keeps_solver_running(self):
        # (x1) and (~x1): the only pair is a zero product, so refinement
        # saturates immediately; the solver keeps annealing until timeout.
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        stats = solve(f, _cfg(timeout=1.0))
        assert stats.status == Status.UNKNOWN
        assert stats.rounds > 1
        assert stats.columns_final == 3  # constant + two unit indicators

    def test_max_rounds_budget(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        stats = solve(f, _cfg(timeout=30.0, max_rounds=4))
        assert stats.status == Status.UNKNOWN
        assert stats.rounds == 4
        assert len(stats.candidate_history) == 4
        assert len(stats.hamming_gaps) == 3

    def test_an_inconsistent_fit_is_evidence_never_an_answer(self):
        # The constant is the sum of the indicators of (x1) and (~x1), so
        # G a = e_0 has no solution: the first-order fit misses the
        # residual check and keeps the weights e_0, and the solve says so
        # in its diagnostic, still UNKNOWN.
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        stats = solve(f, _cfg(timeout=30.0, max_rounds=4))
        assert (stats.status, stats.rounds, stats.columns_final) == (Status.UNKNOWN, 4, 3)
        assert stats.diagnostic == "fit inconsistent from K=3: floating-point evidence of UNSAT"
        assert solve(parse_dimacs("p cnf 2 1\n1 2 0"), _cfg()).diagnostic is None

    def test_columns_monotone_and_random_refinements_counted(self):
        # a deliberately feeble annealing schedule forces multi-round runs
        from ampsat.anneal import AnnealSchedule

        weak = AnnealSchedule(t_max=0.5, t_min=1e-4, steps=2, repeats=1)
        rng = random.Random(83)
        saw_refinement = False
        tried = 0
        while tried < 20:
            n = rng.randrange(8, 12)
            f = random_formula(rng, n, int(4.5 * n), widths=(3,))
            if solution_count(f) != 1:
                continue  # single-solution instances defeat round-1 decimation
            tried += 1
            first_order = solve(f, _cfg(timeout=5.0, max_rounds=1, schedule=weak))
            stats = solve(f, _cfg(timeout=5.0, seed=rng.randrange(1000), schedule=weak))
            assert stats.columns_final >= first_order.columns_final
            if stats.rounds > 1:
                saw_refinement = True
        assert saw_refinement

    def test_a_deadline_inside_the_fit_ends_the_solve_unknown(self, monkeypatch):
        # uf50-005 solves in round 3 (two refinement batches). Here the
        # fit's clock passes the deadline once the second batch is offered:
        # the solve ends in that batch's fit, as a timeout (no diagnostic),
        # with the column count of the fit solved before it, as the
        # reference loop's does.
        f = parse_dimacs(UF50_005.read_text())
        outcomes = []
        for module in (solver_module, reference_solver):
            with monkeypatch.context() as patch:
                offered = []
                add_columns = module.add_columns

                def adding(state, keys):
                    offered.append(len(state.weights))
                    if len(offered) == 2:
                        clock = SimpleNamespace(monotonic=lambda: math.inf)
                        patch.setattr(approx_module, "time", clock)
                    return add_columns(state, keys)

                patch.setattr(module, "add_columns", adding)
                outcomes.append(module.solve(f, _cfg(timeout=600.0, max_rounds=8)))
                assert outcomes[-1].columns_final == offered[1] > offered[0]
        stats, reference = outcomes
        assert (stats.status, stats.diagnostic, stats.rounds) == (Status.UNKNOWN, None, 2)
        assert _outcome(stats) == _outcome(reference)

    def test_a_non_finite_gram_product_ends_the_solve_unknown(self, monkeypatch):
        # uf50-005's first-order fit has 219 columns; every fit past it
        # gets a NaN G a product, so the first refinement fit raises
        # WeightSolveError, whose message is the diagnostic.
        gram_times = approx_module.ApproxState._gram_times

        def poisoned(state, a):
            out = gram_times(state, a)
            return out * math.nan if len(a) > 219 else out

        monkeypatch.setattr(approx_module.ApproxState, "_gram_times", poisoned)
        f, config = parse_dimacs(UF50_005.read_text()), _cfg(timeout=600.0, max_rounds=8)
        stats = solve(f, config)
        assert (stats.status, stats.rounds) == (Status.UNKNOWN, 1)
        assert stats.diagnostic.startswith("Gram product is not finite")
        assert _outcome(stats) == _outcome(reference_solver.solve(f, config))

    def test_a_deadline_inside_the_first_order_fit_ends_the_solve_unknown(self, monkeypatch):
        # The first-order fit checks the solve's deadline too: a clock past
        # it ends the solve there, as a timeout, before any round.
        clock = SimpleNamespace(monotonic=lambda: math.inf)
        monkeypatch.setattr(approx_module, "time", clock)
        stats = solve(parse_dimacs(UF50_005.read_text()), _cfg(timeout=600.0, max_rounds=8))
        assert (stats.status, stats.diagnostic, stats.rounds) == (Status.UNKNOWN, None, 0)
        assert stats.columns_final == 0 and stats.candidate_history == []

    def test_random_refinement_disabled_still_terminates(self):
        f = parse_dimacs("p cnf 1 2\n1 0\n-1 0")
        stats = solve(f, _cfg(timeout=1.0, enable_random_refinement=False))
        assert stats.status == Status.UNKNOWN
        assert stats.random_refinements == 0


class TestSoundnessSweep:
    def test_every_sat_claim_verifies(self):
        rng = random.Random(84)
        sat_seen = 0
        for _ in range(25):
            f = _random_satisfiable(rng, (2, 10), lambda n, r: r.randrange(1, 3 * n))
            stats = solve(f, _cfg(timeout=10.0, seed=rng.randrange(1000)))
            if stats.status == Status.SAT:
                sat_seen += 1
                assert verify(f, stats.assignment)
        assert sat_seen > 0


class TestDecimationPath:
    def test_bias1_solve_expands_no_column(self, monkeypatch):
        # Bias-1 decimation runs on the cubes and weights: no column is ever
        # expanded into Fourier terms.
        def refuse(*args, **kwargs):
            raise AssertionError("a column was expanded on the bias-1 path")

        monkeypatch.setattr(IndicatorCache, "column_poly", refuse)
        monkeypatch.setattr(indicator, "cube_poly", refuse)
        stats = solve(parse_dimacs(UF50_005.read_text()), _cfg(timeout=600.0, max_rounds=8))
        assert (stats.status, stats.rounds, stats.columns_final) == (Status.SAT, 3, 1487)

    def test_bias2_solve_outcome(self):
        # Bias-2 decimates the expanded omega_tilde; the same outcome as
        # when every round assembled it.
        config = _cfg(timeout=600.0, max_rounds=8, bias_kind=BiasKind.BIAS2)
        stats = solve(parse_dimacs(UF50_005.read_text()), config)
        assert (stats.status, stats.rounds, stats.columns_final) == (Status.UNKNOWN, 8, 1182)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 5 * n))),
    st.sampled_from(BiasKind),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 1 << 30),
)
def test_solve_matches_the_reference(size, kind, max_rounds, random_refine, seed):
    """The one round loop gives the outcome of the loop it replaced."""
    (n, m), rng = size, random.Random(seed)
    f = random_formula(rng, n, m)
    config = _cfg(
        timeout=600.0,
        seed=seed,
        bias_kind=kind,
        max_rounds=max_rounds,
        enable_random_refinement=random_refine,
    )
    assert _outcome(solve(f, config)) == _outcome(reference_solver.solve(f, config))
