"""Tests of the benchmark itself: the checker, the trace arithmetic, the seeds,
the baseline counts and the launcher's refusal to run without sources.

    python3 -m pytest benchmark
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ampsat
from ampsat import parse_dimacs
from ampsat.cli import derive_seed as cli_derive_seed

import metrics
import spans
import worker
from workloads import (
    WORKLOADS,
    check_assignment,
    count_unsat,
    derive_seed,
    instance_files,
    read_dimacs_clauses,
    solve_list,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _inputs(workload, names=None):
    out = {}
    for path in instance_files(ROOT, workload):
        if names is None or path.name in names:
            text = path.read_text()
            out[path.name] = (parse_dimacs(text), *read_dimacs_clauses(text))
    return out


def test_checker_agrees_with_ampsat_and_rejects_corruption():
    text = (ROOT / "instances" / "uf20" / "uf20-001.cnf").read_text()
    formula = parse_dimacs(text)
    num_vars, clauses = read_dimacs_clauses(text)
    assert num_vars == formula.num_vars and len(clauses) == formula.num_clauses
    rng = random.Random(5)
    for _ in range(200):
        s = tuple(rng.choice((-1, 1)) for _ in range(num_vars))
        assert count_unsat(clauses, s) == ampsat.count_unsat(formula, s)

    stats = ampsat.solve(formula, ampsat.SolverConfig(seed=derive_seed(0, "uf20-001.cnf"),
                                                      max_rounds=8))
    good = stats.assignment
    assert check_assignment(num_vars, clauses, good)
    # Falsify every literal of one clause: the clause is then violated.
    bad = list(good)
    for lit in clauses[0]:
        bad[abs(lit) - 1] = -1 if lit > 0 else 1
    assert not check_assignment(num_vars, clauses, tuple(bad))
    assert not check_assignment(num_vars, clauses, good[:-1])
    assert not check_assignment(num_vars, clauses, (0,) + good[1:])
    assert not check_assignment(num_vars, clauses, None)


def test_wrong_sat_answer_is_counted(monkeypatch):
    inputs = _inputs(WORKLOADS["uf20-sweep"], {"uf20-001.cnf"})
    real_solve = worker.solve

    def corrupting_solve(formula, config):
        stats = real_solve(formula, config)
        stats.assignment = tuple(-v for v in stats.assignment)
        return stats

    monkeypatch.setattr(worker, "solve", corrupting_solve)
    [rec] = worker.run_pass([("uf20-001.cnf", 1)], inputs)
    assert rec["status"] == "SAT" and rec["wrong"] == len(rec["walls"]) >= 1
    assert rec["verified"] == 0 and len(rec["failures"]) == rec["wrong"]


def test_all_but_the_ten_slowest_are_solved_again():
    inputs = _inputs(WORKLOADS["uf20-sweep"])
    entries = [(name, k) for k, name in enumerate(sorted(inputs)[:13])]
    records, pass_s = worker.measure(entries, inputs, seconds=0.0)
    counts = sorted(len(r["walls"]) for r in records)
    assert counts == [1] * 10 + [worker.MIN_SOLVES] * 3
    assert len(pass_s) == worker.MIN_SOLVES - 1
    slowest_again = max(r["walls"][0] for r in records if len(r["walls"]) > 1)
    assert all(r["walls"][0] >= slowest_again for r in records if len(r["walls"]) == 1)
    for rec in records:
        assert rec["verified"] == len(rec["walls"]) and rec["wrong"] == 0


def test_seeds_are_keyed_on_file_names():
    """Solver seeds are ampsat.cli.derive_seed applied to bare file names;
    the master seed only shuffles the order."""
    for workload in WORKLOADS.values():
        names = [p.name for p in instance_files(ROOT, workload)]
        entries = solve_list(workload, names, 3)
        assert sorted(entries) == sorted(
            (name, cli_derive_seed(k, name))
            for k in range(workload.seeds_per_instance)
            for name in names
        )
        assert entries == solve_list(workload, names, 3) != solve_list(workload, names, 4)


def test_tail_is_eleventh_largest():
    value, pct = metrics.tail([float(x) for x in range(30)])
    assert value == 19.0 and pct == pytest.approx(100 * 20 / 30)
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_baseline_counts():
    """ROADMAP baseline at max_rounds=8, seeds derive_seed(0, file name):
    uf20 solves 60/60 and uf50-001..010 solves 6/10."""
    uf20 = WORKLOADS["uf20-sweep"]
    inputs = _inputs(uf20)
    entries = [(name, derive_seed(0, name)) for name in sorted(inputs)]
    assert set(entries) <= set(solve_list(uf20, sorted(inputs), 0))
    records = worker.run_pass(entries, inputs)
    assert all(r["verified"] == len(r["walls"]) for r in records)

    uf50 = WORKLOADS["uf50-refine"]
    names = {f"uf50-{k:03d}.cnf" for k in range(1, 11)}
    inputs = _inputs(uf50, names)
    entries = [(name, derive_seed(0, name)) for name in sorted(names)]
    assert set(entries) <= set(solve_list(uf50, sorted(inputs), 0))
    records = worker.run_pass(entries, inputs)
    assert sum(r["verified"] > 0 for r in records) == 6
    assert not any(r["failures"] for r in records)


def test_trace_self_times_add_up_and_keep_results():
    workload = WORKLOADS["uf50-refine"]
    names = {"uf50-004.cnf", "uf50-010.cnf", "uf50-013.cnf"}
    inputs = _inputs(workload, names)
    entries = [(name, derive_seed(0, name)) for name in sorted(names)]
    untraced = worker.run_pass(entries, inputs)

    originals = (ampsat.solver.add_columns, ampsat.approx.solve_weights,
                 ampsat.indicator.IndicatorCache.column_poly)
    tracer = spans.Tracer()
    with tracer.installed():
        t0 = spans._clock()
        traced = worker.run_pass(entries, inputs, tracer)
        total = spans._clock() - t0
    assert (ampsat.solver.add_columns, ampsat.approx.solve_weights,
            ampsat.indicator.IndicatorCache.column_poly) == originals

    assert worker.fingerprint(entries, traced) == worker.fingerprint(entries, untraced)
    layer = metrics.per_layer(tracer, traced, total, untraced)
    assert set(layer) == set(metrics.PER_LAYER)
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert self_sum + layer["trace.remainder_s"] == pytest.approx(total, rel=1e-9)
    assert 0.0 <= layer["trace.remainder_s"] < 0.05 * total
    assert all(v >= 0.0 for k, v in layer.items() if k.endswith(".self_s"))
    for span in spans.SPAN_NAMES:
        assert layer[f"{span}.calls"] > 0, span
    assert layer["solver.solve.calls"] == len(entries)
    # Every column, first-order ones included, enters through add_columns.
    assert layer["approx.columns_added"] == sum(r["columns"] for r in traced)
    assert layer["approx.columns_added"] <= layer["approx.keys_offered"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert not set(metrics.REPORTED) & set(metrics.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "uf20-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
