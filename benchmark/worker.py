"""One workload process: import, parse, solve the workload's list, report.

Started by run.py with OPENBLAS_NUM_THREADS=1 already in its environment;
OpenBLAS reads the variable only when it loads, so the check below runs
before numpy is imported. Prints "ready <monotonic seconds>" once every
input is parsed, then, unless --mode setup, one "result <json>" line.

Modes:
  setup  import and parse only (a set-up time sample);
  run    every entry solved, the fast ones repeatedly (see measure);
  trace  one untraced pass, then one traced pass over the same list.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__" and (
    os.environ.get("OPENBLAS_NUM_THREADS") != "1" or "numpy" in sys.modules
):
    sys.exit("worker.py: OPENBLAS_NUM_THREADS=1 must be set before numpy loads")

import argparse
import hashlib
import json
import platform
import resource
import time
import traceback
from pathlib import Path

import numpy
import scipy

from ampsat import BiasKind, SolverConfig, Status, parse_dimacs, solve

from metrics import TAIL_BEYOND, per_layer
from spans import ROOT_SPAN, Tracer
from workloads import (
    MAX_ROUNDS,
    SOLVE_TIMEOUT_S,
    WORKLOADS,
    check_assignment,
    instance_files,
    read_dimacs_clauses,
    solve_list,
)

ROOT = Path(__file__).resolve().parent.parent
MIN_SOLVES = 5  # samples of each re-solved entry, at least
GAP_S = 2.0  # first-solve seconds between interleaved re-solve passes
REJECTED = "SAT claim rejected by the checker"


def new_record() -> dict:
    return {"status": None, "rounds": 0, "columns": 0, "walls": [], "verified": 0,
            "wrong": 0, "failures": []}


def solve_entry(rec: dict, name: str, seed: int, inputs,
                tracer: Tracer | None = None) -> None:
    """Solve one (name, seed) entry once, check the answer, fold it into rec.

    Every solve of an entry must give the same (status, rounds,
    columns_final); a difference counts as wrong, like a rejected SAT claim.
    """
    formula, num_vars, clauses = inputs[name]
    config = SolverConfig(bias_kind=BiasKind.BIAS1, timeout=SOLVE_TIMEOUT_S, seed=seed,
                          max_rounds=MAX_ROUNDS)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            stats = solve(formula, config)
        else:
            tracer.clauses = clauses
            with tracer.span(ROOT_SPAN):
                stats = solve(formula, config)
    except Exception:  # a crash is a failed solve, not the end of the run
        rec["walls"].append(time.perf_counter() - t0)
        rec["failures"].append("exception: " + traceback.format_exc(limit=4))
        return
    rec["walls"].append(time.perf_counter() - t0)
    outcome = (stats.status.value, stats.rounds, stats.columns_final)
    if rec["status"] is None:
        rec["status"], rec["rounds"], rec["columns"] = outcome
    elif outcome != (rec["status"], rec["rounds"], rec["columns"]):
        rec["wrong"] += 1
        rec["failures"].append(f"repeat solve gave {outcome}")
    failure = classify(stats, num_vars, clauses, config.timeout)
    if failure is None:
        rec["verified"] += stats.status is Status.SAT
    else:
        rec["failures"].append(failure)
        rec["wrong"] += failure == REJECTED


def classify(stats, num_vars: int, clauses, timeout: float) -> str | None:
    """Why a solve counts as failed, or None."""
    if stats.status is Status.SAT:
        return None if check_assignment(num_vars, clauses, stats.assignment) else REJECTED
    if stats.diagnostic is not None:
        return "diagnostic: " + stats.diagnostic
    if stats.rounds < MAX_ROUNDS or stats.wall_time >= timeout:
        return "cut short by the timeout"
    return None


def run_pass(entries, inputs, tracer: Tracer | None = None) -> list[dict]:
    """Solve every entry once; one record per entry."""
    records = [new_record() for _ in entries]
    for rec, (name, seed) in zip(records, entries):
        solve_entry(rec, name, seed, inputs, tracer)
    return records


def measure(entries, inputs, seconds: float) -> tuple[list[dict], list[float]]:
    """Solve every entry once, re-solving the fast entries throughout.

    The entries re-solved are all but the TAIL_BEYOND slowest seen so far:
    the ones that set the medians and the tail. Their times move by tens of
    percent with the load on the machine, in spells that last tens of
    seconds, so their repeats are spread over the whole run: a re-solve
    pass follows whenever GAP_S of first solves have gone by, and passes go
    on after the last first solve until each re-solved entry has MIN_SOLVES
    samples and the next pass would overrun `seconds`. Returns the records
    and the duration of each re-solve pass.
    """
    t_start = time.perf_counter()
    records = [new_record() for _ in entries]
    seen: list[int] = []
    pass_s: list[float] = []

    def fast_ones() -> list[int]:
        by_time = sorted(seen, key=lambda i: records[i]["walls"][0])
        return sorted(by_time[: max(0, len(by_time) - TAIL_BEYOND)])

    def resolve(indices) -> None:
        t0 = time.perf_counter()
        for i in indices:
            solve_entry(records[i], *entries[i], inputs)
        pass_s.append(time.perf_counter() - t0)

    last = t_start
    for i, (name, seed) in enumerate(entries):
        solve_entry(records[i], name, seed, inputs)
        seen.append(i)
        if time.perf_counter() - last >= GAP_S and fast_ones():
            resolve(fast_ones())
            last = time.perf_counter()
    again = fast_ones()
    while again and (min(len(records[i]["walls"]) for i in again) < MIN_SOLVES
                     or time.perf_counter() - t_start + pass_s[-1] <= seconds):
        resolve(again)
    return records, pass_s


def fingerprint(entries, records: list[dict]) -> str:
    """Hash of each solve's (status, rounds, columns_final), in name order."""
    rows = sorted(
        (name, seed, r["status"], r["rounds"], r["columns"])
        for (name, seed), r in zip(entries, records)
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def environment() -> dict:
    def blas(config: dict) -> str:
        info = config.get("Build Dependencies", {}).get("blas", {})
        return info.get("openblas configuration") or f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    inputs = {}
    for path in instance_files(ROOT, workload):
        text = path.read_text()
        inputs[path.name] = (parse_dimacs(text), *read_dimacs_clauses(text))
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.mode == "setup":
        return 0

    entries = solve_list(workload, list(inputs), args.seed)
    # Warm-up: one first-round solve loads scipy's lazy modules before timing.
    solve(inputs[entries[0][0]][0], SolverConfig(seed=0, max_rounds=1))

    result = {"env": environment(), "entries": entries}
    if args.mode == "run":
        result["records"], result["pass_s"] = measure(entries, inputs, args.seconds)
    else:
        t0 = time.perf_counter()
        result["records"] = run_pass(entries, inputs)
        result["pass_s"] = [time.perf_counter() - t0]
    result["fingerprints"] = [fingerprint(entries, result["records"])]

    if args.mode == "trace":
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = run_pass(entries, inputs, tracer)
            traced_total = time.perf_counter() - t0
        result["traced_records"] = traced
        result["fingerprints"].append(fingerprint(entries, traced))
        result["per_layer"] = per_layer(tracer, traced, traced_total, result["records"])
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(tracer.dump()))

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
