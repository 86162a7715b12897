"""Command-line interface: solve, bench, verify, oracle.

solve prints SAT-competition-style output ('s SATISFIABLE' plus a 'v' line
of 1-based signed literals terminated by 0, or 's UNKNOWN') and exits with
10 on SAT, 0 on UNKNOWN, 1 on usage or parse errors. bench runs a directory
of .cnf instances across solvers and writes one CSV record per run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import hashlib
import multiprocessing
import os
import random
import sys
import time
from pathlib import Path

from . import oracle as oracle_mod
from .anneal import AnnealSchedule, default_schedule, sa_solve
from .bias import BiasKind
from .cnf import (
    Assignment,
    DimacsError,
    EmptyClauseError,
    Formula,
    count_unsat,
    parse_dimacs,
    split_lines,
)
from .solver import SolverConfig, SolverStats, Status, solve

EXIT_SAT = 10
EXIT_UNKNOWN = 0
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSAT_ASSIGNMENT = 2

SOLVER_IDS = ("amp-bias1", "amp-bias2", "sa")

CSV_FIELDS = (
    "instance",
    "solver",
    "seed",
    "status",
    "wall_time_s",
    "rounds",
    "columns_final",
    "random_refinements",
    "mean_hamming_gap",
)


def _read_text(path: str) -> str:
    """A file's text as UTF-8. Bytes that are not UTF-8 (a Latin-1 comment,
    say) decode to lone surrogates, so a comment may hold any bytes and line
    numbers count only the file's own line breaks; such a byte outside a
    comment is a non-integer token."""
    return Path(path).read_bytes().decode("utf-8", "surrogateescape")


def _load_formula(path: str) -> Formula:
    """Parse a DIMACS file, read by _read_text."""
    try:
        text = _read_text(path)
    except OSError as exc:
        raise DimacsError(f"cannot read {path}: {exc}") from exc
    return parse_dimacs(text)


def derive_seed(master_seed: int, instance: str) -> int:
    """Stable per-instance seed: hash of the master seed and the instance path."""
    digest = hashlib.blake2b(
        f"{master_seed}|{instance}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def _schedule_from_args(args, num_vars: int) -> AnnealSchedule:
    base = default_schedule(max(1, num_vars))
    return AnnealSchedule(
        t_max=args.tmax if args.tmax is not None else base.t_max,
        t_min=args.tmin if args.tmin is not None else base.t_min,
        steps=args.steps if args.steps is not None else base.steps,
        repeats=args.repeats if args.repeats is not None else base.repeats,
    )


def _record(instance: str, solver_id: str, seed: int, status: str,
            wall_time: float, rounds: int, columns: int, randoms: int,
            mean_gap: float | None) -> dict:
    return {
        "instance": instance,
        "solver": solver_id,
        "seed": seed,
        "status": status,
        "wall_time_s": f"{wall_time:.3f}",
        "rounds": rounds,
        "columns_final": columns,
        "random_refinements": randoms,
        "mean_hamming_gap": "" if mean_gap is None else f"{mean_gap:.4f}",
    }


def _stats_record(instance: str, solver_id: str, seed: int, stats: SolverStats) -> dict:
    return _record(
        instance,
        solver_id,
        seed,
        stats.status.value,
        stats.wall_time,
        stats.rounds,
        stats.columns_final,
        stats.random_refinements,
        stats.mean_hamming_gap,
    )


def _write_csv(path: str, rows: list[dict], mode: str = "w") -> None:
    """Write rows as CSV_FIELDS records. Mode "a" appends them, with the
    header only when the file is new or empty."""
    target = Path(path)
    header = mode == "w" or not target.exists() or target.stat().st_size == 0
    with target.open(mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        if header:
            writer.writeheader()
        writer.writerows(rows)


def _print_v_line(assignment: Assignment) -> None:
    lits = [str((i + 1) * b) for i, b in enumerate(assignment)]
    print("v " + " ".join(lits) + " 0")


def cmd_solve(args) -> int:
    try:
        formula = _load_formula(args.cnf)
    except EmptyClauseError as exc:
        # Trivially unsatisfiable, but an incomplete solver never reports UNSAT.
        print(f"c diagnostic: {exc}: no assignment satisfies the formula")
        print("s UNKNOWN")
        return EXIT_UNKNOWN
    except DimacsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    config = SolverConfig(
        bias_kind=BiasKind(args.bias),
        timeout=args.timeout,
        seed=args.seed,
        schedule=_schedule_from_args(args, formula.num_vars),
        enable_random_refinement=not args.no_random_refine,
        max_rounds=args.max_rounds,
    )
    stats = solve(formula, config)
    print(f"c {args.cnf}: n={formula.num_vars} m={formula.num_clauses}")
    print(
        f"c rounds={stats.rounds} columns={stats.columns_final}"
        f" random_refinements={stats.random_refinements}"
        f" wall_time={stats.wall_time:.3f}s"
    )
    if stats.diagnostic:
        print(f"c diagnostic: {stats.diagnostic}")
    if stats.status == Status.SAT:
        print("s SATISFIABLE")
        _print_v_line(stats.assignment)
        exit_code = EXIT_SAT
    else:
        print("s UNKNOWN")
        exit_code = EXIT_UNKNOWN
    if args.stats:
        solver_id = f"amp-{config.bias_kind.value}"
        _write_csv(args.stats, [_stats_record(args.cnf, solver_id, args.seed, stats)], "a")
    return exit_code


def run_one(instance: str, solver_id: str, seed: int, timeout: float) -> dict:
    """Run one solver on one instance and return its CSV record.

    An instance holding the empty clause is recorded as UNKNOWN, with a
    diagnostic on stderr, so it does not stop the other runs."""
    try:
        formula = _load_formula(instance)
    except EmptyClauseError as exc:
        print(f"c diagnostic: {instance}: {exc}: recorded as UNKNOWN", file=sys.stderr)
        return _record(instance, solver_id, seed, Status.UNKNOWN.value, 0.0, 0, 0, 0, None)
    if solver_id == "sa":
        schedule = default_schedule(max(1, formula.num_vars))
        rng = random.Random(seed)
        t0 = time.monotonic()
        assignment, restarts = sa_solve(formula, schedule, rng, timeout)
        wall = time.monotonic() - t0
        status = Status.SAT.value if assignment is not None else Status.UNKNOWN.value
        return _record(instance, solver_id, seed, status, wall, restarts, 0, 0, None)
    bias = BiasKind.BIAS1 if solver_id == "amp-bias1" else BiasKind.BIAS2
    stats = solve(formula, SolverConfig(bias_kind=bias, timeout=timeout, seed=seed))
    return _stats_record(instance, solver_id, seed, stats)


def _bench_task(task: tuple[str, str, int, float]) -> dict:
    return run_one(*task)


# OpenBLAS and OpenMP size their thread pools once, when the library loads.
SINGLE_THREAD_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@contextlib.contextmanager
def single_thread_blas_pool(max_workers: int):
    """A process pool whose workers each run BLAS on one thread.

    Workers are spawned, not forked: a forked worker inherits the parent's
    already-started BLAS thread pool, and N of them oversubscribe the cores.
    A spawned worker imports numpy afresh with the environment it started
    with, so SINGLE_THREAD_BLAS_ENV is set for the life of the pool and the
    previous values are restored afterwards.
    """
    saved = {name: os.environ.get(name) for name in SINGLE_THREAD_BLAS_ENV}
    os.environ.update(SINGLE_THREAD_BLAS_ENV)
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max_workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_bench(args) -> int:
    if not args.timeout > 0:  # also rejects nan
        print("error: --timeout must be positive", file=sys.stderr)
        return EXIT_ERROR
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    directory = Path(args.dir)
    instances = sorted(str(p) for p in directory.glob("*.cnf"))
    if not instances:
        print(f"error: no .cnf files in {args.dir}", file=sys.stderr)
        return EXIT_ERROR
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    for solver_id in solvers:
        if solver_id not in SOLVER_IDS:
            print(
                f"error: unknown solver {solver_id!r}"
                f" (choose from {', '.join(SOLVER_IDS)})",
                file=sys.stderr,
            )
            return EXIT_ERROR
    tasks = [
        (inst, solver_id, derive_seed(args.seed, inst), args.timeout)
        for inst in instances
        for solver_id in solvers
    ]
    if args.jobs > 1:
        with single_thread_blas_pool(args.jobs) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["instance"], r["solver"]))
    try:
        _write_csv(args.csv, rows)
    except OSError as exc:
        print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for solver_id in solvers:
        mine = [r for r in rows if r["solver"] == solver_id]
        solved = sum(1 for r in mine if r["status"] == Status.SAT.value)
        rate = 100.0 * solved / len(mine)
        print(f"{solver_id}: solved {solved}/{len(mine)} ({rate:.1f}%)")
    return EXIT_OK


def parse_assignment_file(text: str, num_vars: int) -> Assignment:
    """Read a solution: 'v' lines or bare signed literals, 0-terminated.
    A variable given with both signs is an error."""
    values: dict[int, int] = {}
    done = False
    for raw in split_lines(text):
        line = raw.strip()
        if not line or line[0] in "cs":
            continue
        if line.startswith("v"):
            line = line[1:]
        for tok in line.split():
            code = int(tok)
            if code == 0:
                done = True
                break
            var = abs(code) - 1
            if var >= num_vars:
                raise ValueError(f"literal {code} out of range")
            value = 1 if code > 0 else -1
            if values.setdefault(var, value) != value:
                raise ValueError(f"conflicting literals for variable {var + 1}")
        if done:
            break
    missing = [i + 1 for i in range(num_vars) if i not in values]
    if missing:
        raise ValueError(f"assignment incomplete: no value for variable(s) {missing}")
    return tuple(values[i] for i in range(num_vars))


def cmd_verify(args) -> int:
    try:
        formula = _load_formula(args.cnf)
        text = _read_text(args.assignment)
        assignment = parse_assignment_file(text, formula.num_vars)
    except (DimacsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    unsat = count_unsat(formula, assignment)
    if unsat == 0:
        print("SAT")
        return EXIT_OK
    print(f"UNSAT ({unsat} clause(s) unsatisfied)")
    return EXIT_UNSAT_ASSIGNMENT


def cmd_oracle(args) -> int:
    try:
        formula = _load_formula(args.cnf)
        table = oracle_mod.dense_omega(formula)
    except (DimacsError, oracle_mod.SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"solutions {int(table.values.sum())}")
    print("var bias1_raw bias1_norm bias2_raw bias2_norm")
    for i in range(formula.num_vars):
        b1 = oracle_mod.exact_bias(table, i, BiasKind.BIAS1)
        b2 = oracle_mod.exact_bias(table, i, BiasKind.BIAS2)
        print(
            f"{i + 1} {b1.raw:.6g} {b1.normalized:.6g}"
            f" {b2.raw:.6g} {b2.normalized:.6g}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ampsat",
        description="Incomplete SAT solver driven by sparse Fourier-domain "
        "approximations of the solution set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS CNF instance")
    p_solve.add_argument("cnf")
    p_solve.add_argument("--bias", choices=["bias1", "bias2"], default="bias1")
    p_solve.add_argument("--timeout", type=float, default=60.0)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--steps", type=int, default=None)
    p_solve.add_argument("--repeats", type=int, default=None)
    p_solve.add_argument("--tmax", type=float, default=None)
    p_solve.add_argument("--tmin", type=float, default=None)
    p_solve.add_argument("--no-random-refine", action="store_true")
    p_solve.add_argument("--max-rounds", type=int, default=None)
    p_solve.add_argument("--stats", metavar="FILE.csv", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run solvers over a directory of .cnf files")
    p_bench.add_argument("dir")
    p_bench.add_argument("--solvers", default="amp-bias1",
                         help="comma-separated: amp-bias1,amp-bias2,sa")
    p_bench.add_argument("--timeout", type=float, default=60.0)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="check an assignment against a CNF")
    p_verify.add_argument("cnf")
    p_verify.add_argument("assignment")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="brute-force solution count and biases")
    p_oracle.add_argument("cnf")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
