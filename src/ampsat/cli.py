"""Command-line interface: solve, bench, verify, oracle.

solve prints SAT-competition-style output ('s SATISFIABLE' plus a 'v' line
of 1-based signed literals terminated by 0, or 's UNKNOWN') and exits with
10 on SAT, 0 on UNKNOWN, 1 on usage or parse errors. bench parses each .cnf
instance of a directory once, runs it across solvers and writes one CSV
record per run. An input holding the empty clause is a formula like any
other: solve reports it UNKNOWN, verify finds that clause unsatisfied and
oracle counts 0 solutions.
Commands raise their input and flag errors (ValueError, OSError); main
reports each as 'error: ...' on stderr with exit code 1.
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
    comment is a non-integer token. A file that cannot be read raises
    OSError, which names it."""
    try:
        return Path(path).read_bytes().decode("utf-8", "surrogateescape")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _open_csv(path: str, mode: str):
    """A CSV file opened for writing. A path that cannot be opened raises
    OSError, which names it."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def derive_seed(master_seed: int, instance: str) -> int:
    """Stable per-instance seed: hash of the master seed and the instance
    name. bench passes the file name, so how its directory is spelled does
    not change the seed."""
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


def _record(instance: str, solver_id: str, seed: int, stats: SolverStats) -> dict:
    mean_gap = stats.mean_hamming_gap
    return {
        "instance": instance,
        "solver": solver_id,
        "seed": seed,
        "status": stats.status.value,
        "wall_time_s": f"{stats.wall_time:.3f}",
        "rounds": stats.rounds,
        "columns_final": stats.columns_final,
        "random_refinements": stats.random_refinements,
        "mean_hamming_gap": "" if mean_gap is None else f"{mean_gap:.4f}",
    }


def _write_csv(fh, rows: list[dict]) -> None:
    """Write rows as CSV_FIELDS records to an open file, with the header
    only when the file is empty."""
    writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
    if fh.tell() == 0:
        writer.writeheader()
    writer.writerows(rows)


def _print_v_line(assignment: Assignment) -> None:
    lits = [str((i + 1) * b) for i, b in enumerate(assignment)]
    print(" ".join(["v", *lits, "0"]))


def cmd_solve(args) -> int:
    formula = parse_dimacs(_read_text(args.cnf))
    bias = BiasKind(args.bias)
    config = SolverConfig(
        bias_kind=bias,
        timeout=args.timeout,
        seed=args.seed,
        schedule=_schedule_from_args(args, formula.num_vars),
        enable_random_refinement=not args.no_random_refine,
        max_rounds=args.max_rounds,
    )
    # Opened before the solve, so a bad path fails before any 's' line.
    stats_file = _open_csv(args.stats, "a") if args.stats else None
    with stats_file or contextlib.nullcontext():
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
        if stats_file:
            _write_csv(stats_file, [_record(args.cnf, f"amp-{bias.value}", args.seed, stats)])
    return exit_code


def run_one(instance: str, formula: Formula, solver_id: str, seed: int, timeout: float) -> dict:
    """Run one solver on one instance, parsed as `formula`, and return its
    CSV record under the name `instance`. The sa baseline's restarts are
    recorded as its rounds."""
    if solver_id == "sa":
        schedule = default_schedule(max(1, formula.num_vars))
        t0 = time.monotonic()
        assignment, restarts = sa_solve(formula, schedule, random.Random(seed), timeout)
        status = Status.SAT if assignment is not None else Status.UNKNOWN
        stats = SolverStats(status, assignment, restarts, 0, 0, wall_time=time.monotonic() - t0)
    else:
        bias = BiasKind.BIAS1 if solver_id == "amp-bias1" else BiasKind.BIAS2
        stats = solve(formula, SolverConfig(bias_kind=bias, timeout=timeout, seed=seed))
    return _record(instance, solver_id, seed, stats)


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
        raise ValueError("--timeout must be positive")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    instances = sorted(str(p) for p in Path(args.dir).glob("*.cnf"))
    if not instances:
        raise ValueError(f"no .cnf files in {args.dir}")
    # each named solver once, in the order first named
    solvers = list(dict.fromkeys(s.strip() for s in args.solvers.split(",") if s.strip()))
    if not solvers:
        raise ValueError("--solvers names no solver")
    for solver_id in solvers:
        if solver_id not in SOLVER_IDS:
            raise ValueError(
                f"unknown solver {solver_id!r} (choose from {', '.join(SOLVER_IDS)})"
            )
    # Each instance is parsed once, here: a malformed one fails before any
    # solve, and before the CSV is opened (and emptied).
    formulas: dict[str, Formula] = {}
    for inst in instances:
        try:
            formulas[inst] = parse_dimacs(_read_text(inst))
        except DimacsError as exc:
            raise DimacsError(f"{inst}: {exc}") from exc
    tasks = [
        (inst, formulas[inst], solver_id, derive_seed(args.seed, Path(inst).name), args.timeout)
        for inst in instances
        for solver_id in solvers
    ]
    # Opened before the runs, so a bad path fails before any solve.
    with _open_csv(args.csv, "w") as csv_file:
        if args.jobs > 1:
            with single_thread_blas_pool(args.jobs) as pool:
                rows = list(pool.map(run_one, *zip(*tasks)))
        else:
            rows = [run_one(*t) for t in tasks]
        rows.sort(key=lambda r: (r["instance"], r["solver"]))
        _write_csv(csv_file, rows)
    for solver_id in solvers:
        mine = [r for r in rows if r["solver"] == solver_id]
        solved = sum(1 for r in mine if r["status"] == Status.SAT.value)
        rate = 100.0 * solved / len(mine)
        print(f"{solver_id}: solved {solved}/{len(mine)} ({rate:.1f}%)")
    return EXIT_OK


def parse_assignment_file(text: str, num_vars: int) -> Assignment:
    """Read a solution: 'v' lines or bare signed literals, 0-terminated.
    A token that is not an integer, or a literal out of range, is a
    DimacsError naming its line; a variable given with both signs is an
    error too."""
    values: dict[int, int] = {}
    done = False
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] in "cs":
            continue
        if line.startswith("v"):
            line = line[1:]
        for tok in line.split():
            try:
                code = int(tok)
            except ValueError:
                raise DimacsError(f"non-integer token {tok!r}", lineno) from None
            if code == 0:
                done = True
                break
            var = abs(code) - 1
            if var >= num_vars:
                raise DimacsError(
                    f"literal {code} out of range for {num_vars} variables", lineno
                )
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
    formula = parse_dimacs(_read_text(args.cnf))
    text = _read_text(args.assignment)
    assignment = parse_assignment_file(text, formula.num_vars)
    unsat = count_unsat(formula, assignment)
    if unsat == 0:
        print("SAT")
        return EXIT_OK
    print(f"UNSAT ({unsat} clause(s) unsatisfied)")
    return EXIT_UNSAT_ASSIGNMENT


def cmd_oracle(args) -> int:
    formula = parse_dimacs(_read_text(args.cnf))
    table = oracle_mod.dense_omega(formula)
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
