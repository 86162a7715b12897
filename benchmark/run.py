"""ampsat benchmark: round-budgeted solves of the committed corpus.

    python3 benchmark/run.py --workload uf50-refine --seed 0 --seconds 30 --trace 0

Runs one workload in fresh worker processes (benchmark/worker.py) with one
BLAS thread, checks every SAT answer against the DIMACS text, prints a
report, writes it with the raw records to .bench_out/, and prints as the
last line a JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics of a traced pass (and the overhead against an untraced one).

Exit codes: 0 done, 1 a wrong SAT answer or nondeterministic results (the
JSON line is still printed), 2 sources or corpus missing, 3 a worker failed
or overran the run deadline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REPORTED, end_to_end
from workloads import MAX_ROUNDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 3  # set-up-only processes per run, besides the workload process
RUN_DEADLINE_S = 170.0  # the whole run, probes included


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the same way
    return env


class WorkerFailed(RuntimeError):
    pass


def run_worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker to completion; (set-up seconds, stdout)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed("worker overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    ready = [line for line in out.splitlines() if line.startswith("ready ")]
    if not ready:
        raise WorkerFailed("worker never reported ready")
    return float(ready[0].split()[1]) - t_spawn, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "ampsat" / "__init__.py").is_file():
        print(f"run.py: no ampsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "instances" / workload.corpus).is_dir():
        print(f"run.py: no corpus instances/{workload.corpus}", file=sys.stderr)
        return 2

    host = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "launcher_python": platform.python_version(),
    }
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env()
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    mode = "trace" if args.trace else "run"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup = [run_worker(base + ["--mode", "setup"], env, deadline)[0]
                 for _ in range(SETUP_PROBES)]
        setup_s, out = run_worker(
            base + ["--mode", mode, "--seconds", str(args.seconds),
                    "--spans-out", str(OUT_DIR / f"{stem}-spans.json")],
            env, deadline)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    setup.append(setup_s)
    result = json.loads(next(line for line in out.splitlines()
                             if line.startswith("result "))[len("result "):])

    records = result["records"]
    e2e = end_to_end(records, result["peak_rss_kb"], setup)
    checked = records + result.get("traced_records", [])
    attempted = sum(len(r["walls"]) for r in checked)
    failed = sum(len(r["failures"]) for r in checked)
    wrong = sum(r["wrong"] for r in checked)
    prints = set(result["fingerprints"])
    correct = wrong == 0 and len(prints) == 1

    lines = [
        f"workload {args.workload}: {workload.corpus} bias1, "
        f"{len(result['entries'])} (instance, seed) entries per pass, max_rounds={MAX_ROUNDS}, "
        f"master seed {args.seed}, closed loop, one solve at a time",
        f"env {json.dumps({**host, **result['env']})}",
        (f"untraced pass {result['pass_s'][0]:.2f} s, traced pass "
         f"{result['per_layer']['trace.total_s']:.2f} s" if args.trace else
         f"{e2e['info']['solves']} solves; re-solve passes: {len(result['pass_s'])} "
         f"({', '.join(f'{s:.2f}' for s in result['pass_s'])} s)"),
        f"fingerprint {' '.join(sorted(prints))}"
        f"{'' if len(prints) == 1 else '  MISMATCH: traced and untraced results differ'}",
        f"checked {attempted} solves: {wrong} wrong (rejected SAT claims or repeat "
        f"mismatches), {failed} failed",
        "wait: none; one process and one BLAS thread, so no work waits on another",
        f"wall_s.tail is p{e2e['info']['tail_percentile']:.1f} of "
        f"{e2e['info']['samples']} entries, each the mean of its solves; sat_wall_s.p50 "
        f"over {e2e['info']['sat_samples']}; setup_s median of {e2e['info']['setup_samples']}",
    ]
    units = {**END_TO_END, **REPORTED}
    lines += [f"{name} {value!r} {units[name]}" for name, value in e2e["values"].items()]
    if args.trace:
        lines += [f"{name} {value!r} {PER_LAYER[name]}"
                  for name, value in result["per_layer"].items()]
        report = {name: result["per_layer"][name] for name in PER_LAYER}
        unit_of = PER_LAYER
    else:
        report = {name: e2e["values"][name] for name in END_TO_END}
        unit_of = END_TO_END
    metrics = {name: {"value": v, "unit": unit_of[name]} for name, v in report.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"host": host, "report": lines, "end_to_end": e2e, "summary": summary,
         "worker": result}))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
