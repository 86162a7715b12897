"""Workload definitions, seed derivation and the benchmark's own answer checker.

This module imports nothing from ampsat, numpy or scipy: the launcher uses it
before any process has loaded a BLAS library, and the checker must not share
code with the solver it checks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

MAX_ROUNDS = 8
# Per-solve timeout, far above the slowest solve of any workload (uf50-016,
# under 10 s). A solve that reaches it counts as failed.
SOLVE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    corpus: str  # directory under instances/
    num_instances: int  # the first N files of the corpus, by name
    seeds_per_instance: int  # solver seeds derive_seed(k, name), k < this


# Every run of a workload solves the same (instance, solver seed) pairs; the
# benchmark's --seed only shuffles their order. Drawing the solver seeds from
# --seed instead changes which solves need several rounds, and those set the
# tail: over ten such draws of 1800 uf20 solves, p99 spread by about 0.2 of
# its median, and the median of a full uf50 pass ranged from 0.28 s to 0.51 s
# over seven master seeds. Fixed pairs make every run do the same work, so
# the fingerprint and solved_frac are identical across runs. All solves use
# bias1, the solver's default.
WORKLOADS: dict[str, Workload] = {
    # Nearly all solves end in round 1: first-order build (indicators,
    # signatures, the K=92 Gram), one decimation, annealing.
    "uf20-sweep": Workload("uf20", num_instances=60, seeds_per_instance=6),
    # A third of the solves exhaust the round budget and K grows to
    # thousands: product columns, Gram extension, the factor, decimation of
    # large fits.
    "uf50-refine": Workload("uf50", num_instances=24, seeds_per_instance=1),
}


def derive_seed(master_seed: int, name: str) -> int:
    """Per-instance solver seed from the master seed and the file *name*.

    Same formula as ampsat.cli.derive_seed, but always fed the bare file
    name, so the seeds do not depend on the directory the corpus is read from.
    """
    digest = hashlib.blake2b(f"{master_seed}|{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def instance_files(root: Path, workload: Workload) -> list[Path]:
    files = sorted((root / "instances" / workload.corpus).glob("*.cnf"))
    if len(files) < workload.num_instances:
        raise FileNotFoundError(
            f"instances/{workload.corpus} holds {len(files)} .cnf files, "
            f"{workload.num_instances} needed"
        )
    return files[: workload.num_instances]


def solve_list(workload: Workload, names: list[str], master_seed: int) -> list[tuple[str, int]]:
    """The (file name, solver seed) pairs one pass solves, in the order the
    master seed shuffles them to. Seed k = 0 is the ROADMAP baseline's."""
    pairs = [
        (name, derive_seed(k, name))
        for k in range(workload.seeds_per_instance)
        for name in names
    ]
    random.Random(master_seed).shuffle(pairs)
    return pairs


def read_dimacs_clauses(text: str) -> tuple[int, list[list[int]]]:
    """(num_vars, clauses as lists of signed 1-based literals) from DIMACS text.

    Deliberately minimal and independent of ampsat.cnf: comment lines, the
    header and a SATLIB '%' trailer are skipped, everything else is literals.
    """
    num_vars = None
    clauses: list[list[int]] = []
    current: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            num_vars = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if num_vars is None or current:
        raise ValueError("not a complete DIMACS CNF text")
    return num_vars, clauses


def count_unsat(clauses: list[list[int]], assignment) -> int:
    """Clauses left unsatisfied by a +/-1 assignment indexed by 0-based variable."""
    return sum(
        1
        for clause in clauses
        if not any((assignment[abs(lit) - 1] > 0) == (lit > 0) for lit in clause)
    )


def check_assignment(num_vars: int, clauses: list[list[int]], assignment) -> bool:
    """True iff the assignment is a full +/-1 vector satisfying every clause."""
    if assignment is None or len(assignment) != num_vars:
        return False
    if any(v not in (1, -1) for v in assignment):
        return False
    return count_unsat(clauses, assignment) == 0
