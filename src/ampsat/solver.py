"""Main solver loop: approximate, decimate, local-search, refine, repeat.

Each round builds a candidate assignment by bias decimation of the current
approximation, polishes it with annealing, and, if still unsatisfying,
extends the approximation with second-order indicator-product columns chosen
by the refinement policy. The solver is incomplete: it certifies SAT by
exhibiting a verified assignment and otherwise reports UNKNOWN at timeout
(never UNSAT).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from enum import Enum

from .anneal import AnnealSchedule, default_schedule, local_search
from .approx import WeightSolveError, add_columns, init_first_order
from .bias import BiasKind, measure_bias
from .cnf import Assignment, Formula, count_unsat, hamming_distance
from .indicator import IndicatorCache
from .refine import RefinementSaturated, plan_refinement


class Status(Enum):
    SAT = "SAT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SolverConfig:
    bias_kind: BiasKind = BiasKind.BIAS1
    timeout: float = 60.0
    seed: int = 0
    schedule: AnnealSchedule | None = None  # None: default_schedule(num_vars)
    max_order: int = 2
    enable_random_refinement: bool = True
    max_rounds: int | None = None  # round budget; None = timeout-bound only
    debug_state: bool = False  # attach a text dump of the final column set

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_order not in (1, 2):
            raise ValueError("max_order must be 1 or 2")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SolverStats:
    status: Status
    assignment: Assignment | None
    rounds: int
    columns_final: int
    random_refinements: int
    candidate_history: list[Assignment] = field(default_factory=list)
    hamming_gaps: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    diagnostic: str | None = None
    state_dump: str | None = None

    @property
    def mean_hamming_gap(self) -> float | None:
        if not self.hamming_gaps:
            return None
        return sum(self.hamming_gaps) / len(self.hamming_gaps)


def verify(formula: Formula, s: Assignment) -> bool:
    """Soundness gate: True iff s satisfies every clause."""
    return count_unsat(formula, s) == 0


def solve(formula: Formula, config: SolverConfig | None = None) -> SolverStats:
    """Run the full solver on a parsed formula.

    Deterministic for a fixed (formula, config) as long as the timeout is not
    hit. Any SAT claim is re-verified before being reported.
    """
    config = config or SolverConfig()
    t_start = time.monotonic()
    deadline = t_start + config.timeout
    rng = random.Random(config.seed)
    schedule = config.schedule or default_schedule(max(1, formula.num_vars))

    candidates: list[Assignment] = []
    gaps: list[int] = []
    randoms = 0
    rounds = 0

    def finish(status: Status, assignment: Assignment | None, columns: int,
               diagnostic: str | None = None, dump: str | None = None) -> SolverStats:
        # The soundness gate: an explicit check, so it also runs under -O.
        if status == Status.SAT and (
            assignment is None or not verify(formula, assignment)
        ):
            status = Status.UNKNOWN
            diagnostic = "SAT candidate failed verification; not reported as SAT"
        return SolverStats(
            status=status,
            assignment=assignment if status == Status.SAT else None,
            rounds=rounds,
            columns_final=columns,
            random_refinements=randoms,
            candidate_history=candidates,
            hamming_gaps=gaps,
            wall_time=time.monotonic() - t_start,
            diagnostic=diagnostic,
            state_dump=dump,
        )

    cache = IndicatorCache(formula, max_order=config.max_order)
    try:
        state = init_first_order(formula, cache)
    except WeightSolveError as exc:
        return finish(Status.UNKNOWN, None, 0, diagnostic=str(exc))

    s_star = measure_bias(state, config.bias_kind)
    candidates.append(s_star)
    s_final = local_search(formula, s_star, schedule, rng, deadline)
    rounds = 1
    # Saturated: no order-2 columns can ever be added again; the solver keeps
    # restarting annealing from tie-perturbed decimations of the final
    # approximation until the timeout.
    saturated = config.max_order < 2

    while (
        count_unsat(formula, s_final) > 0
        and time.monotonic() < deadline
        and (config.max_rounds is None or rounds < config.max_rounds)
    ):
        plan = None
        if not saturated:
            try:
                plan = plan_refinement(
                    formula,
                    s_star,
                    state,
                    rng,
                    allow_random=config.enable_random_refinement,
                )
            except RefinementSaturated:
                saturated = True

        if plan is not None and plan.keys:
            try:
                add_columns(state, plan.keys)
            except WeightSolveError as exc:
                return finish(
                    Status.UNKNOWN, None, state.num_columns, diagnostic=str(exc)
                )
            if plan.used_random:
                randoms += 1
            s_next = measure_bias(state, config.bias_kind)
        else:
            # Saturated, or nothing new to add this round: perturb ties only.
            s_next = measure_bias(state, config.bias_kind, tie_rng=rng)

        gaps.append(hamming_distance(s_star, s_next))
        s_star = s_next
        candidates.append(s_star)
        s_final = local_search(formula, s_star, schedule, rng, deadline)
        rounds += 1

    dump = state.dump() if config.debug_state else None
    if count_unsat(formula, s_final) == 0:
        return finish(Status.SAT, s_final, state.num_columns, dump=dump)
    return finish(Status.UNKNOWN, None, state.num_columns, dump=dump)
