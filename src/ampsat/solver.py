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
from .approx import DeadlineReached, WeightSolveError, add_columns, init_first_order
from .bias import BiasKind, measure_bias
from .cnf import Assignment, Formula, count_unsat, hamming_distance
from .refine import RefinementSaturated, plan_refinement


class Status(Enum):
    SAT = "SAT"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SolverConfig:
    """The settable values of one solve. Columns are always the first-order
    fit plus refinement's pairwise products (indicator.MAX_ORDER)."""

    bias_kind: BiasKind = BiasKind.BIAS1
    timeout: float = 60.0
    seed: int = 0
    schedule: AnnealSchedule | None = None  # None: default_schedule(num_vars)
    enable_random_refinement: bool = True
    max_rounds: int | None = None  # round budget; None = timeout-bound only

    def __post_init__(self):
        if not self.timeout > 0:  # also rejects nan
            raise ValueError("timeout must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SolverStats:
    """The outcome of one solve. candidate_history holds each round's
    decimated candidate, before annealing; hamming_gaps is derived from it."""

    status: Status
    assignment: Assignment | None
    rounds: int
    columns_final: int
    random_refinements: int
    candidate_history: list[Assignment] = field(default_factory=list)
    wall_time: float = 0.0
    diagnostic: str | None = None

    @property
    def hamming_gaps(self) -> list[int]:
        """Hamming distance between each pair of successive candidates."""
        history = self.candidate_history
        return [hamming_distance(a, b) for a, b in zip(history, history[1:])]

    @property
    def mean_hamming_gap(self) -> float | None:
        gaps = self.hamming_gaps
        if not gaps:
            return None
        return sum(gaps) / len(gaps)


def verify(formula: Formula, s: Assignment) -> bool:
    """Soundness gate: True iff s satisfies every clause."""
    return count_unsat(formula, s) == 0


def solve(formula: Formula, config: SolverConfig | None = None) -> SolverStats:
    """Run the full solver on a parsed formula.

    Deterministic for a fixed (formula, config) as long as the timeout is not
    hit. The timeout is checked between rounds, every 1024 annealing steps
    (anneal._CLOCK_STEPS), and before each factor panel and refinement step
    of the fit, the first-order fit's included. A fit it cuts short ends the
    solve as UNKNOWN with the column count of the last solved fit (0 when
    that is the first-order fit). Any SAT claim is re-verified before being
    reported.
    """
    config = config or SolverConfig()
    t_start = time.monotonic()
    deadline = t_start + config.timeout
    rng = random.Random(config.seed)
    schedule = config.schedule or default_schedule(max(1, formula.num_vars))

    candidates: list[Assignment] = []
    randoms = 0
    rounds = 0

    def finish(status: Status, assignment: Assignment | None, columns: int,
               diagnostic: str | None = None) -> SolverStats:
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
            wall_time=time.monotonic() - t_start,
            diagnostic=diagnostic,
        )

    try:
        state = init_first_order(formula, deadline=deadline)
    except WeightSolveError as exc:
        return finish(Status.UNKNOWN, None, 0, diagnostic=str(exc))
    except DeadlineReached:  # a timeout, as between rounds: no diagnostic
        return finish(Status.UNKNOWN, None, 0)

    s_star = measure_bias(state, config.bias_kind)
    candidates.append(s_star)
    s_final = local_search(formula, s_star, schedule, rng, deadline)
    rounds = 1
    # Saturated: no order-2 columns can ever be added again; the solver keeps
    # restarting annealing from tie-perturbed decimations of the final
    # approximation until the timeout.
    saturated = False

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
            except DeadlineReached:  # a timeout, as between rounds: no diagnostic
                return finish(Status.UNKNOWN, None, len(state.weights))
            if plan.used_random:
                randoms += 1
            s_star = measure_bias(state, config.bias_kind)
        else:
            # Saturated, or nothing new to add this round: perturb ties only.
            s_star = measure_bias(state, config.bias_kind, tie_rng=rng)

        candidates.append(s_star)
        s_final = local_search(formula, s_star, schedule, rng, deadline)
        rounds += 1

    if count_unsat(formula, s_final) == 0:
        return finish(Status.SAT, s_final, state.num_columns)
    return finish(Status.UNKNOWN, None, state.num_columns)
