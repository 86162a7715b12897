"""The solver loop as it was before `solve` became one round loop with one
exit: the first round written out before the loop, each fit error caught
where it can arise, and SolverStats built by a `finish` closure. Its code is
kept verbatim as the reference the tests compare ampsat.solver.solve
against: the same status, assignment, rounds, columns, random refinements,
candidate history and diagnostic."""

from __future__ import annotations

import random
import time

from ampsat.anneal import default_schedule, local_search
from ampsat.approx import DeadlineReached, WeightSolveError, add_columns, init_first_order
from ampsat.bias import measure_bias
from ampsat.cnf import Assignment, Formula, count_unsat
from ampsat.refine import RefinementSaturated, plan_refinement
from ampsat.solver import SolverConfig, SolverStats, Status, verify


def solve(formula: Formula, config: SolverConfig | None = None) -> SolverStats:
    """Run the full solver on a parsed formula.

    Deterministic for a fixed (formula, config) as long as the timeout is not
    hit. The timeout is checked between rounds, every 1024 annealing steps
    (anneal._CLOCK_STEPS), and before each factor panel and refinement step
    of the fit, the first-order fit's included. A fit it cuts short ends the
    solve as UNKNOWN with the column count of the last solved fit (0 when
    that is the first-order fit). Any SAT claim is re-verified before being
    reported. An UNKNOWN whose fit missed its residual check (an
    inconsistent Gram system, see ampsat.approx) says so in its diagnostic,
    as floating-point evidence of UNSAT, never as an answer.
    """
    config = config or SolverConfig()
    t_start = time.monotonic()
    deadline = t_start + config.timeout
    rng = random.Random(config.seed)
    schedule = config.schedule or default_schedule(max(1, formula.num_vars))

    candidates: list[Assignment] = []
    randoms = 0
    rounds = 0
    state = None

    def finish(status: Status, assignment: Assignment | None, columns: int,
               diagnostic: str | None = None) -> SolverStats:
        # The soundness gate: an explicit check, so it also runs under -O.
        if status == Status.SAT and (
            assignment is None or not verify(formula, assignment)
        ):
            status = Status.UNKNOWN
            diagnostic = "SAT candidate failed verification; not reported as SAT"
        if status == Status.UNKNOWN and diagnostic is None and state and state.inconsistent_from:
            diagnostic = (
                f"fit inconsistent from K={state.inconsistent_from}:"
                " floating-point evidence of UNSAT"
            )
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
