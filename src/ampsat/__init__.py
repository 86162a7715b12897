"""Incomplete SAT solver built on sparse Boolean-Fourier approximations.

The pipeline: expand each clause's unsatisfied-region indicator as a sparse
multilinear polynomial, least-squares-fit the solution-set indicator with a
growing column set of indicator products, read a candidate assignment off the
fit by strongest-bias decimation, polish it with annealing, and refine the
column set from the clauses the candidate leaves (or nearly leaves) violated.
"""

from .anneal import AnnealSchedule, default_schedule, local_search, sa_solve
from .approx import ApproxState, WeightSolveError, add_columns, init_first_order, solve_weights
from .bias import BiasKind, bias1, bias2, measure_bias
from .cnf import (
    Assignment,
    Clause,
    DimacsError,
    Formula,
    Literal,
    clause_satisfied,
    count_unsat,
    hamming_distance,
    parse_dimacs,
    to_dimacs,
)
from .fourier import SparsePoly
from .indicator import ColumnKey, IndicatorCache, clause_indicator
from .refine import RefinementPlan, RefinementSaturated, clause_neighbors, plan_refinement
from .solver import SolverConfig, SolverStats, Status, solve, verify

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "ApproxState",
    "Assignment",
    "BiasKind",
    "Clause",
    "ColumnKey",
    "DimacsError",
    "Formula",
    "IndicatorCache",
    "Literal",
    "RefinementPlan",
    "RefinementSaturated",
    "SolverConfig",
    "SolverStats",
    "SparsePoly",
    "Status",
    "WeightSolveError",
    "add_columns",
    "bias1",
    "bias2",
    "clause_indicator",
    "clause_neighbors",
    "clause_satisfied",
    "count_unsat",
    "default_schedule",
    "hamming_distance",
    "init_first_order",
    "local_search",
    "measure_bias",
    "parse_dimacs",
    "plan_refinement",
    "sa_solve",
    "solve",
    "solve_weights",
    "to_dimacs",
    "verify",
]
