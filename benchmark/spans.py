"""Outside-in tracing of the solver's layers.

`Tracer.installed()` replaces each traced function under the name its caller
looks it up by, so the solver runs unmodified while every call records a span
(name, start, end, parent) in memory. Span names are `<layer>.<function>`,
the layer being the ampsat module that defines the function; the same
function wrapped at two lookup sites shares one name.

Counters that need extra work (unsatisfied-clause counts of candidates) are
computed inside a `trace.bookkeeping` span, so that cost is not charged to the
layer that made the call.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

from workloads import count_unsat

_clock = time.perf_counter

# (owner, attribute, span name). The owner is a module, or "module:Class"
# for a method.
TRACED = (
    ("ampsat.solver", "init_first_order", "approx.init_first_order"),
    ("ampsat.solver", "add_columns", "approx.add_columns"),
    ("ampsat.solver", "plan_refinement", "refine.plan_refinement"),
    ("ampsat.solver", "measure_bias", "bias.measure_bias"),
    ("ampsat.solver", "local_search", "anneal.local_search"),
    ("ampsat.solver", "count_unsat", "cnf.count_unsat"),
    ("ampsat.approx", "add_columns", "approx.add_columns"),
    ("ampsat.approx", "solve_weights", "approx.solve_weights"),
    ("ampsat.approx", "column_signature", "approx.column_signature"),
    ("ampsat.refine", "column_signature", "approx.column_signature"),
    ("ampsat.indicator:IndicatorCache", "column_poly", "indicator.column_poly"),
)
ROOT_SPAN = "solver.solve"
BOOKKEEPING_SPAN = "trace.bookkeeping"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(name for _, _, name in TRACED))


class Tracer:
    """In-memory spans plus the layer counters, for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.clauses: list[list[int]] = []  # formula of the solve in progress
        self.keys_offered = 0
        self.columns_added = 0
        self.ridge_nonzero = 0
        self.random_plans = 0
        self.poly_terms: list[int] = []
        self.unsat_after_decimation: list[int] = []
        self.unsat_after_anneal: list[int] = []
        self.rescue_attempts = 0
        self.rescued = 0

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(_clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{span name: (total self seconds, calls)}. Self time is a span's
        duration minus the durations of its direct children."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, tuple[float, int]] = {}
        for i in range(n):
            s, c = out.get(self.names[i], (0.0, 0))
            out[self.names[i]] = (s + self.ends[i] - self.starts[i] - child[i], c + 1)
        return out

    def dump(self) -> dict:
        """Spans in a compact, JSON-ready form: a name table and rows of
        [name index, start, end, parent index (-1 for roots)]."""
        table = list(dict.fromkeys(self.names))
        index = {name: k for k, name in enumerate(table)}
        rows = [
            [index[nm], st, en, p]
            for nm, st, en, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        return {"names": table, "spans": rows}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = {
            "approx.add_columns": self._after_add_columns,
            "approx.solve_weights": self._after_solve_weights,
            "refine.plan_refinement": self._after_plan_refinement,
            "bias.measure_bias": self._after_measure_bias,
            "anneal.local_search": self._after_local_search,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                with self.span(BOOKKEEPING_SPAN):
                    after(args, result)
            return result

        return traced

    def _wrap_add_columns(self, name: str, fn):
        # Materialise the keys so the offered count is known; add_columns
        # only iterates them once, so the call is unchanged.
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def counted(state, new_keys):
            keys = list(new_keys)
            self.keys_offered += len(keys)
            return traced(state, keys)

        return counted

    def _after_add_columns(self, args, added):
        self.columns_added += added

    def _after_solve_weights(self, args, weights):
        if args[0].ridge_lambda != 0.0:
            self.ridge_nonzero += 1

    def _after_plan_refinement(self, args, plan):
        if plan.used_random:
            self.random_plans += 1

    def _after_measure_bias(self, args, assignment):
        self.poly_terms.append(len(args[0].terms))
        self.unsat_after_decimation.append(count_unsat(self.clauses, assignment))

    def _after_local_search(self, args, result):
        after = count_unsat(self.clauses, result)
        self.unsat_after_anneal.append(after)
        if count_unsat(self.clauses, args[1]) > 0:
            self.rescue_attempts += 1
            if after == 0:
                self.rescued += 1

    @contextmanager
    def installed(self):
        """Patch every TRACED lookup site for the duration of the block."""
        patched = []
        try:
            for path, attr, name in TRACED:
                module_name, _, cls = path.partition(":")
                owner = importlib.import_module(module_name)
                if cls:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                if attr == "add_columns":
                    wrapper = self._wrap_add_columns(name, original)
                else:
                    wrapper = self._wrap(name, original)
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
