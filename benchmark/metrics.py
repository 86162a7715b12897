"""Metric definitions and the arithmetic that turns solve records into them.

Pure Python with no ampsat import, shared by the launcher (end-to-end
metrics) and the workload process (per-layer metrics from a Tracer).
"""

from __future__ import annotations

import statistics

from spans import BOOKKEEPING_SPAN, SPAN_NAMES

# The end-to-end metrics a --trace 0 run reports in its JSON line, each with
# a regression bound in BENCHMARK.json, and their units.
END_TO_END = {
    "solved_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# End-to-end metrics that are printed but carry no bound. error_frac is 0 on
# a healthy program (the JSON's "failed" carries it). The solve times moved
# with the load on the 2-vCPU machine this benchmark was built on, which ran
# the same solve at two speeds about 1.7x apart in spells of tens of
# seconds: in two sets of ten runs per workload, their spread (quartile
# distance over median) was 0.14-0.21 for instances_per_s and 0.18-0.30 for
# the percentiles, too close to or above the largest bound allowed, 0.25.
REPORTED = {
    "error_frac": "ratio",
    "wall_s.p50": "s",
    "wall_s.tail": "s",
    "sat_wall_s.p50": "s",
    "instances_per_s": "1/s",
}

_COUNTERS = {
    "approx.keys_offered": "count",
    "approx.columns_added": "count",
    "approx.accept_ratio": "ratio",
    "approx.columns_final.max": "count",
    "approx.ridge_nonzero": "count",
    "bias.poly_terms.mean": "count",
    "refine.random_plans": "count",
    "bias.unsat_after_decimation.mean": "count",
    "anneal.unsat_after.mean": "count",
    "anneal.rescue_ratio": "ratio",
    "solver.rounds.mean": "count",
    "trace.total_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "ratio",
}

# The per-layer metrics a --trace 1 run reports, with their units.
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPAN_NAMES + (BOOKKEEPING_SPAN,)
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **_COUNTERS,
}

TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at least
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND+1)-th largest value."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[dict], peak_rss_kb: int, setup_samples: list[float]) -> dict:
    """End-to-end metrics from per-entry records.

    A record holds one (instance, seed) entry's solve times ("walls"), how
    many of those solves were checked SAT answers ("verified") and the
    failures. The solves of an entry repeat one deterministic computation
    (run.py checks that they agree) spread over the run, so an entry's time,
    the mean of its solves, averages the machine's load over the run. The
    sample count is the number of entries however often each was solved.
    """
    attempted = sum(len(r["walls"]) for r in records)
    failed = sum(len(r["failures"]) for r in records)
    per_entry = [statistics.fmean(r["walls"]) for r in records]
    solved = [r["verified"] == len(r["walls"]) > 0 for r in records]
    sat = [t for t, ok in zip(per_entry, solved) if ok]
    tail_value, tail_pct = tail(per_entry)
    values = {
        "solved_frac": sum(solved) / len(records),
        "error_frac": failed / attempted,
        "wall_s.p50": statistics.median(per_entry),
        "wall_s.tail": tail_value,
        "sat_wall_s.p50": statistics.median(sat) if sat else None,
        "instances_per_s": len(per_entry) / sum(per_entry),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    info = {
        "samples": len(per_entry),
        "solves": attempted,
        "tail_percentile": tail_pct,
        "sat_samples": len(sat),
        "setup_samples": len(setup_samples),
    }
    return {"values": values, "info": info}


def per_layer(tracer, records: list[dict], traced_total: float,
              untraced_records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    traced_total is the traced pass's wall time; the self times of all spans
    plus trace.remainder_s add up to it. The overhead compares the summed
    solve times of the traced pass and an untraced pass over the same solves.
    """
    selfs = tracer.self_times()
    out: dict[str, float] = {}
    for span in SPAN_NAMES + (BOOKKEEPING_SPAN,):
        s, calls = selfs.get(span, (0.0, 0))
        out[f"{span}.self_s"] = s
        out[f"{span}.calls"] = calls
    offered = tracer.keys_offered
    out.update({
        "approx.keys_offered": offered,
        "approx.columns_added": tracer.columns_added,
        "approx.accept_ratio": tracer.columns_added / offered if offered else 0.0,
        "approx.columns_final.max": max(r["columns"] for r in records),
        "approx.ridge_nonzero": tracer.ridge_nonzero,
        "bias.poly_terms.mean": statistics.fmean(tracer.poly_terms),
        "refine.random_plans": tracer.random_plans,
        "bias.unsat_after_decimation.mean": statistics.fmean(tracer.unsat_after_decimation),
        "anneal.unsat_after.mean": statistics.fmean(tracer.unsat_after_anneal),
        "anneal.rescue_ratio": (
            tracer.rescued / tracer.rescue_attempts if tracer.rescue_attempts else 0.0
        ),
        "solver.rounds.mean": statistics.fmean(r["rounds"] for r in records),
        "trace.total_s": traced_total,
        "trace.remainder_s": traced_total - sum(s for s, _ in selfs.values()),
        "trace.overhead_frac": (
            sum(r["walls"][0] for r in records) / sum(r["walls"][0] for r in untraced_records)
            - 1.0
        ),
    })
    return out
