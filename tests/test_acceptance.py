"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The benchmark criteria (5-8) run the solver on the committed
instances/ corpus and can take several minutes when instances time out.
"""

import random
import statistics
from pathlib import Path

import numpy as np
import pytest

from ampsat import (
    SparsePoly,
    measure_bias,
    parse_dimacs,
    solve,
    verify,
)
from ampsat.approx import add_columns, init_first_order
from ampsat.bias import BiasKind, bias1, bias2
from ampsat.cli import derive_seed
from ampsat.indicator import IndicatorCache
from ampsat.oracle import (
    DenseTable,
    dense_evaluate,
    dense_omega,
    dense_transform,
    exact_bias,
    index_to_assignment,
    solution_count,
)
from ampsat.solver import SolverConfig, Status

from helpers import random_formula

TOL = 1e-9
ROOT = Path(__file__).resolve().parent.parent
UF20 = sorted((ROOT / "instances" / "uf20").glob("*.cnf"))
UF50 = sorted((ROOT / "instances" / "uf50").glob("*.cnf"))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _load(path: Path):
    return parse_dimacs(path.read_text())


def _run_batch(paths, timeout, master_seed=0, **cfg_kwargs):
    results = {}
    for path in paths:
        formula = _load(path)
        seed = derive_seed(master_seed, path.name)
        config = SolverConfig(timeout=timeout, seed=seed, **cfg_kwargs)
        results[path.name] = (formula, solve(formula, config))
    return results


@pytest.fixture(scope="module")
def uf20_results():
    return _run_batch(UF20[:50], timeout=60.0)


@pytest.fixture(scope="module")
def uf50_results():
    return _run_batch(UF50[:20], timeout=120.0)


def test_criterion_1_oracle_algebra_suite():
    """Sparse-path algebra matches dense enumeration on 200 random formulas."""
    rng = random.Random(101)
    checks = 0
    for _ in range(200):
        n = rng.randrange(2, 11)
        m = rng.randrange(1, min(41, 4 * n))
        f = random_formula(rng, n, m)
        cache = IndicatorCache(f)
        p = cache.column_poly((rng.randrange(m),))
        q = cache.column_poly((rng.randrange(m),))
        r = p.multiply(q)
        tp, tq, tr = (dense_evaluate(x).values for x in (p, q, r))

        # evaluate: sparse evaluation equals the enumerated table
        for _ in range(16):
            j = rng.randrange(2 ** n)
            s = index_to_assignment(j, n)
            assert p.evaluate(s) == pytest.approx(tp[j], abs=TOL)

        # multiply is the pointwise product
        assert np.allclose(tr, tp * tq, atol=TOL)

        # inner product equals the normalized enumeration sum
        assert p.inner_product(q) == pytest.approx(float((tp * tq).mean()), abs=TOL)

        # condition pins one bit of the enumeration
        i = rng.randrange(n)
        b = rng.choice((-1, 1))
        idx = np.arange(2 ** n)
        forced = (idx & ~(1 << i)) | ((1 << i) if b == -1 else 0)
        cond = dense_evaluate(p.condition(i, b)).values
        assert np.allclose(cond, tp[forced], atol=TOL)

        # biases against direct partition sums
        table = DenseTable(n, tr)
        assert bias1(r, i) == pytest.approx(
            exact_bias(table, i, BiasKind.BIAS1).normalized, abs=TOL
        )
        assert bias2(r, i) == pytest.approx(
            exact_bias(table, i, BiasKind.BIAS2).normalized, abs=TOL
        )
        checks += 1
    _report(1, checks == 200, f"200 random formulas, all algebra checks within {TOL}")


def test_criterion_2_orthogonality():
    """Every first- and second-order column is orthogonal to the solution set."""
    rng = random.Random(102)
    instances = 0
    worst = 0.0
    while instances < 100:
        n = rng.randrange(3, 13)
        m = rng.randrange(2, 11)
        f = random_formula(rng, n, m)
        omega = dense_omega(f).values
        if omega.sum() == 0:
            continue
        instances += 1
        cache = IndicatorCache(f)
        keys = [(i,) for i in range(m)]
        keys += [(i, j) for i in range(m) for j in range(i + 1, m)]
        for key in keys:
            col = dense_evaluate(cache.column_poly(key)).values
            overlap = abs(float(col @ omega))
            worst = max(worst, overlap)
            assert overlap <= TOL
    _report(2, True, f"100 satisfiable instances, max |<column, omega>| = {worst:.2e}")


def test_criterion_3_closed_form_weights():
    """Single width-k clause: weights (1/(1-2^-k), -1/(1-2^-k)), omega_tilde ~ omega."""
    for k in (1, 2, 3):
        lits = " ".join(str(i + 1) for i in range(k))
        f = parse_dimacs(f"p cnf {k} 1\n{lits} 0")
        state = init_first_order(f)
        expected = 1.0 / (1.0 - 2.0 ** -k)
        assert state.weights == pytest.approx([expected, -expected], abs=TOL)
        omega = dense_omega(f).values
        approx = dense_evaluate(state.omega_tilde).values
        on = approx[omega == 1.0]
        assert np.allclose(on, on[0], atol=TOL)
        assert np.allclose(approx[omega == 0.0], 0.0, atol=TOL)
    _report(3, True, "k in {1,2,3} closed-form weights and pointwise proportionality")


def test_criterion_4_exact_omega_decimation():
    """Decimating the exact solution indicator recovers unique solutions."""
    rng = random.Random(104)
    found = 0
    while found < 50:
        n = rng.randrange(4, 13)
        m = int(4.5 * n)
        f = random_formula(rng, n, m, widths=(3,))
        table = dense_omega(f)
        if int(table.values.sum()) != 1:
            continue
        found += 1
        solution = index_to_assignment(int(table.values.argmax()), n)
        omega_poly = dense_transform(table)
        for kind in BiasKind:
            assert measure_bias(omega_poly, kind) == solution
    _report(4, True, "50 single-solution instances solved by both bias kinds")


def test_criterion_5_uf20_success_rate(uf20_results):
    """amp-bias1 solves the large majority of 50 uf20-91 instances at 60 s."""
    solved = sum(
        1 for _, stats in uf20_results.values() if stats.status == Status.SAT
    )
    for formula, stats in uf20_results.values():
        if stats.status == Status.SAT:
            assert verify(formula, stats.assignment)
    rate = solved / len(uf20_results)
    _report(
        5,
        len(uf20_results) >= 50 and rate >= 0.85,
        f"uf20 success {solved}/{len(uf20_results)} ({100 * rate:.0f}%), bound 85%",
    )


def test_criterion_6_uf50_success_rate(uf50_results):
    """amp-bias1 solves well over half of 20 uf50-218 instances at 120 s,
    and, every one of them being satisfiable, marks no fit inconsistent."""
    solved = sum(
        1 for _, stats in uf50_results.values() if stats.status == Status.SAT
    )
    rate = solved / len(uf50_results)
    _report(
        6,
        len(uf50_results) >= 20 and rate >= 0.60,
        f"uf50 success {solved}/{len(uf50_results)} ({100 * rate:.0f}%), bound 60%",
    )
    inconsistent = [
        name
        for name, (_, stats) in uf50_results.items()
        if stats.diagnostic and stats.diagnostic.startswith("fit inconsistent")
    ]
    assert not inconsistent, f"satisfiable formulas marked inconsistent: {inconsistent}"


def test_criterion_7_random_refinement_rescue():
    """Instances unsolved without random refinement get rescued with it."""
    budget = dict(timeout=120.0, max_rounds=10)
    disabled = _run_batch(
        UF50[:20], enable_random_refinement=False, **budget
    )
    failed = [name for name, (_, st) in disabled.items() if st.status != Status.SAT]
    assert failed, "rescue experiment needs at least one disabled-run failure"
    rescued = 0
    for name in failed:
        path = ROOT / "instances" / "uf50" / name
        formula = _load(path)
        seed = derive_seed(0, name)
        stats = solve(
            formula,
            SolverConfig(seed=seed, enable_random_refinement=True, **budget),
        )
        if stats.status == Status.SAT:
            rescued += 1
            assert stats.random_refinements > 0
    fraction = rescued / len(failed)
    _report(
        7,
        rescued > 0,
        f"{len(failed)} unsolved without random refinement; rescued "
        f"{rescued} ({100 * fraction:.0f}%) with it",
    )


def test_criterion_8_exploration_property(uf20_results, uf50_results):
    """Successive candidates move in Hamming space on multi-round solves.

    Asserted over the pooled gap population: a refinement round occasionally
    reproduces the previous candidate verbatim (the follow-up local search
    solved it), so a per-instance mean can legitimately be zero.
    """
    gaps_by_n = {}
    multi_round = 0
    zero_gap_runs = 0
    for results in (uf20_results, uf50_results):
        for formula, stats in results.values():
            if stats.status == Status.SAT and stats.rounds >= 2:
                multi_round += 1
                if stats.mean_hamming_gap == 0:
                    zero_gap_runs += 1
                gaps_by_n.setdefault(formula.num_vars, []).extend(stats.hamming_gaps)
    pooled = [g for gaps in gaps_by_n.values() for g in gaps]
    detail = []
    for n, gaps in sorted(gaps_by_n.items()):
        mean = statistics.mean(gaps)
        detail.append(f"n={n}: mean gap {mean:.1f} ({100 * mean / n:.0f}% of vars)")
    _report(
        8,
        multi_round > 0 and statistics.mean(pooled) > 0,
        f"{multi_round} multi-round solves ({zero_gap_runs} with an unmoved "
        f"candidate); " + "; ".join(detail),
    )


def test_criterion_9_determinism_and_soundness():
    """Fixed (instance, config, seed) reproduces stats; SAT claims verify."""
    corpus = [
        "p cnf 2 1\n1 2 0",
        "p cnf 3 0\n",
        "p cnf 2 2\n1 0\n-2 0",
        "p cnf 4 3\n1 2 0\n-1 3 0\n2 -4 0",
        "p cnf 3 3\n1 2 0\n-2 3 0\n-1 -3 0",
    ]
    formulas = [parse_dimacs(text) for text in corpus]
    formulas += [_load(p) for p in UF20[:5]]
    runs = 0
    for formula in formulas:
        for kind in BiasKind:
            config = SolverConfig(bias_kind=kind, timeout=60.0, seed=11)
            a = solve(formula, config)
            b = solve(formula, config)
            runs += 1
            assert a.status == b.status == Status.SAT
            assert verify(formula, a.assignment)
            assert a.assignment == b.assignment
            assert a.rounds == b.rounds
            assert a.columns_final == b.columns_final
            assert a.random_refinements == b.random_refinements
            assert a.candidate_history == b.candidate_history
            assert a.hamming_gaps == b.hamming_gaps
    _report(9, True, f"{runs} duplicated runs identical modulo wall time, all verified")


def test_criterion_10_scale_invariance():
    """measure_bias output is bit-identical under positive rescaling."""
    rng = random.Random(110)
    polys = []
    while len(polys) < 100:
        n = rng.randrange(3, 10)
        m = rng.randrange(2, 3 * n)
        f = random_formula(rng, n, m)
        if solution_count(f) == 0:
            continue
        state = init_first_order(f)
        if f.num_clauses >= 2 and rng.random() < 0.5:
            pairs = [(i, j) for i in range(f.num_clauses) for j in range(i + 1, f.num_clauses)]
            add_columns(state, rng.sample(pairs, min(3, len(pairs))))
        p = state.omega_tilde
        if min(abs(c) for c in p.terms.values()) < 1e-5:
            continue  # keep scaled coefficients clear of the prune threshold
        polys.append(p)
    for p in polys:
        for kind in BiasKind:
            base = measure_bias(p, kind)
            for alpha in (1e-6, 1.0, 1e6):
                scaled = SparsePoly(p.num_vars, {k: alpha * c for k, c in p.terms.items()})
                assert measure_bias(scaled, kind) == base
    _report(10, True, "100 approximation polynomials, alpha in {1e-6, 1, 1e6}")
