"""Per-bit bias measures and the decimation that turns a polynomial into an
assignment.

BIAS1 reads the degree-1 coefficient of the current polynomial (how the
function's mass tilts across s_i = +/-1); BIAS2 compares the squared l2 norms
of the two conditioned restrictions. Both are positive multiples of the raw
enumeration-scale quantities, so argmax and sign are unaffected by the
normalized coefficient convention.
"""

from __future__ import annotations

import random
from enum import Enum

from .cnf import Assignment
from .fourier import SparsePoly


class BiasKind(Enum):
    BIAS1 = "bias1"
    BIAS2 = "bias2"


# Biases within this relative band of the step maximum count as tied, and
# biases below this fraction of the polynomial's coefficient scale count as
# exactly zero. Exact mathematical ties and cancellations (symmetric variable
# pairs are common) must resolve by the deterministic tie/zero rules, not by
# rounding dust, or two numerically different routes to the same polynomial
# (or the same polynomial at two scales) decimate differently.
TIE_REL_TOL = 1e-9


def bias1(p: SparsePoly, i: int) -> float:
    """Degree-1 coefficient of p at variable i."""
    return p.degree1_coefficient(i)


def bias2(p: SparsePoly, i: int) -> float:
    """||p(s|s_i=1)||^2 - ||p(s|s_i=-1)||^2 at the normalized (Parseval) scale."""
    return p.condition(i, 1).parseval_sq_norm() - p.condition(i, -1).parseval_sq_norm()


def _bias2_all(p: SparsePoly, unfixed: list[int]) -> dict[int, float]:
    """All BIAS2 values in one pass over the stored terms.

    Expanding the two conditioned norms termwise, the squares without index i
    cancel and B_{2,i} = 4 * sum over subsets S not containing i of
    coeff(S) * coeff(S + {i}); each stored term T containing i contributes the
    pair (T - {i}, T).
    """
    out = dict.fromkeys(unfixed, 0.0)
    terms = p.terms
    for key, coeff in terms.items():
        for i in key:
            partner = terms.get(key - frozenset((i,)))
            if partner is not None:
                out[i] += 4.0 * coeff * partner
    return out


def _bias1_all(p: SparsePoly, unfixed: list[int]) -> dict[int, float]:
    return {i: p.degree1_coefficient(i) for i in unfixed}


def measure_bias(
    p: SparsePoly,
    kind: BiasKind,
    tie_rng: random.Random | None = None,
) -> Assignment:
    """Decimate p into a full assignment by repeated strongest-bias conditioning.

    Each step selects i* = argmax over unfixed i of |B_i| (ties -> lowest
    index, where biases within TIE_REL_TOL relative of the maximum tie),
    assigns s_{i*} = +1 if B_{i*} > 0 else -1 (exact zero -> +1), and
    conditions p on the choice. argmax and sign only compare biases, so the
    result is invariant to scaling p by any positive constant.

    tie_rng, when given, randomizes tie and exact-zero resolution (used by the
    solver once refinement saturates).
    """
    n = p.num_vars
    out = [0] * n
    unfixed = list(range(n))
    current = p
    for _ in range(n):
        if kind == BiasKind.BIAS1:
            biases = _bias1_all(current, unfixed)
        else:
            biases = _bias2_all(current, unfixed)
        # Snap numerically-dead biases to exact zero. Conditioning leaves
        # cancellation residue whose survival past pruning depends on the
        # polynomial's absolute scale; the floor is relative (and quadratic
        # for the norm-difference bias), so the snap itself is not.
        scale = max((abs(c) for c in current.terms.values()), default=0.0)
        floor = TIE_REL_TOL * (scale if kind == BiasKind.BIAS1 else scale * scale)
        biases = {i: (0.0 if abs(b) <= floor else b) for i, b in biases.items()}
        rank = {i: abs(b) for i, b in biases.items()}
        best = max(rank[i] for i in unfixed)
        cutoff = best - abs(best) * TIE_REL_TOL
        tied = [i for i in unfixed if rank[i] >= cutoff]
        if tie_rng is None or len(tied) == 1:
            i_star = tied[0]
        else:
            i_star = tie_rng.choice(tied)
        b_star = biases[i_star]
        if b_star > 0:
            value = 1
        elif b_star < 0:
            value = -1
        elif tie_rng is not None:
            value = tie_rng.choice((1, -1))
        else:
            value = 1
        out[i_star] = value
        unfixed.remove(i_star)
        current = current.condition(i_star, value)
    return tuple(out)
