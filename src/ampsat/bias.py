"""Per-bit bias measures and the decimation that turns a fit into an
assignment.

BIAS1 reads the degree-1 coefficient of the current polynomial (how the
function's mass tilts across s_i = +/-1); BIAS2 compares the squared l2 norms
of the two conditioned restrictions. Both are positive multiples of the raw
enumeration-scale quantities, so argmax and sign are unaffected by the
normalized coefficient convention.

An ApproxState's BIAS1 decimation runs on its cubes and weights, with no
Fourier expansion: conditioning the cube 2^-|V| prod_{j in V} (1 + sigma_j s_j)
on s_j = b doubles its coefficient and drops j when sigma_j = b, and zeroes
it when sigma_j = -b. After fixing the set F, bias1_j = sum_i w_i sigma_ij
with w_i = a_i 2^-|V_i - F| for the surviving cubes: one product of w with
the K x n sign matrix per step, and an O(K) update of w per fixed variable.
The signs are held as int8, and each step's product casts them to float one
bounded block of rows at a time (approx.weighted_row_sum, over blocks cut
once per decimation), so its temporaries stay bounded however many columns
the fit has.
"""

from __future__ import annotations

import random
from enum import Enum

import numpy as np

from .approx import ApproxState, row_blocks, weighted_row_sum
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


def measure_bias(
    p: SparsePoly | ApproxState,
    kind: BiasKind,
    tie_rng: random.Random | None = None,
) -> Assignment:
    """Decimate p into a full assignment by repeated strongest-bias conditioning.

    Each step selects i* = argmax over unfixed i of |B_i| (ties -> lowest
    index, where biases within TIE_REL_TOL relative of the maximum tie),
    assigns s_{i*} = +1 if B_{i*} > 0 else -1 (exact zero -> +1), and
    conditions p on the choice. argmax and sign only compare biases, so the
    result is invariant to scaling p by any positive constant.

    p is a polynomial or an ApproxState, decimated on its cubes by BIAS1
    and through its omega_tilde by BIAS2.

    tie_rng, when given, randomizes tie and exact-zero resolution (used by the
    solver once refinement saturates).
    """
    if isinstance(p, ApproxState):
        if kind == BiasKind.BIAS1:
            return _decimate_cubes(p, tie_rng)
        p = p.omega_tilde
    n = p.num_vars
    out = [0] * n
    unfixed = list(range(n))
    current = p
    for _ in range(n):
        if kind == BiasKind.BIAS1:
            biases = {i: current.degree1_coefficient(i) for i in unfixed}
        else:
            biases = _bias2_all(current, unfixed)
        # Snap numerically-dead biases to exact zero. Conditioning leaves
        # cancellation residue whose survival past pruning depends on the
        # polynomial's absolute scale; the floor is relative (and quadratic
        # for the norm-difference bias), so the snap itself is not.
        scale = max((abs(c) for c in current.terms.values()), default=0.0)
        floor = TIE_REL_TOL * (scale if kind == BiasKind.BIAS1 else scale * scale)
        i_star, value = _choose(unfixed, biases, floor, tie_rng)
        out[i_star] = value
        current = current.condition(i_star, value)
    return tuple(out)


def _decimate_cubes(state: ApproxState, tie_rng: random.Random | None) -> Assignment:
    """BIAS1 decimation on the cubes (see the module docstring). The snap
    floor is relative to the larger of the fit's constant term and its
    largest bias, not to max |w_i|: a ridge fit's ~1/lambda weights cancel."""
    n = state.formula.num_vars
    signs = state.signs()  # (K, n) int8: sigma_ij, 0 where cube i leaves j free
    w = np.ldexp(state.weights, -np.count_nonzero(signs, axis=1))
    blocks = row_blocks(0, len(signs), n)
    out = [0] * n
    unfixed = list(range(n))
    for _ in range(n):
        biases = weighted_row_sum(w, signs, blocks)
        floor = TIE_REL_TOL * max(abs(w.sum()), np.abs(biases).max(initial=0.0))
        i_star, value = _choose(unfixed, biases.tolist(), floor, tie_rng)
        out[i_star] = value
        agree = signs[:, i_star] * value
        w[agree < 0] = 0.0
        w[agree > 0] *= 2.0
        signs[:, i_star] = 0  # every surviving cube now leaves s_i* free
    return tuple(out)


def _choose(
    unfixed: list[int], biases, floor: float, tie_rng: random.Random | None
) -> tuple[int, int]:
    """One decimation step: pick i* from `unfixed` (which it removes) and its
    value, by the rules of measure_bias. biases[i] is B_i; biases at or below
    floor count as exactly zero, so numerically dead biases resolve by the
    deterministic tie and zero rules, not by rounding dust."""
    snapped = {i: (0.0 if abs(biases[i]) <= floor else biases[i]) for i in unfixed}
    best = max(abs(b) for b in snapped.values())
    cutoff = best - best * TIE_REL_TOL
    tied = [i for i in unfixed if abs(snapped[i]) >= cutoff]
    if tie_rng is None or len(tied) == 1:
        i_star = tied[0]
    else:
        i_star = tie_rng.choice(tied)
    if snapped[i_star] == 0.0 and tie_rng is not None:
        value = tie_rng.choice((1, -1))
    else:
        value = -1 if snapped[i_star] < 0 else 1
    unfixed.remove(i_star)
    return i_star, value
