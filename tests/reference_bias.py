"""BIAS1 cube decimation as it was before the sign matrix became int8 and
its product was taken by bounded row blocks: one (K x n) float64 sign matrix
and one `w @ signs` product per step. Its code is kept verbatim, apart from
reading the old float matrix through `float_signs` instead of
ApproxState.signs, as the reference the tests compare ampsat.bias
decimation against.

`decimate_cubes_by_step` is the blocked route as it was before its row
blocks were cut once per decimation: weighted_row_sum cuts them afresh at
every step."""

from __future__ import annotations

import random

import numpy as np

from ampsat.approx import ApproxState, weighted_row_sum
from ampsat.bias import TIE_REL_TOL, _choose
from ampsat.cnf import Assignment


def float_signs(state: ApproxState) -> np.ndarray:
    """A new (K x n) float matrix of the cubes' signs: entry (i, j) is
    +1 or -1 where cube i fixes s_j to that value, 0 where it leaves s_j
    free."""
    words = np.ascontiguousarray(state.masks.transpose(0, 2, 1), dtype="<u8")
    plus, minus = np.unpackbits(
        words.view(np.uint8), axis=2, count=state.formula.num_vars, bitorder="little"
    )
    return np.subtract(plus, minus, dtype=float)


def decimate_cubes(state: ApproxState, tie_rng: random.Random | None) -> Assignment:
    """BIAS1 decimation on the cubes (see the module docstring). The snap
    floor is relative to the larger of the fit's constant term and its
    largest bias, not to max |w_i|: where columns are dependent, weights
    can cancel."""
    n = state.formula.num_vars
    signs = float_signs(state)  # (K, n): sigma_ij, 0 where cube i leaves j free
    w = np.ldexp(state.weights, -np.count_nonzero(signs, axis=1))
    out = [0] * n
    unfixed = list(range(n))
    for _ in range(n):
        biases = w @ signs
        floor = TIE_REL_TOL * max(abs(w.sum()), np.abs(biases).max(initial=0.0))
        i_star, value = _choose(unfixed, biases.tolist(), floor, tie_rng)
        out[i_star] = value
        agree = signs[:, i_star] * value
        w[agree < 0] = 0.0
        w[agree > 0] *= 2.0
        signs[:, i_star] = 0.0  # every surviving cube now leaves s_i* free
    return tuple(out)


def decimate_cubes_by_step(state: ApproxState, tie_rng: random.Random | None) -> Assignment:
    """BIAS1 decimation on the cubes (see the module docstring). The snap
    floor is relative to the larger of the fit's constant term and its
    largest bias, not to max |w_i|: where columns are dependent, weights
    can cancel."""
    n = state.formula.num_vars
    signs = state.signs()  # (K, n) int8: sigma_ij, 0 where cube i leaves j free
    w = np.ldexp(state.weights, -np.count_nonzero(signs, axis=1))
    out = [0] * n
    unfixed = list(range(n))
    for _ in range(n):
        biases = weighted_row_sum(w, signs)
        floor = TIE_REL_TOL * max(abs(w.sum()), np.abs(biases).max(initial=0.0))
        i_star, value = _choose(unfixed, biases.tolist(), floor, tie_rng)
        out[i_star] = value
        agree = signs[:, i_star] * value
        w[agree < 0] = 0.0
        w[agree > 0] *= 2.0
        signs[:, i_star] = 0  # every surviving cube now leaves s_i* free
    return tuple(out)
