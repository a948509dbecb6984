"""Classical harmonic-oscillator toolkit: Hermite polynomials, ladder
operators on a truncated Fock space, and the Jordan-Schwinger map sending a
matrix M to sum_{ij} a_i' M_ij a_j on a multi-mode Fock space.

Commutator identities hold exactly only away from the truncation edge: a'
maps the top level out of the space, so every check restricts to states
with total occupation at most cutoff - 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensor import embed, state_space

# Gaussian-weight orthogonality is checked by the trapezoid rule of step
# 1/4 on [-10, 10], with exp(-x^2) folded into the weights. For
# p(x) exp(-x^2), p a polynomial, its error is about exp(-pi^2 / h^2) at
# step h (Trefethen-Weideman, SIAM Rev. 56 (2014) 385), and the weight past
# +-10 is below exp(-100). The weights come from math.exp: numpy's first
# exp and square would page in about 0.25 MB of its ufunc loops at import.
TRAPEZOID_X = np.arange(-40, 41) / 4
TRAPEZOID_WEIGHTS = np.array([math.exp(-k * k / 16) / 4 for k in range(-40, 41)])


def hermite_table(n: int, x: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomials H_0(x), ..., H_n(x) at every point of
    x, one row per degree, by the three-term recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1} from H_0 = 1, H_1 = 2x. A value past the
    float range comes out inf or NaN, with no warning."""
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    table = np.empty((n + 1, len(x)))
    table[0] = 1.0
    with np.errstate(all="ignore"):
        if n:
            table[1] = 2.0 * x
        for k in range(1, n):
            table[k + 1] = 2.0 * x * table[k] - 2.0 * k * table[k - 1]
    return table


def hermite_gram(n: int) -> np.ndarray:
    """The quadrature Gram matrix of H_0, ..., H_n: one table of them on
    the trapezoid nodes and one product with the weights.

    Entry (m, k) equals sqrt(pi) 2^k k! delta_{mk} up to quadrature error:
    within 2.2e-16 relative on the diagonal for n <= 12, and at most
    1.3e-13 off it for degrees up to 6.
    """
    table = hermite_table(n, TRAPEZOID_X)
    return (table * TRAPEZOID_WEIGHTS) @ table.T


@dataclass(frozen=True)
class TruncatedFock:
    """Single-mode ladder operators on the basis |0>, ..., |cutoff-1>."""

    cutoff: int
    a: np.ndarray
    adag: np.ndarray
    number_op: np.ndarray

    def commutator_violation(self) -> float:
        """max |[a, a'] - 1| away from the top level."""
        C = self.a @ self.adag - self.adag @ self.a - np.eye(self.cutoff)
        return float(np.max(np.abs(C[: self.cutoff - 1, : self.cutoff - 1])))


def truncated_fock(cutoff: int) -> TruncatedFock:
    """Ladder pair with a|n> = sqrt(n)|n-1>, a'|n> = sqrt(n+1)|n+1>."""
    if cutoff < 2:
        raise ParameterError(f"cutoff must be >= 2, got {cutoff}")
    state_space((cutoff,))
    adag = np.zeros((cutoff, cutoff))
    for n in range(cutoff - 1):
        adag[n + 1, n] = np.sqrt(n + 1.0)
    a = adag.T.copy()
    return TruncatedFock(cutoff=cutoff, a=a, adag=adag, number_op=adag @ a)


def jordan_schwinger(mat: np.ndarray, cutoff: int) -> np.ndarray:
    """Image of an n x n matrix under M -> sum_{ij} a_i' M_ij a_j on the
    n-mode truncated Fock space (site dims all equal to cutoff): a_i' a_j
    is embedded at sites (i, j), and a_i' a_i at site i."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"need a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    dims, total_dim = state_space((cutoff,) * n)
    f = truncated_fock(cutoff)
    hop = np.kron(f.adag, f.a)
    total = np.zeros((total_dim, total_dim), dtype=np.result_type(mat, float))
    for i, j in itertools.product(range(n), repeat=2):
        if mat[i, j] == 0:
            continue
        if i == j:
            term = embed(f.number_op, (i + 1,), dims)
        else:
            term = embed(hop, (i + 1, j + 1), dims)
        total += mat[i, j] * term
    return total


def _restricted_commutator_defect(ja, jb, jc, n_modes: int, cutoff: int) -> float:
    """max |[ja, jb] - jc| on the states of n_modes modes with total
    occupation <= cutoff - 2, the inner sum taken over every state."""
    occupation = np.indices((cutoff,) * n_modes).sum(axis=0).ravel()
    keep = np.flatnonzero(occupation <= cutoff - 2)
    resid = ja[keep] @ jb[:, keep] - jb[keep] @ ja[:, keep] - jc[np.ix_(keep, keep)]
    return float(np.max(np.abs(resid)))


SL2_BASIS = {
    "h": np.diag([1.0, -1.0]),
    "e": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "f": np.array([[0.0, 0.0], [1.0, 0.0]]),
}


def sl2_js_violation(cutoff: int) -> float:
    """The largest ‖[JS(a), JS(b)] - JS([a, b])‖, restricted to total number
    <= cutoff - 2, over the sl2 pairs (a, b) = (h, e), (h, f) and (e, f).

    The restriction is necessary: the raising operator leaks out of the
    truncated space at the top shell. It is taken on the kept states, with
    the inner sum over every state, so the value is exactly that of the
    full commutator with the rest cut away. The value comes from the three
    images JS(h), JS(e) and JS(f): JS is linear and [h, e] = 2e,
    [h, f] = -2f, [e, f] = h, so JS of each commutator is an image already
    built, times 2, -2 or 1. Those scalings are exact, so the value is the
    pairwise one bit for bit."""
    js = {name: jordan_schwinger(M, cutoff) for name, M in SL2_BASIS.items()}
    return max(_restricted_commutator_defect(js[a], js[b], scale * js[c], 2, cutoff)
               for a, b, scale, c in (("h", "e", 2.0, "e"), ("h", "f", -2.0, "f"),
                                      ("e", "f", 1.0, "h")))
