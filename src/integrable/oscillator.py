"""Classical harmonic-oscillator toolkit: Hermite polynomials, ladder
operators on a truncated Fock space, and the Jordan-Schwinger map sending a
matrix M to sum_{ij} a_i' M_ij a_j on a multi-mode Fock space.

Commutator identities hold exactly only away from the truncation edge: a'
maps the top level out of the space, so every check restricts to states
with total occupation at most cutoff - 2.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .tensor import embed, kron, state_space

# Fixed quadrature for Gaussian-weight orthogonality checks: 200-node
# Gauss-Legendre on [-10, 10] with exp(-x^2) folded into the integrand.
QUAD_NODES = 200
QUAD_HALF_WIDTH = 10.0
# Newton iteration for the Legendre roots on [-1, 1].
NEWTON_MAX_STEPS = 20
NEWTON_STEP_TOL = 1e-15


def hermite(n: int, x: float) -> float:
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1} from H_0 = 1, H_1 = 2x."""
    if n < 0:
        raise ParameterError(f"degree must be nonnegative, got {n}")
    h_prev, h = 1.0, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def hermite_overlap(m: int, n: int) -> float:
    """Quadrature value of the weighted overlap of H_m and H_n.

    Equals sqrt(pi) 2^n n! delta_{mn} up to quadrature error (small for
    degrees up to about 8 at the fixed node count).
    """
    x, w, gauss = _quadrature()
    return float(np.sum(w * hermite(m, x) * hermite(n, x) * gauss))


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the recurrence (k+1) P_{k+1} = (2k+1) x P_k
    - k P_{k-1} from P_0 = 1, P_1 = x; x must avoid +-1."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-node Gauss-Legendre rule on
    [-1, 1], with no eigensolve, so neither numpy.polynomial nor LAPACK is
    loaded for it.

    The nodes are the roots of P_n, found by Newton iteration on the
    Legendre recurrence from the guesses -cos(pi (k - 1/4) / (n + 1/2));
    at 200 nodes four steps reach rounding. The weights are
    2 / ((1 - x^2) P_n'(x)^2). Both are then made exactly symmetric about 0.
    """
    nodes = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(NEWTON_MAX_STEPS):
        p, dp = _legendre(n, nodes)
        step = p / dp
        nodes = nodes - step
        if np.max(np.abs(step)) <= NEWTON_STEP_TOL:
            break
    else:
        raise ConvergenceError(f"Legendre nodes moved {np.max(np.abs(step))} "
                               f"after {NEWTON_MAX_STEPS} Newton steps")
    _, dp = _legendre(n, nodes)
    weights = 2.0 / ((1.0 - nodes) * (1.0 + nodes) * dp**2)
    return (nodes - nodes[::-1]) / 2, (weights + weights[::-1]) / 2


@functools.cache
def _quadrature():
    """Nodes, weights and exp(-x^2) of the fixed rule: _gauss_legendre
    scaled to [-QUAD_HALF_WIDTH, QUAD_HALF_WIDTH], built on first use and
    shared read-only afterwards."""
    nodes, weights = _gauss_legendre(QUAD_NODES)
    x = QUAD_HALF_WIDTH * nodes
    rule = (x, QUAD_HALF_WIDTH * weights, np.exp(-(x**2)))
    for a in rule:
        a.setflags(write=False)
    return rule


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
    hop = kron(f.adag, f.a)
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
