"""Classical harmonic-oscillator toolkit: Hermite polynomials, and the
commutators of the ladder operators on a truncated Fock space and of the
Jordan-Schwinger map sending a matrix M to sum_{ij} a_i' M_ij a_j on two
modes, evaluated on the occupation-number basis: no operator is built. The
dense operators are the test suite's oracle (tests/oracles.py).

Commutator identities hold exactly only away from the truncation edge: a'
maps the top level out of the space, so every check restricts to states
with total occupation at most cutoff - 2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .tensor import state_space

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


def _ladder(cutoff: int) -> np.ndarray:
    """s = sqrt(0), ..., sqrt(cutoff - 1), the ladder pair's entries on the
    basis |0>, ..., |cutoff-1>: a|n> = s[n]|n-1> and a'|n> = s[n+1]|n+1>."""
    if cutoff < 2:
        raise ParameterError(f"cutoff must be >= 2, got {cutoff}")
    state_space((cutoff,))
    return np.sqrt(np.arange(cutoff))


def fock_commutator_defect(cutoff: int) -> float:
    """max |[a, a'] - 1| on the states |n> with n <= cutoff - 2: the
    commutator is diagonal, N[n+1] - N[n] with N = s s the number
    operator's diagonal (see `_ladder`)."""
    s = _ladder(cutoff)
    N = s * s
    return float(np.abs(N[1:] - N[:-1] - 1.0).max())


def sl2_js_violation(cutoff: int) -> float:
    """The largest |[JS(a), JS(b)] - JS([a, b])| over the sl2 pairs
    (a, b) = (h, e), (h, f) and (e, f), on the two-mode states |k, l> with
    k + l <= cutoff - 2, where the Jordan-Schwinger images are
    h = N_1 - N_2, e = a_1' a_2 and f = a_2' a_1.

    The restriction is necessary: the raising operator leaks out of the
    truncated space at the top shell. Each generator moves |k, l> by at
    most one quantum per mode, so each commutator is nonzero on one
    diagonal only: with H = N[k] - N[l], e|k, l> = E|k+1, l-1> and
    f|k, l> = F|k-1, l+1>, each residual is the one nonzero term of the
    dense products, in their order (tests/oracles.py), so it is theirs to
    the bit."""
    state_space((cutoff,) * 2)
    s = _ladder(cutoff)
    # a zero past the top level, which N[k - 1] and N[l - 1] read at k = 0
    # and l = 0, where F and E are 0
    N = np.append(s * s, 0.0)
    k, l = np.indices((cutoff - 1,) * 2).reshape(2, -1)
    shell = k + l <= cutoff - 2
    k, l = k[shell], l[shell]
    H = N[k] - N[l]
    E = s[k + 1] * s[l]
    F = s[k] * s[l + 1]
    return max(float(np.abs(v).max()) for v in (
        (N[k + 1] - N[l - 1]) * E - E * H - 2.0 * E,
        (N[k - 1] - N[l + 1]) * F - F * H + 2.0 * F,
        F * F - E * E - H,
    ))
