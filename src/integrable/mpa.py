"""Matrix product stationary measures for the open exclusion process.

The stationary weight of a configuration (tau_1, ..., tau_L) is
<W| X_1 ... X_L |V>, X = D on an occupied site and E on an empty one, with
DE - qED = (1 - q)(D + E), <W|(alpha E - gamma D) = (1 - q)<W| and
(beta D - delta E)|V> = (1 - q)|V> (Derrida, Evans, Hakim and Pasquier,
J. Phys. A 26 (1993) 1493).

A product of L factors applied to <W| only reaches w_j = <W|D^j for
j = 0 ... L, so the construction is exact in that (L + 1)-dimensional
basis: D is the shift w_j D = w_{j+1}, and krylov_pair builds E and the
scalars z_j = <W|D^j|V>. Nothing is truncated, and each weight is a
rational function of the rates. A chain with q > 1 is solved as its
mirror image x -> L + 1 - x, which has asymmetry 1/q. In floating point
the weights are signed sums, so measure_with_rounding also bounds their
rounding by the cancellation of those sums.

All 2^L weights come from a split contraction: a table of the 2^(L//2)
left products <W|X_1 ... X_h| times a table of the 2^(L - L//2) right
products X_{h+1} ... X_L|V>. Configuration index a * 2^(L-h) + b pairs
prefix a with suffix b, site 1 being the most significant bit. That costs
O(2^L L) in O(L) array operations.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ParameterError
from .models import AsepParams
from .tensor import MAX_STATE_SPACE, ProbVector, state_space


class ZeroLeadingRate(ParameterError):
    pass


def krylov_pair(q, alpha, beta, gamma, delta, L: int):
    """E in the basis w_j = <W|D^j, j = 0 ... L (row j holds the
    coefficients of w_j E), and z_j = <W|D^j|V>, in the rates' number type:
    floats give float arrays, Fractions exact object arrays.

    Row j of A and B is D^j E = sum_k A_jk E D^k + B_jk D^k, and
    D E D^k = q E D^(k+1) + (1 - q)(D^(k+1) + E D^k) takes j to j + 1. Then
    <W|E D^k = (gamma w_(k+1) + (1 - q) w_k) / alpha. Row L loses its
    w_(L+1) term, which no product of L factors reaches. The right boundary
    gives z_0 = 1 and
    (beta - delta E_(j,j+1)) z_(j+1) = (1 - q) z_j + delta sum_(k<=j) E_jk z_k;
    a zero pivot is a ConvergenceError.
    """
    n = L + 1
    dtype = np.asarray(q).dtype
    A, B = np.zeros((n, n + 1), dtype), np.zeros((n, n + 1), dtype)
    A[0, 0] = 1
    for j in range(L):
        A[j + 1] = (1 - q) * A[j]
        A[j + 1, 1:] += q * A[j, :-1]
        B[j + 1, 1:] = B[j, :-1] + (1 - q) * A[j, :-1]
    E = B + (1 - q) / alpha * A
    E[:, 1:] += gamma / alpha * A[:, :-1]
    rows, z = E.tolist(), [1]
    for j in range(L):
        pivot = beta - delta * rows[j][j + 1]
        if pivot == 0:
            raise ConvergenceError(f"zero pivot beta - delta E_(j,j+1) at j = {j}")
        z.append(((1 - q) * z[j] + delta * sum(e * x for e, x in zip(rows[j], z))) / pivot)
    return E[:, :n], np.array(z, dtype)


def _contract(E: np.ndarray, z: np.ndarray) -> np.ndarray:
    """All 2^L weights e_0 X_1 ... X_L z, L = len(z) - 1. The prefix table
    (2^h x (L+1)) takes each new site as its least significant bit and the
    suffix table ((L+1) x 2^(L-h)) as its most significant, so their
    product ravels to the package's index order."""
    n = len(z)
    L, D = n - 1, np.eye(n, k=1, dtype=E.dtype)
    h = L // 2
    prefix = np.eye(1, n, dtype=E.dtype)
    for _ in range(h):
        prefix = np.stack([prefix @ E, prefix @ D], axis=1).reshape(-1, n)
    suffix = z[:, np.newaxis]
    for _ in range(L - h):
        suffix = np.concatenate([E @ suffix, D @ suffix], axis=1)
    return (prefix @ suffix).ravel()


def _solve(p: AsepParams):
    """E and z of the chain the law is computed from (p, or for q > 1 its
    mirror), and p's law (see mpa_stationary_measure)."""
    state_space((2,) * p.L, MAX_STATE_SPACE)
    q, rates = p.q, (p.alpha, p.beta, p.gamma, p.delta)
    if q == 1:
        raise ParameterError("the matrix product needs q != 1")
    if q > 1:
        q, rates = 1 / q, tuple(r / q for r in rates[::-1])
    if not rates[0] > 0:
        raise ZeroLeadingRate(f"injection rate at site 1 must be positive, got {rates[0]}")
    with np.errstate(all="ignore"):
        E, z = krylov_pair(float(q), *map(float, rates), p.L)
        weights = _contract(E, z)
        # <W|V> may be negative: the law is the weights over their sum
        law = weights / weights.sum()
    if not law.min() >= -1e-9:
        raise ConvergenceError(
            f"the matrix product lost its weights in floating point: a "
            f"probability of {law.min()}")
    if p.q > 1:
        law = law.reshape((2,) * p.L).T.ravel()
    np.maximum(law, 0.0, out=law)
    return E, z, ProbVector(law / law.sum())


def mpa_stationary_measure(p: AsepParams) -> ProbVector:
    """Stationary law over the 2^L configurations from the matrix product.

    For q > 1 the mirror x -> L + 1 - x with time scaled by 1/q gives the
    chain (1/q, delta/q, gamma/q, beta/q, alpha/q), whose law read with the
    index bits reversed is this one. The chain solved needs a positive
    injection rate (alpha, or delta when q > 1): ZeroLeadingRate. q = 1 is a
    ParameterError.

    A zero pivot of z (beta = delta gamma q^j / alpha), and a weight that
    overflows or cancels in floating point to a negative probability, are
    ConvergenceErrors. The stationarity residual ||pi G||_1 of the CLI
    report certifies the law, and the rounding bound of
    measure_with_rounding its accuracy. The 2^L states are checked against
    MAX_STATE_SPACE before any array is allocated.
    """
    return _solve(p)[2]


def cancellation(E: np.ndarray, z: np.ndarray) -> float:
    """kappa = sum_C sum_j |C_j z_j| / |sum_C sum_j C_j z_j| over the 2^L
    rows C = e_0 X_1 ... X_L of the weights C z, X = E or the shift D.
    For q < 1 E >= 0, so every C >= 0 and kappa >= 1 is the factor by which
    the signed sums C z amplify their rounding. The rows sum to
    c = e_0 (E + D)^L, so kappa = c |z| / |c z|: L vector-matrix products
    of side L + 1, and no second contraction. A non-finite kappa is
    returned as it is."""
    n = len(z)
    step = E + np.eye(n, k=1)
    c = np.eye(1, n)[0]
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            c = c @ step
        return float(c @ np.abs(z) / abs(c @ z))


def measure_with_rounding(p: AsepParams) -> tuple[ProbVector, float]:
    """mpa_stationary_measure(p) and the bound (2L + 2) eps kappa on the
    rounding of its weights, kappa the cancellation of the chain solved.
    The certificate ||pi G||_1 bounds the law's residual, not its error:
    where the signed sums cancel, a law can pass the certificate and be
    1e-11 from the exact one (Uchiyama-Sasamoto-Wadati's shock region with
    gamma / alpha large and q near 1). kappa = 1 wherever z >= 0."""
    E, z, law = _solve(p)
    return law, (2 * p.L + 2) * np.finfo(float).eps * cancellation(E, z)
