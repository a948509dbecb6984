"""Matrix product stationary measures for the open exclusion process.

The stationary weight of a configuration (tau_1, ..., tau_L) is
<W| X_1 ... X_L |V>, X = D on an occupied site and E on an empty one, with
DE - qED = D + E, <W|(alpha E - gamma D) = <W| and
(beta D - delta E)|V> = |V> (Derrida, Evans, Hakim and Pasquier,
J. Phys. A 26 (1993) 1493; Uchiyama, Sasamoto and Wadati, J. Phys. A 37
(2004) 4985). This normalisation holds at every q > 0, q = 1 included.

A product of L factors applied to <W| only reaches w_j = <W|D^j for
j = 0 ... L, so the construction is exact in that (L + 1)-dimensional
basis: D is the shift w_j D = w_{j+1}, and krylov_pair builds E and the
scalars z_j = <W|D^j|V>. Nothing is truncated, and each weight is a
rational function of the rates. E >= 0 wherever alpha > 0, and z >= 0
wherever no pivot of its recurrence is negative; the weights are then
sums of nonnegative terms. Elsewhere they are signed sums, and
measure_with_rounding bounds their rounding by the cancellation of those
sums.

Every open chain is solved as one of its four symmetry images: itself,
its mirror x -> L + 1 - x, its particle-hole image, or both at once. The
images map laws to laws by a permutation of the configurations, and the
first image whose z >= 0 is contracted; if none has, the one with the
least cancellation is.

All 2^L weights come from a split contraction: a table of the 2^(L//2)
left products <W|X_1 ... X_h| times a table of the 2^(L - L//2) right
products X_{h+1} ... X_L|V>. Configuration index a * 2^(L-h) + b pairs
prefix a with suffix b, site 1 being the most significant bit. That costs
O(2^L L) in O(L) array operations. At q far from 1 with small rates the
terms of the weights can span more than the float range; the tables are
then kept with an exact power-of-two scale per basis vector, which leaves
the rounding bound as it is. An image whose z overflows is skipped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, ParameterError
from .models import AsepParams
from .tensor import MAX_STATE_SPACE, ProbVector, state_space


def krylov_pair(q, alpha, beta, gamma, delta, L: int):
    """E in the basis w_j = <W|D^j, j = 0 ... L (row j holds the
    coefficients of w_j E), and z_j = <W|D^j|V>, in the rates' number type:
    floats give float arrays, Fractions exact object arrays. alpha must be
    positive.

    Row j of A and B is D^j E = sum_k A_jk E D^k + B_jk D^k, and
    D E D^k = q E D^(k+1) + D^(k+1) + E D^k takes j to j + 1. Then
    <W|E D^k = (w_k + gamma w_(k+1)) / alpha. Row L loses its w_(L+1) term,
    which no product of L factors reaches. The right boundary gives z_0 = 1
    and (beta - delta E_(j,j+1)) z_(j+1) = z_j + delta sum_(k<=j) E_jk z_k.
    The pivot is beta - delta gamma q^j / alpha. Where it is exactly zero,
    z_(j+1) drops out of equation j, and equations 0 ... j hold at
    z_0 = ... = z_j = 0: the substitution restarts there from
    z_(j+1) = 1, and every equation holds.
    """
    n = L + 1
    dtype = np.asarray(q).dtype
    A, B = np.zeros((n, n + 1), dtype), np.zeros((n, n + 1), dtype)
    A[0, 0] = 1
    for j in range(L):
        A[j + 1] = A[j]
        A[j + 1, 1:] += q * A[j, :-1]
        B[j + 1, 1:] = B[j, :-1] + A[j, :-1]
    E = B + A / alpha
    E[:, 1:] += gamma / alpha * A[:, :-1]
    rows, z = E.tolist(), [1]
    for j in range(L):
        pivot = beta - delta * rows[j][j + 1]
        if pivot == 0:
            z = [0] * (j + 1) + [1]
        else:
            z.append((z[j] + delta * sum(e * x for e, x in zip(rows[j], z))) / pivot)
    return E[:, :n], np.array(z, dtype)


def _contract(E: np.ndarray, z: np.ndarray) -> np.ndarray:
    """All 2^L weights e_0 X_1 ... X_L z, L = len(z) - 1, up to one common
    factor. The prefix table (2^h x (L+1)) takes each new site as its least
    significant bit and the suffix table ((L+1) x 2^(L-h)) as its most
    significant, so their product ravels to the package's index order.
    Float tables whose terms could leave the float range are contracted
    by _contract_scaled."""
    if E.dtype != object and not _in_range(E, z):
        return _contract_scaled(E, z)
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


def _in_range(E: np.ndarray, z: np.ndarray) -> bool:
    """Whether every nonzero term of the weights, and every sum of them,
    lies well inside the normal float range. A term is a product of L
    entries of E >= 0 or of the shift D and one entry of z, and a sum of
    terms is at most the largest row sum of E + D to the L times |z|'s
    largest entry."""
    L, size = len(z) - 1, np.abs(z[z != 0])
    top = L * math.log2(E.sum(axis=1).max() + 1) + math.log2(size.max())
    low = L * math.log2(min(1.0, E[E > 0].min())) + math.log2(size.min())
    return top < 1000 and low > -1000


# The exponent of a row of zeros, and of a term that is zero.
_ZERO_ROW = -(1 << 40)


def _times(X: np.ndarray, table: np.ndarray, exps: np.ndarray):
    """X T for the table T = 2^exps * table (row k scaled by 2^exps_k), in
    the same form: each row of the result scaled to a largest entry in
    [0.5, 1), and its exponent. Row j is summed in units of its largest
    possible term, so no term overflows, and a term that underflows is
    below 2^-1074 of that term."""
    bound = np.where(X != 0, np.frexp(X)[1] + exps, _ZERO_ROW).max(axis=1)
    out = np.ldexp(X, exps - bound[:, np.newaxis]) @ table
    top = np.abs(out).max(axis=1)
    shift = np.frexp(top)[1]
    return np.ldexp(out, -shift[:, np.newaxis]), np.where(top > 0, bound + shift, _ZERO_ROW)


def _aligned(first, second):
    """Two tables in the form of _times, their rows brought to common
    exponents."""
    exps = np.maximum(first[1], second[1])
    return [np.ldexp(t, (e - exps)[:, np.newaxis]) for t, e in (first, second)], exps


def _contract_scaled(E: np.ndarray, z: np.ndarray) -> np.ndarray:
    """_contract with an exact power-of-two scale kept for each basis
    vector: the suffix table by rows, the prefix table, held transposed,
    by columns. The weights keep their ratios, and a term is lost to
    underflow only where it is below 2^-1074 of the largest term of its
    sum. That is where z or E span more than the float range, as at
    q = 46, alpha = 0.003 from L = 13."""
    n = len(z)
    L, D = n - 1, np.eye(n, k=1)
    h = L // 2
    exps = np.frexp(z)[1]
    suffix, r = np.ldexp(z, -exps)[:, np.newaxis], np.where(z != 0, exps, _ZERO_ROW)
    for _ in range(L - h):
        (empty, full), r = _aligned(_times(E, suffix, r), _times(D, suffix, r))
        suffix = np.concatenate([empty, full], axis=1)
    prefix, c = np.eye(n, 1), np.where(np.arange(n) == 0, 0, _ZERO_ROW)
    for _ in range(h):
        (empty, full), c = _aligned(_times(E.T, prefix, c), _times(D.T, prefix, c))
        prefix = np.stack([empty, full], axis=2).reshape(n, -1)
    t = c + r
    return (np.ldexp(prefix, (t - t.max())[:, np.newaxis]).T @ suffix).ravel()


def images(p: AsepParams) -> tuple:
    """The four symmetry images of p, in the order they are tried, as
    (name, chain, read): chain is (q, alpha, beta, gamma, delta) and read
    turns the image's law into p's. The mirror x -> L + 1 - x, with time
    scaled by 1/q, reverses the sites; the particle-hole exchange, scaled
    the same way, complements them. With site 1 the most significant bit,
    reversing the sites transposes the (2,) * L view of the law, and
    complementing them reverses the law."""
    q, a, b, g, d = p.q, p.alpha, p.beta, p.gamma, p.delta

    def mirror(law):
        return law.reshape((2,) * p.L).T.ravel()

    return (
        ("identity", (q, a, b, g, d), lambda law: law),
        ("mirror", (1 / q, d / q, g / q, b / q, a / q), mirror),
        ("particle-hole", (1 / q, g / q, d / q, a / q, b / q), lambda law: law[::-1]),
        ("both", (q, b, a, d, g), lambda law: mirror(law)[::-1]),
    )


def _solve(p: AsepParams):
    """p's law, the cancellation kappa of the weights it came from, and the
    name of the image contracted (see mpa_stationary_measure)."""
    state_space((2,) * p.L, MAX_STATE_SPACE)
    if not (p.alpha or p.beta or p.gamma or p.delta):
        raise ParameterError("no boundary rate: every particle number is a closed class")
    signed = []
    with np.errstate(all="ignore"):
        for name, chain, read in images(p):
            if not chain[1] > 0:
                continue
            E, z = krylov_pair(*map(float, chain), p.L)
            if not np.isfinite(z).all():
                continue  # z overflowed: this image has no float weights
            if (z >= 0).all():
                return _law(read(_contract(E, z))), 1.0, name
            signed.append((cancellation(E, z), name, E, z, read))
        if not signed:
            raise ConvergenceError("z overflowed in every image of the chain")
        kappa, name, E, z, read = min(signed, key=lambda image: image[0])
        return _law(read(_contract(E, z))), kappa, name


def _law(weights: np.ndarray) -> ProbVector:
    """The weights over their sum, which may be negative where they are
    signed sums."""
    law = weights / weights.sum()
    if not law.min() >= -1e-9:
        raise ConvergenceError(
            f"the matrix product lost its weights in floating point: a "
            f"probability of {law.min()}")
    np.maximum(law, 0.0, out=law)
    return ProbVector(law / law.sum())


def mpa_stationary_measure(p: AsepParams) -> ProbVector:
    """Stationary law over the 2^L configurations from the matrix product.

    The images of p (see `images`) whose leading rate, alpha of the image,
    is positive are tried in order, and the first whose z >= 0 is
    contracted: its weights are sums of nonnegative terms. If none has,
    the one whose weights cancel least (`cancellation`) is contracted. A
    chain with no boundary rate has no image to try and no single law: a
    ParameterError.

    An image whose z overflows is skipped. A weight that cancels in
    floating point to a negative probability, and a chain whose z
    overflows in every image, are a ConvergenceError. The stationarity residual
    ||pi G||_1 of the CLI report certifies the law, and the rounding bound
    of measure_with_rounding its accuracy. The 2^L states are checked
    against MAX_STATE_SPACE before any array is allocated.
    """
    return _solve(p)[0]


def cancellation(E: np.ndarray, z: np.ndarray) -> float:
    """kappa = sum_C sum_j |C_j z_j| / |sum_C sum_j C_j z_j| over the 2^L
    rows C = e_0 X_1 ... X_L of the weights C z, X = E or the shift D.
    E >= 0, so every C >= 0 and kappa >= 1 is the factor by which the
    signed sums C z amplify their rounding. The rows sum to
    c = e_0 (E + D)^L, so kappa = c |z| / |c z|: L vector-matrix products
    of side L + 1, and no second contraction. kappa is homogeneous of
    degree 0 in c and in z, so c is rescaled by a power of two after each
    product and z once, which is exact and keeps c from overflowing. A
    kappa that is not a number is returned as infinite."""
    n = len(z)
    step = E + np.eye(n, k=1)
    c = np.eye(1, n)[0]
    with np.errstate(all="ignore"):
        for _ in range(n - 1):
            c = c @ step
            c = np.ldexp(c, -np.frexp(np.abs(c).max())[1])
        z = np.ldexp(z, -np.frexp(np.abs(z).max())[1])
        kappa = float(c @ np.abs(z) / abs(c @ z))
    return math.inf if math.isnan(kappa) else kappa


def measure_with_rounding(p: AsepParams) -> tuple[ProbVector, float, str]:
    """mpa_stationary_measure(p), the bound (2L + 2) eps kappa on the
    rounding of its weights, kappa the cancellation of the image
    contracted, and that image's name. The certificate ||pi G||_1 bounds
    the law's residual, not its error: where the signed sums cancel, a law
    can pass the certificate and be 1e-11 from the exact one
    (Uchiyama-Sasamoto-Wadati's shock region with gamma / alpha large and
    q near 1). kappa = 1 wherever z >= 0."""
    law, kappa, name = _solve(p)
    return law, float((2 * p.L + 2) * np.finfo(float).eps * kappa), name
