"""R-matrix and K-matrix constructors and verifiers: braided and spectral
Yang-Baxter equations, Hecke quadratic relations, the reflection equation,
and the Markov-structure properties tying R-matrices to CTMC generators.

All stochastic matrices here act on probability row-vectors (rows sum to 1),
matching the generator convention of the tensor layer. Every equation
places its factors with tensor.embed, so each verifier names the sites an
operator acts on and the tensor module alone fixes the leg order.

Verifiers return residuals and pass no verdict; the caller compares them
with its tolerance. A spectral or boundary family is any callable
z -> Operator, such as functools.partial(asep_spectral_r, q=q).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError, RateOutOfRange
from .tensor import Operator, embed, permutation_operator


class PoleAtQZEqualsOne(ParameterError):
    pass


class PoleInDenominator(ParameterError):
    pass


class EvaluationPole(ParameterError):
    pass


class NotRegular(ParameterError):
    pass


def verify_braided_ybe(R: Operator) -> dict:
    """Residuals of R12 R23 R12 = R23 R12 R23 on V (x) V (x) V, with
    R12 = embed(R, (1, 2)) and R23 = embed(R, (2, 3)), in both the given
    presentation and the P-composed presentation R-check = P o R.

    A matrix solves the braid relation when either residual vanishes: the
    same stochastic object can be written with or without the leading
    swap, and the two presentations solve the equation on complementary
    parameter sets (e.g. the one-sided exclusion families below).
    """
    d = R.site_dims[0]  # embed and @ raise DimensionMismatch unless R is on V (x) V
    dims = (d, d, d)
    residuals = []
    for op in (R, permutation_operator(d, d) @ R):
        R12 = embed(op, (1, 2), dims).entries
        R23 = embed(op, (2, 3), dims).entries
        residuals.append(float(np.max(np.abs(R12 @ R23 @ R12 - R23 @ R12 @ R23))))
    braided, unbraided = residuals
    return {"residual": braided, "r_check_residual": unbraided}


def r_alpha_beta(alpha: float, beta: float) -> Operator:
    """Two-parameter stochastic 4x4 fixing e1(x)e1 and e2(x)e2 and mixing
    the middle block: state 12 stays with probability 1-alpha and swaps
    with probability alpha; state 21 swaps with probability beta."""
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise RateOutOfRange(f"rates must lie in [0,1], got {alpha}, {beta}")
    mat = np.eye(4)
    mat[1, 1] = 1 - alpha
    mat[1, 2] = alpha
    mat[2, 1] = beta
    mat[2, 2] = 1 - beta
    return Operator((2, 2), mat)


def asep_spectral_r(z: complex, q: float) -> Operator:
    """Spectral R-matrix of the asymmetric exclusion process.

    Row-stochastic for z in (0,1), q in (0,1); R(1) = P.
    """
    if abs(q * z - 1.0) < 1e-13:
        raise PoleAtQZEqualsOne(f"qz = 1 at z={z}, q={q}")
    d = q * z - 1.0
    mat = np.array(
        [
            [1, 0, 0, 0],
            [0, q * (z - 1) / d, (q - 1) / d, 0],
            [0, (q - 1) * z / d, (z - 1) / d, 0],
            [0, 0, 0, 1],
        ]
    )
    return Operator((2, 2), mat)


def verify_spectral_ybe(
    r: Callable[[complex], Operator], z: complex, w: complex
) -> dict:
    """Residual of R12(z) R13(zw) R23(w) - R23(w) R13(zw) R12(z), with
    Rij = embed(R, (i, j)) on three sites."""
    try:
        Rz, Rzw, Rw = r(z), r(z * w), r(w)
    except (PoleAtQZEqualsOne, PoleInDenominator, ZeroDivisionError) as exc:
        raise EvaluationPole(f"family undefined at one of z={z}, zw={z*w}, w={w}") from exc
    dims = Rz.site_dims[:1] * 3
    R12 = embed(Rz, (1, 2), dims).entries
    R13 = embed(Rzw, (1, 3), dims).entries
    R23 = embed(Rw, (2, 3), dims).entries
    lhs = R12 @ R13 @ R23
    rhs = R23 @ R13 @ R12
    return {"residual": float(np.max(np.abs(lhs - rhs)))}


def frt_r(q: float) -> Operator:
    """Constant 4x4 R-matrix with entries q^-2, q^-1, q^-2 - 1; satisfies
    the braided YBE and the quadratic relation (R - q^-2)(R + 1) = 0."""
    if q == 0:
        raise ParameterError("q must be nonzero")
    qi = 1.0 / q
    mat = np.array(
        [
            [qi**2, 0, 0, 0],
            [0, 0, qi, 0],
            [0, qi, qi**2 - 1, 0],
            [0, 0, 0, qi**2],
        ]
    )
    return Operator((2, 2), mat)


def verify_hecke_quadratic(R: Operator, lam1: complex, lam2: complex) -> dict:
    """Residual of the two-eigenvalue relation (R - lam1)(R - lam2) = 0."""
    mat = R.entries
    Id = np.eye(mat.shape[0])
    return {"residual": float(np.max(np.abs((mat - lam1 * Id) @ (mat - lam2 * Id))))}


def reflection_k(x: complex, q: float, a: float, c: float, side: str = "left") -> Operator:
    """Boundary K-matrix of the open exclusion process, row convention.

    side="left" takes (a, c) = (alpha, gamma), the entry and exit rates at
    the left boundary; side="right" takes (a, c) = (beta, delta). K(1) = Id,
    and for the left family K'(1) = 2 rho B with rho = (q-1)^{-1} and
    B = [[-alpha, alpha], [gamma, -gamma]].
    """
    if side == "left":
        al, ga = a, c
        den = x * x * ga + q * x + x * al - x * ga - x - al
        if abs(den) < 1e-13:
            raise PoleInDenominator(f"K denominator vanishes at x={x}")
        mat = np.array(
            [
                [(-x * al + x * ga + q + al - ga - 1) * x / den, al * (x * x - 1) / den],
                [(x * x - 1) * ga / den, (q * x + x * al - x * ga - x - al + ga) / den],
            ]
        )
        return Operator((2,), mat)
    if side == "right":
        be, de = a, c
        den = -x * x * be + q * x - x * de + x * be - x + de
        if abs(den) < 1e-13:
            raise PoleInDenominator(f"K-bar denominator vanishes at x={x}")
        mat = np.array(
            [
                [(x * de - x * be + q - de + be - 1) * x / den, (x * x - 1) * de / den],
                [-(x * x - 1) * be / den, (q * x - x * de + x * be - x + de - be) / den],
            ]
        )
        return Operator((2,), mat)
    raise ParameterError(f"side must be left or right, got {side}")


def verify_reflection_equation(
    r: Callable[[complex], Operator], k: Callable[[complex], Operator],
    z: complex, w: complex,
) -> dict:
    """Residual of R12(z/w) K1(z) R21(zw) K2(w) - K2(w) R12(zw) K1(z) R21(z/w)
    on two sites, with R12 = R, R21 = embed(R, (2, 1)), K1 = embed(K, (2,))
    and K2 = embed(K, (1,)): the equation's boundary leg 1 is site 2. This
    is the placement under which the explicit exclusion-process K-matrices
    satisfy the equation against the row-stochastic R.
    """
    try:
        Ra, Rb = r(z / w), r(z * w)
        Kz, Kw = k(z), k(w)
    except (PoleAtQZEqualsOne, PoleInDenominator, ZeroDivisionError) as exc:
        raise EvaluationPole(f"evaluation pole at z={z}, w={w}") from exc
    dims = Ra.site_dims
    K1 = embed(Kz, (2,), dims).entries
    K2 = embed(Kw, (1,), dims).entries
    R21a = embed(Ra, (2, 1), dims).entries
    R21b = embed(Rb, (2, 1), dims).entries
    lhs = Ra.entries @ K1 @ R21b @ K2
    rhs = K2 @ Rb.entries @ K1 @ R21a
    return {"residual": float(np.max(np.abs(lhs - rhs)))}


def _central_derivative(f: Callable[[float], np.ndarray], x0: float, h: float = 1e-5):
    """Central difference with one Richardson extrapolation step."""
    d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    d2 = (f(x0 + h / 2) - f(x0 - h / 2)) / h
    return (4 * d2 - d1) / 3


def markov_structure_report(r: Callable[[complex], Operator], w_local: Operator) -> dict:
    """Diagnostics connecting a regular spectral family z -> R(z) to a CTMC
    generator: the least-squares rho in R'(1) P = rho * w_local (the
    row-convention form of the Markovian property) as "rho_fit", and as
    "residuals" ||R(1) - P||, the misfit of that rho, row sums of R(z) on a
    z grid, and the rank-one fixed-point residual
    R^T(z/w) (v1(z) (x) v2(w)) = v1(z) (x) v2(w) for v(z) = (z, 1).
    """
    R1 = r(1.0)
    P = permutation_operator(*R1.site_dims).entries
    regularity = float(np.max(np.abs(R1.entries - P)))
    if regularity > 1e-8:
        raise NotRegular(f"R(1) differs from P by {regularity}")
    Rp = _central_derivative(lambda x: r(x).entries, 1.0)
    M = Rp @ P
    W = w_local.entries
    denom = float(np.sum(W * W))
    rho = float(np.sum(M * W) / denom) if denom > 0 else 0.0
    markov_residual = float(np.max(np.abs(M - rho * W)))
    zs = [0.2, 0.4, 0.6, 0.8]
    row_sum_dev = max(
        float(np.max(np.abs(r(z).entries.sum(axis=1) - 1.0))) for z in zs
    )
    fixed = 0.0
    # ratios stay below 1 so qz never hits 1 for q in (0,1)
    for z, w in [(0.3, 0.8), (0.6, 0.9), (0.4, 0.5)]:
        v1 = np.array([z, 1.0])
        v2 = np.array([w, 1.0])
        vec = np.outer(v1, v2).ravel()  # v1 (x) v2, site 1 slowest
        fixed = max(
            fixed, float(np.max(np.abs(r(z / w).entries.T @ vec - vec)))
        )
    return {
        "rho_fit": rho,
        "residuals": {
            "regularity": regularity,
            "markov": markov_residual,
            "row_sums": row_sum_dev,
            "fixed_point": fixed,
        },
    }
