"""R-matrix and K-matrix constructors and verifiers: braided and spectral
Yang-Baxter equations, Hecke quadratic relations, the reflection equation,
and the Markov-structure properties tying R-matrices to CTMC generators.

Every matrix is a numpy array. All stochastic matrices here act on
probability row-vectors (rows sum to 1), matching the generator convention
of the tensor layer. Every equation places its factors with tensor.embed,
so each verifier names the sites an operator acts on and the tensor module
alone fixes the leg order.

Verifiers return residuals and pass no verdict; the caller compares them
with its tolerance. They compute under np.errstate(all="ignore"): a grid
whose products overflow gives a non-finite residual, which fails, and
prints no numpy warning. A spectral or boundary family is a callable that
maps a 1-D array of n points to (entries, poles): the (n, d, d) stack of
its matrices and the mask of the points where it has a pole, such as
functools.partial(asep_spectral_r, q=q); a caller that needs one matrix
indexes the stack. The spectral and reflection
verifiers evaluate a family once on each block of at most MAX_GRID_POINTS
points of their grid, and the block is the leading batch axis of every
stacked product they take.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ParameterError, RateOutOfRange
from .tensor import embed, permutation_operator

# Points of one block of a verifier's grid: a grid is checked in blocks of
# at most this many points, each one stacked product. A spectral point
# takes about 4 KB of stacked matrices, so a block takes about 16 MB.
MAX_GRID_POINTS = 2**12


class PoleInDenominator(ParameterError):
    pass


class EvaluationPole(ParameterError):
    pass


class NotRegular(ParameterError):
    pass


def verify_braided_ybe(R: np.ndarray) -> dict:
    """Residuals of R12 R23 R12 = R23 R12 R23 on V (x) V (x) V, with
    R12 = embed(R, (1, 2)) and R23 = embed(R, (2, 3)), in both the given
    presentation and the P-composed presentation R-check = P o R.

    A matrix solves the braid relation when either residual vanishes: the
    same stochastic object can be written with or without the leading
    swap, and the two presentations solve the equation on complementary
    parameter sets (e.g. the one-sided exclusion families below).
    """
    d = math.isqrt(R.shape[0])  # embed raises unless R is d^2 x d^2
    dims = (d, d, d)
    residuals = []
    for mat in (R, permutation_operator(d, d) @ R):
        R12 = embed(mat, (1, 2), dims)
        R23 = embed(mat, (2, 3), dims)
        residuals.append(float(np.max(np.abs(R12 @ R23 @ R12 - R23 @ R12 @ R23))))
    braided, unbraided = residuals
    return {"residual": braided, "r_check_residual": unbraided}


def r_alpha_beta(alpha: float, beta: float) -> np.ndarray:
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
    return mat


def _stack(rows, poles: np.ndarray) -> np.ndarray:
    """The (n, d, d) stack whose (i, j) entries are rows[i][j], scalars or
    arrays over the n points, set to zero where `poles` is true."""
    entries = [entry for row in rows for entry in row]
    mat = np.zeros(poles.shape + (len(rows),) * 2, dtype=np.result_type(float, *entries))
    flat = mat.reshape(poles.shape + (-1,))
    for k, entry in enumerate(entries):
        flat[:, k] = entry
    flat[poles] = 0
    return mat


def asep_spectral_r(z, q: float):
    """Spectral R-matrix of the asymmetric exclusion process.

    Row-stochastic for z in (0,1), q in (0,1); R(1) = P. At a 1-D array
    of n points it is (entries, poles): the (n, 4, 4) stack of R at every
    point and the mask of the poles (|qz - 1| < 1e-13), where the entries
    are zero.
    """
    d = q * z - 1.0
    poles = np.abs(d) < 1e-13
    d = np.where(poles, 1.0, d)
    rows = (
        (1, 0, 0, 0),
        (0, q * (z - 1) / d, (q - 1) / d, 0),
        (0, (q - 1) * z / d, (z - 1) / d, 0),
        (0, 0, 0, 1),
    )
    return _stack(rows, poles), poles


def _grid_blocks(z, w):
    """The points (z_i, w_j) of the grid z x w, z slowest, in blocks of at
    most MAX_GRID_POINTS points, each as two flat arrays; a scalar is a
    grid of one point, and an empty grid is refused."""
    z, w = np.ravel(z), np.ravel(w)
    n = z.size * w.size
    if n == 0:
        raise ParameterError("the grid has no points")
    for start in range(0, n, MAX_GRID_POINTS):
        at = np.arange(start, min(n, start + MAX_GRID_POINTS))
        yield z[at // w.size], w[at % w.size]


@np.errstate(all="ignore")
def verify_spectral_ybe(r: Callable, z, w) -> dict:
    """Largest residual of R12(z) R13(zw) R23(w) - R23(w) R13(zw) R12(z)
    over the grid z x w (each a scalar or a 1-D array), with
    Rij = embed(R, (i, j)) on three sites. The grid is checked in
    blocks of at most MAX_GRID_POINTS points: the family is evaluated once
    on all of a block's points, and every point is one matrix of one
    stacked product. A pole of R(z), R(zw) or R(w) at any point raises
    EvaluationPole, naming the first such point with z slowest."""
    worst = []
    for zs, ws in _grid_blocks(z, w):
        stack, poles = r(np.concatenate([zs, zs * ws, ws]))
        Rz, Rzw, Rw = np.split(stack, 3)
        poles = np.logical_or.reduce(np.split(poles, 3))
        if poles.any():
            at = int(np.argmax(poles))
            z, w = zs[at].item(), ws[at].item()
            raise EvaluationPole(f"family undefined at one of z={z}, zw={z*w}, w={w}")
        d = math.isqrt(Rz.shape[-1])
        dims = (d, d, d)
        R12 = embed(Rz, (1, 2), dims)
        R13 = embed(Rzw, (1, 3), dims)
        R23 = embed(Rw, (2, 3), dims)
        lhs = R12 @ R13 @ R23
        rhs = R23 @ R13 @ R12
        worst.append(np.max(np.abs(lhs - rhs)))
    # numpy's max, unlike Python's, keeps a NaN.
    return {"residual": float(np.max(worst))}


def frt_r(q: float) -> np.ndarray:
    """Constant 4x4 R-matrix with entries q^-2, q^-1, q^-2 - 1; satisfies
    the braided YBE and the quadratic relation (R - q^-2)(R + 1) = 0."""
    if q == 0:
        raise ParameterError("q must be nonzero")
    qi = 1.0 / q
    return np.array(
        [
            [qi**2, 0, 0, 0],
            [0, 0, qi, 0],
            [0, qi, qi**2 - 1, 0],
            [0, 0, 0, qi**2],
        ]
    )


def verify_hecke_quadratic(R: np.ndarray, lam1: complex, lam2: complex) -> dict:
    """Residual of the two-eigenvalue relation (R - lam1)(R - lam2) = 0."""
    Id = np.eye(R.shape[0])
    return {"residual": float(np.max(np.abs((R - lam1 * Id) @ (R - lam2 * Id))))}


def reflection_k(x, q: float, a: float, c: float):
    """Boundary K-matrix of the open exclusion process, row convention.

    One family serves both boundaries: (a, c) = (alpha, gamma), the entry
    and exit rates at the left boundary, gives K, and (a, c) =
    (-delta, -beta) gives the right boundary's K-bar. Each row sums to 1,
    K(1) = Id, and K'(1) = 2B/(q - 1) with B = [[-a, a], [c, -c]]: the
    site-1 term of the generator for K, and minus its site-L term for
    K-bar (Sklyanin 1988). At a 1-D array of n points it is (entries,
    poles): the (n, 2, 2) stack and the mask of the poles, where the
    denominator vanishes (below 1e-13) and the entries are zero.
    """
    den = x * x * c + q * x + x * a - x * c - x - a
    numerators = (
        ((-x * a + x * c + q + a - c - 1) * x, a * (x * x - 1)),
        ((x * x - 1) * c, q * x + x * a - x * c - x - a + c),
    )
    poles = np.abs(den) < 1e-13
    den = np.where(poles, 1.0, den)
    return _stack([[n / den for n in row] for row in numerators], poles), poles


@np.errstate(all="ignore")
def verify_reflection_equation(r: Callable, k: Callable, z, w) -> dict:
    """Residual of R12(z/w) K1(z) R21(zw) K2(w) - K2(w) R12(zw) K1(z) R21(z/w)
    on two sites, with R12 = R, R21 = embed(R, (2, 1)),
    K1 = embed(K, (2,)) and K2 = embed(K, (1,)): the
    equation's boundary leg 1 is site 2. This is the placement under which
    the explicit exclusion-process K-matrices satisfy the equation against
    the row-stochastic R.

    The equation is checked on the grid z x w (each a scalar or a 1-D
    array) in blocks of at most MAX_GRID_POINTS points, every point one
    matrix of one stacked product. A point is skipped when w = 0 or when
    one of R(z/w), R(zw), K(z) and K(w) is a pole there. Returns the
    largest residual over the points checked, their number as
    "points_checked", the (len z, len w) mask of the skipped points as
    "skipped", and as "k_row_sums" the largest |row sum - 1| of K(z) and
    K(w) over the points checked, each relative to max(1, the row's
    largest |entry|): the equation leaves K's off-diagonal entries free,
    and this pins them. EvaluationPole if every point is skipped.
    """
    worst, row_sums, skipped = [], [], []
    for zs, ws in _grid_blocks(z, w):
        at_zero = ws == 0
        R, r_poles = r(np.concatenate([zs / np.where(at_zero, 1, ws), zs * ws]))
        K, k_poles = k(np.concatenate([zs, ws]))
        skip = at_zero | np.logical_or.reduce(np.split(r_poles, 2) + np.split(k_poles, 2))
        skipped.append(skip)
        if skip.all():
            continue
        keep = ~skip
        Ra, Rb = (part[keep] for part in np.split(R, 2))
        Kz, Kw = (part[keep] for part in np.split(K, 2))
        both = np.concatenate([Kz, Kw])
        scale = np.maximum(1, np.abs(both).max(axis=-1))
        row_sums.append(np.max(np.abs(both.sum(axis=-1) - 1) / scale))
        dims = (Kz.shape[-1],) * 2
        K1 = embed(Kz, (2,), dims)
        K2 = embed(Kw, (1,), dims)
        R21a = embed(Ra, (2, 1), dims)
        R21b = embed(Rb, (2, 1), dims)
        lhs = Ra @ K1 @ R21b @ K2
        rhs = K2 @ Rb @ K1 @ R21a
        worst.append(np.max(np.abs(lhs - rhs)))
    if not worst:
        raise EvaluationPole(f"evaluation pole at every point of z={z}, w={w}")
    skipped = np.concatenate(skipped)
    return {
        "residual": float(np.max(worst)),
        "points_checked": int(np.count_nonzero(~skipped)),
        "skipped": skipped.reshape(np.size(z), np.size(w)),
        "k_row_sums": float(np.max(row_sums)),
    }


@np.errstate(all="ignore")
def markov_structure_report(r: Callable, w_local: np.ndarray) -> dict:
    """Diagnostics connecting a regular spectral family z -> R(z) to a CTMC
    generator: the least-squares rho in R'(1) P = rho * w_local (the
    row-convention form of the Markovian property) as "rho_fit", and as
    "residuals" ||R(1) - P||, the misfit of that rho, row sums of R(z) on a
    z grid, and the rank-one fixed-point residual
    R^T(z/w) (v1(z) (x) v2(w)) = v1(z) (x) v2(w) for v(z) = (z, 1).
    R'(1) is taken by a complex step, Im R(1 + ih) / h, which has no
    difference to cancel and is exact to rounding for h this small
    (Squire-Trefethen 1998), so the family must accept complex z. The
    family is evaluated once on the real points these need and once at
    1 + ih; a pole among them raises EvaluationPole.
    """
    h = 1e-20  # the complex step
    # The row sums are taken at zs, the fixed point at the ratios z / w,
    # which stay below 1 so qz never hits 1 for q in (0,1).
    zs = np.array([0.2, 0.4, 0.6, 0.8])
    z, w = np.array([0.3, 0.6, 0.4]), np.array([0.8, 0.9, 0.5])
    points = np.concatenate([[1.0], zs, z / w])
    stack, poles = r(points)
    step, step_pole = r(np.array([complex(1.0, h)]))
    if poles.any() or step_pole[0]:
        at = points[np.argmax(poles)].item() if poles.any() else complex(1.0, h)
        raise EvaluationPole(f"family undefined at z={at}")
    (R1,), rows, ratios = np.split(stack, [1, 1 + zs.size])
    d = math.isqrt(R1.shape[-1])
    P = permutation_operator(d, d)
    regularity = float(np.max(np.abs(R1 - P)))
    if regularity > 1e-8:
        raise NotRegular(f"R(1) differs from P by {regularity}")
    M = step[0].imag / h @ P
    denom = float(np.sum(w_local * w_local))
    rho = float(np.sum(M * w_local) / denom) if denom > 0 else 0.0
    markov_residual = float(np.max(np.abs(M - rho * w_local)))
    row_sum_dev = float(np.max(np.abs(rows.sum(axis=-1) - 1.0)))
    # v1 (x) v2 at each pair, as a stack of (4, 1) columns
    vec = np.stack([z * w, z, w, np.ones_like(z)], axis=-1)[..., None]
    fixed = float(np.max(np.abs(np.swapaxes(ratios, -1, -2) @ vec - vec)))
    return {
        "rho_fit": rho,
        "residuals": {
            "regularity": regularity,
            "markov": markov_residual,
            "row_sums": row_sum_dev,
            "fixed_point": fixed,
        },
    }
