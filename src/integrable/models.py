"""Exclusion-process and spin-chain constructors: ASEP generators with open
or closed boundaries, the XXZ Hamiltonian, symmetry commutators, gauge
conjugation between the two, ground-state transforms, and the N-particle
contour-integral transition probability with a master-equation oracle.

Rate conventions: the bulk hop matrix w uses right rate q and left rate 1
(the convention matching the matrix-product relations); the standalone
two-site generator uses rates (1, q^2). The contour formula describes the
infinite-lattice ASEP with right rate 1 and left rate q.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, SingularGauge
from .tensor import (
    MAX_STATE_SPACE,
    DimensionMismatch,
    Generator,
    Operator,
    embed,
    identity,
    kron,
    real_entries,
    state_space,
    transition_row,
)


class ZeroEntryInGroundState(ParameterError):
    pass


class NotAnEigenvector(ParameterError):
    pass


class NegativeOffDiagonal(ParameterError):
    pass


class ContourHitsPole(ParameterError):
    pass


class NonConvergedQuadrature(ConvergenceError):
    pass


class WindowTooSmall(ConvergenceError):
    pass


@dataclass(frozen=True)
class AsepParams:
    """Asymmetry q, boundary rates (alpha, gamma) on the left and
    (beta, delta) on the right, and the site count L."""

    q: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    L: int = 2

    def __post_init__(self):
        if self.q <= 0:
            raise ParameterError(f"q must be positive, got {self.q}")
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if self.L < 1:
            raise ParameterError(f"L must be >= 1, got {self.L}")


@dataclass(frozen=True)
class XxzParams:
    Jx: float
    Jy: float
    Jz: float
    h_field: float = 0.0
    N: int = 2
    periodic: bool = True

    def __post_init__(self):
        if self.N < 2:
            raise ParameterError(f"N must be >= 2, got {self.N}")


SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])
PAULI = {1: SIGMA1, 2: SIGMA2, 3: SIGMA3}


def asep_local_generator(q: float) -> Operator:
    """Two-site exclusion generator with hop rates (1, q^2): occupied-empty
    swaps at rate 1, empty-occupied at rate q^2. Overall time scale fixed
    to 1."""
    if q <= 0:
        raise ParameterError(f"q must be positive, got {q}")
    mat = np.zeros((4, 4))
    mat[1, 1], mat[1, 2] = -1.0, 1.0
    mat[2, 1], mat[2, 2] = q**2, -(q**2)
    return Operator((2, 2), mat)


def asep_bulk_w(q: float) -> Operator:
    """Bulk hop matrix with right rate q and left rate 1: the 10 -> 01 move
    (particle hops right) carries rate q."""
    mat = np.zeros((4, 4))
    mat[1, 1], mat[1, 2] = -q, q
    mat[2, 1], mat[2, 2] = 1.0, -1.0
    return Operator((2, 2), mat)


def _sparse_generator(site_dims, rows, cols, rates) -> Generator:
    """Generator with the given off-diagonal rates (repeats add up) and the
    diagonal that makes every row sum to zero."""
    import scipy.sparse

    n = math.prod(site_dims)
    off = scipy.sparse.csr_array((rates, (rows, cols)), shape=(n, n))
    return Generator(site_dims, off - scipy.sparse.diags_array(off.sum(axis=1)))


def asep_generator(p: AsepParams, open_boundary: bool = False) -> Generator:
    """Full-chain generator, filled move by move with bit operations on the
    configuration index (site 1 is the most significant bit).

    Every bond (i, i+1) carries asep_bulk_w: a local 01 becomes 10 at rate q
    and 10 becomes 01 at rate 1. When open, site 1 fills at rate alpha and
    empties at gamma, and site L fills at delta and empties at beta.
    """
    L = p.L
    state_space((2,) * L, MAX_STATE_SPACE)
    idx = np.arange(1 << L)
    # Seeded empty, so that a chain without moves (closed, L=1) concatenates.
    rows, cols, rates = [idx[:0]], [idx[:0]], [np.zeros(0)]

    def move(mask, flip, rate):
        src = idx[mask]
        rows.append(src)
        cols.append(src ^ flip)
        rates.append(np.full(src.size, float(rate)))

    for i in range(1, L):
        a, b = 1 << (L - i), 1 << (L - i - 1)
        left, right = (idx & a) != 0, (idx & b) != 0
        move(~left & right, a | b, p.q)
        move(left & ~right, a | b, 1.0)
    if open_boundary:
        for bit, fill, empty in ((1 << (L - 1), p.alpha, p.gamma), (1, p.delta, p.beta)):
            occupied = (idx & bit) != 0
            move(~occupied, bit, fill)
            move(occupied, bit, empty)
    return _sparse_generator((2,) * L, *map(np.concatenate, (rows, cols, rates)))


def xxz_local_block(p: XxzParams) -> Operator:
    """The 4x4 summand J_x s1s1 + J_y s2s2 + J_z s3s3 + h(s3 (x) 1 + 1 (x) s3):
    corners Jz + 2h and Jz - 2h, anti-corners Jx - Jy."""
    s1, s2, s3 = (Operator((2,), PAULI[a]) for a in (1, 2, 3))
    one = identity((2,))
    return (
        p.Jx * kron(s1, s1)
        + p.Jy * kron(s2, s2)
        + p.Jz * kron(s3, s3)
        + p.h_field * (kron(s3, one) + kron(one, s3))
    )


def xxz_hamiltonian(p: XxzParams) -> Operator:
    """H = -1/2 sum_j (Jx s1_j s1_{j+1} + Jy s2_j s2_{j+1} + Jz s3_j s3_{j+1}
    - h s3_j), each bond term at embed sites (j, j+1); the periodic wrap
    s_{N+1} = s_1, when requested, is the bond at sites (N, 1)."""
    N = p.N
    dims, _ = state_space((2,) * N)
    bonds = [(j, j % N + 1) for j in range(1, N + 1 if p.periodic else N)]
    pairs = [kron(s, s) for s in (Operator((2,), PAULI[a]) for a in (1, 2, 3))]
    hops = (
        J * embed(pair, bond, dims)
        for bond in bonds
        for J, pair in zip((p.Jx, p.Jy, p.Jz), pairs)
    )
    s3 = Operator((2,), SIGMA3)
    field = (-p.h_field * embed(s3, (j,), dims) for j in range(1, N + 1))
    return -0.5 * functools.reduce(operator.add, itertools.chain(hops, field))


def symmetry_commutator(H: Operator, a: int) -> float:
    """Max-norm of [H, sum_j sigma_j^a]."""
    if a not in PAULI:
        raise ParameterError(f"a must be 1, 2 or 3, got {a}")
    dims = H.site_dims
    if any(d != 2 for d in dims):
        raise DimensionMismatch("symmetry commutator needs qubit sites")
    sigma = Operator((2,), PAULI[a])
    S = functools.reduce(
        operator.add, (embed(sigma, (j,), dims) for j in range(1, len(dims) + 1))
    ).entries
    comm = H.entries @ S - S @ H.entries
    return float(np.max(np.abs(comm)))


def gauge_conjugate(H: Operator, G: Operator) -> Operator:
    """G^{-1} H G."""
    mat = G.entries
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularGauge("gauge matrix is singular") from exc
    if np.linalg.cond(mat) > 1e12:
        raise SingularGauge("gauge matrix is numerically singular")
    return Operator(H.site_dims, inv @ H.entries @ mat)


def xxz_gauge_matrix(gamma: float) -> Operator:
    """The two-site change of basis with middle block [[1, gamma-1], [0, gamma]]."""
    mat = np.eye(4)
    mat[1, 2] = gamma - 1.0
    mat[2, 2] = gamma
    return Operator((2, 2), mat)


def xxz_to_asep_search(q: float, grid: int = 41) -> dict:
    """Search (Jx, gamma) so that conjugating the two-site XXZ block at
    Jz=1, h=0 by the gauge matrix reproduces the two-site exclusion
    generator up to the trace-fixed scale c = 4/(1+q^2).

    Coarse grid search refined by Nelder-Mead. Returns the best point and
    the final residual.
    """
    from scipy.optimize import minimize

    target = asep_local_generator(q).entries
    c = 4.0 / (1.0 + q**2)

    def residual(params):
        Jx, gamma = params
        if abs(gamma) < 1e-9:
            return 1e6
        block = xxz_local_block(XxzParams(Jx=Jx, Jy=Jx, Jz=1.0, h_field=0.0)).entries
        # drop the Jz=1 diagonal shift: block = Id + W
        W = block - np.eye(4)
        conj = gauge_conjugate(Operator((2, 2), W), xxz_gauge_matrix(gamma)).entries
        return float(np.max(np.abs(conj - c * target)))

    best = None
    for Jx in np.linspace(0.2, 2.0, grid):
        for gamma in np.linspace(0.2, 3.0, grid):
            r = residual((Jx, gamma))
            if best is None or r < best[1]:
                best = ((Jx, gamma), r)
    res = minimize(residual, best[0], method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
    Jx, gamma = res.x
    return {
        "Jx": float(Jx),
        "gamma": float(gamma),
        "scale": c,
        "residual": float(residual(res.x)),
    }


def ground_state_transform(H: Operator, g: np.ndarray, tol: float = 1e-8) -> Operator:
    """diag(g)^{-1} H diag(g) - c Id for the eigenvalue c of the positive
    eigenvector g; returns a CTMC generator or raises."""
    g = np.asarray(g, dtype=float)
    if g.shape != (H.dim,):
        raise DimensionMismatch(f"vector length {g.shape} vs operator dim {H.dim}")
    if np.min(np.abs(g)) < 1e-14:
        raise ZeroEntryInGroundState("vector has (near-)zero entries")
    mat = real_entries(H.entries, tol)
    c = float(g @ (mat @ g) / (g @ g))
    if np.max(np.abs(mat @ g - c * g)) > tol * max(1.0, np.max(np.abs(g))):
        raise NotAnEigenvector(f"g is not an eigenvector at tolerance {tol}")
    conj = mat * (g[None, :] / g[:, None])
    out = conj - c * np.eye(H.dim)
    off = out - np.diag(np.diag(out))
    if off.min() < -1e-10:
        raise NegativeOffDiagonal(
            f"transform produced off-diagonal entry {off.min()}"
        )
    return Operator(H.site_dims, np.clip(off, 0.0, None) + np.diag(np.diag(out)))


def _epsilon(xi: np.ndarray, q: float) -> np.ndarray:
    """Jump-rate symbol of the single-particle generator: right rate 1,
    left rate q."""
    return 1.0 / xi + q * xi - (1.0 + q)


def tw_transition_probability(
    y,
    x,
    t: float,
    q: float,
    radius: float = 0.5,
    n_quad: int | None = None,
) -> float:
    """N-particle transition probability by the Bethe-ansatz contour
    formula: a sum over permutations of N-fold contour integrals with
    scattering factors over inversions.

    Contours are circles of the given radius around the origin, integrated
    by the trapezoid rule; the result must be stable under doubling the
    node count.
    """
    y = tuple(int(v) for v in y)
    x = tuple(int(v) for v in x)
    N = len(y)
    if len(x) != N:
        raise ParameterError("x and y must have equal length")
    if N > 3:
        raise ParameterError("N <= 3 only; the permutation sum grows as N!")
    if any(y[i] >= y[i + 1] for i in range(N - 1)) or any(
        x[i] >= x[i + 1] for i in range(N - 1)
    ):
        raise ParameterError("positions must be strictly increasing")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if n_quad is None:
        n_quad = 256
    if n_quad < 1:
        raise ParameterError(f"need at least one quadrature node, got {n_quad}")

    val1 = _tw_eval(y, x, t, q, radius, n_quad)
    val2 = _tw_eval(y, x, t, q, radius, 2 * n_quad)
    if not (cmath.isfinite(val1) and cmath.isfinite(val2)):
        raise NonConvergedQuadrature(f"trapezoid values {val1} and {val2} are not finite")
    if abs(val1 - val2) > 1e-8:
        raise NonConvergedQuadrature(
            f"doubling nodes moved the value by {abs(val1 - val2)}"
        )
    if abs(val2.imag) > 1e-10:
        raise NonConvergedQuadrature(f"imaginary residue {val2.imag}")
    return float(val2.real)


def _tw_eval(y, x, t, q, radius, n):
    N = len(y)
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = radius * np.exp(1j * theta)
    # The scattering factor S(xa, xb) on the product torus, shared by every
    # inversion of every permutation, after a scan of its denominator for poles.
    if N > 1:
        xa = nodes[:, None]
        xb = nodes[None, :]
        den = 1.0 + q * xa * xb - (1.0 + q) * xb
        if np.min(np.abs(den)) < 1e-6:
            raise ContourHitsPole(
                f"scattering denominator within 1e-6 of zero at radius {radius}"
            )
        scattering = -(1.0 + q * xa * xb - (1.0 + q) * xa) / den
    weights = nodes / n  # node value times dxi/(2 pi i) per trapezoid node
    ephase = np.exp(_epsilon(nodes, q) * t)

    # Per permutation the integrand factors into one vector per contour
    # variable and one matrix per inversion pair, so the N-fold sum is a
    # small einsum contraction (memory O(n^2) instead of O(n^N)).
    letters = "abc"
    total = 0.0
    for sigma in itertools.permutations(range(N)):
        inv_sigma = [0] * N
        for j, a in enumerate(sigma):
            inv_sigma[a] = j
        operands = []
        subs = []
        for a in range(N):
            operands.append(
                weights * ephase * nodes ** (x[inv_sigma[a]] - y[a] - 1)
            )
            subs.append(letters[a])
        for j in range(N):
            for k in range(j + 1, N):
                if sigma[j] > sigma[k]:
                    operands.append(scattering)
                    subs.append(letters[sigma[j]] + letters[sigma[k]])
        total = total + np.einsum(
            ",".join(subs) + "->", *operands, optimize=True
        )
    return complex(total)


def _window_generator(n_particles, q, lo, hi):
    """Sparse generator of N-particle ASEP (right rate 1, left rate q) with
    blocking, on the integer window [lo, hi], and the index of each
    configuration (a sorted tuple of positions)."""
    states = itertools.combinations(range(lo, hi + 1), n_particles)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, rates = [], [], []
    for s, i in index.items():
        for k, pos in enumerate(s):
            for target, rate in ((pos + 1, 1.0), (pos - 1, q)):
                # A hop to a free neighbouring site keeps the positions sorted.
                if lo <= target <= hi and target not in s:
                    rows.append(i)
                    cols.append(index[s[:k] + (target,) + s[k + 1:]])
                    rates.append(rate)
    return index, _sparse_generator((len(index),), rows, cols, rates)


def ctmc_oracle_probability(y, x, t: float, q: float, window: int = 6) -> float:
    """Master-equation probability on a truncated lattice: the row of y in
    exp(tG), by uniformization. The window doubles until the value is
    stable to 1e-9, and stops beyond 6000 configurations."""
    y = tuple(int(v) for v in y)
    x = tuple(int(v) for v in x)
    if len(y) != len(x):
        raise ParameterError("x and y must have equal length")
    if len(y) > 3:
        raise ParameterError("N <= 3 only")
    prev = None
    margin = window
    for _ in range(8):
        lo = min(min(x), min(y)) - margin
        hi = max(max(x), max(y)) + margin
        if math.comb(hi - lo + 1, len(y)) > 6000:
            break
        index, G = _window_generator(len(y), q, lo, hi)
        val = float(transition_row(G, index[y], t, tol=1e-13)[index[x]])
        if prev is not None and abs(val - prev) <= 1e-9:
            return val
        prev = val
        margin *= 2
    raise WindowTooSmall("probability did not stabilize to 1e-9")

