"""Exclusion-process constructors: the ASEP generator's local terms with
open or closed boundaries, its action on a row vector without a matrix,
the closed chain's stationary law in closed form, and the N-particle
contour-integral transition probability with a master-equation oracle.

One rate convention, with site 1 the slowest index of a configuration:
a particle hops right at rate 1 and left at rate q. The bulk hop matrix
w = asep_bulk_w(q) carries it on each bond, and asep_local_terms, the
only place that writes a rate into a generator term, lists w and the two
boundary terms; the generator's matrix-free action comes from there. The
closed chain's spin-chain form needs no code of its own: its generator
conjugated by the square root of its reversible law (closed_asep_law) is
the U_q(sl2)-symmetric open XXZ chain (see asep_local_terms). The contour
formula describes the infinite-lattice ASEP with the same rates.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .tensor import (
    MAX_STATE_SPACE,
    DimensionMismatch,
    ProbVector,
    StateSpaceTooLarge,
    state_space,
)


class NonConvergedQuadrature(ConvergenceError):
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


def asep_bulk_w(q: float) -> np.ndarray:
    """Bulk hop matrix with right rate 1 and left rate q: the 01 -> 10 move
    (particle hops left) carries rate q, the 10 -> 01 move rate 1."""
    mat = np.zeros((4, 4))
    mat[1, 1], mat[1, 2] = -q, q
    mat[2, 1], mat[2, 2] = 1.0, -1.0
    return mat


def asep_local_terms(p: AsepParams, open_boundary: bool = False) -> list:
    """The chain's generator as local terms (first site, matrix), the only
    place that writes its rates: asep_bulk_w(q) on each bond (x, x+1) and,
    when open, B = [[-alpha, alpha], [gamma, -gamma]] on site 1 (site 1
    fills at alpha and empties at gamma) and [[-delta, delta],
    [beta, -beta]] on site L. The generator is the sum of the terms, each
    embedded at its sites. The K-matrix family ybe.reflection_k has
    K'(1) = 2B/(q-1) for the site-1 term B at (a, c) = (alpha, gamma), and
    2B/(1-q) for the site-L term at (a, c) = (-delta, -beta) (Sklyanin,
    J. Phys. A 21 (1988) 2375).

    Conjugated by Pi^(1/2), Pi(eta) = q^(-sum_x x eta_x) the closed chain's
    reversible law, w becomes the bond term of the open XXZ chain,
    (sqrt(q)/2)(sx sx + sy sy) + ((1+q)/4)(sz sz - 1)
    + ((1-q)/4)(sz (x) 1 - 1 (x) sz) with sz = +1 on an empty site, and
    the conjugated closed generator commutes with U_q(sl2) at deformation
    sqrt(q) acting by its L-fold coproduct (Pasquier-Saleur, Nucl. Phys. B 330
    (1990) 523; Schutz, J. Stat. Phys. 86 (1997) 1265)."""
    w = asep_bulk_w(p.q)
    terms = [(x, w) for x in range(1, p.L)]
    if open_boundary:
        terms += [(1, np.array([[-p.alpha, p.alpha], [p.gamma, -p.gamma]])),
                  (p.L, np.array([[-p.delta, p.delta], [p.beta, -p.beta]]))]
    return terms


def closed_asep_law(p: AsepParams, particles: int) -> ProbVector:
    """Stationary law of the closed chain on the sector of `particles`
    particles, as a vector over all 2^L configurations that vanishes off
    the sector.

    The closed chain is reversible: a hop to the right at rate 1 and its
    reverse at rate q balance when pi(eta) is proportional to
    q^(-sum_x x eta_x), x the 1-based site (Sandow-Schutz, Europhys. Lett.
    26 (1994) 7). The chain is irreducible on each sector, so this is the
    sector's one stationary law. Each weight is an integer power of
    r = min(q, 1/q), offset so that the largest is 1; none can overflow.

    The particle count and the position sum of every configuration are
    built in L doubling passes, one per site from site L to site 1: the
    configurations with site x occupied follow those with it empty.
    """
    L = p.L
    state_space((2,) * L, MAX_STATE_SPACE)
    if not 0 <= particles <= L:
        raise ParameterError(f"particles must lie in [0, {L}], got {particles}")
    count = position = np.zeros(1, dtype=np.int64)
    for x in range(L, 0, -1):
        count = np.concatenate([count, count + 1])
        position = np.concatenate([position, position + x])
    sector = count == particles
    s = position[sector]
    weights = min(p.q, 1.0 / p.q) ** (s.max() - s if p.q < 1 else s - s.min())
    pi = np.zeros(1 << L)
    pi[sector] = weights / weights.sum()
    return ProbVector(pi)


def asep_left_action(pi, p: AsepParams, open_boundary: bool = False) -> np.ndarray:
    """The row vector pi G for G the sum of asep_local_terms, each embedded
    at its sites, without building G: for each term m at first site x, pi
    and pi G are viewed as (2^(x-1), side of m, rest) arrays, and the
    term's share of pi G is one product of the middle axis with m. The
    product covers only the contiguous span of m's nonzero rows and
    columns (1:3 for the bulk term), found once per distinct matrix; the
    rows and columns it skips add exact zeros, so the result is the same
    to the bit."""
    L = p.L
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (1 << L,):
        raise DimensionMismatch(f"vector shape {pi.shape} does not match L = {L}")
    out = np.zeros_like(pi)
    blocks = {}
    for x, m in asep_local_terms(p, open_boundary):
        if id(m) not in blocks:
            entries = m.tolist()
            used = [k for k, row in enumerate(entries)
                    if any(row) or any(r[k] for r in entries)]
            span = slice(used[0], used[-1] + 1) if used else slice(0)
            blocks[id(m)] = span, m[span, span]
        span, block = blocks[id(m)]
        shape = (1 << (x - 1), len(m), -1)
        view = out.reshape(shape)[:, span]
        view += np.einsum("aib,ij->ajb", pi.reshape(shape)[:, span], block)
    return out


def _epsilon(xi: np.ndarray, q: float) -> np.ndarray:
    """Jump-rate symbol of the single-particle generator: right rate 1,
    left rate q."""
    return 1.0 / xi + q * xi - (1.0 + q)


# Trapezoid node counts of the contour formula: the derived floor lies in
# [TW_MIN_NODES, TW_FLOOR_CAP], and doubling stops at TW_MAX_NODES nodes, or
# at twice the starting count when that is more.
TW_MIN_NODES = 32
TW_FLOOR_CAP = 256
TW_MAX_NODES = 512
# Largest change between two node counts at which the finer value is kept.
TW_DOUBLING_TOL = 1e-8
# Largest change before that one at which the finer value is kept early:
# geometric convergence roughly squares the change at each doubling, so a
# change of TW_DOUBLING_TOL follows one of about its square root.
TW_APPROACH_TOL = 1e-4
# Nonzero changes below this are rounding noise of the sum, not quadrature
# error, and need not fall from one doubling to the next.
TW_ROUNDING_FLOOR = 1e-12
# Largest relative error of a truncated scattering factor (see _tw_series):
# a quarter of the float epsilon 2^-52.
TW_SERIES_TOL = 2.0**-54
# Contour radius for N > 1 as a fraction of r*(q), the radius at which a
# scattering pole reaches the torus of contours (see tw_radius).
TW_RADIUS_MARGIN = 0.7


def tw_radius(q: float, n_particles: int) -> float:
    """Radius of the contour circles: 1/2 for one particle, whose integrand
    has no scattering factor, else min(1/2, TW_RADIUS_MARGIN r*(q)).

    The scattering denominator 1 + q xi_a xi_b - (1 + q) xi_b vanishes
    nowhere on the polydisk |xi_a|, |xi_b| <= r when r < r*(q), the
    positive root of q r^2 + (1 + q) r = 1,
    r*(q) = 2 / ((1 + q) + sqrt((1 + q)^2 + 4q)): there its modulus is at
    least 1 - q r^2 - (1 + q) r > 0, so the contours enclose no pole but
    the origin, as the formula (Tracy-Widom, Commun. Math. Phys. 279
    (2008) 815) requires. At r <= c r* with c = TW_RADIUS_MARGIN
    < 1 that bound is at least 1 - c, since q r^2 + (1 + q) r grows with r
    and c^2 <= c. The integrand is then analytic in an annulus about each
    circle, where the trapezoid rule converges geometrically.
    """
    if n_particles < 2:
        return 0.5
    r_star = 2.0 / ((1.0 + q) + math.sqrt((1.0 + q) ** 2 + 4.0 * q))
    return min(0.5, TW_RADIUS_MARGIN * r_star)


def _checked_positions(y, x, t: float, q: float) -> tuple:
    """y and x as tuples of ints, after the checks that the contour formula
    and its oracle share: equal lengths, N <= 4, strictly increasing
    positions, t >= 0 and q >= 0, each written so that a NaN fails it."""
    y = tuple(int(v) for v in y)
    x = tuple(int(v) for v in x)
    if len(y) != len(x):
        raise ParameterError("x and y must have equal length")
    if len(y) > 4:
        raise ParameterError(
            "N <= 4 only: the permutation sum grows as N!, and each variable of "
            "the reversal term carries N - 1 scattering bonds of rank K + 2 <= 25, "
            "so at N = 5 one vertex tensor holds 25^4 entries and its product "
            "is built from an n x 25^3 array")
    if any(a >= b for c in (y, x) for a, b in zip(c, c[1:])):
        raise ParameterError("positions must be strictly increasing")
    if not q >= 0:
        raise ParameterError(f"q must be nonnegative, got {q}")
    if not t >= 0:
        raise ParameterError(f"t must be nonnegative, got {t}")
    return y, x


def tw_start_nodes(y, x, t: float, q: float, n_quad: int | None = None) -> int:
    """The first node count of the contour formula's doubling schedule,
    after the checks of the positions, t and q.

    By default it is the node floor: the smallest power of two, from
    TW_MIN_NODES up to at most TW_FLOOR_CAP, that is at least
    2e t / r + max |x_j - y_a| over all pairs (j, a), with r =
    tw_radius(q, N). On the circle |xi| = r the factor exp(t/xi) of the
    integrand has Laurent coefficients of size (t/r)^k / k! <
    (e t / (r k))^k, which fall below 2^-k once k exceeds 2e t / r. Each
    permutation pairs the variable xi_a with some x_j in the monomial
    xi_a^(x_j - y_a - 1), which shifts that band by |x_j - y_a|, and an
    n-node trapezoid rule is exact on Laurent terms of degree below n in
    magnitude. An explicit `n_quad` replaces the floor.
    """
    return _start_nodes(*_checked_positions(y, x, t, q), t, q, n_quad)


def _start_nodes(y, x, t, q, n_quad):
    """tw_start_nodes on positions already checked."""
    if n_quad is None:
        need = 2.0 * math.e * t / tw_radius(q, len(y)) + max(
            (abs(b - a) for a in y for b in x), default=0)
        n_quad = TW_MIN_NODES
        while n_quad < need and n_quad < TW_FLOOR_CAP:
            n_quad *= 2
    if n_quad < 1:
        raise ParameterError(f"need at least one quadrature node, got {n_quad}")
    return n_quad


def tw_transition_probability(
    y,
    x,
    t: float,
    q: float,
    n_quad: int | None = None,
    diagnostics: dict | None = None,
) -> float:
    """N-particle transition probability by the Bethe-ansatz contour
    formula: a sum over permutations of N-fold contour integrals with
    scattering factors over inversions.

    Contours are circles of radius `tw_radius(q, N)` around the origin,
    which leave every pole of the scattering factor outside, integrated by
    the trapezoid rule. The node count starts at `tw_start_nodes`: by
    default a floor of 32 to 256 nodes that grows with t / radius, or else
    `n_quad`. It doubles from there. The value at 2n is accepted once it
    moved by at most 1e-8 from the value at n, and the change before, from
    n/2 to n, was at most 1e-4 and strictly larger. So three successive
    counts must agree, as under geometric convergence, where each doubling
    roughly squares the change: two counts that agree by chance after one
    that differs by more than 1e-4 are not enough. A nonzero change below
    TW_ROUNDING_FLOOR = 1e-12 need not be the smaller: once the counts
    agree to rounding, which of two changes is larger is chance, and
    another doubling would buy nothing. A change of exactly zero gets no
    such pass, since an evaluation that has stalled repeats its value. Three counts that all
    agree by chance on a wrong value would be. At the last count,
    max(512, 2 n_quad) nodes, a single change of at most 1e-8 is accepted;
    otherwise NonConvergedQuadrature names the node schedule and every
    change.

    Early acceptance rests on geometric convergence (Trefethen-Weideman,
    SIAM Rev. 56 (2014) 385), which holds because the integrand is analytic
    near the torus of contours: every scattering denominator there has
    modulus at least 1 - TW_RADIUS_MARGIN (see `tw_radius`). Where exp(t/xi)
    is large on a small circle (large q and t), the terms cancel beyond
    float precision, and the doubling raises instead of settling.

    Each scattering factor is a geometric series in a ratio of modulus at
    most rho = q r^2 / (1 - (1 + q) r) <= 0.2001, truncated after K + 1
    terms (K <= 23, from q alone) and factored at rank K + 2, so no n x n
    array is built (see _tw_series and _tw_block). The rules are nested,
    so the counts start_nodes, 2 start_nodes and 4 start_nodes (those up to
    the last count) come from one pass over the finest one's nodes, and
    each later doubling from a pass of its own.

    Every value must be finite, and the accepted value must be real to
    1e-10. A `diagnostics` dict, if given, receives how the value was
    reached: `nodes`, every node count evaluated; `rank`, that of the
    scattering factors (0 for one particle, which has none); and
    `truncation_bound`, the bound on their relative truncation error.
    """
    y, x = _checked_positions(y, x, t, q)
    n_quad = _start_nodes(y, x, t, q, n_quad)
    last = max(TW_MAX_NODES, 2 * n_quad)
    schedule, changes = [], []
    # The first block holds every count the rule needs before it can accept:
    # n_quad, 2 n_quad and 4 n_quad, those up to `last`.
    first = min(3, (last // n_quad).bit_length())
    pending = _tw_block(y, x, t, q, n_quad << (first - 1), first)
    val = None
    while True:
        prev = val
        schedule.append(n_quad << len(schedule))
        val = pending.pop(0) if pending else _tw_block(y, x, t, q, schedule[-1], 1)[0]
        if not cmath.isfinite(val):
            raise NonConvergedQuadrature(
                f"trapezoid value {val} at {schedule[-1]} nodes is not finite "
                f"(nodes {schedule}, changes {changes})"
            )
        if prev is None:
            continue
        changes.append(abs(val - prev))
        if changes[-1] <= TW_DOUBLING_TOL and (
            schedule[-1] >= last
            or (len(changes) >= 2 and changes[-2] <= TW_APPROACH_TOL
                and (changes[-1] < changes[-2] or 0 < changes[-1] < TW_ROUNDING_FLOOR))
        ):
            break
        if schedule[-1] >= last:
            raise NonConvergedQuadrature(
                f"doubling did not settle to {TW_DOUBLING_TOL}: "
                f"nodes {schedule}, changes {changes}"
            )
    if abs(val.imag) > 1e-10:
        raise NonConvergedQuadrature(f"imaginary residue {val.imag}")
    if diagnostics is not None:
        rank, bound = 0, 0.0
        if len(y) > 1:
            K, bound = _tw_series(q, tw_radius(q, len(y)))
            rank = K + 2
        diagnostics.update(nodes=schedule, rank=rank, truncation_bound=bound)
    return float(val.real)


@functools.cache
def _tw_plan(N: int) -> tuple:
    """The structure of the permutation sum for N particles, one entry per
    permutation sigma, inversion pair (sigma[j], sigma[k]) for j < k with
    sigma[j] > sigma[k] carrying the scattering factor S(xi_a, xi_b) of its
    pair (a, b). Per variable a the entry holds inv[a] (the j with
    sigma[j] = a) and the bond list of a's vertex: the index of each pair
    that holds a, and the side (0 first, 1 second) on which it does, as
    two tuples."""
    plan = []
    for sigma in itertools.permutations(range(N)):
        inverse = sorted(range(N), key=sigma.__getitem__)
        pairs = [(sigma[j], sigma[k]) for j, k in itertools.combinations(range(N), 2)
                 if sigma[j] > sigma[k]]
        term = []
        for a in range(N):
            bonds = [(i, side) for i, pair in enumerate(pairs)
                     for side, v in enumerate(pair) if v == a]
            term.append((inverse[a], tuple(i for i, _ in bonds),
                         tuple(side for _, side in bonds)))
        plan.append(tuple(term))
    return tuple(plan)


def _tw_series(q: float, radius: float) -> tuple:
    """(K, bound): the terms k = 0..K of the scattering series that
    _tw_factors keeps, and the bound on each entry's relative error.

    With A = 1 - (1 + q) xi, the factor S(xi_a, xi_b) = -(A_a + q xi_a
    xi_b) / (A_b + q xi_a xi_b) is -(A_a/A_b + z) / (1 + z) for z =
    q xi_a xi_b / A_b, and 1/(1 + z) is the geometric series in -z. On the
    torus of radius r, |z| <= rho = q r^2 / (1 - (1 + q) r), which is below
    1 because r < r*(q) (see tw_radius), and at most 0.2001 for every
    q >= 0 at r = tw_radius(q, N): 0.19 at q = 0.5, 0.20 at q = 1, 0.14 at
    q = 5, 0 at q = 0. The dropped tail is at most rho^(K+1) / (1 - rho)
    and |1 + z| <= 1 + rho, so bound = (1 + rho) rho^(K+1) / (1 - rho)
    bounds the relative error of every truncated entry. K is the smallest
    with bound <= TW_SERIES_TOL: at most 23, from q alone."""
    rho = q * radius * radius / (1.0 - (1.0 + q) * radius)
    K = 0
    while (bound := (1.0 + rho) * rho ** (K + 1) / (1.0 - rho)) > TW_SERIES_TOL:
        K += 1
    return K, bound


def _tw_factors(q: float, radius: float, roots: np.ndarray, j: np.ndarray) -> tuple:
    """(U, V), len(j) x (K + 2), with U V^T the scattering factor
    S(xi_a, xi_b) on the nodes xi = radius * roots[j], roots the n-th roots
    of unity in order, its series truncated at the K of _tw_series. Both are
    transposed views of (K + 2) x len(j) arrays, one row per power.

    With u = xi / radius, S = -(1 + xi_a beta_b) / A_b * sum_k (u_a P_b)^k
    for beta = q xi - (1 + q) and P = -q radius^2 u / A, since u_a P_b = -z.
    Collected by powers of u_a, the truncated series is a polynomial of
    degree K + 1 in u_a: U holds u^0 ... u^(K+1), read from the table of
    roots, and column k of V is -(P^k + radius beta P^(k-1)) / A, a power
    out of range 0..K counting as zero: -1/A for k = 0, -(P^(k-1) / A)
    (P + radius beta) for 1 <= k <= K, and -(P^K / A) radius beta for
    k = K + 1. |P| <= rho, so no column overflows, and the powers -P^k / A
    are multiplied out one row at a time."""
    n = len(roots)
    K, _ = _tw_series(q, radius)
    u = roots[j]
    A = 1.0 - (1.0 + q) * radius * u
    P = -q * radius * radius * u / A
    rb = radius * (q * radius * u - (1.0 + q))
    powers = np.empty((K + 1, len(j)), dtype=complex)
    powers[0] = -1.0 / A
    for k in range(1, K + 1):
        np.multiply(powers[k - 1], P, out=powers[k])
    V = np.empty((K + 2, len(j)), dtype=complex)
    V[0] = powers[0]
    np.multiply(powers[:-1], P + rb, out=V[1:-1])
    np.multiply(powers[-1], rb, out=V[-1])
    U = roots[np.arange(K + 2)[:, None] * j % n]
    return U.T, V.T


def _vertex(m: np.ndarray, factors: list, weights: np.ndarray) -> np.ndarray:
    """One vertex tensor at every count of a block: sum_xi m(xi)
    prod_i factors[i][r_i, xi], one axis r_i per factor, after a leading
    count axis. m is (classes, nodes per class) and each factor (classes,
    k, nodes per class); the sum over each class is the sum of m, a vector,
    or one (k^(f-1) x n)(n x k) product for f factors, batched over the
    classes, and count l sums the classes with weights[l] (see
    _tw_block)."""
    lead = m[:, None, :]
    for f in factors[:-1]:
        lead = (lead[:, :, None, :] * f[:, None, :, :]).reshape(len(m), -1, m.shape[1])
    if not factors:
        return weights @ m.sum(axis=1)
    per_class = lead @ factors[-1].swapaxes(1, 2)
    return (weights @ per_class.reshape(len(m), -1)).reshape(
        (len(weights),) + factors[-1].shape[1:2] * len(factors))


def _contract(vertices: list) -> np.ndarray:
    """The sum over every bond index of the product of the vertex tensors,
    each given as (tensor, the bond of each of its axes after the leading
    count axis), at every count. A vertex with no bond is a factor per
    count. Each other step is one matrix product batched over the counts:
    the axes of the value so far that the next tensor shares are summed
    against that tensor's."""
    scalar = 1.0
    value = labels = None
    for tensor, axes in vertices:
        if not axes:
            scalar = scalar * tensor
            continue
        if value is None:
            value, labels = tensor, axes
            continue
        kept = tuple(b for b in labels if b not in axes)
        shared = tuple(b for b in labels if b in axes)
        rest = tuple(b for b in axes if b not in labels)
        left = value.transpose((0,) + tuple(1 + labels.index(b) for b in kept + shared))
        right = tensor.transpose((0,) + tuple(1 + axes.index(b) for b in shared + rest))
        side = math.prod(right.shape[1:1 + len(shared)])
        value = (left.reshape(len(left), -1, side) @ right.reshape(len(right), side, -1)
                 ).reshape(left.shape[:1 + len(kept)] + right.shape[1 + len(shared):])
        labels = kept + rest
    return scalar if value is None else scalar * value


@np.errstate(all="ignore")  # non-finite values are caught by the caller
def _tw_block(y, x, t, q, n: int, counts: int) -> list:
    """The trapezoid values of the contour formula at the node counts
    n / 2^(counts - 1), ..., n / 2, n, from one pass over the n nodes.

    Per permutation the integrand is one monomial per contour variable
    times S(xi_a, xi_b) per inversion (a, b). With S = U V^T
    (_tw_factors), each inversion is a bond index of rank k = K + 2, and
    each variable a vertex tensor: its monomial summed against the U
    columns of the bonds where it is first and the V columns where it is
    second, at most one (k^2 x n)(n x k) product for N <= 4. Contracting
    the vertices over the bonds gives the term in O(n k^2) at N <= 3, with
    no n x n array.

    The rules are nested (Trefethen-Weideman, SIAM Rev. 56 (2014) 385):
    with c = 2^(counts - 1), node j = c i + r lies in residue class r, and
    the nodes of the count n / 2^s are the classes r = 0 (mod 2^s). Each
    vertex is summed per class, a batch axis of its product, and its value
    at the count n / 2^s is the sum of those classes weighted by 2^s, the
    ratio of that rule's weight to the finest one's; the contraction
    carries the counts as a leading axis."""
    N = len(y)
    radius = tw_radius(q, N)
    c = 1 << (counts - 1)
    # Node j is radius omega^j, omega = exp(2 pi i / n), and each power
    # xi_j^k is radius^k omega^(jk mod n), read from the table of roots.
    # The nodes are held class by class: row r of each (c, n / c) table
    # holds the nodes j = c i + r.
    j = np.arange(n).reshape(-1, c).T.ravel()
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    nodes = radius * roots[j]
    factors = ()
    if N > 1:
        factors = tuple(f.T.reshape(-1, c, n // c).swapaxes(0, 1)
                        for f in _tw_factors(q, radius, roots, j))
    # node value times dxi/(2 pi i) per trapezoid node, times exp(t eps(xi))
    base = nodes / n * np.exp(_epsilon(nodes, q) * t)
    # Row l is the count n / 2^s, s = counts - 1 - l: weight 2^s on each
    # class r = 0 (mod 2^s), zero on the others.
    step = 1 << np.arange(counts - 1, -1, -1)[:, None]
    weights = np.where(np.arange(c) % step == 0, step, 0).astype(float)

    @functools.cache
    def vertex(k, sides):
        monomial = (base * radius**k * roots[j * k % n]).reshape(c, -1)
        return _vertex(monomial, [factors[side] for side in sides], weights)

    total = 0.0
    for term in _tw_plan(N):
        total = total + _contract([(vertex(x[inv] - y[a] - 1, sides), labels)
                                   for a, (inv, labels, sides) in enumerate(term)])
    return total.tolist()


def _window_rank(config, lo: int, hi: int) -> int:
    """Rank of the configuration `config` (sorted positions in [lo, hi])
    among all configurations of as many particles on that window, in
    lexicographic order: C(m, N) - 1 - sum_k C(m - 1 - c_k, N - k), with
    m = hi - lo + 1 and c_k the k-th position counted from lo."""
    m, N = hi - lo + 1, len(config)
    return math.comb(m, N) - 1 - sum(
        math.comb(m - 1 - (c - lo), N - k) for k, c in enumerate(config))


def _window_moves(n_particles, lo, hi) -> np.ndarray:
    """Move table of N-particle exclusion on the integer window [lo, hi].

    Configurations are numbered by _window_rank. Entry [c, 2k + d] is the
    rank that particle k of configuration c reaches by a hop to the right
    (d = 0) or left (d = 1), and the state count itself where that hop is
    blocked, so a blocked hop reads one zero pad entry past the last state.
    A hop of particle k changes only the k-th term of the rank, so each
    (particle, direction) is one masked move over every configuration at
    once.
    """
    N = n_particles
    m = hi - lo + 1
    count = math.comb(m, N)
    pos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), N)),
                      dtype=np.int64, count=count * N).reshape(count, N)
    binom = np.array([[math.comb(a, j) for j in range(N + 1)] for a in range(m)],
                     dtype=np.int64)
    rank = np.arange(count)
    moves = np.full((count, 2 * N), count, dtype=np.intp)
    for k in range(N):
        # A hop to a free neighbouring site keeps the positions sorted.
        right_block = pos[:, k + 1] if k + 1 < N else m
        left_block = pos[:, k - 1] if k > 0 else -1
        for d, (step, block) in enumerate(((1, right_block), (-1, left_block))):
            target = pos[:, k] + step
            ok = target != block
            moves[ok, 2 * k + d] = (rank[ok] + binom[m - 1 - pos[ok, k], N - k]
                                    - binom[m - 1 - target[ok], N - k])
    return moves


# Bound on the total variation between the oracle's windowed chain and the
# infinite-lattice chain at time t; each side of the window takes half.
ORACLE_TAIL = 1e-12


def _poisson_weight(k: int, mu: float) -> float:
    """P(Poisson(mu) = k), taken in log space: e^-mu alone is 0.0 past
    mu = 745, but the weights near the mode are not."""
    return math.exp((k * math.log(mu) if k else 0.0) - mu - math.lgamma(k + 1))


def _poisson_margin(mu: float) -> int:
    """The smallest k with P(Poisson(mu) >= k) <= ORACLE_TAIL / 2. The tail
    is summed from mu + 40 sqrt(mu) + 50 down, where it is negligible. The
    margin exceeds mu, so past MAX_STATE_SPACE its window would too: that
    is refused before the sum."""
    if mu > MAX_STATE_SPACE:
        raise StateSpaceTooLarge(f"an oracle margin exceeds {mu} sites")
    if mu > 0:
        tail = 0.0
        for k in range(int(mu + 40.0 * math.sqrt(mu) + 50), 0, -1):
            tail += _poisson_weight(k, mu)
            if tail > ORACLE_TAIL / 2:
                return k + 1
    return 1


def _oracle_window(y, x, t: float, q: float) -> tuple:
    """The window [lo, hi] of ctmc_oracle_probability: _poisson_margin(t)
    sites right of the particles and _poisson_margin(q t) sites left of
    them, y and x both counted."""
    return (min(min(x), min(y)) - _poisson_margin(q * t),
            max(max(x), max(y)) + _poisson_margin(t))


def _window_row(n_particles, q, lo, hi, state: int, t: float) -> np.ndarray:
    """Row `state` of exp(tG), G the generator of N-particle ASEP (right
    rate 1, left rate q) with blocking on the window [lo, hi], by
    uniformization on the window's move table (_window_moves).

    e_s exp(tG) = sum_k e^{-lambda t}(lambda t)^k / k! * e_s (I + G/lambda)^k,
    truncated when the Poisson tail drops below 1e-13. No matrix is built:
    one step of the row vector p through I + G/lambda is
        p[c] <- (1 - exit[c]/lambda) p[c] + sum_k rate_k/lambda p[src_k(c)],
    where a right hop (rate 1) of particle k flows into c from c's left-hop
    neighbour for that particle and a left hop (rate q) from its right-hop
    neighbour, and a blocked neighbour reads the zero pad entry. lambda is
    the largest exit rate, or 1 where nothing can move. The state count is
    checked against MAX_STATE_SPACE before the move table is allocated
    (StateSpaceTooLarge).
    """
    state_space((math.comb(hi - lo + 1, n_particles),), MAX_STATE_SPACE)
    moves = _window_moves(n_particles, lo, hi)
    count = len(moves)
    exit_rate = (moves < count) @ np.tile([1.0, q], n_particles)
    lam = float(exit_rate.max()) or 1.0
    stay = 1.0 - exit_rate / lam
    # Column 2k holds c's right-hop neighbour, whose left hop (rate q)
    # reaches c; column 2k + 1 its left-hop neighbour, by a right hop.
    inflow = np.tile([q, 1.0], n_particles) / lam
    p = np.zeros(count + 1)
    p[state] = 1.0
    mu = lam * t
    # Poisson(mu) weights in log space, accumulated until the tail is below
    # 1e-13.
    acc = _poisson_weight(0, mu)
    row = acc * p[:count]
    k = 0
    kmax = int(mu + 40.0 * math.sqrt(mu) + 50)
    while 1.0 - acc > 1e-13 and k < kmax:
        k += 1
        p[:count] = p[moves] @ inflow + stay * p[:count]
        weight = _poisson_weight(k, mu)
        acc += weight
        row += weight * p[:count]
    return row


def ctmc_oracle_probability(y, x, t: float, q: float) -> float:
    """Master-equation probability on one truncated lattice: the entry x of
    the row of y in exp(tG), by uniformization, on the window of
    _oracle_window.

    The row comes from _window_row, which steps the uniformized chain on
    the window's move table and builds no matrix.

    The window is sized by a coupling. Drive the infinite chain and the
    windowed one by the same clocks: each particle has a rate-1 clock for
    right hops and a rate-q clock for left hops, and a hop onto an occupied
    site (or, in the window, off it) is suppressed. Exclusion keeps the
    particles in order, so the rightmost particle is never blocked from
    the right and moves right only when its own rate-1 clock rings; no
    other particle can reach the right edge before it. The two chains
    therefore agree until the rightmost particle tries to hop past hi,
    which takes at least hi - y_N + 1 > k rings of its clock when hi lies
    k sites past the particles, so it happens by time t with probability
    at most P(Poisson(t) >= k) <= ORACLE_TAIL / 2; the left edge is the
    same with the leftmost particle's rate-q clock and Poisson(q t). The
    windowed row is thus within ORACLE_TAIL of the infinite one in total
    variation. The ranks of y and x come from _window_rank.
    """
    y, x = _checked_positions(y, x, t, q)
    lo, hi = _oracle_window(y, x, t, q)
    row = _window_row(len(y), q, lo, hi, _window_rank(y, lo, hi), t)
    return float(row[_window_rank(x, lo, hi)])
