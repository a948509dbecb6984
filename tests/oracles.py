"""Oracles of the test suite for the open and closed exclusion chains: a
sparse CTMC generator built from models.asep_local_terms, its stationary
law by one band LU of the pinned system, and the open chain's law in
exact rational arithmetic.

Nothing in the package calls them: the package's open-chain law is the
matrix product (integrable.mpa) and the closed chain's is its closed form
(models.closed_asep_law). Here they are the independent construction both
are checked against. A Generator is real and sparse (scipy.sparse CSR),
and neither the generator nor its solver builds a dense dim x dim array.
The stationary law comes from one LAPACK band solve (dgbsv) of the pinned
system in the reverse Cuthill-McKee ordering of A + A^T, which makes the
open exclusion chain's system a narrow band. Every column of the pinned
system is diagonally dominant, so in exact arithmetic partial pivoting
exchanges no rows (see `stationary_distribution`). The band's size is
known before it is allocated and is capped by MAX_BAND_BYTES. A solve
whose residual shows a badly chosen pin is pinned again once, at the
largest entry of that solve. The band LU has no accuracy bound of its
own; where it and the float matrix product disagree, exact_open_law
decides, and it checks its law as the generator's exact null vector.

The contour formula's scattering factor is checked against its dense
n x n matrix on the trapezoid nodes (scattering_matrix), which the package
never builds: it contracts low-rank factors of it (models._tw_factors).

The universal R of U_q(sl2) is checked against its dense matrix on
V_l (x) V_m (universal_r), built one kron at a time; the package checks it
by weight grading (uqsl2.universal_r_check) and never builds it.

The closed chain's spin-chain form is checked on small dense matrices:
reversible_conjugate conjugates its generator by the square root of its
reversible law, and uq_coproduct gives the L-fold U_q(sl2) coproduct that
the result must commute with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from integrable import mpa, uqsl2
from integrable.errors import ParameterError
from integrable.models import AsepParams, asep_left_action, asep_local_terms
from integrable.tensor import (
    MAX_STATE_SPACE,
    DimensionMismatch,
    ProbVector,
    StateSpaceTooLarge,
    kron,
    state_space,
)

# Bytes of the band that stationary_distribution factors. The open chain's
# band takes 298 MiB at L = 14 and 1,077 MiB at L = 15, so its band solve
# stops at L = 14 (MAX_BAND_SITES).
MAX_BAND_BYTES = 2**29
# Largest ||pi G||_1 on the closed class, relative to max(1, the largest exit
# rate), that a pinned solve may leave before the class is pinned again.
STATIONARY_TOL = 1e-13


class NotAGenerator(ParameterError):
    pass


class ReducibleChain(ParameterError):
    pass


@dataclass(frozen=True)
class Generator:
    """CTMC generator: a real square CSR matrix `rates`, with rates[c, c']
    the rate c -> c', on at most MAX_STATE_SPACE states. Checked on
    construction to have off-diagonal rates of at least -1e-10 and row sums
    of at most 1e-10 times max(1, the largest rate) in magnitude, else
    NotAGenerator; explicit zeros are dropped, so the sparsity pattern is
    the transition graph."""

    rates: object

    def __post_init__(self):
        import scipy.sparse

        shape = np.shape(self.rates)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionMismatch(f"rates of shape {shape} are not square")
        state_space(shape[:1], MAX_STATE_SPACE)
        if np.iscomplexobj(self.rates):
            raise NotAGenerator("generator rates must be real")
        rates = scipy.sparse.csr_array(self.rates, dtype=float, copy=True)
        rates.sum_duplicates()
        rates.eliminate_zeros()
        object.__setattr__(self, "rates", rates)
        off = rates - scipy.sparse.diags_array(rates.diagonal())
        scale = max(1.0, float(abs(rates).max()))
        if off.min() < -1e-10 or float(np.abs(rates.sum(axis=1)).max()) > 1e-10 * scale:
            raise NotAGenerator(
                "matrix is not a CTMC generator (row sums nonzero or negative "
                "off-diagonal entries beyond tolerance)"
            )

    @property
    def dim(self) -> int:
        return self.rates.shape[0]


def _closed_class(rates) -> np.ndarray:
    """States of the one closed communicating class of a rate matrix; a
    chain with several closed classes raises ReducibleChain."""
    from scipy.sparse.csgraph import connected_components

    n_classes, label = connected_components(rates, directed=True, connection="strong")
    coo = rates.tocoo()
    leaving = label[coo.row] != label[coo.col]
    closed = np.setdiff1d(np.arange(n_classes), label[coo.row[leaving]])
    if closed.size != 1:
        raise ReducibleChain(
            f"chain has {closed.size} closed classes; restrict the generator to one"
        )
    return np.flatnonzero(label == closed[0])


def _band_layout(system) -> tuple:
    """A square sparse `system` A with no duplicate entries, such as a slice
    of a Generator's rates, in the reverse Cuthill-McKee order of the
    pattern of A + A^T: (order, kl, ku, entries) with kl subdiagonals and
    ku superdiagonals of A[order][:, order], and the entries of that matrix
    as (row, col, data). Its band has 2 kl + ku + 1 rows of doubles (see
    _band_system); nothing of that size is allocated here."""
    import scipy.sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    coo = system.tocoo()
    n = system.shape[0]
    ends = (np.concatenate([coo.row, coo.col]), np.concatenate([coo.col, coo.row]))
    # A csr_matrix, the input type reverse_cuthill_mckee has taken in every
    # SciPy release.
    pattern = scipy.sparse.csr_matrix((np.ones(2 * coo.nnz), ends), shape=(n, n))
    order = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    row, col = rank[coo.row], rank[coo.col]
    offset = row - col
    kl, ku = int(max(offset.max(), 0)), int(max(-offset.min(), 0))
    return order, kl, ku, (row, col, coo.data)


def _band_system(system) -> tuple:
    """`system` in the order of _band_layout as LAPACK band storage:
    (order, kl, ku, band) with band[kl + ku + i - j, j] =
    A[order[i], order[j]], and kl spare rows on top for dgbsv's row
    exchanges. The band's size is checked against MAX_BAND_BYTES before it
    is allocated."""
    order, kl, ku, (row, col, data) = _band_layout(system)
    n = system.shape[0]
    rows = 2 * kl + ku + 1
    if 8 * rows * n > MAX_BAND_BYTES:
        raise StateSpaceTooLarge(
            f"band of {rows} x {n} doubles exceeds {MAX_BAND_BYTES} bytes"
        )
    # Fortran order: dgbsv factors the band in place, with no copy.
    band = np.zeros((rows, n), order="F")
    band[kl + ku + row - col, col] = data
    return order, kl, ku, band


def _pinned_solve(adjoint) -> np.ndarray:
    """The null vector of an irreducible generator, given as its transpose
    in CSC form, with state 0 pinned to 1 before the solve (see
    `stationary_distribution`), neither clipped nor normalised. An exactly
    zero pivot of dgbsv leaves no solution: every entry but the pin is
    then NaN, except the state of that pivot, which is inf."""
    from scipy.linalg.lapack import dgbsv

    weights = np.ones(adjoint.shape[0])
    if weights.size > 1:
        order, kl, ku, band = _band_system(adjoint[1:, 1:])
        rhs = -adjoint[1:, [0]].toarray()[order]
        *_, solution, info = dgbsv(kl, ku, band, rhs, overwrite_ab=1, overwrite_b=1)
        if info == 0:
            weights[1 + order] = solution[:, 0]
        else:
            weights[1:] = np.nan
            weights[1 + order[info - 1]] = np.inf
    return weights


def _law(weights) -> np.ndarray:
    weights = np.clip(weights, 0.0, None)
    return weights / weights.sum()


def stationary_distribution(G: Generator) -> ProbVector:
    """Stationary law pi with pi G = 0, pi >= 0, sum pi = 1.

    The chain must have exactly one closed communicating class, else
    ReducibleChain; pi vanishes off that class. A chain with several, such
    as the closed exclusion chain with one per particle number, is solved
    on one of them as Generator(G.rates[s][:, s]), whose row-sum check
    refuses a set of states s that some rate leaves. On the class, pi is
    pinned to 1 at its first state, that state's row and column are
    dropped from G^T, the rest is solved by one band LU, and the result is
    normalised. Pinning keeps the system as sparse as G; a dense row of
    ones in place of an equation would spoil the band.

    A pinned state of tiny stationary mass makes the pinned system nearly
    singular, and its solve can put most of the mass in the wrong place.
    So ||pi G||_1 on the class is computed after the solve, at the cost of
    one sparse product. If it exceeds STATIONARY_TOL times
    max(1, the largest exit rate), the class is pinned again at the state
    of the largest |entry| of the failed solve, taken before negative
    entries are clipped, and solved once more: where the pin's mass is
    tiny, the solve divides by it, and the states that hold the mass come
    out largest. An exactly zero pivot leaves no finite entry but the pin;
    the re-pin then takes the state of that pivot, the last state of a
    leading block of the pinned system that rounding made singular: states
    whose way back to the pin was lost to rounding. That law is returned
    whatever its residual; the caller judges it.

    The pinned system A is put in the reverse Cuthill-McKee ordering
    (Cuthill-McKee, Proc. ACM 1969) of the pattern of A + A^T, which
    gives the open exclusion chain a band of half-width 145 at L = 11 and
    446 at L = 13, and LAPACK's dgbsv factors that band in place with
    partial pivoting. On its closed class the chain is irreducible, so
    -G^T there is an irreducible singular M-matrix, and -A, a proper
    principal submatrix of it, is a nonsingular M-matrix. Each column of A
    is diagonally dominant (the exit rate of a state is at least its rates
    to the other kept states), and elimination keeps column diagonal
    dominance. So in exact arithmetic the diagonal is the largest entry at
    or below it in its column, partial pivoting exchanges no rows, and the
    growth factor is at most 2: the solve is stable. In floating point a
    column can tie its diagonal with its one entry below (a state with one
    move, which a zero boundary rate allows), or a pin on a state of tiny
    mass can erode the dominance; rounding may then make dgbsv exchange
    rows, which partial pivoting does stably, and the residual test above
    judges the result. The band, (2 kl + ku + 1) x n doubles, must fit in
    MAX_BAND_BYTES, else StateSpaceTooLarge is raised before it is
    allocated: the open chain fits to L = 14 and not from L = 15, and
    open_band_law refuses it from L alone.
    """
    if not isinstance(G, Generator):
        raise NotAGenerator(f"expected a Generator, got {type(G).__name__}")
    members = _closed_class(G.rates)
    adjoint = G.rates[members][:, members].T.tocsc()
    solved = _pinned_solve(adjoint)
    weights = _law(solved)
    rate = float(-adjoint.diagonal().min())
    # Written so that a non-finite residual pins again too.
    if not np.abs(adjoint @ weights).sum() <= STATIONARY_TOL * max(1.0, rate):
        # The state of the largest |entry| goes first, the rest keep their order.
        peak = int(np.nanargmax(np.abs(solved)))
        order = np.roll(np.arange(members.size), -peak)
        weights[order] = _law(_pinned_solve(adjoint[order][:, order]))
    pi = np.zeros(G.dim)
    pi[members] = weights
    return ProbVector(pi)


def _sparse_generator(n: int, rows, cols, rates) -> Generator:
    """Generator on n states with the given off-diagonal rates (repeats add
    up) and the diagonal that makes every row sum to zero."""
    import scipy.sparse

    off = scipy.sparse.csr_array((rates, (rows, cols)), shape=(n, n))
    return Generator(off - scipy.sparse.diags_array(off.sum(axis=1)))


# The most sites of an open chain whose band solve fits in MAX_BAND_BYTES.
# The band of the pinned system in reverse Cuthill-McKee order depends on L
# and on which ends have a nonzero rate. With both ends open it takes 298 MiB
# at L = 14 and 1,077 MiB at L = 15; with one, 154-159 MiB and 554-571 MiB.
# It grows about 3.6-fold per site, so open_band_law refuses a longer chain
# from L alone, before its generator is built.
MAX_BAND_SITES = 14


def asep_generator(p: AsepParams, open_boundary: bool = False) -> Generator:
    """Full-chain generator with the terms of asep_local_terms: each
    off-diagonal rate m[i, j] of a term at first site x is one move, from
    every configuration whose sites x, x+1, ... read i to the one where
    they read j. In the leg order (site 1 slowest) those configurations are
    column i of the indices viewed as (2^(x-1), side of m, rest)."""
    L = p.L
    state_space((2,) * L, MAX_STATE_SPACE)
    idx = np.arange(1 << L)
    # Seeded empty, so that a chain without moves (closed, L=1) concatenates.
    rows, cols, rates = [idx[:0]], [idx[:0]], [np.zeros(0)]
    for x, m in asep_local_terms(p, open_boundary):
        view = idx.reshape(1 << (x - 1), len(m), -1)
        for i, j in np.argwhere(m - np.diag(np.diag(m))):
            rows.append(view[:, i].ravel())
            cols.append(view[:, j].ravel())
            rates.append(np.full(rows[-1].size, m[i, j]))
    return _sparse_generator(1 << L, *map(np.concatenate, (rows, cols, rates)))


def open_band_law(p: AsepParams) -> ProbVector:
    """The open chain's law by the band LU of stationary_distribution on
    asep_generator(p, open_boundary=True). A chain longer than
    MAX_BAND_SITES is refused with StateSpaceTooLarge before its generator
    is built."""
    if p.L > MAX_BAND_SITES:
        raise StateSpaceTooLarge(
            f"the open chain's band solve exceeds MAX_BAND_BYTES from "
            f"L = {MAX_BAND_SITES + 1}, got L = {p.L}")
    return stationary_distribution(asep_generator(p, open_boundary=True))


def exact_open_law(p: AsepParams) -> np.ndarray:
    """The open chain's law on the Fractions that p's float rates stand
    for, rounded once to floats. It is the matrix product of the first
    image of p with a positive leading rate, contracted exactly; exact
    arithmetic has no rounding to choose an image by, and an exactly zero
    pivot restarts z as in floats. The product is not taken on trust: its
    law must be an exact null vector of the generator, or this raises
    AssertionError. With a boundary rate positive the chain has one closed
    class, so that null vector is the law."""
    rates = tuple(Fraction(v) for v in (p.q, p.alpha, p.beta, p.gamma, p.delta))
    chain, read = next((chain, read) for _, chain, read in
                       mpa.images(AsepParams(*rates, L=p.L)) if chain[1] > 0)
    weights = mpa._contract(*mpa.krylov_pair(*chain, p.L))
    law = read(weights / weights.sum())
    # pi G = 0 in integers: pi times its common denominator, and every rate,
    # the bulk rate 1 among them, times theirs
    den = math.lcm(*(x.denominator for x in law))
    scale = math.lcm(*(r.denominator for r in rates))
    counts = np.array([x.numerator * (den // x.denominator) for x in law], dtype=object)
    flow = _integer_left_action(counts, p.L, scale, *(int(r * scale) for r in rates))
    assert not flow.any(), "the exact matrix product is not the generator's null vector"
    return law.astype(float)


def _integer_left_action(pi: np.ndarray, L: int, hop: int, q: int, alpha: int, beta: int,
                         gamma: int, delta: int) -> np.ndarray:
    """pi G for the open chain with integer rates, one move at a time: bond
    (x, x + 1) moves 10 to 01 at rate hop and 01 to 10 at rate q, site 1
    fills at alpha and empties at gamma, site L fills at delta and empties
    at beta. Site 1 is the most significant bit of the index."""
    index = np.arange(1 << L)
    out = np.zeros(1 << L, dtype=object)

    def move(sources, flip, rate):
        flow = rate * pi[sources]
        out[sources ^ flip] += flow  # the flip is a bijection on sources
        out[sources] -= flow

    for x in range(L - 1):
        left, right = 1 << (L - 1 - x), 1 << (L - 2 - x)
        occupied_left, occupied_right = (index & left) != 0, (index & right) != 0
        move(index[occupied_left & ~occupied_right], left | right, hop)
        move(index[~occupied_left & occupied_right], left | right, q)
    first, last = 1 << (L - 1), 1
    move(index[(index & first) == 0], first, alpha)
    move(index[(index & first) != 0], first, gamma)
    move(index[(index & last) == 0], last, delta)
    move(index[(index & last) != 0], last, beta)
    return out


def reversible_half(L: int, q: float) -> np.ndarray:
    """The diagonal of Pi^(1/2) for Pi(eta) = q^(-sum_x x eta_x), x the
    1-based site: the closed chain's reversible law up to normalisation.
    Site 1 is the most significant bit of the index."""
    index = np.arange(1 << L)
    position = sum(x * ((index >> (L - x)) & 1) for x in range(1, L + 1))
    return math.sqrt(q) ** -position.astype(float)


def reversible_conjugate(p: AsepParams) -> tuple:
    """The closed chain's generator G, dense from asep_left_action on the
    unit rows, and H = Pi^(1/2) G Pi^(-1/2) (see reversible_half)."""
    G = np.array([asep_left_action(row, p) for row in np.eye(1 << p.L)])
    half = reversible_half(p.L, p.q)
    return G, half[:, np.newaxis] * G / half


def uq_coproduct(L: int, q: float) -> tuple:
    """Delta^(L)(e), Delta^(L)(f) and K (x) ... (x) K of U_q(sl2) at
    deformation sqrt(q) on L sites, each carrying uqsl2.rep(1, sqrt(q)):
    the two-site coproduct Delta(e) = K (x) E + E (x) 1,
    Delta(f) = 1 (x) F + F (x) K^-1 iterated. The term of site x in
    Delta^(L)(e) has K on the sites before x and 1 after it; in
    Delta^(L)(f), 1 before and K^-1 after."""
    r = uqsl2.rep(1, math.sqrt(q))
    one = np.eye(2)
    e = sum(kron(*[r.K] * (x - 1), r.E, *[one] * (L - x)) for x in range(1, L + 1))
    f = sum(kron(*[one] * (x - 1), r.F, *[r.Kinv] * (L - x)) for x in range(1, L + 1))
    return e, f, kron(*[r.K] * L)


def scattering_matrix(q: float, nodes: np.ndarray) -> np.ndarray:
    """The scattering factor of the contour formula on every pair of
    nodes, S[a, b] = -(1 + q xi_a xi_b - (1 + q) xi_a) /
    (1 + q xi_a xi_b - (1 + q) xi_b), as a dense n x n matrix."""
    xa, xb = nodes[:, None], nodes[None, :]
    return -((1.0 + q * xa * xb - (1.0 + q) * xa) / (1.0 + q * xa * xb - (1.0 + q) * xb))


class DeformationMismatch(ParameterError):
    pass


def universal_r(rl: uqsl2.RepM, rm: uqsl2.RepM) -> np.ndarray:
    """Evaluate the universal R on V_l (x) V_m.

    R = q^{(1/2) h (x) h} sum_{i>=0} (q - q^{-1})^i q^{i(i-1)/2} / [i]_q^~!
        f^i (x) e^i
    with the symmetric q-factorial [i]^~! built from (q^i - q^{-i})/(q - q^{-1}).
    The f (x) e ordering and the q^{i(i-1)/2} exponent are pinned numerically:
    they form the unique variant (within the natural family of sign and
    exponent choices) intertwining the coproduct used here with its flip.
    The sum terminates at i = min(l, m) by nilpotency of f and e. The
    product space is checked against the dense cap before anything is
    built on it.
    """
    if rl.q != rm.q:
        raise DeformationMismatch(f"q mismatch: {rl.q} vs {rm.q}")
    q = rl.q
    if q == 1:
        raise uqsl2.InvalidDeformation("universal R requires q != 1")
    d1, d2 = rl.dim, rm.dim
    state_space((d1, d2))
    wl = rl.weights.astype(float)
    wm = rm.weights.astype(float)
    # q^{h (x) h / 2}: diagonal with entries q^{w_a w_b / 2}. Python's
    # float power, not numpy's, which can differ in the last digit.
    cartan = np.array([q ** (wa * wb / 2.0) for wa in wl for wb in wm])
    denom = q - 1.0 / q
    n = min(rl.m, rm.m)
    _, qint = uqsl2._q_tables(q, n, float)
    Fi, Ei = np.eye(d1), np.eye(d2)
    total = kron(Fi, Ei)  # the i = 0 term, with coefficient 1
    qfact = 1.0
    # One term at a time, so at most three D x D arrays are alive.
    for i in range(1, n + 1):
        Fi = rl.F @ Fi
        Ei = rm.E @ Ei
        qfact *= qint[i + n]
        coeff = denom**i * q ** (i * (i - 1) / 2.0) / qfact
        total = total + coeff * kron(Fi, Ei)
    return cartan[:, None] * total
