"""Dense operators as numpy arrays, CTMC generators and stationary
distributions.

Conventions (wire-level contract, also used by the CLI's CSV tables):
  * leg order: the basis of V_1 (x) ... (x) V_n is lexicographic in the
    site indices with site 1 slowest, the order numpy.kron produces with
    site 1 as the outermost factor. This module is the only place that
    builds a tensor product: `kron` multiplies arrays in site order and
    `embed` places an array on any ordered tuple of sites, so callers name
    sites and never write Kronecker products by hand. Both work on a
    matrix or on a stack of matrices with leading batch axes, such as a
    spectral family evaluated on a whole grid;
  * a dense operator is a plain numpy array and keeps its dtype, so real
    input stays real and complex input stays complex;
  * generators have rows summing to 0 and nonnegative off-diagonals
    (G[c, c'] is the rate c -> c' for c != c');
  * stochastic matrices have rows summing to 1.

A dense operator (R-matrices, representations, Hamiltonians) has its side
capped by MAX_DENSE_DIM; `state_space` checks a space against a cap before
anything is allocated on it, and `check_stack` keeps a stack of matrices
within the entries of one matrix at that cap. A Generator
is real and sparse (scipy.sparse CSR), and neither of its solvers builds
a dense dim x dim array. Its stationary law comes from one LAPACK band
solve (dgbsv) of the pinned system in the reverse Cuthill-McKee ordering
of A + A^T, which makes the open exclusion chain's system a narrow band. Every column of
the pinned system is diagonally dominant, so in exact arithmetic partial
pivoting exchanges no rows (see `stationary_distribution`). The band's
size is known before it is allocated and is capped by MAX_BAND_BYTES. A
solve whose residual shows a badly chosen pin is pinned again once, at the
largest entry of that solve. This solve
gives the open exclusion chain its law where the matrix product (`mpa`)
has no trusted one; in tests and scripts, it is the oracle of the matrix
product and of the closed chain's closed form (`models.closed_asep_law`).
No Generator is built for a row of exp(tG): the transition-probability
oracle (`models.ctmc_oracle_probability`) steps the uniformized chain on
its window's move table. scipy is imported inside the functions that use
it, which keeps it out of the package's import time and out of every
process that builds no Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# States of a sparse Generator, and of the window that
# models.ctmc_oracle_probability steps on.
MAX_STATE_SPACE = 2**20
# Side of a dense operator: a 4096 x 4096 complex array takes 256 MiB.
MAX_DENSE_DIM = 2**12
# Bytes of the band that stationary_distribution factors. The open chain's
# band takes 298 MiB at L = 14 and 1,077 MiB at L = 15, so its band solve,
# the fallback and test oracle of the matrix product, stops at L = 14
# (models.MAX_BAND_SITES).
MAX_BAND_BYTES = 2**29
# Largest ||pi G||_1 on the closed class, relative to max(1, the largest exit
# rate), that a pinned solve may leave before the class is pinned again.
STATIONARY_TOL = 1e-13


class DimensionMismatch(ParameterError):
    pass


class StateSpaceTooLarge(ParameterError):
    pass


class NotAGenerator(ParameterError):
    pass


class ReducibleChain(ParameterError):
    pass


class NotReal(ParameterError):
    pass


def state_space(site_dims, cap: int = MAX_DENSE_DIM) -> tuple:
    """The site dimensions as ints, and their product, which must not
    exceed `cap` (by default the dense cap). Call it on the dimensions
    before allocating an array on the space."""
    dims = tuple(int(d) for d in site_dims)
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"site dims must be positive, got {dims}")
    total = math.prod(dims)
    if total > cap:
        raise StateSpaceTooLarge(f"state space {total} exceeds cap {cap}")
    return dims, total


def float_array(values) -> np.ndarray:
    """`values` as an array of at least float precision: integer and real
    input becomes float64, complex input stays complex."""
    values = np.asarray(values)
    return np.asarray(values, dtype=np.result_type(values, float))


def real_entries(values, tol: float = 1e-12) -> np.ndarray:
    """`values` as a real array. Complex values must have every imaginary
    part within tol * max(1, max |value|), else NotReal."""
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return values
    scale = max(1.0, float(np.max(np.abs(values))))
    worst = float(np.max(np.abs(values.imag)))
    if worst > tol * scale:
        raise NotReal(f"imaginary part {worst} exceeds {tol} x {scale}")
    return values.real


def check_stack(batch, side: int) -> None:
    """Refuse, with StateSpaceTooLarge, a stack of matrices with batch axes
    `batch` and sides at most `side` that could hold more entries than one
    dense matrix at the cap, MAX_DENSE_DIM^2. Call it before the stack is
    allocated: a batch axis then never takes more memory than one matrix
    at the cap."""
    count = math.prod(batch)
    if count * side * side > MAX_DENSE_DIM**2:
        raise StateSpaceTooLarge(
            f"{count} matrices of side {side} exceed {MAX_DENSE_DIM}^2 entries"
        )


def kron(*mats) -> np.ndarray:
    """Tensor product of arrays in site order; site 1 of the first factor
    is slowest. A factor is a matrix or a stack of matrices with leading batch
    axes, and the batch axes of the factors broadcast against each other.
    Each factor after the first costs one broadcast product written
    straight into the axes (batch, rows, rows', cols, cols'), numpy.kron's
    own layout, so each matrix of the result is numpy.kron's bit for bit;
    numpy.multiply.outer and a transpose can differ in the last bit on
    1 x 1 complex factors. No factors give the 1 x 1 identity. Before the
    result is allocated, the product of the factors' longer sides, which
    bounds both sides of the result, is checked against the dense cap, and
    the whole stack against `check_stack`."""
    if not mats:
        return np.eye(1)
    _, side = state_space(max(m.shape[-2:]) for m in mats)
    batches = [m.shape[:-2] for m in mats if m.ndim > 2]
    if batches:
        check_stack(np.broadcast_shapes(*batches), side)
    mat = mats[0]
    for op in mats[1:]:
        (r, c), (s, t) = mat.shape[-2:], op.shape[-2:]
        product = mat[..., :, None, :, None] * op[..., None, :, None, :]
        mat = product.reshape(product.shape[:-4] + (r * s, c * t))
    return mat


def embed(entries, sites, site_dims) -> np.ndarray:
    """`entries`, an array acting on the legs of the 1-based `sites` of
    the space with `site_dims`, placed there with the identity on every other
    site: leg k sits on site sites[k]. `entries` is a matrix or a stack of
    matrices with leading batch axes, each of side the product of the
    dimensions at `sites`, and the result keeps the batch axes. The sites
    must be distinct; they need not be adjacent or increasing, so
    embed(R, (2, 1), dims) is R with its legs swapped and
    embed(R, (1, 3), dims) is R13 on three sites. The legs are
    placed by one outer product with the identity and one transpose, so
    each entry of the result is exactly an entry of `entries` or zero. The
    space is checked against the dense cap, and the result against
    `check_stack`, before anything is allocated on it.
    """
    dims, total = state_space(site_dims)
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites) or not all(1 <= s <= len(dims) for s in sites):
        raise DimensionMismatch(f"cannot place an operator at sites {sites} of {dims}")
    op_dims = tuple(dims[s - 1] for s in sites)
    side = math.prod(op_dims)
    batch = entries.shape[:-2]
    if entries.shape[-2:] != (side, side):
        raise DimensionMismatch(
            f"entries of shape {entries.shape} cannot act on sites {sites} of {dims}"
        )
    check_stack(batch, total)
    rest = tuple(s for s in range(1, len(dims) + 1) if s not in sites)
    rest_dims = tuple(dims[s - 1] for s in rest)
    # The batch, then entries (x) identity as a tensor with axes (op rows,
    # op cols, rest rows, rest cols), permuted to (batch, rows of sites
    # 1..n, columns of sites 1..n).
    product = np.multiply.outer(
        entries.reshape(batch + op_dims * 2),
        np.eye(math.prod(rest_dims)).reshape(rest_dims * 2),
    )
    b, k, n = len(batch), len(sites), len(dims)
    rows = [sites.index(s) if s in sites else 2 * k + rest.index(s) for s in range(1, n + 1)]
    cols = [a + (k if a < k else n - k) for a in rows]
    axes = [*range(b), *(b + a for a in rows + cols)]
    return product.transpose(axes).reshape(batch + (total, total))


def permutation_operator(d1: int, d2: int) -> np.ndarray:
    """P(u (x) v) = v (x) u between factors of dimensions d1 and d2."""
    if d1 < 1 or d2 < 1:
        raise DimensionMismatch(f"dimensions must be >= 1, got {d1}, {d2}")
    mat = np.zeros((d1 * d2, d1 * d2))
    for a in range(d1):
        for b in range(d2):
            # e_a (x) e_b (index a*d2+b) maps to e_b (x) e_a (index b*d1+a)
            mat[b * d1 + a, a * d2 + b] = 1.0
    return mat


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


@dataclass(frozen=True)
class ProbVector:
    """Finite nonnegative vector summing to 1 over the configuration basis."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        # written so that a NaN fails each check
        if not v.min() >= -1e-12:
            raise ParameterError(f"negative or NaN probability {v.min()}")
        if not abs(v.sum() - 1.0) <= 1e-12:
            raise ParameterError(f"probabilities sum to {v.sum()}, not 1")
        object.__setattr__(self, "values", np.clip(v, 0.0, None))


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
    models.open_band_law refuses it from L alone. There this solve is the
    fallback of the matrix product (mpa), where that has no trusted law,
    and its test oracle.
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
