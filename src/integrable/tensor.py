"""Dense operators as numpy arrays, the caps on the spaces they act on,
and probability vectors over a chain's configurations.

Conventions (wire-level contract, also used by the CLI's CSV tables):
  * leg order: the basis of V_1 (x) ... (x) V_n is lexicographic in the
    site indices with site 1 slowest, the order numpy.kron produces with
    site 1 as the outermost factor. `embed` places an array on any ordered
    tuple of sites, so callers name sites and never write Kronecker
    products with identities by hand. It works on a matrix or on a stack
    of matrices with leading batch axes, such as a spectral family
    evaluated on a whole grid;
  * a dense operator is a plain numpy array and keeps its dtype, so real
    input stays real and complex input stays complex;
  * generators have rows summing to 0 and nonnegative off-diagonals
    (G[c, c'] is the rate c -> c' for c != c');
  * stochastic matrices have rows summing to 1.

A dense operator (the R- and K-matrices that `ybe` places with `embed`,
its one caller in the package) has its side capped by MAX_DENSE_DIM, and
so have a U_q(sl2) representation and the oscillator's truncated Fock
spaces, which `uqsl2` and `oscillator` check on their bases without
building an operator; `state_space` checks a space against a cap before
anything is allocated on it, and `check_stack` keeps a stack of matrices
within the entries of one matrix at that cap. A law over the 2^L
configurations of a chain is a ProbVector, capped by MAX_STATE_SPACE.
No generator is built as a matrix: the laws come from the matrix product
(`mpa`) and the closed form (`models.closed_asep_law`), their certificate
from the matrix-free left action (`models.asep_left_action`), and a row of
exp(tG) from the transition-probability oracle
(`models.ctmc_oracle_probability`), which steps the uniformized chain on
its window's move table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Configurations of a law over the 2^L states of a chain (the matrix
# product's and the closed form's), and states of the window that
# models.ctmc_oracle_probability steps on.
MAX_STATE_SPACE = 2**20
# Side of a dense operator: a 4096 x 4096 complex array takes 256 MiB.
MAX_DENSE_DIM = 2**12


class DimensionMismatch(ParameterError):
    pass


class StateSpaceTooLarge(ParameterError):
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
