"""Operators on tensor-product state spaces, Markov-chain predicates,
stationary distributions, and semigroup evaluation.

Conventions (wire-level contract, also used by the CLI's CSV tables):
  * basis ordering is lexicographic in site indices with site 1 slowest,
    i.e. the ordering produced by nested numpy.kron with site 1 outermost;
  * generators have rows summing to 0 and nonnegative off-diagonals
    (G[c, c'] is the rate c -> c' for c != c');
  * stochastic matrices have rows summing to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterError

MAX_STATE_SPACE = 2**20


class DimensionMismatch(ParameterError):
    pass


class StateSpaceTooLarge(ParameterError):
    pass


class NotAGenerator(ParameterError):
    pass


class ReducibleChain(ParameterError):
    pass


@dataclass(frozen=True)
class Operator:
    """Dense operator tagged with the per-site dimensions of its space."""

    site_dims: tuple
    entries: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.site_dims)
        object.__setattr__(self, "site_dims", dims)
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"site dims must be positive, got {dims}")
        total = math.prod(dims)
        if total > MAX_STATE_SPACE:
            raise StateSpaceTooLarge(
                f"state space {total} exceeds cap {MAX_STATE_SPACE}"
            )
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (total, total):
            raise DimensionMismatch(
                f"entries shape {mat.shape} does not match site_dims product {total}"
            )
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.site_dims != other.site_dims:
            raise DimensionMismatch(
                f"cannot compose operators on {self.site_dims} and {other.site_dims}"
            )
        return Operator(self.site_dims, self.entries @ other.entries)

    def __add__(self, other: "Operator") -> "Operator":
        if self.site_dims != other.site_dims:
            raise DimensionMismatch(
                f"cannot add operators on {self.site_dims} and {other.site_dims}"
            )
        return Operator(self.site_dims, self.entries + other.entries)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator(self.site_dims, scalar * self.entries)


def identity(site_dims) -> Operator:
    n = math.prod(site_dims)
    return Operator(tuple(site_dims), np.eye(n, dtype=complex))


def kron(*ops: Operator) -> Operator:
    """Tensor product; site 1 of the first factor is slowest."""
    dims = ()
    mat = np.eye(1, dtype=complex)
    for op in ops:
        dims = dims + op.site_dims
        mat = np.kron(mat, op.entries)
    return Operator(dims, mat)


def embed_local(op: Operator, i: int, N: int, site_dims=None) -> Operator:
    """Embed `op` acting on sites i..i+k-1 into an N-site space.

    Sites are 1-based. `site_dims` gives the full chain's dimensions;
    defaults to dimension 2 everywhere.
    """
    k = len(op.site_dims)
    if site_dims is None:
        site_dims = (2,) * N
    site_dims = tuple(int(d) for d in site_dims)
    if len(site_dims) != N:
        raise DimensionMismatch(f"site_dims has {len(site_dims)} entries, N={N}")
    if i < 1 or i + k - 1 > N:
        raise DimensionMismatch(
            f"operator on {k} sites does not fit at position {i} of {N}"
        )
    if site_dims[i - 1 : i - 1 + k] != op.site_dims:
        raise DimensionMismatch(
            f"target slots {site_dims[i - 1:i - 1 + k]} != operator dims {op.site_dims}"
        )
    left = math.prod(site_dims[: i - 1])
    right = math.prod(site_dims[i - 1 + k :])
    mat = np.kron(np.kron(np.eye(left), op.entries), np.eye(right))
    return Operator(site_dims, mat)


def permutation_operator(d1: int, d2: int) -> Operator:
    """P(u (x) v) = v (x) u between factors of dimensions d1 and d2."""
    if d1 < 1 or d2 < 1:
        raise DimensionMismatch(f"dimensions must be >= 1, got {d1}, {d2}")
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for a in range(d1):
        for b in range(d2):
            # e_a (x) e_b (index a*d2+b) maps to e_b (x) e_a (index b*d1+a)
            mat[b * d1 + a, a * d2 + b] = 1.0
    return Operator((d2, d1), mat) if d1 != d2 else Operator((d1, d2), mat)


def is_generator(G: Operator, tol: float = 1e-10) -> bool:
    mat = G.entries
    if np.max(np.abs(mat.imag)) > tol:
        return False
    real = mat.real
    off = real - np.diag(np.diag(real))
    if off.min() < -tol:
        return False
    if np.max(np.abs(real.sum(axis=1))) > tol * max(1.0, np.abs(real).max()):
        return False
    return True


def _require_generator(G: Operator, tol: float):
    if not is_generator(G, tol):
        raise NotAGenerator(
            "matrix is not a CTMC generator (row sums nonzero or negative "
            "off-diagonal entries beyond tolerance)"
        )


@dataclass(frozen=True)
class ProbVector:
    """Nonnegative vector summing to 1 over the configuration basis."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.min() < -1e-12:
            raise ParameterError(f"negative probability {v.min()}")
        if abs(v.sum() - 1.0) > 1e-12:
            raise ParameterError(f"probabilities sum to {v.sum()}, not 1")
        object.__setattr__(self, "values", np.clip(v, 0.0, None))


def stationary_distribution(G: Operator, tol: float = 1e-10, support=None) -> ProbVector:
    """Stationary law pi with pi G = 0, pi >= 0, sum pi = 1.

    For reducible chains pass `support` (state indices of one communicating
    class); otherwise a null space of dimension > 1 raises ReducibleChain.
    """
    _require_generator(G, tol)
    mat = G.entries.real
    if support is not None:
        idx = np.asarray(sorted(support), dtype=int)
        sub = mat[np.ix_(idx, idx)]
        ns = scipy.linalg.null_space(sub.T, rcond=max(tol, 1e-12))
        if ns.shape[1] != 1:
            raise ReducibleChain(
                f"restriction to requested class has null dimension {ns.shape[1]}"
            )
        pi_sub = np.abs(ns[:, 0].real)
        pi_sub /= pi_sub.sum()
        pi = np.zeros(G.dim)
        pi[idx] = pi_sub
        return ProbVector(pi)
    ns = scipy.linalg.null_space(mat.T, rcond=max(tol, 1e-12))
    if ns.shape[1] > 1:
        raise ReducibleChain(
            f"null space has dimension {ns.shape[1]}; pass a communicating class"
        )
    if ns.shape[1] == 0:
        raise NotAGenerator("generator has empty null space at this tolerance")
    pi = ns[:, 0].real
    # The null vector of a generator restricted to one class has one sign.
    if pi.sum() < 0:
        pi = -pi
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return ProbVector(pi)


def transition_semigroup(G: Operator, t: float, tol: float = 1e-12) -> Operator:
    """Stochastic matrix exp(tG) by uniformization.

    exp(tG) = sum_k e^{-lambda t}(lambda t)^k / k! * (I + G/lambda)^k with
    lambda at least the max exit rate; truncated when the Poisson tail
    drops below `tol`.
    """
    _require_generator(G, max(tol, 1e-10))
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    mat = G.entries.real
    n = mat.shape[0]
    lam = float(np.max(-np.diag(mat)))
    if lam <= 0 or t == 0:
        return Operator(G.site_dims, np.eye(n, dtype=complex))
    P = np.eye(n) + mat / lam
    mu = lam * t
    # Poisson(mu) weights, accumulated until the tail is below tol.
    result = np.zeros((n, n))
    power = np.eye(n)
    weight = math.exp(-mu)
    acc = weight
    result += weight * power
    k = 0
    kmax = int(mu + 40.0 * math.sqrt(mu) + 50)
    while 1.0 - acc > tol and k < kmax:
        k += 1
        power = power @ P
        weight *= mu / k
        acc += weight
        result += weight * power
    return Operator(G.site_dims, result.astype(complex))
