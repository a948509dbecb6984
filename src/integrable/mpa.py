"""Matrix product stationary measures for the open exclusion process.

The stationary weight of a configuration (tau_1, ..., tau_L) is written as
S(C) = <W| prod_i ((1 - tau_i) E + tau_i D) |V> / Z_L with D = F + 1 and
E = F' + 1 built from a q-deformed oscillator pair F, F' satisfying
F F' - q F' F = 1 - q, and boundary vectors <W|, |V> fixed by three-term
recurrences in the oscillator basis. All operators live on a truncated
basis |0>, ..., |M-1>; the truncation M is doubled until the measure stops
moving, and relation checks exclude the truncation edge where the algebra
necessarily breaks.

All 2^L weights at one truncation come from a split contraction: a table
of the 2^(L//2) left products <W|X_1 ... X_h| times a table of the
2^(L - L//2) right products X_{h+1} ... X_L|V>. Configuration index
a * 2^(L-h) + b pairs prefix a with suffix b, site 1 being the most
significant bit. That costs O(2^L M + 2^(L/2) M^2) in O(L) array
operations, against O(2^L L M^2) for one product per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, IntegrableError, ParameterError
from .models import AsepParams
from .tensor import MAX_STATE_SPACE, ProbVector, state_space

# Truncation policy: start at 16, double to a hard cap.
M_START = 16
M_CAP = 1024
TV_CONVERGED = 1e-10


# perfbench/make_reference.py catches this name.
MpaError = IntegrableError


class InvalidTruncation(ParameterError):
    pass


class ZeroLeadingRate(ParameterError):
    pass


class TruncationNotConverged(ConvergenceError):
    pass


class NegativeWeight(ConvergenceError):
    """A matrix element came out negative: the truncated representation is
    unreliable for these parameters."""


def q_bracket(m: int, q: float) -> float:
    """{m}_q = 1 - q^m."""
    return 1.0 - q**m


@dataclass(frozen=True)
class OscillatorRep:
    """Truncated q-oscillator pair and the derived matrix-product pair."""

    M: int
    q: float
    F: np.ndarray
    Fdag: np.ndarray
    D: np.ndarray
    E: np.ndarray

    def commutation_violation(self) -> float:
        """max |F F' - q F' F - (1-q)| on the block untouched by truncation."""
        C = self.F @ self.Fdag - self.q * self.Fdag @ self.F
        C -= (1.0 - self.q) * np.eye(self.M)
        return float(np.max(np.abs(C[: self.M - 1, : self.M - 1])))


def q_oscillator(M: int, q: float) -> OscillatorRep:
    """Ladder pair with F'|k> = {k+1}^{1/2}|k+1>, F|k> = {k}^{1/2}|k-1>,
    and the matrix-product pair D = F + 1, E = F' + 1."""
    if M < 2:
        raise InvalidTruncation(f"truncation must be >= 2, got {M}")
    if not 0 < q < 1:
        raise InvalidTruncation(f"need 0 < q < 1, got {q}")
    Fdag = np.zeros((M, M))
    for k in range(M - 1):
        Fdag[k + 1, k] = np.sqrt(q_bracket(k + 1, q))
    F = Fdag.T.copy()
    eye = np.eye(M)
    return OscillatorRep(M=M, q=q, F=F, Fdag=Fdag, D=F + eye, E=Fdag + eye)


def boundary_coefficients(q: float, a: float, c: float, M: int) -> np.ndarray:
    """Coefficients x_0..x_{M-1} of a boundary vector in the ladder basis.

    Solves the three-term recurrence
        a {k+1}^{1/2} x_{k+1} + (a - c + q - 1) x_k - c {k}^{1/2} x_{k-1} = 0
    forward from x_{-1} = 0, x_0 = 1. With (a, c) = (alpha, gamma) this
    annihilates <W|(alpha E - gamma D + q - 1); the same routine with
    (a, c) = (beta, delta) gives |V> for (delta E - beta D + 1 - q)|V> = 0.
    """
    if a <= 0:
        raise ZeroLeadingRate(f"leading rate must be positive, got {a}")
    if M < 1:
        raise InvalidTruncation(f"need M >= 1, got {M}")
    x = np.zeros(M)
    x[0] = 1.0
    for k in range(M - 1):
        prev = x[k - 1] if k >= 1 else 0.0
        x[k + 1] = (
            c * np.sqrt(q_bracket(k, q)) * prev - (a - c + q - 1.0) * x[k]
        ) / (a * np.sqrt(q_bracket(k + 1, q)))
    return x


def _matrix_element_measure(p: AsepParams, M: int) -> np.ndarray:
    """All 2^L weights <W|X_1 ... X_L|V>, X = D on an occupied site and E on
    an empty one, by a split contraction: the prefix table P (2^h x M) holds
    <W|X_1 ... X_h| and the suffix table S (M x 2^(L-h)) holds
    X_{h+1} ... X_L|V>, h = L // 2. The prefix takes each new site as its
    least significant bit and the suffix as its most significant, so P @ S
    ravels to the package's index order, site 1 the most significant bit."""
    rep = q_oscillator(M, p.q)
    h = p.L // 2
    prefix = boundary_coefficients(p.q, p.alpha, p.gamma, M)[np.newaxis, :]
    for _ in range(h):
        prefix = np.stack([prefix @ rep.E, prefix @ rep.D], axis=1).reshape(-1, M)
    suffix = boundary_coefficients(p.q, p.beta, p.delta, M)[:, np.newaxis]
    for _ in range(p.L - h):
        suffix = np.concatenate([rep.E @ suffix, rep.D @ suffix], axis=1)
    return (prefix @ suffix).ravel()


def mpa_stationary_measure(p: AsepParams, M: int = M_START) -> ProbVector:
    """Stationary law over the 2^L configurations from the matrix product.

    Doubles the truncation M until successive measures differ by less than
    1e-10 in total variation (cap M_CAP). A start M outside
    [2, M_CAP / 2] is InvalidTruncation: convergence compares two
    truncations, and a start above M_CAP / 2 leaves none to compare it
    with. A matrix element that is negative beyond rounding
    (or a non-positive normalization) means the truncation is too small to
    be trusted: that measure is dropped and the doubling goes on, so
    convergence needs two trusted truncations in a row. NegativeWeight is
    raised only if the weights are still negative at the cap. A non-finite
    matrix element stops the doubling at once with TruncationNotConverged:
    larger truncations only overflow further.

    Convergence in total variation does not certify the law: at L = 10,
    q = 0.5448, alpha = 0.3207, beta = 0.3304, gamma = 0.211,
    delta = 0.295 the truncations settle to 1e-16 on a law 0.125 in TV
    from the stationary one. The stationarity residual ||pi G||_1 of the
    CLI report is the check.

    Each truncation's weights come from one split contraction (see
    _matrix_element_measure), at O(2^L M + 2^(L/2) M^2). The 2^L states
    are checked against MAX_STATE_SPACE before any array is allocated.
    """
    state_space((2,) * p.L, MAX_STATE_SPACE)
    if not 2 <= M <= M_CAP // 2:
        raise InvalidTruncation(f"truncation must lie in [2, {M_CAP // 2}], got {M}")
    prev = None
    while M <= M_CAP:
        weights = _matrix_element_measure(p, M)
        if not np.all(np.isfinite(weights)):
            raise TruncationNotConverged(
                f"non-finite matrix element at truncation {M}"
            )
        total = weights.sum()
        if total <= 0 or weights.min() < -1e-9 * total:
            if 2 * M > M_CAP:
                raise NegativeWeight(
                    f"negative matrix element {weights.min()} or normalization "
                    f"{total} at truncation {M}"
                )
            prev = None
            M *= 2
            continue
        measure = np.clip(weights, 0.0, None) / np.clip(weights, 0.0, None).sum()
        if prev is not None:
            tv = 0.5 * float(np.abs(measure - prev).sum())
            if tv < TV_CONVERGED:
                return ProbVector(measure)
        prev = measure
        M *= 2
    raise TruncationNotConverged(
        f"measure still moving at truncation cap {M_CAP}"
    )


def relation_checks(p: AsepParams, M: int = 40) -> dict:
    """Residuals of the bulk and boundary relations of the construction.

    bulk: the two-site hop matrix applied to the operator 4-vector
    (EE, ED, DE, DD) must telescope against the scalar pair
    Ebar = q - 1, Dbar = 1 - q.
    left: <W|(alpha E - gamma D + q - 1) = 0 componentwise.
    right: (delta E - beta D + 1 - q)|V> = 0 componentwise.
    All residuals exclude the truncation edge.
    """
    from .models import asep_bulk_w

    rep = q_oscillator(M, p.q)
    D, E = rep.D, rep.E
    core = slice(0, M - 1)

    pair = [E, D]
    pair_bar = [p.q - 1.0, 1.0 - p.q]  # scalars Ebar, Dbar
    w = asep_bulk_w(p.q).entries
    bulk = 0.0
    for t1 in (0, 1):
        for t2 in (0, 1):
            row = 2 * t1 + t2
            acc = np.zeros((M, M))
            for s1 in (0, 1):
                for s2 in (0, 1):
                    # transposed action: the hop matrix pulls back observables
                    acc += w[2 * s1 + s2, row] * (pair[s1] @ pair[s2])
            acc += pair_bar[t1] * pair[t2] - pair[t1] * pair_bar[t2]
            bulk = max(bulk, float(np.max(np.abs(acc[core, core]))))

    w_left = boundary_coefficients(p.q, p.alpha, p.gamma, M)
    v_right = boundary_coefficients(p.q, p.beta, p.delta, M)
    left_vec = w_left @ (p.alpha * E - p.gamma * D + (p.q - 1.0) * np.eye(M))
    right_vec = (p.delta * E - p.beta * D + (1.0 - p.q) * np.eye(M)) @ v_right
    adjoint = float(np.max(np.abs(rep.F - rep.Fdag.T)))
    return {
        "bulk": bulk,
        "left_boundary": float(np.max(np.abs(left_vec[:-1]))),
        "right_boundary": float(np.max(np.abs(right_vec[:-1]))),
        "adjointness": adjoint,
        "commutation": rep.commutation_violation(),
        "truncation": M,
    }
