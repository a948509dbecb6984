"""Stochastic six-vertex weights, a raster-order sampler, fusion of the
spin-1/2 weights to higher-spin vertex weights by a recurrence, its exact
q-Racah closed-form oracle, and the diagonal gauge transformation.

Weight tables are indexed W[j1, k1, j2, k2]: j counts horizontal arrows
(j1 in from the left, j2 out to the right, both at most l) and k counts
vertical arrows (k1 in from the bottom, k2 out to the top, both at most m).
Arrow conservation j1 + k1 = j2 + k2 holds for every nonzero entry and
each input pair's outgoing weights sum to 1.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RateOutOfRange, SingularGauge
from .qnum import q_binomial, q_pochhammer
from .tensor import Operator, float_array, permutation_operator, real_entries


class PoleAtZEqualsQPower(ParameterError):
    pass


class PoleInSpectralLadder(ParameterError):
    pass


class InconsistentBoundary(ParameterError):
    pass


@dataclass(frozen=True)
class VertexWeights:
    """Stochastic vertex weight table on V_l (x) V_m."""

    l: int
    m: int
    z: complex
    q: float
    table: np.ndarray

    def __post_init__(self):
        t = float_array(self.table)
        expect = (self.l + 1, self.m + 1, self.l + 1, self.m + 1)
        if t.shape != expect:
            raise ParameterError(f"table shape {t.shape}, expected {expect}")
        object.__setattr__(self, "table", t)

    def conservation_violation(self) -> float:
        worst = 0.0
        for j1 in range(self.l + 1):
            for k1 in range(self.m + 1):
                for j2 in range(self.l + 1):
                    for k2 in range(self.m + 1):
                        if j1 + k1 != j2 + k2:
                            worst = max(worst, abs(self.table[j1, k1, j2, k2]))
        return worst

    def row_sum_violation(self) -> float:
        """Largest |row sum - 1| over the input pairs, each relative to
        max(1, the largest |entry| in its row). Exact on a Fraction table."""
        sums = self.table.sum(axis=(2, 3))
        return float(np.max(np.abs(sums - 1) / self._row_scale()))

    def row_deviation(self, other: VertexWeights) -> float:
        """Largest |entry - other's entry|, relative as row_sum_violation
        to other's row."""
        diff = np.abs(self.table - other.table).max(axis=(2, 3))
        return float(np.max(diff / other._row_scale()))

    def _row_scale(self) -> np.ndarray:
        return np.maximum(1, np.abs(self.table).max(axis=(2, 3)))

    def as_operator(self) -> Operator:
        """Matrix on V_l (x) V_m with rows indexed by (j1, k1)."""
        d = (self.l + 1) * (self.m + 1)
        mat = self.table.reshape(d, d)
        return Operator((self.l + 1, self.m + 1), mat)


def six_vertex_weights(b1: float, b2: float, z: complex = 0.0, q: float = 0.0) -> VertexWeights:
    """The six weights {1, 1, b1, 1-b1, b2, 1-b2}: a lone vertical arrow
    continues up with probability b1, a lone horizontal arrow continues
    right with probability b2."""
    if not (0 <= b1 <= 1 and 0 <= b2 <= 1):
        raise RateOutOfRange(f"probabilities must lie in [0,1], got {b1}, {b2}")
    W = np.zeros((2, 2, 2, 2))
    W[0, 0, 0, 0] = 1.0
    W[1, 1, 1, 1] = 1.0
    W[0, 1, 0, 1] = b1
    W[0, 1, 1, 0] = 1.0 - b1
    W[1, 0, 1, 0] = b2
    W[1, 0, 0, 1] = 1.0 - b2
    return VertexWeights(l=1, m=1, z=z, q=q, table=W)


def asep_weights(z: complex, q: float) -> VertexWeights:
    """Six-vertex table matching the spectral R-matrix of the exclusion
    process: b1 = q(z-1)/(qz-1), b2 = (z-1)/(qz-1)."""
    d = q * z - 1.0
    if abs(d) < 1e-13:
        raise PoleAtZEqualsQPower(f"qz = 1 at z={z}")
    b1, b2 = real_entries([q * (z - 1.0) / d, (z - 1.0) / d])
    return six_vertex_weights(float(b1), float(b2), z=z, q=q)


def higher_spin_base_weights(m: int, z: complex, q: float) -> VertexWeights:
    """l=1 weights with vertical capacity m.

    With g arrows below and no arrow from the left: pass up with weight
    (q^{m+1} - q^{2g} z)/(q^{m+1} - z), emit right with z(q^{2g}-1)/(q^{m+1}-z).
    With one arrow from the left: pass right with (q^{2g-m+1}-z)/(q^{m+1}-z),
    absorb up with (q^{m+1}-q^{2g-m+1})/(q^{m+1}-z). Each pair sums to 1.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    den = q ** (m + 1) - z
    if abs(den) < 1e-13:
        raise PoleAtZEqualsQPower(f"z = q^(m+1) at z={z}, m={m}")
    W = np.zeros((2, m + 1, 2, m + 1), dtype=np.result_type(z, q, float))
    for g in range(m + 1):
        W[0, g, 0, g] = (q ** (m + 1) - q ** (2 * g) * z) / den
        if g >= 1:
            W[0, g, 1, g - 1] = z * (q ** (2 * g) - 1.0) / den
        W[1, g, 1, g] = (q ** (2 * g - m + 1) - z) / den
        if g + 1 <= m:
            W[1, g, 0, g + 1] = (q ** (m + 1) - q ** (2 * g - m + 1)) / den
    return VertexWeights(l=1, m=m, z=z, q=q, table=W)


def _check_spectral_ladder(l: int, m: int, z, q) -> None:
    """Refuse capacities below 1 and a rung z q^(2s), s < l, of the
    spectral ladder that hits the pole q^(m+1) of the base weights."""
    if l < 1 or m < 1:
        raise ParameterError(f"capacities must be >= 1, got l={l}, m={m}")
    for step in range(l):
        if abs(q ** (m + 1) - z * q ** (2 * step)) < 1e-13:
            raise PoleInSpectralLadder(
                f"spectral point z q^{2 * step} hits the pole q^(m+1)"
            )


def fused_weights_recurrence(l: int, m: int, z: complex, q: float) -> VertexWeights:
    """Fused weights built inductively in the horizontal capacity.

    The capacity-l vertex splits into a capacity-(l-1) vertex at z and a
    capacity-1 vertex at z q^{2(l-1)}; the j1 incoming arrows are
    distributed over the two with the Q-binomial probabilities (Q = q^2)
    P(0) = C(l-1, j1)_Q / C(l, j1)_Q for the single line staying empty and
    P(1) = Q^{l-j1} C(l-1, j1-1)_Q / C(l, j1)_Q for it carrying an arrow;
    the intermediate vertical occupancy is fixed by conservation. With this
    splitting the output arrangement is exchangeable in the same Q-binomial
    sense, so the table is independent of how the j1 arrows are arranged.
    """
    _check_spectral_ladder(l, m, z, q)
    if l == 1:
        return higher_spin_base_weights(m, z, q)
    prev = fused_weights_recurrence(l - 1, m, z, q)
    one = higher_spin_base_weights(m, z * q ** (2 * (l - 1)), q)
    W = np.zeros((l + 1, m + 1, l + 1, m + 1), dtype=np.result_type(z, q, float))
    Q = q * q
    for j1 in range(l + 1):
        p0 = q_binomial(l - 1, j1, Q) / q_binomial(l, j1, Q)
        p1 = Q ** (l - j1) * q_binomial(l - 1, j1 - 1, Q) / q_binomial(l, j1, Q)
        for k1 in range(m + 1):
            for j2 in range(l + 1):
                for k2 in range(m + 1):
                    if j1 + k1 != j2 + k2:
                        continue
                    acc = 0.0
                    for a in (0, 1):
                        prob = p0 if a == 0 else p1
                        if prob == 0 or j1 - a < 0 or j1 - a > l - 1:
                            continue
                        for b in (0, 1):
                            if j2 - b < 0 or j2 - b > l - 1:
                                continue
                            mid = j1 - a + k1 - (j2 - b)
                            if mid < 0 or mid > m:
                                continue
                            acc += (
                                prob
                                * prev.table[j1 - a, k1, j2 - b, mid]
                                * one.table[a, mid, b, k2]
                            )
                    W[j1, k1, j2, k2] = acc
    return VertexWeights(l=l, m=m, z=z, q=q, table=W)


def _fused_entry_closed(j1, k1, j2, l, m, z, q):
    """Fused weight W[j1, k1, j2, j1 + k1 - j2] from the closed-form sum;
    see fused_weights_closed_form for the exact expression."""
    Q = q * q
    w = z * q ** (-(m + 1))
    nu = q ** (-2 * m)
    w_top = w * Q ** (l - j1)  # spectral argument seen by the passing block
    total = 0
    for p in range(0, min(j1, j2) + 1):
        e = j2 - p
        n = l - j1
        if e > n:
            continue
        h = k1 + j1 - p
        # absorption block: j1 - p arrows absorbed, p pass through
        t = (
            q_binomial(j1, p, Q)
            * Q ** (p * (p - 1) // 2)
            * q_pochhammer(Q**k1 * nu, Q, j1 - p)
        )
        for i in range(1, p + 1):
            t *= Q ** (k1 - p + i) * nu - w_top
        # emission block: e of the remaining l - j1 lines pick up an arrow
        t *= (
            q_binomial(n, e, Q)
            * (-w) ** e
            * Q ** (e * (e - 1) // 2)
            * q_pochhammer(Q ** (h - e + 1), Q, e)
            * q_pochhammer(Q**h * w, Q, n - e)
        )
        total += t
    return total / q_pochhammer(w, Q, l)


def fused_weights_closed_form(l: int, m: int, z: float, q: float) -> VertexWeights:
    """Exact fused weights from an explicit single-sum formula: the oracle
    of fused_weights_recurrence.

    With Q = q^2, w = z q^{-(m+1)} and nu = q^{-2m}, the entry is

        W[j1,k1,j2,k2] (w; Q)_l =
          sum_p  C(j1,p)_Q Q^{p(p-1)/2} (Q^{k1} nu; Q)_{j1-p}
                 prod_{i=1}^{p} (Q^{k1-p+i} nu - w Q^{l-j1})
               * C(l-j1,j2-p)_Q (-w)^{j2-p} Q^{(j2-p)(j2-p-1)/2}
                 (Q^{h-j2+p+1}; Q)_{j2-p} (Q^h w; Q)_{l-j1-j2+p}

    with h = k1 + j1 - p. The index p counts horizontal arrows passing
    straight through; j1 - p are absorbed and j2 - p are emitted. Each
    summand is a terminating product of Q-Pochhammer symbols, so the sum is
    a terminating basic hypergeometric (q-Racah-type) expression in Q.
    In floating point the alternating sum loses whole rows to cancellation,
    so it is evaluated at Fraction(z) and Fraction(q), which equal float
    input exactly, into a table of Fractions (about 1 s at l = m = 8).
    """
    from fractions import Fraction  # oracle only: keeps it off the CLI's import

    z, q = Fraction(z), Fraction(q)
    _check_spectral_ladder(l, m, z, q)
    W = np.zeros((l + 1, m + 1, l + 1, m + 1), dtype=object)
    for j1, k1, j2 in itertools.product(range(l + 1), range(m + 1), range(l + 1)):
        k2 = j1 + k1 - j2
        if 0 <= k2 <= m:
            W[j1, k1, j2, k2] = _fused_entry_closed(j1, k1, j2, l, m, z, q)
    return VertexWeights(l=l, m=m, z=z, q=q, table=W)


def gauge_transform(R: Operator, G_lm: Operator, G_ml: Operator) -> Operator:
    """S = P G_ml^{-1} P R G_lm with P the factor swap."""
    if len(R.site_dims) != 2:
        raise ParameterError("gauge transform needs a two-factor operator")
    d1, d2 = R.site_dims
    P = permutation_operator(d1, d2).entries
    Pback = permutation_operator(d2, d1).entries
    gd = np.diag(G_ml.entries)
    if np.min(np.abs(gd)) < 1e-13 or np.min(np.abs(np.diag(G_lm.entries))) < 1e-13:
        raise SingularGauge("gauge diagonal has a (near-)zero entry")
    Ginv = np.diag(1.0 / gd)
    mat = Pback @ Ginv @ P @ R.entries @ G_lm.entries
    return Operator(R.site_dims, mat)


@dataclass(frozen=True)
class LatticeConfig:
    """Sampled configuration: per-vertex arrow counts and metadata."""

    width: int
    height: int
    j_in: np.ndarray  # horizontal input of each vertex, shape (height, width)
    k_in: np.ndarray  # vertical input
    j_out: np.ndarray
    k_out: np.ndarray
    seed: int
    boundary_left: tuple
    boundary_bottom: tuple

    def conservation_violation(self) -> int:
        return int(
            np.max(np.abs(self.j_in + self.k_in - self.j_out - self.k_out))
        )

    def top_height_profile(self) -> np.ndarray:
        """Cumulative count of arrows leaving through the top edge."""
        return np.cumsum(self.k_out[-1, :])

    def to_csv(self) -> str:
        """JSON header line, then one row per vertex: x, y, j1, k1, j2, k2."""
        buf = io.StringIO()
        header = {
            "seed": self.seed,
            "width": self.width,
            "height": self.height,
            "boundary_left": list(self.boundary_left),
            "boundary_bottom": list(self.boundary_bottom),
        }
        buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
        buf.write("x,y,j1,k1,j2,k2\n")
        for y in range(self.height):
            for x in range(self.width):
                buf.write(
                    f"{x},{y},{self.j_in[y, x]},{self.k_in[y, x]},"
                    f"{self.j_out[y, x]},{self.k_out[y, x]}\n"
                )
        return buf.getvalue()


def sample_lattice(
    w: VertexWeights,
    width: int,
    height: int,
    boundary_left=None,
    boundary_bottom=None,
    seed: int = 0,
) -> LatticeConfig:
    """Sample vertex outputs in raster order (bottom row first, left to
    right). Each vertex's inputs are already determined when it is visited,
    so drawing its outputs from the conditional law given the inputs
    samples the correct joint distribution. Uses a counter-based generator
    so identical seeds give identical configurations.
    """
    if width < 1 or height < 1:
        raise InconsistentBoundary(
            f"lattice must be at least 1x1, got {width}x{height}"
        )
    if boundary_left is None:
        boundary_left = (0,) * height
    if boundary_bottom is None:
        boundary_bottom = (w.m,) * width
    boundary_left = tuple(int(v) for v in boundary_left)
    boundary_bottom = tuple(int(v) for v in boundary_bottom)
    if len(boundary_left) != height or len(boundary_bottom) != width:
        raise InconsistentBoundary("boundary lengths must match the lattice")
    if any(v < 0 or v > w.l for v in boundary_left):
        raise InconsistentBoundary(f"left boundary exceeds capacity l={w.l}")
    if any(v < 0 or v > w.m for v in boundary_bottom):
        raise InconsistentBoundary(f"bottom boundary exceeds capacity m={w.m}")

    # One row per input pair (j1, k1), over the outputs (j2, k2). A row is
    # checked, and normalised, when a vertex first draws from it.
    rows = real_entries(w.table).reshape(w.l + 1, w.m + 1, -1)
    laws = {}
    rng = np.random.Generator(np.random.Philox(seed))
    j_in = np.zeros((height, width), dtype=int)
    k_in = np.zeros((height, width), dtype=int)
    j_out = np.zeros((height, width), dtype=int)
    k_out = np.zeros((height, width), dtype=int)
    for y in range(height):
        for x in range(width):
            j1 = boundary_left[y] if x == 0 else j_out[y, x - 1]
            k1 = boundary_bottom[x] if y == 0 else k_out[y - 1, x]
            law = laws.get((j1, k1))
            if law is None:
                probs = rows[j1, k1]
                total = probs.sum()
                if abs(total - 1.0) > 1e-8 or probs.min() < 0:
                    raise InconsistentBoundary(
                        f"weight row ({j1},{k1}) sums to {total} or has a "
                        "negative entry; it is not a probability law"
                    )
                law = laws[j1, k1] = probs / total
            j2, k2 = divmod(rng.choice(law.size, p=law), w.m + 1)
            j_in[y, x], k_in[y, x] = j1, k1
            j_out[y, x], k_out[y, x] = j2, k2
    return LatticeConfig(
        width=width,
        height=height,
        j_in=j_in,
        k_in=k_in,
        j_out=j_out,
        k_out=k_out,
        seed=seed,
        boundary_left=boundary_left,
        boundary_bottom=boundary_bottom,
    )
