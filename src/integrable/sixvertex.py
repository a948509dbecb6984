"""Stochastic six-vertex weights, an anti-diagonal lattice sampler over a
batch of seeds, and fusion of the spin-1/2 weights to higher-spin vertex
weights by a recurrence. The recurrence's oracle, an exact closed-form
single sum, lives in the test suite (tests/oracles.py).

A sampled batch is its draws (Lattices): one integer code per vertex that
names its input pair and its output, from which the arrows, the boundary
data, the CSV and the checks are all decoded.

Weight tables are indexed W[j1, k1, j2, k2]: j counts horizontal arrows
(j1 in from the left, j2 out to the right, both at most l) and k counts
vertical arrows (k1 in from the bottom, k2 out to the top, both at most m).
Arrow conservation j1 + k1 = j2 + k2 holds for every nonzero entry and
each input pair's outgoing weights sum to 1. The sampler checks every row
of its table once, before it draws, and refuses one that is not a
probability law.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, RateOutOfRange
from .qnum import q_ints
from .tensor import state_space


class PoleInSpectralLadder(ParameterError):
    pass


class InconsistentBoundary(ParameterError):
    pass


@dataclass(frozen=True)
class VertexWeights:
    """Stochastic vertex weight table on V_l (x) V_m, of shape
    (l+1, m+1, l+1, m+1). The entries are real: floats, or exact Fractions
    in an object array. A complex table is refused."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        if np.iscomplexobj(t):
            raise ParameterError("vertex weights must be real, got a complex table")
        t = np.asarray(t, dtype=np.result_type(t, float))
        if t.ndim != 4 or t.shape[:2] != t.shape[2:]:
            raise ParameterError(f"table shape {t.shape} is not (l+1, m+1, l+1, m+1)")
        object.__setattr__(self, "table", t)

    @property
    def l(self) -> int:
        return self.table.shape[0] - 1

    @property
    def m(self) -> int:
        return self.table.shape[1] - 1

    def conservation_violation(self) -> float:
        """Largest |entry| off the conservation law j1 + k1 = j2 + k2."""
        j1, k1, j2, k2 = np.indices(self.table.shape)
        off = self.table[j1 + k1 != j2 + k2]
        return float(np.max(np.abs(off), initial=0.0))

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


def six_vertex_weights(b1: float, b2: float) -> VertexWeights:
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
    return VertexWeights(W)


def higher_spin_base_weights(m: int, z: float, q: float) -> VertexWeights:
    """l=1 weights with vertical capacity m.

    With g arrows below and no arrow from the left: pass up with weight
    (q^{m+1} - q^{2g} z)/(q^{m+1} - z), emit right with z(q^{2g}-1)/(q^{m+1}-z).
    With one arrow from the left: pass right with (q^{2g-m+1}-z)/(q^{m+1}-z),
    absorb up with (q^{m+1}-q^{2g-m+1})/(q^{m+1}-z). Each pair sums to 1.
    The pole z = q^{m+1} is the first rung of the spectral ladder.
    """
    _check_spectral_ladder(1, m, z, q)
    den = q ** (m + 1) - z
    W = np.zeros((2, m + 1, 2, m + 1), dtype=np.result_type(z, q, float))
    for g in range(m + 1):
        W[0, g, 0, g] = (q ** (m + 1) - q ** (2 * g) * z) / den
        if g >= 1:
            W[0, g, 1, g - 1] = z * (q ** (2 * g) - 1.0) / den
        W[1, g, 1, g] = (q ** (2 * g - m + 1) - z) / den
        if g + 1 <= m:
            W[1, g, 0, g + 1] = (q ** (m + 1) - q ** (2 * g - m + 1)) / den
    return VertexWeights(W)


# Largest capacity l or m that fused weights are built for. Entries grow
# fast with the capacities (5.5e135 at l = m = 16, z = 0.25, q = 0.5, and
# past the float range before l = m = 32), so larger tables are refused
# before anything is allocated.
MAX_CAPACITY = 16


def _check_spectral_ladder(l: int, m: int, z, q) -> None:
    """Refuse capacities outside [1, MAX_CAPACITY], q = 0, and a rung
    z q^(2s), s < l, of the spectral ladder that hits the pole q^(m+1) of
    the base weights."""
    if not (1 <= l <= MAX_CAPACITY and 1 <= m <= MAX_CAPACITY):
        raise ParameterError(
            f"capacities must lie in [1, {MAX_CAPACITY}], got l={l}, m={m}"
        )
    if q == 0:
        raise ParameterError("q must be nonzero")
    for step in range(l):
        if abs(q ** (m + 1) - z * q ** (2 * step)) < 1e-13:
            raise PoleInSpectralLadder(
                f"spectral point z q^{2 * step} hits the pole q^(m+1)"
            )


def fused_weights_recurrence(l: int, m: int, z: float, q: float) -> VertexWeights:
    """Fused weights built inductively in the horizontal capacity.

    The capacity-c vertex splits into a capacity-(c-1) vertex at z and a
    capacity-1 vertex at z q^{2(c-1)}, which takes a in {0, 1} of the j1
    incoming arrows with the Q-binomial probability (Q = q^2)
        P(a | j1) = Q^{a(c-j1)} C(c-1, j1-a)_Q / C(c, j1)_Q.
    The output arrangement is then exchangeable, so the table does not
    depend on how the j1 arrows are arranged. Each step c = 2, ..., l is a
    contraction per (a, b), b the arrows the single line sends right: rows
    j1 - a of the capacity-(c-1) table, times P(a | j1), are contracted
    over the intermediate occupancy (conservation leaves one nonzero term)
    with one[a, :, b, :] into the outputs j2 = b, ..., b + c - 1.

    The ratio of Q-binomials reduces to one of Q-integers [n] = [n]_Q,
        P(0 | j1) = [c-j1] / [c],    P(1 | j1) = Q^{c-j1} [j1] / [c],
    all read from one table, qnum.q_ints(l, Q). These are sums of powers,
    which do not cancel near q = 1, so the rows sum to 1 to rounding there
    as at every other q.
    """
    _check_spectral_ladder(l, m, z, q)
    prev = higher_spin_base_weights(m, z, q).table
    Q = q * q
    qint = q_ints(l, Q)
    for c in range(2, l + 1):
        one = higher_spin_base_weights(m, z * q ** (2 * (c - 1)), q).table
        W = np.zeros((c + 1, m + 1, c + 1, m + 1), dtype=prev.dtype)
        for a in (0, 1):
            split = np.zeros((c + 1, m + 1, c, m + 1), dtype=prev.dtype)
            for j1 in range(a, a + c):
                prob = Q ** (c - j1) * qint[j1] if a else qint[c - j1]
                split[j1] = prob / qint[c] * prev[j1 - a]
            for b in (0, 1):
                W[:, :, b:b + c] += np.einsum("ikjm,mn->ikjn", split, one[a, :, b, :])
        prev = W
    return VertexWeights(prev)


# Written to the "sampler" key of the CSV header. The same seed gives the
# same bytes only under the same sampler.
SAMPLER_VERSION = "antidiagonal-philox-1"

# A draw ku < 2^53 of input pair r is searched for as the int64 key
# r (2^53 + 1) + ku. With n input pairs (l+1)(m+1) the keys reach
# n (2^53 + 1) - 1, which is below 2^63 only for n <= 1023.
_KEY_ROW = 2**53 + 1
MAX_INPUT_PAIRS = 1023


class Lattices(NamedTuple):
    """Lattices sampled in one sweep, one per seed. draws[s, y, x] is the
    code p = r n + o that vertex (y, x) of seeds[s] drew (see
    sample_lattice): its input pair r = j1 (m+1) + k1 and its output
    o = j2 (m+1) + k2, with n = (l+1)(m+1). The arrows, the boundary data
    and the shape are all read off the draws. It is a NamedTuple: a frozen
    dataclass costs about 1 ms of import time."""

    w: VertexWeights
    draws: np.ndarray  # int32, shape (len(seeds), height, width)
    seeds: tuple

    def arrows(self, draws=None) -> tuple:
        """j1, k1, j2, k2 of the given draw codes, by default of every vertex."""
        r, o = np.divmod(self.draws if draws is None else draws,
                         (self.w.l + 1) * (self.w.m + 1))
        return (*np.divmod(r, self.w.m + 1), *np.divmod(o, self.w.m + 1))

    def conservation_violation(self) -> int:
        """Largest |j1 + k1 - j2 - k2| over the vertices."""
        j1, k1, j2, k2 = self.arrows()
        return int(np.max(np.abs(j1 + k1 - j2 - k2)))

    def top_height_profile(self) -> np.ndarray:
        """Cumulative count of arrows leaving through the top edge, one row
        per seed."""
        return np.cumsum(self.arrows(self.draws[:, -1])[3], axis=1)

    def to_csv(self) -> str:
        """JSON header line, then one row per vertex in raster order:
        x, y, j1, k1, j2, k2. A batch of more than one seed raises
        ParameterError.

        Each vertex is one fixed-width byte record of three NUL-padded
        fields: "x,", "y," and "j1,k1,j2,k2\n", the last one per distinct
        draw code. The x field is filled by broadcasting the row of x
        tokens, the y field by broadcasting the column of y tokens and the
        last field by one gather of the draw codes' tokens. The distinct
        codes are found by counting the draws: they stay below n^2 <=
        MAX_INPUT_PAIRS^2 < 2^20, so the counts take at most 8 MB. The
        records lie in one bytearray behind the header, and
        bytearray.translate deletes the padding: no token holds a NUL. One
        ASCII decode then gives the text, so no Python object is made per
        vertex and the peak is about twice the text."""
        if len(self.seeds) != 1:
            raise ParameterError(
                f"to_csv writes one lattice, got a batch of {len(self.seeds)} seeds"
            )
        draws = self.draws[0]
        height, width = draws.shape
        header = {
            "seed": self.seeds[0],
            "width": width,
            "height": height,
            "boundary_left": self.arrows(draws[:, 0])[0].tolist(),
            "boundary_bottom": self.arrows(draws[0])[1].tolist(),
            "sampler": SAMPLER_VERSION,
        }
        head = ("# " + json.dumps(header, sort_keys=True) + "\n"
                + "x,y,j1,k1,j2,k2\n").encode("ascii")
        seen = np.bincount(draws.ravel()) > 0
        kinds = np.flatnonzero(seen)
        kind = (np.cumsum(seen) - 1)[draws]
        kind_tokens = np.array(
            [f"{j1},{k1},{j2},{k2}\n".encode() for j1, k1, j2, k2
             in zip(*(a.tolist() for a in self.arrows(kinds)))]
        )
        x_tokens = np.array([f"{x},".encode() for x in range(width)])
        y_tokens = np.array([f"{y},".encode() for y in range(height)])
        record = np.dtype([("x", x_tokens.dtype), ("y", y_tokens.dtype),
                           ("k", kind_tokens.dtype)])
        buf = bytearray(len(head) + height * width * record.itemsize)
        buf[:len(head)] = head
        rows = np.frombuffer(buf, dtype=record, offset=len(head))
        rows = rows.reshape(height, width)
        rows["x"] = x_tokens
        rows["y"] = y_tokens[:, np.newaxis]
        rows["k"] = kind_tokens[kind]
        del rows, kind  # rows holds buf: without it, del buf frees the records
        stripped = buf.translate(None, b"\0")
        del buf
        return stripped.decode("ascii")


def _philox_draws(seeds: np.ndarray, n: int) -> np.ndarray:
    """ku[i, t]: the t-th double that numpy.random.Generator draws with
    .random() from Philox(seeds[i]) is exactly ku[i, t] * 2^-53. numpy keeps the raw Philox stream stable,
    and Generator.random keeps the top 53 bits of raw output t. numpy.random
    is first loaded here, not when the package is imported."""
    raw = np.empty((len(seeds), n), dtype=np.uint64)
    for row, s in zip(raw, seeds.tolist()):
        row[:] = np.random.Philox(s).random_raw(n)
    raw >>= np.uint64(11)
    return raw.view(np.int64)


def _seed_array(seeds) -> np.ndarray:
    s = np.asarray(seeds)
    if (s.ndim != 1 or s.size == 0 or s.dtype.kind not in "iu"
            or (s.dtype.kind == "i" and s.min() < 0)):
        raise ParameterError(
            "seeds must be a non-empty sequence of integers in [0, 2^64)"
        )
    return s.astype(np.uint64)


# Most vertices sampled in one call, over all seeds: at a sweep peak of
# about 16 bytes per vertex (4 of them kept for the draws) this is about
# 270 MB, enough for four seeds at 2048^2. A sample6v call also writes its
# one lattice as CSV, whose writer peaks at about 36 bytes per vertex above
# the 4 kept: the call peaked at 192 MB RSS at 2048^2, which scales to about
# 0.65 GB at the cap, one seed at 4096^2.
MAX_VERTICES = 2**24


def _inverse_cdf_table(rows: np.ndarray) -> np.ndarray:
    """Integer thresholds: output o is drawn for th[o-1] <= ku < th[o],
    where u = ku 2^-53 is the draw. With c the cumulative rows, u >= c
    exactly when ku >= ceil(c 2^53). From each row's last positive entry
    on, and wherever c > 1, the threshold is 2^53, above every ku: so a
    uniform above a cumulative sum rounded below 1 still draws a possible
    output, and a zero-probability output is never drawn. The rows are
    probability laws, so no c is negative."""
    cdf = np.cumsum(rows, axis=1)
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
    never = (np.arange(rows.shape[1]) >= last[:, np.newaxis]) | ~(cdf <= 1)
    thresholds = np.where(never, 2**53, np.ceil(cdf * 2.0**53))
    return thresholds.astype(np.int64)


def sample_lattice(
    w: VertexWeights,
    width: int,
    height: int,
    boundary_left=None,
    boundary_bottom=None,
    seeds=(0,),
) -> Lattices:
    """Sample one lattice per seed in a single anti-diagonal sweep.

    A vertex's inputs are its left and lower neighbours' outputs, so every
    vertex on the anti-diagonal x + y = d is determined by diagonal d - 1
    and the whole diagonal, across all seeds, is drawn at once. Vertex
    (y, x) of seed s draws its output (j2, k2) by inverse CDF over the
    weight row r = j1 (m+1) + k1 of its input (j1, k1), with uniform
    y * width + x of numpy's own Philox stream for s. Its draw thus does
    not depend on the sweep order, and a seed's lattice does not depend
    on the other seeds in the batch.

    The draw is exact integer arithmetic. The uniform is ku 2^-53 for an
    integer ku, and each cumulative weight c becomes the integer threshold
    ceil(c 2^53), so u >= c exactly when ku >= the threshold. Row r's
    thresholds, offset by r (2^53 + 1), make one sorted key array, and a
    whole diagonal is drawn by one search: the number of keys at most
    r (2^53 + 1) + ku is p = r n_out + o, the input pair and the drawn
    output o = j2 (m+1) + k2 at once. Lookup tables on p give the next
    diagonal's inputs, and the p of every vertex are the Lattices' draws.

    More than MAX_VERTICES vertices over all seeds raise StateSpaceTooLarge
    and a table with more than MAX_INPUT_PAIRS input pairs raises
    ParameterError, both before anything is allocated. Every weight row is
    checked before the sweep: the first row, in input-pair order, that is
    not a probability law (a row sum off 1 by more than 1e-8, or a negative
    entry) raises InconsistentBoundary, whether or not a vertex reaches it.
    """
    if width < 1 or height < 1:
        raise InconsistentBoundary(
            f"lattice must be at least 1x1, got {width}x{height}"
        )
    seeds = _seed_array(seeds)
    state_space((len(seeds), width, height), MAX_VERTICES)
    n_in = (w.l + 1) * (w.m + 1)
    if n_in > MAX_INPUT_PAIRS:
        raise ParameterError(
            f"the sampler takes at most {MAX_INPUT_PAIRS} input pairs "
            f"(l+1)(m+1), got {n_in}"
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

    # One row per input pair r = j1 (m+1) + k1, over the outputs
    # o = j2 (m+1) + k2.
    rows = w.table.reshape(n_in, -1)
    totals = rows.sum(axis=1)
    bad = ~(np.abs(totals - 1.0) <= 1e-8) | ~(rows.min(axis=1) >= 0)  # NaN too
    if bad.any():
        row = int(np.argmax(bad))
        j1, k1 = divmod(row, w.m + 1)
        raise InconsistentBoundary(
            f"weight row ({j1},{k1}) sums to {totals[row]} or has a "
            "negative entry; it is not a probability law"
        )
    thresholds = _inverse_cdf_table(rows / totals[:, np.newaxis])
    keys = (thresholds + np.arange(n_in)[:, np.newaxis] * _KEY_ROW).ravel()
    # From p = r n_out + o: the outputs, and the inputs they give the right
    # and upper neighbours, scaled to the key of their row.
    j2, k2 = np.divmod(np.arange(keys.size) % n_in, w.m + 1)
    to_right, to_top = j2 * ((w.m + 1) * _KEY_ROW), k2 * _KEY_ROW

    # The wavefront: H[y] and V[y] are the scaled horizontal and vertical
    # inputs of row y's next vertex, one column per seed. Vertex (y, x) is
    # draw y (width - 1) + d of its diagonal d = x + y, so a diagonal is a
    # strided slice of the raster arrays. The sweep sees every array with
    # its seed axis last, so that a diagonal is one slice of the first axis.
    batch = len(seeds)
    ku = _philox_draws(seeds, width * height).T
    p_at = np.empty((batch, width * height), dtype=np.int32)  # p < 1023^2
    swept = p_at.T
    H = np.empty((height, batch), dtype=np.int64)
    V = np.empty((height + 1, batch), dtype=np.int64)
    H[:] = np.array(boundary_left)[:, np.newaxis] * ((w.m + 1) * _KEY_ROW)
    bottom = np.array(boundary_bottom) * _KEY_ROW
    step = max(width - 1, 1)
    for d in range(width + height - 1):
        y0, y1 = max(0, d - width + 1), min(d, height - 1) + 1
        if d < width:
            V[0] = bottom[d]
        key = H[y0:y1] + V[y0:y1]
        at = slice(y0 * (width - 1) + d, (y1 - 1) * (width - 1) + d + 1, step)
        key += ku[at]
        p = keys.searchsorted(key, side="right")
        swept[at] = p
        H[y0:y1] = to_right[p]
        V[y0 + 1:y1 + 1] = to_top[p]
    return Lattices(w, p_at.reshape(batch, height, width), tuple(seeds.tolist()))
