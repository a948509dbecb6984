import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from integrable import sixvertex, ybe
from integrable.errors import ParameterError
from integrable.sixvertex import (
    InconsistentBoundary,
    PoleInSpectralLadder,
    RateOutOfRange,
)
from integrable.tensor import StateSpaceTooLarge


def test_six_vertex_table_shape_and_stochasticity():
    w = sixvertex.six_vertex_weights(0.3, 0.8)
    assert w.table.shape == (2, 2, 2, 2)
    assert w.conservation_violation() == 0.0
    assert w.row_sum_violation() <= 1e-12


def test_six_vertex_rejects_bad_rates():
    with pytest.raises(RateOutOfRange):
        sixvertex.six_vertex_weights(1.4, 0.2)


def test_asep_weights_match_six_vertex_parametrization():
    # the exclusion process's spectral R-matrix is the six-vertex table at
    # b1 = q(z-1)/(qz-1), b2 = (z-1)/(qz-1)
    for z, q in [(0.3, 0.5), (0.05, 0.9), (0.8, 0.2)]:
        b1 = q * (z - 1) / (q * z - 1)
        b2 = (z - 1) / (q * z - 1)
        R = ybe.asep_spectral_r(np.array([z]), q)[0][0]
        W = sixvertex.six_vertex_weights(b1, b2).table.reshape(4, -1)
        assert np.max(np.abs(R - W)) <= 1e-15


def test_higher_spin_base_reduces_to_six_vertex():
    # capacity-1 vertical line: the table takes the six-vertex form with
    # b-parameters evaluated at inverted spectral variable and squared
    # asymmetry (outside [0,1] at generic z, so compared entrywise)
    z, q = 0.3, 0.5
    base = sixvertex.higher_spin_base_weights(1, z, q)
    zz, qq = 1.0 / z, q * q
    b1 = qq * (zz - 1) / (qq * zz - 1)
    b2 = (zz - 1) / (qq * zz - 1)
    assert base.table[0, 1, 0, 1] == pytest.approx(b1)
    assert base.table[0, 1, 1, 0] == pytest.approx(1 - b1)
    assert base.table[1, 0, 1, 0] == pytest.approx(b2)
    assert base.table[1, 0, 0, 1] == pytest.approx(1 - b2)


@pytest.mark.parametrize("m, q", [(1, 0.5), (2, 0.5), (3, 0.7), (1, 2.0)])
def test_higher_spin_base_pole_is_the_first_rung_of_the_ladder(m, q):
    with pytest.raises(PoleInSpectralLadder, match=r"z q\^0 hits the pole"):
        sixvertex.higher_spin_base_weights(m, q ** (m + 1), q)


@given(
    m=st.integers(1, 4),
    z=st.floats(0.05, 0.45),
    q=st.floats(0.3, 0.7),
)
@settings(max_examples=40)
def test_higher_spin_base_is_stochastic(m, z, q):
    if abs(q ** (m + 1) - z) < 1e-6:
        return
    w = sixvertex.higher_spin_base_weights(m, z, q)
    assert w.row_sum_violation() <= 1e-9


def _assert_recurrence_matches_exact_oracle(l, m, z, q):
    exact = oracles.fused_weights_closed_form(l, m, z, q)
    assert all(isinstance(v, (Fraction, int)) for v in exact.table.flat)
    assert exact.row_sum_violation() == 0
    assert exact.conservation_violation() == 0
    rec = sixvertex.fused_weights_recurrence(l, m, z, q)
    assert rec.row_deviation(exact) <= 1e-13


@pytest.mark.parametrize("lm", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_fusion_recurrence_matches_closed_form(lm):
    _assert_recurrence_matches_exact_oracle(*lm, 0.3, 0.5)


# Points where the closed form in float64 was off by 8.7e-12 to 1.1e-2
# (entries reach ~1e34 with both signs).
@pytest.mark.parametrize("lmzq", [(8, 8, 0.1, 0.2), (8, 8, 0.05, 0.1),
                                  (8, 8, 0.25, 0.5)])
def test_fusion_recurrence_matches_exact_oracle_at_large_capacity(lmzq):
    _assert_recurrence_matches_exact_oracle(*lmzq)


def _loop_recurrence(l, m, z, q):
    """The entry-by-entry loop that the contraction in
    fused_weights_recurrence replaced, kept as its bit-level oracle."""
    prev = sixvertex.higher_spin_base_weights(m, z, q).table
    Q = q * q
    for c in range(2, l + 1):
        one = sixvertex.higher_spin_base_weights(m, z * q ** (2 * (c - 1)), q).table
        W = np.zeros((c + 1, m + 1, c + 1, m + 1), dtype=np.result_type(z, q, float))
        # Q-integers [n] = 1 + Q + ... + Q^(n-1); the Q-binomial ratios are
        # C(c-1, j1)/C(c, j1) = [c-j1]/[c], C(c-1, j1-1)/C(c, j1) = [j1]/[c]
        qint = [sum(Q**i for i in range(n)) for n in range(c + 1)]
        for j1 in range(c + 1):
            p0 = qint[c - j1] / qint[c]
            p1 = Q ** (c - j1) * qint[j1] / qint[c]
            for k1 in range(m + 1):
                for j2 in range(c + 1):
                    for k2 in range(m + 1):
                        if j1 + k1 != j2 + k2:
                            continue
                        acc = 0.0
                        for a in (0, 1):
                            prob = p0 if a == 0 else p1
                            if prob == 0 or j1 - a < 0 or j1 - a > c - 1:
                                continue
                            for b in (0, 1):
                                if j2 - b < 0 or j2 - b > c - 1:
                                    continue
                                mid = j1 - a + k1 - (j2 - b)
                                if mid < 0 or mid > m:
                                    continue
                                acc += (
                                    prob
                                    * prev[j1 - a, k1, j2 - b, mid]
                                    * one[a, mid, b, k2]
                                )
                        W[j1, k1, j2, k2] = acc
        prev = W
    return prev


# (3, 5) is the one shape with l < m
@pytest.mark.parametrize("lmzq", [(4, 4, 0.1, 0.5), (8, 8, 0.25, 0.5),
                                  (16, 16, 0.25, 0.5), (2, 2, 0.2, 1.5),
                                  (5, 2, -0.5, 0.5), (3, 5, 0.3, 0.7),
                                  (6, 3, 0.4, -0.8)])
def test_fusion_contraction_equals_the_loop(lmzq):
    table = sixvertex.fused_weights_recurrence(*lmzq).table
    expected = _loop_recurrence(*lmzq)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)


def test_vertex_weights_read_capacities_from_the_table():
    w = sixvertex.VertexWeights(np.zeros((4, 3, 4, 3)))
    assert (w.l, w.m) == (3, 2)
    for shape in [(4, 3, 3, 4), (4, 3, 4), (2, 2, 2, 2, 1)]:
        with pytest.raises(ParameterError, match="table shape"):
            sixvertex.VertexWeights(np.zeros(shape))


def test_vertex_weights_are_real():
    assert sixvertex.VertexWeights(np.ones((2, 2, 2, 2), int)).table.dtype == float
    exact = sixvertex.VertexWeights(np.full((2, 2, 2, 2), Fraction(1, 3), object))
    assert all(isinstance(v, Fraction) for v in exact.table.flat)
    for table in (np.zeros((2, 2, 2, 2), complex), np.full((2, 1, 2, 1), 0.5 + 0j)):
        with pytest.raises(ParameterError, match="must be real"):
            sixvertex.VertexWeights(table)
    # a complex spectral point gives a complex table: refused the same way
    with pytest.raises(ParameterError, match="must be real"):
        sixvertex.fused_weights_recurrence(3, 5, 0.3 + 0.2j, 0.7)


def test_fusion_l1_reproduces_base_weights():
    m, z, q = 2, 0.3, 0.5
    fused = sixvertex.fused_weights_recurrence(1, m, z, q)
    base = sixvertex.higher_spin_base_weights(m, z, q)
    assert np.max(np.abs(fused.table - base.table)) <= 1e-12


def test_fusion_pole_detection_in_both_constructions():
    # z = q^(m+1) sits on the spectral ladder for l >= 1
    with pytest.raises(PoleInSpectralLadder):
        sixvertex.fused_weights_recurrence(2, 1, 0.25, 0.5)
    with pytest.raises(PoleInSpectralLadder):
        oracles.fused_weights_closed_form(2, 1, 0.25, 0.5)


def test_fusion_refuses_capacities_beyond_the_cap():
    cap = sixvertex.MAX_CAPACITY
    for l, m in ((cap + 1, 1), (1, cap + 1), (1100, 1), (0, 1)):
        with pytest.raises(ParameterError, match="capacities must lie in"):
            sixvertex.fused_weights_recurrence(l, m, 0.3, 0.5)
    assert sixvertex.fused_weights_recurrence(cap, 1, 0.3, 0.5).l == cap


def test_sampler_conserves_arrows_and_respects_boundary():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(
        w, 8, 6, boundary_left=(1,) * 6, boundary_bottom=(0,) * 8, seeds=(5,)
    )
    assert c.draws.shape == (1, 6, 8) and c.draws.dtype == np.int32
    assert c.conservation_violation() == 0
    j_in, k_in, _, _ = c.arrows()
    assert tuple(j_in[0, :, 0]) == (1,) * 6
    assert tuple(k_in[0, 0, :]) == (0,) * 8


def test_sampler_seed_reproducibility():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    a = sixvertex.sample_lattice(w, 10, 10, seeds=(42,))
    b = sixvertex.sample_lattice(w, 10, 10, seeds=(42,))
    assert np.array_equal(a.draws, b.draws)
    c = sixvertex.sample_lattice(w, 10, 10, seeds=(43,))
    assert not np.array_equal(a.draws, c.draws)


def test_sampler_rejects_inconsistent_boundary():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    with pytest.raises(InconsistentBoundary):
        sixvertex.sample_lattice(w, 4, 4, boundary_left=(1, 1), seeds=(0,))
    with pytest.raises(InconsistentBoundary):
        sixvertex.sample_lattice(
            w, 4, 4, boundary_left=(2, 0, 0, 0), boundary_bottom=(0,) * 4
        )


def test_height_profile_monotone():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(
        w, 8, 8, boundary_left=(1,) * 8, boundary_bottom=(0,) * 8, seeds=(1,)
    )
    h = c.top_height_profile()
    assert h.shape == (1, 8)
    assert np.all(np.diff(h) >= 0)
    assert np.array_equal(h[0], np.cumsum(c.arrows()[3][0, -1]))


def test_csv_round_trip_header():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(w, 3, 2, seeds=(9,))
    text = c.to_csv()
    header = json.loads(text.splitlines()[0][2:])
    assert header["seed"] == 9
    assert header["width"] == 3 and header["height"] == 2
    # the default boundary: no arrow from the left, m from the bottom
    assert header["boundary_left"] == [0, 0]
    assert header["boundary_bottom"] == [1, 1, 1]


def test_csv_refuses_a_batch_of_more_than_one_seed():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    with pytest.raises(ParameterError, match="a batch of 2 seeds"):
        sixvertex.sample_lattice(w, 3, 2, seeds=(9, 10)).to_csv()


def _reference_csv(seed, left, bottom, arrays):
    """The per-vertex f-string writer that to_csv replaced, kept as its
    byte oracle, on the arrows of the raster loop."""
    height, width = arrays["j_in"].shape
    header = {
        "seed": seed,
        "width": width,
        "height": height,
        "boundary_left": list(left),
        "boundary_bottom": list(bottom),
        "sampler": sixvertex.SAMPLER_VERSION,
    }
    buf = io.StringIO()
    buf.write("# " + json.dumps(header, sort_keys=True) + "\n")
    buf.write("x,y,j1,k1,j2,k2\n")
    for y in range(height):
        for x in range(width):
            buf.write(
                f"{x},{y},{arrays['j_in'][y, x]},{arrays['k_in'][y, x]},"
                f"{arrays['j_out'][y, x]},{arrays['k_out'][y, x]}\n"
            )
    return buf.getvalue()


def _csv_and_reference(w, width, height, left, bottom, seed):
    text = sixvertex.sample_lattice(w, width, height, left, bottom,
                                    seeds=(seed,)).to_csv()
    arrays = _raster_loop(w, width, height, left, bottom, seed)
    return text, _reference_csv(seed, left, bottom, arrays)


# 1001 x 3 puts x tokens of 1 to 4 digits in one row.
@pytest.mark.parametrize("size", [(3, 2), (128, 128), (256, 128), (1, 1), (1, 7),
                                  (7, 1), (1001, 3)])
def test_csv_writer_matches_per_vertex_oracle(size):
    width, height = size
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    text, reference = _csv_and_reference(w, width, height, (1,) * height,
                                         (0,) * width, 21)
    assert text == reference


def test_csv_writer_matches_oracle_on_a_fused_lattice():
    w = sixvertex.fused_weights_recurrence(2, 2, 0.2, 1.5)
    text, reference = _csv_and_reference(w, 9, 6, (w.l,) * 6, (0,) * 9, 5)
    assert text == reference


def test_csv_writer_peak_is_at_most_four_times_the_csv():
    # A writer that makes a Python object per vertex peaks at about 7 times
    # the CSV's length; fixed-width byte records at about 2.
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(w, 512, 512, boundary_left=(1,) * 512,
                                 boundary_bottom=(0,) * 512, seeds=(3,))
    tracemalloc.start()
    try:
        text = c.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def _spread_table(l, m):
    """A conserving stochastic table on capacities (l, m): each input pair
    sends its arrows to every conserving output with equal weight."""
    table = np.zeros((l + 1, m + 1, l + 1, m + 1))
    for j1, k1, j2 in np.ndindex(l + 1, m + 1, l + 1):
        if 0 <= j1 + k1 - j2 <= m:
            table[j1, k1, j2, j1 + k1 - j2] = 1.0
    return sixvertex.VertexWeights(table / table.sum(axis=(2, 3), keepdims=True))


def test_csv_writer_matches_oracle_on_multi_digit_counts():
    # vertical capacity 40: counts of two digits, and l != m, so that the
    # draw codes' split by m + 1 is told apart from one by l + 1
    w = _spread_table(1, 40)
    rng = np.random.default_rng(4)
    left = tuple(rng.integers(0, 2, size=5).tolist())
    bottom = tuple(rng.integers(0, 41, size=7).tolist())
    text, reference = _csv_and_reference(w, 7, 5, left, bottom, 2**40)
    assert text == reference
    counts = [int(v) for line in text.splitlines()[2:] for v in line.split(",")[2:]]
    assert max(counts) >= 10 and min(counts) == 0


# The sampler's integer draws, scaled by 2^-53, are Generator.random's.
@pytest.mark.parametrize("n", [1, 4, 37, 16384])
def test_uniforms_are_numpys_philox_stream(n):
    seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
    ku = sixvertex._philox_draws(np.array(seeds, dtype=np.uint64), n)
    assert ku.dtype == np.int64 and 0 <= ku.min() and ku.max() < 2**53
    u = ku * 2.0**-53
    for s, row in zip(seeds, u):
        expected = np.random.Generator(np.random.Philox(s)).random(n)
        assert np.array_equal(row, expected), s


def test_vertex_cap_counts_every_seed():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    assert 4 * 2048 * 2048 <= sixvertex.MAX_VERTICES < 5 * 2048 * 2048
    with pytest.raises(StateSpaceTooLarge):
        sixvertex.sample_lattice(w, 2048, 2048, seeds=range(5))


@pytest.mark.parametrize("bad_seeds", [[-1], [2**64], [], [1.5], 3])
def test_seeds_outside_uint64_are_refused(bad_seeds):
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    with pytest.raises(ParameterError):
        sixvertex.sample_lattice(w, 2, 2, seeds=bad_seeds)


@pytest.mark.parametrize("weights", [
    sixvertex.six_vertex_weights(0.4, 0.7),
    sixvertex.fused_weights_recurrence(2, 2, 0.2, 1.5),
])
def test_batch_member_equals_single_seed_call(weights):
    # member i of a batch is the one-seed batch of seeds[i], in its draws,
    # its arrows, its height profile and its CSV bytes
    left, bottom = (weights.l,) * 6, (0,) * 9
    seeds = (11, 3, 2**40, 11)
    batch = sixvertex.sample_lattice(weights, 9, 6, left, bottom, seeds=seeds)
    assert batch.seeds == seeds and batch.draws.shape == (4, 6, 9)
    profiles = batch.top_height_profile()
    for i, seed in enumerate(seeds):
        one = sixvertex.sample_lattice(weights, 9, 6, left, bottom, seeds=(seed,))
        assert np.array_equal(batch.draws[i], one.draws[0])
        for member, single in zip(batch.arrows(), one.arrows()):
            assert np.array_equal(member[i], single[0])
        assert np.array_equal(profiles[i], one.top_height_profile()[0])
        member = sixvertex.Lattices(weights, batch.draws[i:i + 1], seeds[i:i + 1])
        assert member.to_csv() == one.to_csv()


def _exact_law(w, width, height, left, bottom):
    """{outputs (j2, k2) of every vertex in raster order: probability},
    enumerated vertex by vertex from the weight table."""
    law = {(): 1.0}
    for y in range(height):
        for x in range(width):
            grown = {}
            for outs, p in law.items():
                j1 = left[y] if x == 0 else outs[-1][0]
                k1 = bottom[x] if y == 0 else outs[-width][1]
                for j2 in range(w.l + 1):
                    for k2 in range(w.m + 1):
                        weight = float(w.table[j1, k1, j2, k2])
                        if weight > 0:
                            grown[outs + ((j2, k2),)] = p * weight
            law = grown
    return law


# Exact joint laws of small lattices against 20,000 seeds at once. Cells
# with expected count below 5 are pooled; the bound is the chi-square
# upper 0.1% point.
@pytest.mark.parametrize("weights, width, height, left, bottom", [
    (sixvertex.six_vertex_weights(0.35, 0.7), 1, 1, (1,), (1,)),
    (sixvertex.six_vertex_weights(0.35, 0.7), 1, 1, (0,), (1,)),
    (sixvertex.six_vertex_weights(0.35, 0.7), 2, 2, (1, 1), (0, 0)),
    (sixvertex.six_vertex_weights(0.35, 0.7), 2, 2, (1, 0), (1, 0)),
    (sixvertex.fused_weights_recurrence(2, 2, 0.2, 1.5), 1, 1, (1,), (2,)),
    (sixvertex.fused_weights_recurrence(2, 2, 0.2, 1.5), 2, 2, (2, 1), (1, 0)),
], ids=["6v-1x1-full", "6v-1x1-up", "6v-2x2-step", "6v-2x2-mixed",
        "spin2-1x1", "spin2-2x2"])
def test_sampler_matches_exact_law(weights, width, height, left, bottom):
    from scipy.stats import chi2

    law = _exact_law(weights, width, height, left, bottom)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    n = 20_000
    batch = sixvertex.sample_lattice(weights, width, height, left, bottom,
                                     seeds=range(1000, 1000 + n))
    _, _, j_out, k_out = batch.arrows()
    outs = np.stack([j_out.reshape(n, -1), k_out.reshape(n, -1)], axis=-1)
    counts = {}
    for row in outs.tolist():
        key = tuple(map(tuple, row))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law), "an impossible configuration was drawn"
    expected = np.array([n * p for p in law.values()])
    observed = np.array([counts.get(key, 0) for key in law])
    small = expected < 5
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    if len(expected) == 1:  # a deterministic law: every draw must match
        assert observed[0] == n
        return
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat <= chi2.ppf(0.999, len(expected) - 1), stat


def _six_vertex_with_bad_row():
    """The six-vertex table with b2 = 0 (a lone horizontal arrow turns up)
    and row (1, 1) summing to 2."""
    table = sixvertex.six_vertex_weights(0.4, 0.0).table.copy()
    table[1, 1, 0, 0] = 1.0
    return sixvertex.VertexWeights(table)


def test_unreached_bad_row_is_refused():
    # no arrows enter, so every vertex would read row (0, 0); the table is
    # refused before the sweep all the same
    with pytest.raises(InconsistentBoundary,
                       match=r"weight row \(1,1\) sums to 2.0 or has a negative "
                             "entry; it is not a probability law"):
        sixvertex.sample_lattice(_six_vertex_with_bad_row(), 6, 5,
                                 boundary_left=(0,) * 5, boundary_bottom=(0,) * 6)


def test_first_bad_row_is_named():
    # rows (0, 1) and (1, 0) are both bad; (0, 1) comes first
    table = sixvertex.six_vertex_weights(0.4, 0.7).table.copy()
    table[1, 0, 1, 0] = -0.5
    table[0, 1, 0, 1] = 0.5
    with pytest.raises(InconsistentBoundary, match=r"weight row \(0,1\) sums to 1.1"):
        sixvertex.sample_lattice(sixvertex.VertexWeights(table), 2, 2)


def test_reached_bad_row_raises():
    # vertex (0, 0) turns its arrow up, so vertex (1, 0) reads row (1, 1)
    left, bottom = (1, 1, 0), (0, 0, 0, 0)
    with pytest.raises(InconsistentBoundary,
                       match=r"weight row \(1,1\) sums to 2.0 or has a negative "
                             "entry; it is not a probability law"):
        sixvertex.sample_lattice(_six_vertex_with_bad_row(), 4, 3, left, bottom,
                                 seeds=range(5))


def test_inverse_cdf_never_draws_a_zero_probability_output(monkeypatch):
    rows = np.zeros((3, 11))
    rows[0, :10] = 0.1  # sums to 1 - 2^-53 in float64; last output impossible
    rows[1, 1::2] = 0.2  # impossible outputs between possible ones
    rows[2, 10] = 1.0
    assert np.cumsum(rows[0])[-1] < 1
    thresholds = sixvertex._inverse_cdf_table(rows)
    assert thresholds.dtype == np.int64
    for ku in (0, 2**51, 2**52, 2**53 - 1):
        drawn = (ku >= thresholds).sum(axis=1)
        assert np.all(rows[np.arange(3), drawn] > 0), ku
    # the largest uniform draws each row's last possible output
    assert ((2**53 - 1) >= thresholds).sum(axis=1).tolist() == [9, 9, 10]
    # u = ku 2^-53 >= c exactly when ku >= the threshold of c, also with
    # ku on the threshold and one either side of it
    for c in (0.0, 2**-53, 1 / 3, 0.5, 1 - 2**-53, 1.0, 1 + 2**-52, np.inf):
        th = int(sixvertex._inverse_cdf_table(np.array([[c, 1.0]]))[0, 0])
        for ku in (th - 1, th, th + 1):
            if 0 <= ku < 2**53:
                assert (ku >= th) == (ku * 2.0**-53 >= c), (c, ku)
    # Through the sweep: row (0, 1) of the six-vertex table draws "up" for
    # u < b1 and "right" for u >= b1. Vertex (0, 0) draws just below the
    # threshold and sends its arrow up; vertex (1, 0) draws on it and turns
    # the arrow right.
    for b1 in (2**-53, 1 / 3, 0.5, 1 - 2**-53):
        th = int(np.ceil(b1 * 2.0**53))
        assert (th - 1) * 2.0**-53 < b1 <= th * 2.0**-53
        monkeypatch.setattr(sixvertex, "_philox_draws",
                            lambda seeds, n: np.array([[th - 1, th]]))
        c = sixvertex.sample_lattice(sixvertex.six_vertex_weights(b1, 0.5), 1, 2,
                                     boundary_left=(0, 0), boundary_bottom=(1,))
        _, _, j_out, k_out = c.arrows()
        assert k_out[0, :, 0].tolist() == [1, 0], b1
        assert j_out[0, :, 0].tolist() == [0, 1], b1


def _raster_loop(w, width, height, left, bottom, seed):
    """The sampler's law vertex by vertex in raster order, from float
    cumulative rows: vertex (y, x) draws o = #{cdf[r] <= u} with uniform
    y * width + x of Generator(Philox(seed)).random(). Kept as the oracle of
    the anti-diagonal sweep."""
    n = (w.l + 1) * (w.m + 1)
    rows = np.real(w.table).reshape(n, n)
    rows = rows / rows.sum(axis=1, keepdims=True)
    cdf = np.cumsum(rows, axis=1)
    for r in range(n):
        last = max(np.flatnonzero(rows[r] > 0))
        cdf[r, last:] = np.inf
    u = np.random.Generator(np.random.Philox(seed)).random(width * height)
    arrays = {name: np.zeros((height, width), dtype=int)
              for name in ("j_in", "k_in", "j_out", "k_out")}
    for y in range(height):
        for x in range(width):
            j1 = left[y] if x == 0 else arrays["j_out"][y, x - 1]
            k1 = bottom[x] if y == 0 else arrays["k_out"][y - 1, x]
            o = int((u[y * width + x] >= cdf[j1 * (w.m + 1) + k1]).sum())
            arrays["j_in"][y, x], arrays["k_in"][y, x] = j1, k1
            arrays["j_out"][y, x], arrays["k_out"][y, x] = divmod(o, w.m + 1)
    return arrays


@pytest.mark.parametrize("weights", [
    sixvertex.six_vertex_weights(0.4, 0.7),
    sixvertex.six_vertex_weights(0.35, 0.9),
    sixvertex.fused_weights_recurrence(2, 2, 0.2, 1.5),
    sixvertex.higher_spin_base_weights(3, 0.2, 1.5),
], ids=["6v", "6v-b", "spin2", "l1-m3"])
@pytest.mark.parametrize("size", [(1, 1), (9, 6), (4, 13), (1, 7), (7, 1)])
@pytest.mark.parametrize("boundary", ["default", "empty", "step"])
def test_sweep_equals_the_raster_loop(weights, size, boundary):
    width, height = size
    left, bottom = {"default": ((0,) * height, (weights.m,) * width),
                    "empty": ((0,) * height, (0,) * width),
                    "step": ((weights.l,) * height, (0,) * width)}[boundary]
    seeds = (0, 17, 2**40 + 3)
    arg = (None, None) if boundary == "default" else (left, bottom)
    batch = sixvertex.sample_lattice(weights, width, height, *arg, seeds=seeds)
    for i, seed in enumerate(seeds):
        expected = _raster_loop(weights, width, height, left, bottom, seed)
        for (name, want), got in zip(expected.items(), batch.arrows()):
            assert np.array_equal(got[i], want), (seed, name)


def test_tables_past_the_key_range_are_refused():
    # 1024 input pairs: the int64 keys r (2^53 + 1) + ku would overflow
    with pytest.raises(ParameterError, match="at most 1023 input pairs"):
        sixvertex.sample_lattice(sixvertex.VertexWeights(np.zeros((32, 32, 32, 32))),
                                 2, 2)
    # 1023 input pairs draw from the last row, whose keys reach 1023 * 2^53;
    # every row is a law, each sending its arrows straight on
    table = np.zeros((31, 33, 31, 33))
    j, k = np.indices((31, 33))
    table[j, k, j, k] = 1.0
    c = sixvertex.sample_lattice(sixvertex.VertexWeights(table), 2, 2,
                                 boundary_left=(30, 30), boundary_bottom=(32, 32))
    _, _, j_out, k_out = c.arrows()
    assert (j_out == 30).all() and (k_out == 32).all()
