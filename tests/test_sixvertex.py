from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from integrable import sixvertex
from integrable.sixvertex import (
    InconsistentBoundary,
    PoleInSpectralLadder,
    RateOutOfRange,
)


def test_six_vertex_table_shape_and_stochasticity():
    w = sixvertex.six_vertex_weights(0.3, 0.8)
    assert w.table.shape == (2, 2, 2, 2)
    assert w.conservation_violation() == 0.0
    assert w.row_sum_violation() <= 1e-12


def test_six_vertex_rejects_bad_rates():
    with pytest.raises(RateOutOfRange):
        sixvertex.six_vertex_weights(1.4, 0.2)


def test_asep_weights_match_six_vertex_parametrization():
    z, q = 0.3, 0.5
    w = sixvertex.asep_weights(z, q)
    b1 = q * (z - 1) / (q * z - 1)
    b2 = (z - 1) / (q * z - 1)
    assert w.table[0, 1, 0, 1].real == pytest.approx(b1)
    assert w.table[1, 0, 1, 0].real == pytest.approx(b2)


def test_higher_spin_base_reduces_to_six_vertex():
    # capacity-1 vertical line: the table takes the six-vertex form with
    # b-parameters evaluated at inverted spectral variable and squared
    # asymmetry (outside [0,1] at generic z, so compared entrywise)
    z, q = 0.3, 0.5
    base = sixvertex.higher_spin_base_weights(1, z, q)
    zz, qq = 1.0 / z, q * q
    b1 = qq * (zz - 1) / (qq * zz - 1)
    b2 = (zz - 1) / (qq * zz - 1)
    assert base.table[0, 1, 0, 1].real == pytest.approx(b1)
    assert base.table[0, 1, 1, 0].real == pytest.approx(1 - b1)
    assert base.table[1, 0, 1, 0].real == pytest.approx(b2)
    assert base.table[1, 0, 0, 1].real == pytest.approx(1 - b2)


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
    exact = sixvertex.fused_weights_closed_form(l, m, z, q)
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
        sixvertex.fused_weights_closed_form(2, 1, 0.25, 0.5)


def test_gauge_transform_with_identity_gauges_swaps():
    from integrable.tensor import identity

    w = sixvertex.fused_weights_recurrence(2, 1, 0.3, 0.5)
    R = w.as_operator()
    G1 = identity((3, 2))
    G2 = identity((2, 3))
    out = sixvertex.gauge_transform(R, G1, G2)
    # P P R = R when both gauges are trivial and dims agree after the swap
    assert out.entries.shape == R.entries.shape


def test_sampler_conserves_arrows_and_respects_boundary():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(
        w, 8, 6, boundary_left=(1,) * 6, boundary_bottom=(0,) * 8, seed=5
    )
    assert c.conservation_violation() == 0
    assert tuple(c.j_in[:, 0]) == (1,) * 6
    assert tuple(c.k_in[0, :]) == (0,) * 8


def test_sampler_seed_reproducibility():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    a = sixvertex.sample_lattice(w, 10, 10, seed=42)
    b = sixvertex.sample_lattice(w, 10, 10, seed=42)
    assert np.array_equal(a.j_out, b.j_out)
    assert np.array_equal(a.k_out, b.k_out)
    c = sixvertex.sample_lattice(w, 10, 10, seed=43)
    assert not (
        np.array_equal(a.j_out, c.j_out) and np.array_equal(a.k_out, c.k_out)
    )


def test_sampler_rejects_inconsistent_boundary():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    with pytest.raises(InconsistentBoundary):
        sixvertex.sample_lattice(w, 4, 4, boundary_left=(1, 1), seed=0)
    with pytest.raises(InconsistentBoundary):
        sixvertex.sample_lattice(
            w, 4, 4, boundary_left=(2, 0, 0, 0), boundary_bottom=(0,) * 4
        )


def test_height_profile_monotone():
    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(
        w, 8, 8, boundary_left=(1,) * 8, boundary_bottom=(0,) * 8, seed=1
    )
    h = c.top_height_profile()
    assert np.all(np.diff(h) >= 0)


def test_csv_round_trip_header():
    import json

    w = sixvertex.six_vertex_weights(0.4, 0.7)
    c = sixvertex.sample_lattice(w, 3, 2, seed=9)
    text = c.to_csv()
    header = json.loads(text.splitlines()[0][2:])
    assert header["seed"] == 9
    assert header["width"] == 3 and header["height"] == 2
