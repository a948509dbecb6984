import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from integrable import models, ybe
from integrable.tensor import permutation_operator


def _braided(R):
    """The smaller residual of the two presentations of R."""
    res = ybe.verify_braided_ybe(R)
    return min(res["residual"], res["r_check_residual"])


def test_permutation_and_identity_pass_braided_ybe():
    for R in (permutation_operator(2, 2), np.eye(4)):
        assert _braided(R) <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_one_parameter_families_pass(alpha):
    assert _braided(ybe.r_alpha_beta(alpha, 0.0)) <= 1e-10
    assert _braided(ybe.r_alpha_beta(1.0, alpha)) <= 1e-10


def test_generic_two_parameter_point_fails():
    assert _braided(ybe.r_alpha_beta(0.5, 0.5)) > 1e-3


def test_r_alpha_beta_rejects_bad_rates():
    with pytest.raises(ybe.RateOutOfRange):
        ybe.r_alpha_beta(1.2, 0.0)


def test_spectral_r_regular_and_stochastic():
    P = permutation_operator(2, 2)
    R, poles = ybe.asep_spectral_r(np.array([1.0, 0.2, 0.5, 0.8]), 0.4)
    assert not poles.any()
    assert np.max(np.abs(R[0] - P)) <= 1e-12
    assert np.max(np.abs(R.sum(axis=-1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_spectral_ybe_on_grid(q):
    r = functools.partial(ybe.asep_spectral_r, q=q)
    for z in (0.25, 0.55, 0.85):
        for w in (0.3, 0.6, 0.9):
            assert ybe.verify_spectral_ybe(r, z, w)["residual"] <= 1e-10


def test_spectral_pole_raises():
    # qz = 1 at z = 2: the family flags the pole, and the check refuses it
    R, poles = ybe.asep_spectral_r(np.array([2.0]), 0.5)
    assert poles.tolist() == [True] and not R.any()
    r = functools.partial(ybe.asep_spectral_r, q=0.5)
    with pytest.raises(ybe.EvaluationPole):
        ybe.verify_spectral_ybe(r, 2.0, 0.5)


def test_frt_hecke_quadratic():
    q = 0.7
    R = ybe.frt_r(q)
    assert ybe.verify_hecke_quadratic(R, q**-2, -1.0)["residual"] <= 1e-10
    assert ybe.verify_hecke_quadratic(R, q**-2, -2.0)["residual"] > 1e-10


def test_frt_satisfies_braided_ybe():
    assert _braided(ybe.frt_r(0.7)) <= 1e-10


def _reflection_k(q, a, c):
    return functools.partial(ybe.reflection_k, q=q, a=a, c=c)


# (a, c) of the one K family at each boundary: (alpha, gamma) = (0.6, 0.15)
# on the left, and (-delta, -beta) = (-0.2, -0.4) on the right.
BOUNDARIES = ((0.6, 0.15), (-0.2, -0.4))


def test_reflection_equation_both_sides():
    q = 0.5
    r = functools.partial(ybe.asep_spectral_r, q=q)
    kl, kr = (_reflection_k(q, a, c) for a, c in BOUNDARIES)
    for z, w in [(0.3, 0.55), (0.7, 0.32), (0.9, 0.77)]:
        assert ybe.verify_reflection_equation(r, kl, z, w)["residual"] <= 1e-10
        assert ybe.verify_reflection_equation(r, kr, z, w)["residual"] <= 1e-10


def test_reflection_k_regular_at_one():
    # K(1) = Id, and at every point each row sums to 1
    for a, c in BOUNDARIES:
        K, poles = ybe.reflection_k(np.array([1.0, 0.3, 0.7, 1.6, 3.0]), 0.5, a, c)
        assert not poles.any()
        assert np.max(np.abs(K[0] - np.eye(2))) <= 1e-12
        assert np.max(np.abs(K.sum(axis=-1) - 1.0)) <= 1e-14


def test_reflection_pole_surfaces_as_evaluation_pole():
    r = functools.partial(ybe.asep_spectral_r, q=0.5)
    kl = _reflection_k(0.5, 0.6, 0.15)
    with pytest.raises(ybe.EvaluationPole):
        # z/w = 2 makes q z/w = 1, a pole of the R factor
        ybe.verify_reflection_equation(r, kl, 0.7, 0.35)


def test_markov_structure_report_fits_rho():
    q = 0.4
    rep = ybe.markov_structure_report(
        functools.partial(ybe.asep_spectral_r, q=q), models.asep_bulk_w(q)
    )
    assert max(rep["residuals"].values()) <= 1e-10, rep
    assert rep["rho_fit"] == pytest.approx(1.0 / (q - 1.0), rel=1e-12)


# The per-point verifiers that the batched ones replaced, kept as their
# oracle: the scalar formulas of R and K, numpy.kron placements and one
# 2-D product chain per point.

def _r_point(z, q):
    """R(z) by the scalar formula, or None at a pole."""
    if abs(q * z - 1.0) < 1e-13:
        return None
    d = q * z - 1.0
    return np.array([[1, 0, 0, 0],
                     [0, q * (z - 1) / d, (q - 1) / d, 0],
                     [0, (q - 1) * z / d, (z - 1) / d, 0],
                     [0, 0, 0, 1]])


def _k_point(x, q, a, c):
    """K(x) by the scalar formula, or None at a pole."""
    den = x * x * c + q * x + x * a - x * c - x - a
    if abs(den) < 1e-13:
        return None
    return np.array([
        [(-x * a + x * c + q + a - c - 1) * x / den, a * (x * x - 1) / den],
        [(x * x - 1) * c / den, (q * x + x * a - x * c - x - a + c) / den]])


_I2 = np.eye(2)
_SWAP = permutation_operator(2, 2)


def _spectral_oracle(q, zs, ws):
    """max over the grid, z slowest, or the EvaluationPole message of the
    first pole."""
    worst = 0.0
    S23 = np.kron(_I2, _SWAP)
    for z in zs:
        for w in ws:
            Rz, Rzw, Rw = _r_point(z, q), _r_point(z * w, q), _r_point(w, q)
            if Rz is None or Rzw is None or Rw is None:
                return f"family undefined at one of z={z}, zw={z*w}, w={w}"
            R12, R23 = np.kron(Rz, _I2), np.kron(_I2, Rw)
            R13 = S23 @ np.kron(Rzw, _I2) @ S23
            lhs = R12 @ R13 @ R23
            rhs = R23 @ R13 @ R12
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _reflection_oracle(q, a, c, zs, ws):
    """(max over the points checked, mask of the skipped points, largest
    relative |row sum - 1| of K(z) and K(w) over the points checked)."""
    worst, rows = 0.0, 0.0
    skipped = np.zeros((len(zs), len(ws)), dtype=bool)
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            mats = (None,) if w == 0 else (
                _r_point(z / w, q), _r_point(z * w, q),
                _k_point(z, q, a, c), _k_point(w, q, a, c))
            if any(m is None for m in mats):
                skipped[i, j] = True
                continue
            Ra, Rb, Kz, Kw = mats
            for K in (Kz, Kw):
                for row in K:
                    rows = max(rows, abs(row.sum() - 1) / max(1, np.abs(row).max()))
            K1, K2 = np.kron(_I2, Kz), np.kron(Kw, _I2)
            lhs = Ra @ K1 @ (_SWAP @ Rb @ _SWAP) @ K2
            rhs = K2 @ Rb @ K1 @ (_SWAP @ Ra @ _SWAP)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst, skipped, rows


@st.composite
def _grids(draw):
    """q and two grids of 1-6 points that sometimes hold 0, 1/q, and
    points z with z/w = 1/q or zw = 1/q for a w of the other grid."""
    q = draw(st.floats(0.05, 0.95))
    point = st.floats(0.05, 2.0)
    ws = draw(st.lists(point, min_size=1, max_size=5))
    ws = draw(st.permutations(ws + draw(st.lists(st.sampled_from([0.0, 1 / q]),
                                                  max_size=1))))
    w = ws[0]
    special = st.sampled_from([0.0, 1 / q, w / q, 1 / (q * w)] if w else [0.0, 1 / q])
    zs = draw(st.lists(st.one_of(point, special), min_size=1, max_size=6))
    return q, zs, ws


_RATE = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@settings(max_examples=200, deadline=None)
@given(grids=_grids(), rates=st.tuples(_RATE, _RATE, _RATE, _RATE))
@example(grids=(0.5, [0.0, 0.5], [0.0, 0.5]), rates=(0.0, 0.5, 0.1, 0.0))
@example(grids=(0.5, [0.7], [0.35]), rates=(0.6, 0.4, 0.15, 0.2))
def test_batched_verifiers_equal_the_per_point_loop(grids, rates):
    q, zs, ws = grids
    r = functools.partial(ybe.asep_spectral_r, q=q)
    expected = _spectral_oracle(q, zs, ws)
    if isinstance(expected, str):
        with pytest.raises(ybe.EvaluationPole) as exc:
            ybe.verify_spectral_ybe(r, zs, ws)
        assert str(exc.value) == expected
    else:
        assert ybe.verify_spectral_ybe(r, zs, ws)["residual"] == expected
    alpha, gamma, beta, delta = rates
    for a, c in ((alpha, gamma), (-delta, -beta)):
        k = functools.partial(ybe.reflection_k, q=q, a=a, c=c)
        worst, skipped, rows = _reflection_oracle(q, a, c, zs, ws)
        if skipped.all():
            with pytest.raises(ybe.EvaluationPole):
                ybe.verify_reflection_equation(r, k, zs, ws)
            continue
        res = ybe.verify_reflection_equation(r, k, zs, ws)
        assert res["residual"] == worst
        assert np.array_equal(res["skipped"], skipped)
        assert res["points_checked"] == np.count_nonzero(~skipped)
        assert res["k_row_sums"] == rows


def test_family_stacks_match_their_scalar_values():
    # the stack's poles are zero matrices; every other matrix is the
    # scalar formula's
    q = 0.5
    xs = np.array([0.3, 2.0, 0.0, 1.7])
    R, poles = ybe.asep_spectral_r(xs, q)
    assert R.shape == (4, 4, 4) and poles.tolist() == [False, True, False, False]
    K, kpoles = ybe.reflection_k(xs, q, 0.0, 0.2)
    assert K.shape == (4, 2, 2) and kpoles.tolist() == [False, False, True, False]
    for x, Rx, Kx, pole, kpole in zip(xs, R, K, poles, kpoles):
        assert np.array_equal(Rx, 0 * Rx if pole else _r_point(x, q))
        assert np.array_equal(Kx, 0 * Kx if kpole else _k_point(x, q, 0.0, 0.2))


def test_empty_grid_is_refused():
    r = functools.partial(ybe.asep_spectral_r, q=0.5)
    k = functools.partial(ybe.reflection_k, q=0.5, a=0.6, c=0.15)
    with pytest.raises(ybe.ParameterError):
        ybe.verify_spectral_ybe(r, [], [0.3])
    with pytest.raises(ybe.ParameterError):
        ybe.verify_reflection_equation(r, k, [0.3], [])


@pytest.mark.parametrize("block", [1, 2, 5, 7])
def test_grids_checked_in_blocks_equal_one_block(monkeypatch, block):
    # w = 0 is skipped by the reflection check, R(z/w) has a pole at
    # (z, w) = (1, 0.5), and z = -1 gives a large residual; in the second
    # grid qz = 1 first at (z, w) = (0.3, 2), at the third point
    q = 0.5
    r = functools.partial(ybe.asep_spectral_r, q=q)
    k = functools.partial(ybe.reflection_k, q=q, a=0.6, c=0.15)
    zs, ws = [0.3, 1.0, -1.0, 0.7], [0.5, 0.0, 0.9]
    poles = [0.3, 0.7, 2.0, 0.2]
    whole = (ybe.verify_spectral_ybe(r, zs, zs),
             ybe.verify_reflection_equation(r, k, zs, ws))
    with pytest.raises(ybe.EvaluationPole) as exc:
        ybe.verify_spectral_ybe(r, poles, poles)
    message = str(exc.value)
    assert message == "family undefined at one of z=0.3, zw=0.6, w=2.0"
    monkeypatch.setattr(ybe, "MAX_GRID_POINTS", block)
    spectral = ybe.verify_spectral_ybe(r, zs, zs)
    reflection = ybe.verify_reflection_equation(r, k, zs, ws)
    assert spectral == whole[0]
    assert reflection["residual"] == whole[1]["residual"]
    assert reflection["points_checked"] == whole[1]["points_checked"]
    assert np.array_equal(reflection["skipped"], whole[1]["skipped"])
    with pytest.raises(ybe.EvaluationPole) as exc:
        ybe.verify_spectral_ybe(r, poles, poles)
    assert str(exc.value) == message
