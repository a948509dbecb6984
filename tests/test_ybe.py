import functools

import numpy as np
import pytest

from integrable import models, ybe
from integrable.tensor import identity, permutation_operator


def _braided(R):
    """The smaller residual of the two presentations of R."""
    res = ybe.verify_braided_ybe(R)
    return min(res["residual"], res["r_check_residual"])


def test_permutation_and_identity_pass_braided_ybe():
    for R in (permutation_operator(2, 2), identity((2, 2))):
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
    P = permutation_operator(2, 2).entries
    assert np.max(np.abs(ybe.asep_spectral_r(1.0, 0.4).entries - P)) <= 1e-12
    for z in (0.2, 0.5, 0.8):
        R = ybe.asep_spectral_r(z, 0.4).entries
        assert np.max(np.abs(R.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("q", [0.3, 0.8])
def test_spectral_ybe_on_grid(q):
    r = functools.partial(ybe.asep_spectral_r, q=q)
    for z in (0.25, 0.55, 0.85):
        for w in (0.3, 0.6, 0.9):
            assert ybe.verify_spectral_ybe(r, z, w)["residual"] <= 1e-10


def test_spectral_pole_raises():
    with pytest.raises(ybe.PoleAtQZEqualsOne):
        ybe.asep_spectral_r(2.0, 0.5)


def test_frt_hecke_quadratic():
    q = 0.7
    R = ybe.frt_r(q)
    assert ybe.verify_hecke_quadratic(R, q**-2, -1.0)["residual"] <= 1e-10
    assert ybe.verify_hecke_quadratic(R, q**-2, -2.0)["residual"] > 1e-10


def test_frt_satisfies_braided_ybe():
    assert _braided(ybe.frt_r(0.7)) <= 1e-10


def _reflection_k(q, a, c, side):
    return functools.partial(ybe.reflection_k, q=q, a=a, c=c, side=side)


def test_reflection_equation_both_sides():
    q = 0.5
    r = functools.partial(ybe.asep_spectral_r, q=q)
    kl = _reflection_k(q, 0.6, 0.15, "left")
    kr = _reflection_k(q, 0.4, 0.2, "right")
    for z, w in [(0.3, 0.55), (0.7, 0.32), (0.9, 0.77)]:
        assert ybe.verify_reflection_equation(r, kl, z, w)["residual"] <= 1e-10
        assert ybe.verify_reflection_equation(r, kr, z, w)["residual"] <= 1e-10


def test_reflection_k_regular_at_one():
    for side, a, c in (("left", 0.6, 0.15), ("right", 0.4, 0.2)):
        K = ybe.reflection_k(1.0, 0.5, a, c, side).entries
        assert np.max(np.abs(K - np.eye(2))) <= 1e-12


def test_reflection_pole_surfaces_as_evaluation_pole():
    r = functools.partial(ybe.asep_spectral_r, q=0.5)
    kl = _reflection_k(0.5, 0.6, 0.15, "left")
    with pytest.raises(ybe.EvaluationPole):
        # z/w = 2 makes q z/w = 1, a pole of the R factor
        ybe.verify_reflection_equation(r, kl, 0.7, 0.35)


def test_markov_structure_report_fits_rho():
    q = 0.4
    rep = ybe.markov_structure_report(
        functools.partial(ybe.asep_spectral_r, q=q), models.asep_bulk_w(q)
    )
    assert max(rep["residuals"].values()) <= 1e-8, rep
    assert rep["rho_fit"] == pytest.approx(1.0 / (q - 1.0), abs=1e-6)
