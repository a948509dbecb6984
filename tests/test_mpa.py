import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from integrable import models, mpa
from integrable.models import AsepParams
from integrable.tensor import StateSpaceTooLarge, stationary_distribution


def _params(L=4, q=0.5):
    return AsepParams(q=q, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=L)


def _product_per_configuration(p, M):
    """Oracle: <W|X_1 ... X_L|V> as one vector-matrix chain per
    configuration, site 1 the most significant bit of its index."""
    rep = mpa.q_oscillator(M, p.q)
    w_left = mpa.boundary_coefficients(p.q, p.alpha, p.gamma, M)
    v_right = mpa.boundary_coefficients(p.q, p.beta, p.delta, M)
    weights = np.zeros(2**p.L)
    for config in range(2**p.L):
        vec = w_left.copy()
        for site in range(p.L):
            tau = (config >> (p.L - 1 - site)) & 1
            vec = vec @ (rep.D if tau else rep.E)
        weights[config] = vec @ v_right
    return weights


# Rates drawn as in acceptance criterion 5.
@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 10),
    M=st.sampled_from([2, 3, 16, 64]),
    q=st.sampled_from([0.3, 0.5, 0.8]),
    alpha=st.floats(0.5, 1.2),
    beta=st.floats(0.5, 1.2),
    gamma=st.floats(0.05, 0.3),
    delta=st.floats(0.05, 0.3),
)
def test_split_contraction_matches_per_configuration_product(
    L, M, q, alpha, beta, gamma, delta
):
    p = AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    expected = _product_per_configuration(p, M)
    weights = mpa._matrix_element_measure(p, M)
    assert weights.shape == expected.shape
    # At M = 2, 3 some weights are negative, so the total is taken in l1.
    assert np.abs(weights - expected).max() <= 1e-13 * np.abs(expected).sum()


def test_state_space_cap_precedes_allocation():
    with pytest.raises(StateSpaceTooLarge):
        mpa.mpa_stationary_measure(_params(L=40))


def test_non_finite_weight_stops_the_doubling(monkeypatch):
    # Weights are finite up to M = 128 and overflow to inf at M = 256.
    p = AsepParams(q=0.95, alpha=0.1, beta=0.1, gamma=0.9, delta=0.9, L=4)
    contract = mpa._matrix_element_measure
    seen = []

    def counted(p, M):
        seen.append(M)
        return contract(p, M)

    monkeypatch.setattr(mpa, "_matrix_element_measure", counted)
    with pytest.raises(mpa.TruncationNotConverged, match="truncation 256"):
        with np.errstate(over="ignore"):
            mpa.mpa_stationary_measure(p)
    assert seen == [16, 32, 64, 128, 256]


def test_negative_weights_below_the_cap_double_the_truncation(monkeypatch):
    # Point 1 of perfbench/reference.json's pool: at L = 16 a matrix element
    # is negative at M = 16 (-0.0035), and M = 32 onward converges.
    p = AsepParams(q=0.6273, alpha=0.5545, beta=0.9018, gamma=0.0765,
                   delta=0.0117, L=16)
    contract = mpa._matrix_element_measure
    seen = []

    def counted(p, M):
        seen.append(M)
        return contract(p, M)

    monkeypatch.setattr(mpa, "_matrix_element_measure", counted)
    mu = mpa.mpa_stationary_measure(p)
    assert seen == [16, 32, 64]
    assert mu.values.min() >= 0 and mu.values.sum() == pytest.approx(1.0)
    G = models.asep_generator(p, open_boundary=True)
    assert np.abs(mu.values @ G.rates).sum() <= 1e-8


def test_negative_weights_at_the_cap_raise(monkeypatch):
    # The same point with the cap lowered to the truncation that is negative,
    # from the largest legal start: M = 8 is negative too (-87.7), so the
    # doubling reaches the cap and raises there.
    monkeypatch.setattr(mpa, "M_CAP", 16)
    p = AsepParams(q=0.6273, alpha=0.5545, beta=0.9018, gamma=0.0765,
                   delta=0.0117, L=16)
    contract = mpa._matrix_element_measure
    seen = []

    def counted(p, M):
        seen.append(M)
        return contract(p, M)

    monkeypatch.setattr(mpa, "_matrix_element_measure", counted)
    with pytest.raises(mpa.NegativeWeight, match="truncation 16"):
        mpa.mpa_stationary_measure(p, M=8)
    assert seen == [8, 16]


def test_q_oscillator_commutation():
    rep = mpa.q_oscillator(32, 0.5)
    assert rep.commutation_violation() <= 1e-12


def test_q_oscillator_rejects_bad_truncation():
    with pytest.raises(mpa.InvalidTruncation):
        mpa.q_oscillator(1, 0.5)
    with pytest.raises(mpa.InvalidTruncation):
        mpa.q_oscillator(16, 1.5)


def test_boundary_recurrence_annihilates_boundary_operator():
    checks = mpa.relation_checks(_params())
    assert checks["left_boundary"] <= 1e-10
    assert checks["right_boundary"] <= 1e-10


def test_bulk_relation_telescopes():
    checks = mpa.relation_checks(_params())
    assert checks["bulk"] <= 1e-12
    assert checks["adjointness"] == 0.0
    assert checks["commutation"] <= 1e-12


def test_boundary_coefficients_need_positive_leading_rate():
    with pytest.raises(mpa.ZeroLeadingRate):
        mpa.boundary_coefficients(0.5, 0.0, 0.1, 8)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_measure_matches_null_space_oracle(L):
    p = _params(L=L)
    mu = mpa.mpa_stationary_measure(p)
    pi = stationary_distribution(models.asep_generator(p, open_boundary=True))
    tv = 0.5 * float(np.abs(mu.values - pi.values).sum())
    assert tv <= 1e-10


def test_measure_normalized_and_positive():
    mu = mpa.mpa_stationary_measure(_params(L=3))
    assert mu.values.sum() == pytest.approx(1.0)
    assert mu.values.min() > 0


def test_site_order_convention():
    # strong injection at the left boundary favors an occupied first site
    p = AsepParams(q=0.5, alpha=1.2, beta=1.2, gamma=0.05, delta=0.05, L=3)
    mu = mpa.mpa_stationary_measure(p)
    # site 1 = most significant bit
    p_first = mu.values[4:].sum()
    p_last = mu.values[1::2].sum()
    assert p_first > p_last
