import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from integrable import models, mpa
from integrable.errors import ConvergenceError, ParameterError
from integrable.models import AsepParams
from integrable.tensor import StateSpaceTooLarge, stationary_distribution

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _params(L=4, q=0.5):
    return AsepParams(q=q, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=L)


def _certificate(mu, p):
    return float(np.abs(models.asep_left_action(mu.values, p, True)).sum())


def _tv(mu, p):
    pi = stationary_distribution(models.asep_generator(p, open_boundary=True))
    return 0.5 * float(np.abs(mu.values - pi.values).sum())


def _product_per_configuration(E, z):
    """Oracle: e_0 X_1 ... X_L z as one vector-matrix chain per
    configuration, site 1 the most significant bit of its index."""
    L = len(z) - 1
    D = np.eye(L + 1, k=1)
    weights = np.zeros(2**L)
    for config in range(2**L):
        vec = np.eye(1, L + 1)[0]
        for site in range(L):
            vec = vec @ (D if (config >> (L - 1 - site)) & 1 else E)
        weights[config] = vec @ z
    return weights


# Rates across the shock region ac >= 1, where z changes sign.
@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(1, 10),
    q=st.sampled_from([0.3, 0.5, 0.8]),
    alpha=st.floats(0.05, 1.2),
    beta=st.floats(0.05, 1.2),
    gamma=st.floats(0.0, 1.0),
    delta=st.floats(0.0, 1.0),
)
def test_split_contraction_matches_per_configuration_product(
    L, q, alpha, beta, gamma, delta
):
    try:
        E, z = mpa.krylov_pair(q, alpha, beta, gamma, delta, L)
    except ConvergenceError:
        reject()  # a zero pivot of z, at alpha beta = gamma delta q^j
    expected = _product_per_configuration(E, z)
    weights = mpa._contract(E, z)
    assert weights.shape == expected.shape
    # Both orders round signed sums, so they are compared on the scale of
    # the sums' terms: E >= 0 for q < 1, and z carries the signs.
    scale = mpa._contract(E, np.abs(z)).sum()
    assert np.abs(weights - expected).max() <= 1e-13 * scale


def test_state_space_cap_precedes_allocation():
    with pytest.raises(StateSpaceTooLarge):
        mpa.mpa_stationary_measure(_params(L=40))


# (q, alpha, beta, gamma, delta): a fan point, and a shock-region point
# (a = 13.4, c = 5.4) where z changes sign.
EXACT_RATES = {
    "fan": (F(1, 2), F(3, 5), F(2, 5), F(1, 10), F(1, 5)),
    "shock": (F(3, 5), F(1, 10), F(1, 20), F(1, 5), F(3, 10)),
}


def test_bulk_relation_telescopes():
    # DE - qED = (1 - q)(D + E) on every row w_j, j < L, in exact arithmetic.
    # Row L - 1 holds too: both sides drop the same w_(L+1) term.
    for L, rates in itertools.product((1, 2, 5, 9), EXACT_RATES.values()):
        E, _ = mpa.krylov_pair(*rates, L)
        q = rates[0]
        assert isinstance(E[0, 0], F)
        D = np.eye(L + 1, k=1, dtype=object)
        lhs = D @ E - q * (E @ D)
        rhs = (1 - q) * (D + E)
        assert (lhs[:L] == rhs[:L]).all()


def test_boundary_recurrence_annihilates_boundary_operator():
    for L, rates in itertools.product((1, 2, 5, 9), EXACT_RATES.values()):
        E, z = mpa.krylov_pair(*rates, L)
        q, alpha, beta, gamma, delta = rates
        D = np.eye(L + 1, k=1, dtype=object)
        # <W|(alpha E - gamma D) = (1 - q)<W|, with <W| = w_0
        assert list(alpha * E[0] - gamma * D[0]) == [1 - q] + [0] * L
        # (beta D - delta E)|V> = (1 - q)|V> on the rows z reaches, from z_0 = 1
        right = beta * (D @ z) - delta * (E @ z)
        assert list(right[:L]) == list((1 - q) * z[:L])
        assert z[0] == 1


def test_boundary_coefficients_need_positive_leading_rate():
    with pytest.raises(mpa.ZeroLeadingRate):
        mpa.mpa_stationary_measure(AsepParams(q=0.5, alpha=0.0, beta=0.4, L=3))
    # q > 1 is solved as its mirror, where delta / q is the injection rate
    with pytest.raises(mpa.ZeroLeadingRate):
        mpa.mpa_stationary_measure(AsepParams(q=2.0, alpha=0.6, beta=0.4,
                                              gamma=0.1, L=3))


def test_q_one_is_refused():
    with pytest.raises(ParameterError):
        mpa.mpa_stationary_measure(_params(q=1.0))


def _fraction_generator(L, q, alpha, beta, gamma, delta):
    """The open chain's rate matrix over Fractions, site 1 the most
    significant bit: 10 -> 01 at rate 1 and 01 -> 10 at q on each bond;
    site 1 fills at alpha and empties at gamma, site L fills at delta and
    empties at beta."""
    n = 1 << L
    G = [[F(0)] * n for _ in range(n)]

    def move(s, t, rate):
        G[s][t] += rate
        G[s][s] -= rate

    for s in range(n):
        for x in range(L - 1):
            left, right = 1 << (L - 1 - x), 1 << (L - 2 - x)
            if s & left and not s & right:
                move(s, s ^ left ^ right, F(1))
            if s & right and not s & left:
                move(s, s ^ left ^ right, q)
        first = 1 << (L - 1)
        move(s, s ^ first, gamma if s & first else alpha)
        move(s, s ^ 1, beta if s & 1 else delta)
    return G


def _fraction_null_vector(G):
    """pi with pi G = 0 and sum pi = 1, by Gauss-Jordan elimination over
    Fractions on G^T with its last equation replaced by the normalisation."""
    n = len(G)
    A = [[G[j][i] for j in range(n)] + [F(0)] for i in range(n)]
    A[-1] = [F(1)] * (n + 1)
    for c in range(n):
        pivot = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[pivot] = A[pivot], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [A[i][n] / A[i][i] for i in range(n)]


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rates", EXACT_RATES.values(), ids=EXACT_RATES.keys())
def test_exact_weights_are_the_generator_null_vector(L, rates):
    weights = mpa._contract(*mpa.krylov_pair(*rates, L))
    total = sum(weights)
    G = _fraction_generator(L, *rates)
    assert [w / total for w in weights] == _fraction_null_vector(G)
    # the oracle's generator is the package's
    p = AsepParams(*map(float, rates), L=L)
    dense = models.asep_generator(p, open_boundary=True).rates.toarray()
    assert np.allclose(np.array(G, dtype=float), dense, rtol=0, atol=1e-15)


@st.composite
def _chains(draw):
    """Open chains at L <= 10, q on both sides of 1, with the boundary rates
    of the survey in the roadmap; most draws lie in the shock region."""
    q = draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)))
    alpha, beta = (10 ** draw(st.floats(np.log10(0.05), np.log10(3.0))) for _ in "ab")
    gamma, delta = (draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in "gd")
    # the mirror of a q > 1 chain injects at delta / q
    assume(q < 1 or delta > 0)
    return AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                      L=draw(st.integers(1, 10)))


def _solved_pair(p):
    """E and z of the chain the law is computed from: p, or its mirror."""
    rates = (p.q, p.alpha, p.beta, p.gamma, p.delta)
    if p.q > 1:
        rates = (1 / p.q, *(r / p.q for r in rates[:0:-1]))
    return mpa.krylov_pair(*rates, p.L)


def _cancellation(p):
    """sum |C_j z_j| / |sum C_j z_j| over all weights C z of the chain the
    law is computed from, by the split contraction: C = e_0 X_1 ... X_L >= 0
    for q < 1, so the float weights are signed sums whose rounding this
    ratio amplifies."""
    E, z = _solved_pair(p)
    return mpa._contract(E, np.abs(z)).sum() / abs(mpa._contract(E, z).sum())


@settings(max_examples=100, deadline=None)
@given(p=_chains())
# The band LU's re-pin by a 64-step walk left a law at TV 1.0 here.
@example(p=AsepParams(L=10, q=18.0, alpha=1.0, beta=0.05623413251903491,
                      gamma=0.0, delta=1.0))
def test_krylov_law_matches_the_band_lu(p):
    try:
        mu = mpa.mpa_stationary_measure(p)
    except ConvergenceError:
        # a zero pivot, or a cancellation: no law to compare
        reject()
    # Within 1e-12 of the LU, up to the rounding of a sum of 2L + 2 terms.
    rounding = (2 * p.L + 2) * np.finfo(float).eps * _cancellation(p)
    assert _tv(mu, p) <= 1e-12 + rounding


@settings(max_examples=100, deadline=None)
@given(p=_chains())
def test_cancellation_is_the_ratio_over_all_weights(p):
    try:
        _, rounding = mpa.measure_with_rounding(p)
    except ConvergenceError:
        reject()
    kappa = mpa.cancellation(*_solved_pair(p))
    assert kappa >= 1 - 1e-12
    # the two forms round the signed sum |c z| differently, by up to its
    # own rounding bound
    eps_bound = (2 * p.L + 2) * np.finfo(float).eps * kappa
    assert abs(kappa - _cancellation(p)) <= (1e-12 + eps_bound) * kappa
    assert rounding == eps_bound


# Shock-region chains with gamma / alpha large and q near 1, where the float
# law is 3.1e-11 in TV from the band LU (itself 2.6e-16 from the exact
# Fraction law at the L = 8 point) while ||pi G||_1 ~ 4e-11 passes a 1e-10
# tolerance. The rounding bound does not pass it.
CANCELLATION_POINTS = {
    "L8": AsepParams(L=8, q=0.7283976664604349, alpha=0.031253827912071465,
                     beta=1.3625796959257777, gamma=4.580578458508393,
                     delta=0.3150901183048461),
    "L7": AsepParams(L=7, q=0.8097885652479058, alpha=0.0653804926238747,
                     beta=0.11523345663118026, gamma=0.8875736307980883,
                     delta=0.6706633464067916),
}


@pytest.mark.parametrize("p", CANCELLATION_POINTS.values(), ids=CANCELLATION_POINTS.keys())
def test_rounding_bound_flags_a_cancelled_law(p):
    mu, rounding = mpa.measure_with_rounding(p)
    assert _certificate(mu, p) <= 1e-10
    assert 1e-11 <= _tv(mu, p) <= rounding
    assert rounding > 1e-9


def test_rounding_bound_is_at_epsilon_level_on_the_pool():
    # z >= 0 at every reference point: no cancellation, kappa = 1.
    for point in json.loads(POOL.read_text())["mpa_points"]:
        for L in (4, 10, 14):
            _, rounding = mpa.measure_with_rounding(AsepParams(L=L, **point))
            assert rounding <= (2 * L + 2) * np.finfo(float).eps * (1 + 1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_measure_matches_null_space_oracle(L):
    # q = 2.5 is solved as its mirror image
    for q in (0.5, 2.5):
        p = _params(L=L, q=q)
        assert _tv(mpa.mpa_stationary_measure(p), p) <= 1e-12


def test_point_where_the_doubling_overflowed_certifies():
    # The truncated oscillator overflowed here at M = 256 and never settled.
    p = AsepParams(q=0.95, alpha=0.1, beta=0.1, gamma=0.9, delta=0.9, L=4)
    mu = mpa.mpa_stationary_measure(p)
    assert _certificate(mu, p) <= 1e-12
    assert _tv(mu, p) <= 1e-12


def test_mirror_certifies_where_the_band_lu_fails():
    # The band LU's law had ||pi G||_1 = 0.871 at this point when its re-pin
    # followed a 64-step walk.
    p = AsepParams(q=46.47848607733105, alpha=0.0027522646135283743,
                   beta=0.0052862984388549455, gamma=0.0,
                   delta=0.44790675088142945, L=10)
    assert _certificate(mpa.mpa_stationary_measure(p), p) <= 1e-16


def test_reference_pool_certifies_beyond_the_band_lu():
    # Point 1 of the pool: the truncated oscillator had a negative matrix
    # element at M = 16. At L = 16 there is no LU to compare with.
    points = json.loads(POOL.read_text())["mpa_points"]
    for point in points:
        p = AsepParams(L=16, **point)
        assert _certificate(mpa.mpa_stationary_measure(p), p) <= 1e-12


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
