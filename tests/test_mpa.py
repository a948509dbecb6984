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
from integrable.tensor import StateSpaceTooLarge

import oracles

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _params(L=4, q=0.5):
    return AsepParams(q=q, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=L)


def _certificate(mu, p):
    """||pi G||_1 of a ProbVector or an array."""
    pi = getattr(mu, "values", mu)
    return float(np.abs(models.asep_left_action(pi, p, True)).sum())


def _tv(mu, p):
    return 0.5 * float(np.abs(mu.values - oracles.open_band_law(p).values).sum())


def _image(p, name):
    """The chain and the read-back of p's image `name`."""
    return next((chain, read) for image, chain, read in mpa.images(p) if image == name)


def _image_law(p, name):
    """p's law from the float matrix product of its image `name`."""
    chain, read = _image(p, name)
    weights = mpa._contract(*mpa.krylov_pair(*chain, p.L))
    return read(weights / weights.sum())


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
    E, z = mpa.krylov_pair(q, alpha, beta, gamma, delta, L)
    # the oracle's float products too must stay in range
    assume(mpa._in_range(E, z))
    expected = _product_per_configuration(E, z)
    weights = mpa._contract(E, z)
    assert weights.shape == expected.shape
    # Both orders round signed sums, so they are compared on the scale of
    # the sums' terms: E >= 0, and z carries the signs.
    scale = mpa._contract(E, np.abs(z)).sum()
    assert np.abs(weights - expected).max() <= 1e-13 * scale


def test_state_space_cap_precedes_allocation():
    with pytest.raises(StateSpaceTooLarge):
        mpa.mpa_stationary_measure(_params(L=40))


# (q, alpha, beta, gamma, delta): a fan point, a shock-region point
# (a = 13.4, c = 5.4) where z changes sign, a point at q = 1, and points
# with alpha beta = gamma delta q^j, where pivot j of z is zero: j = 0,
# and j = 2 with q on both sides of 1.
EXACT_RATES = {
    "fan": (F(1, 2), F(3, 5), F(2, 5), F(1, 10), F(1, 5)),
    "shock": (F(3, 5), F(1, 10), F(1, 20), F(1, 5), F(3, 10)),
    "q-one": (F(1), F(3, 5), F(2, 5), F(1, 10), F(1, 5)),
    "pivot-0": (F(1, 2), F(1), F(1), F(1), F(1)),
    "pivot-2": (F(1, 2), F(3, 5), F(1, 12), F(2), F(1, 10)),
    "pivot-2-q-above-one": (F(3), F(3, 5), F(3, 4), F(1, 2), F(1, 10)),
}


def test_bulk_relation_telescopes():
    # DE - qED = D + E on every row w_j, j < L, in exact arithmetic.
    # Row L - 1 holds too: both sides drop the same w_(L+1) term.
    for L, rates in itertools.product((1, 2, 5, 9), EXACT_RATES.values()):
        E, _ = mpa.krylov_pair(*rates, L)
        q = rates[0]
        assert isinstance(E[0, 0], F)
        D = np.eye(L + 1, k=1, dtype=object)
        lhs = D @ E - q * (E @ D)
        rhs = D + E
        assert (lhs[:L] == rhs[:L]).all()


def test_boundary_recurrence_annihilates_boundary_operator():
    for L, rates in itertools.product((1, 2, 5, 9), EXACT_RATES.values()):
        E, z = mpa.krylov_pair(*rates, L)
        q, alpha, beta, gamma, delta = rates
        D = np.eye(L + 1, k=1, dtype=object)
        # <W|(alpha E - gamma D) = <W|, with <W| = w_0
        assert list(alpha * E[0] - gamma * D[0]) == [1] + [0] * L
        # (beta D - delta E)|V> = |V> on the rows z reaches; z restarts
        # from z_(j+1) = 1 after a zero pivot j, else starts from z_0 = 1
        right = beta * (D @ z) - delta * (E @ z)
        assert list(right[:L]) == list(z[:L])
        pivots = [j for j in range(L) if beta * alpha == delta * gamma * q**j]
        start = pivots[-1] + 1 if pivots else 0
        assert list(z[:start + 1]) == [0] * start + [1]


def test_boundary_coefficients_need_positive_leading_rate():
    # An image is tried only where its leading rate, its alpha, is positive:
    # at alpha = 0 the first is the mirror, with delta / q, and at
    # alpha = delta = 0 the particle-hole image, with gamma / q.
    for rates, image in [({"beta": 0.4, "gamma": 0.1, "delta": 0.2}, "mirror"),
                         ({"beta": 0.4, "gamma": 0.1}, "particle-hole"),
                         ({"beta": 0.4}, "both")]:
        p = AsepParams(q=0.5, L=3, **rates)
        mu, _, name = mpa.measure_with_rounding(p)
        assert name == image
        assert _image(p, name)[0][1] > 0
        assert _tv(mu, p) <= 1e-14
    # no boundary rate: no image to try, and no single law
    with pytest.raises(ParameterError):
        mpa.mpa_stationary_measure(AsepParams(q=0.5, L=3))


def test_q_one_is_solved():
    # DE - ED = D + E: the symmetric chain needs no other normalisation
    for L in (1, 4, 8):
        p = _params(L=L, q=1.0)
        mu, rounding, image = mpa.measure_with_rounding(p)
        assert image == "identity"
        assert _tv(mu, p) <= 1e-14
        assert rounding == (2 * L + 2) * np.finfo(float).eps


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
    # the oracle's generator is the one the band LU solves
    p = AsepParams(*map(float, rates), L=L)
    dense = oracles.asep_generator(p, open_boundary=True).rates.toarray()
    assert np.allclose(np.array(G, dtype=float), dense, rtol=0, atol=1e-15)


LOG_RATE = st.floats(np.log10(0.05), np.log10(3.0)).map(lambda x: 10**x)


@st.composite
def _surveyed_chains(draw):
    """Open chains at L <= 10, q on both sides of 1 and q = 1, with the
    boundary rates of the survey in the roadmap, each of which may be 0;
    most draws lie in the shock region."""
    q = draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0), st.just(1.0)))
    alpha, beta = (draw(st.one_of(st.just(0.0), LOG_RATE)) for _ in "ab")
    gamma, delta = (draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in "gd")
    return AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                      L=draw(st.integers(1, 10)))


@st.composite
def _zero_pivot_chains(draw):
    """Open chains at L <= 10 with alpha beta = gamma delta q^j for some
    j < L, in powers of two, so that pivot j of z is exactly zero."""
    L = draw(st.integers(1, 10))
    q, alpha, gamma, delta = (2.0 ** draw(st.integers(-2, 2)) for _ in "qagd")
    beta = gamma * delta * q ** draw(st.integers(0, L - 1)) / alpha
    return AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)


_chains = st.one_of(_surveyed_chains(), _zero_pivot_chains())


def _solved_pair(p):
    """E and z of the image p's law is contracted in."""
    chain, _ = _image(p, mpa.measure_with_rounding(p)[2])
    return mpa.krylov_pair(*chain, p.L)


def _cancellation(p):
    """sum |C_j z_j| / |sum C_j z_j| over all weights C z of the image the
    law is contracted in, by the split contraction: C = e_0 X_1 ... X_L >= 0,
    so the float weights are signed sums whose rounding this ratio
    amplifies. The two contractions share their scale where z >= 0 or
    where the plain contraction is in range."""
    E, z = _solved_pair(p)
    assert (z >= 0).all() or mpa._in_range(E, z)
    return mpa._contract(E, np.abs(z)).sum() / abs(mpa._contract(E, z).sum())


def _has_boundary_rate(p):
    return bool(p.alpha or p.beta or p.gamma or p.delta)


@settings(max_examples=100, deadline=None)
@given(p=_chains)
# The band LU's re-pin by a 64-step walk left a law at TV 1.0 here.
@example(p=AsepParams(L=10, q=18.0, alpha=1.0, beta=0.05623413251903491,
                      gamma=0.0, delta=1.0))
# The band LU's laws are 2.7e-8 and 7.7e-9 from the exact ones here, with
# ||pi G||_1 at 4.3e-16 and 2.8e-18.
@example(p=AsepParams(L=11, q=91.934024521971, alpha=0.009456302815915514,
                      beta=0.002785857908207739))
@example(p=AsepParams(L=11, q=0.010558913830906722, gamma=0.005728088611445672,
                      delta=0.07188791713730672))
def test_krylov_law_matches_the_band_lu(p):
    if not _has_boundary_rate(p):
        with pytest.raises(ParameterError):
            mpa.mpa_stationary_measure(p)
        return
    try:
        mu = mpa.mpa_stationary_measure(p)
    except ConvergenceError:
        reject()  # a cancellation: no law to compare
    # Within 1e-12 of the LU, up to the rounding of a sum of 2L + 2 terms.
    # The band LU has no accuracy bound of its own: where it misses, the
    # exact law decides, which its oracle checks as the generator's exact
    # null vector.
    bound = 1e-12 + (2 * p.L + 2) * np.finfo(float).eps * _cancellation(p)
    if _tv(mu, p) > bound:
        assert 0.5 * np.abs(mu.values - oracles.exact_open_law(p)).sum() <= bound


@settings(max_examples=100, deadline=None)
@given(p=_chains)
def test_cancellation_is_the_ratio_over_all_weights(p):
    assume(_has_boundary_rate(p))
    try:
        _, rounding, _ = mpa.measure_with_rounding(p)
    except ConvergenceError:
        reject()
    kappa = mpa.cancellation(*_solved_pair(p))
    assert kappa >= 1 - 1e-12
    # the two forms round the signed sum |c z| differently, by up to its
    # own rounding bound
    eps_bound = (2 * p.L + 2) * np.finfo(float).eps * kappa
    assert abs(kappa - _cancellation(p)) <= (1e-12 + eps_bound) * kappa
    assert rounding == eps_bound


# Chains in the gap gamma delta q^(L-1) < alpha beta < gamma delta, where z
# changes sign in all four images: one whose images cancel from 1 to
# 3.8e14, and one of the few whose least cancellation, 1.2e6, fails the
# rounding bound.
GAP_POINTS = {
    "L8": AsepParams(L=8, q=0.31, alpha=1.15, beta=0.0987, gamma=0.18, delta=0.69),
    "L11": AsepParams(L=11, q=0.09545620748077711, alpha=0.005964814093491864,
                      beta=0.002397672249545482, gamma=7.481696763614977,
                      delta=1.3160689188805264),
}


@pytest.mark.parametrize("p", GAP_POINTS.values(), ids=GAP_POINTS.keys())
def test_sign_changing_images_keep_the_least_cancellation(p):
    kappas = {}
    for name, chain, _ in mpa.images(p):
        E, z = mpa.krylov_pair(*chain, p.L)
        assert (z < 0).any()
        kappas[name] = mpa.cancellation(E, z)
    mu, rounding, image = mpa.measure_with_rounding(p)
    assert image == min(kappas, key=kappas.get)
    assert rounding == (2 * p.L + 2) * np.finfo(float).eps * kappas[image]
    assert kappas[image] * 1e5 < max(kappas.values())
    assert _tv(mu, p) <= 1e-12 + rounding


# Shock-region chains with gamma / alpha large and q near 1, where the
# identity image's float law is 4.2e-11 and 2.3e-11 in TV from the exact
# Fraction law. Its ||pi G||_1, 3.4e-11 and 3.1e-11, passes a 1e-10
# tolerance; its rounding bound, 1.1e-8 and 3.5e-9, does not. The mirror's
# z >= 0 there, and it is the image contracted.
CANCELLATION_POINTS = {
    "L8": AsepParams(L=8, q=0.7831406669210655, alpha=0.02398521073322928,
                     beta=0.6994143583845213, gamma=1.6814501538500477,
                     delta=0.22348885917851338),
    "L7": AsepParams(L=7, q=0.8097885652479058, alpha=0.0653804926238747,
                     beta=0.11523345663118026, gamma=0.8875736307980883,
                     delta=0.6706633464067916),
}


@pytest.mark.parametrize("p", CANCELLATION_POINTS.values(), ids=CANCELLATION_POINTS.keys())
def test_rounding_bound_flags_a_cancelled_law(p):
    law = _image_law(p, "identity")
    rounding = (2 * p.L + 2) * np.finfo(float).eps * mpa.cancellation(
        *mpa.krylov_pair(*_image(p, "identity")[0], p.L))
    assert _certificate(law, p) <= 1e-10
    assert 1e-11 <= 0.5 * np.abs(law - oracles.open_band_law(p).values).sum() <= rounding
    assert rounding > 1e-9
    mu, rounding, image = mpa.measure_with_rounding(p)
    assert image == "mirror"
    assert rounding == (2 * p.L + 2) * np.finfo(float).eps
    assert _tv(mu, p) <= 1e-14


def test_rounding_bound_is_at_epsilon_level_on_the_pool():
    # z >= 0 at every reference point: no cancellation, kappa = 1.
    for point in json.loads(POOL.read_text())["mpa_points"]:
        for L in (4, 10, 14):
            _, rounding, image = mpa.measure_with_rounding(AsepParams(L=L, **point))
            assert image == "identity"
            assert rounding <= (2 * L + 2) * np.finfo(float).eps * (1 + 1e-12)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8])
def test_measure_matches_null_space_oracle(L):
    # q = 2.5 is solved as its mirror image, q = 1 as itself
    for q in (0.5, 2.5, 1.0):
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
    # followed a 64-step walk. gamma = 0, so z >= 0 in the identity image,
    # which is contracted. The mirror's z changes sign, but its law
    # certifies too.
    p = AsepParams(q=46.47848607733105, alpha=0.0027522646135283743,
                   beta=0.0052862984388549455, gamma=0.0,
                   delta=0.44790675088142945, L=10)
    assert _certificate(mpa.mpa_stationary_measure(p), p) <= 1e-16
    assert _certificate(_image_law(p, "mirror"), p) <= 1e-16


# The chain above, longer. Its identity image's z spans 1e188 at L = 13 and
# 1e303 at L = 17, and the plain contraction's weights overflow to NaN from
# L = 13. From L = 18 z overflows, and the image of both symmetries, whose
# z >= 0 spans 1e46 to 1e51, is contracted.
@pytest.mark.parametrize("L, image", [(13, "identity"), (17, "identity"), (20, "both")])
def test_chain_beyond_the_float_range_is_contracted_in_scale(L, image):
    p = AsepParams(q=46.47848607733105, alpha=0.0027522646135283743,
                   beta=0.0052862984388549455, gamma=0.0,
                   delta=0.44790675088142945, L=L)
    chain, _ = _image(p, image)
    assert not mpa._in_range(*mpa.krylov_pair(*chain, L))
    mu, rounding, name = mpa.measure_with_rounding(p)
    assert name == image
    assert rounding == (2 * L + 2) * np.finfo(float).eps
    assert _certificate(mu, p) <= 1e-16


@pytest.mark.parametrize("L", [18, 20])
def test_cancellation_is_finite_where_the_row_sums_overflow(L):
    # The image of both symmetries of the chain above: its row sums
    # c = e_0 (E + D)^L overflow from L = 18, where kappa read infinite.
    # Rescaled by powers of two, c gives kappa = 1 exactly, as z >= 0.
    p = AsepParams(q=46.47848607733105, alpha=0.0027522646135283743,
                   beta=0.0052862984388549455, gamma=0.0,
                   delta=0.44790675088142945, L=L)
    E, z = mpa.krylov_pair(*_image(p, "both")[0], L)
    assert (z >= 0).all()
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = np.linalg.matrix_power(E + np.eye(L + 1, k=1), L)[0]
    assert not np.isfinite(row_sums).all()
    assert mpa.cancellation(E, z) == 1.0


@settings(max_examples=100, deadline=None)
@given(p=_chains)
def test_scaled_contraction_is_the_plain_one(p):
    # Powers of two scale every term of a sum alike, so where the plain
    # contraction stays in range the two agree to their rounding.
    assume(_has_boundary_rate(p))
    try:
        _, rounding, _ = mpa.measure_with_rounding(p)
    except ConvergenceError:
        reject()
    E, z = _solved_pair(p)
    assume(mpa._in_range(E, z))
    plain, scaled = mpa._contract(E, z), mpa._contract_scaled(E, z)
    tv = 0.5 * np.abs(plain / plain.sum() - scaled / scaled.sum()).sum()
    assert tv <= 1e-15 + rounding


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
