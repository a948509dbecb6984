import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from integrable import models, ybe
from integrable.errors import ParameterError
from integrable.models import AsepParams
from integrable.tensor import MAX_STATE_SPACE, StateSpaceTooLarge, embed

import oracles
from oracles import Generator, ReducibleChain, stationary_distribution

RATE = st.floats(0.05, 1.0)


def test_local_generator_rates():
    # the bulk term at q = 0.25 with its two sites swapped
    G = embed(models.asep_bulk_w(0.25), (2, 1), (2, 2))
    assert G[1, 2] == pytest.approx(1.0)
    assert G[2, 1] == pytest.approx(0.25)
    assert np.allclose(G.sum(axis=1), 0.0)


def test_bulk_w_is_generator_summand():
    w = models.asep_bulk_w(0.5)
    assert w[1, 2] == pytest.approx(0.5)
    assert w[2, 1] == pytest.approx(1.0)
    assert np.allclose(w.sum(axis=1), 0.0)


@pytest.mark.parametrize("q", [0.3, 0.5, 2.0])
def test_rate_conventions_agree(q):
    # right rate 1, left rate q: the two-site chain is one bond of w, and a
    # lone particle on sites 0, 1 hops right at rate 1 and left at rate q
    G = oracles.asep_generator(AsepParams(q=q, L=2)).rates.toarray()
    assert np.array_equal(G, models.asep_bulk_w(q))
    W = _window_generator(1, q, 0, 1).rates.toarray()
    left, right = (models._window_rank((s,), 0, 1) for s in (0, 1))
    assert W[left, right] == 1.0
    assert W[right, left] == q
    # the oracle's matrix-free row: a two-state chain with rates 1 and q
    t = 0.7
    decay = math.exp(-(1.0 + q) * t)
    row = models._window_row(1, q, 0, 1, left, t)
    assert abs(row[left] - (q + decay) / (1.0 + q)) <= 1e-12
    assert abs(row[right] - (1.0 - decay) / (1.0 + q)) <= 1e-12


def test_full_generator_closed_and_open():
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=3)
    closed = oracles.asep_generator(p)
    opened = oracles.asep_generator(p, open_boundary=True)
    for gen in (closed, opened):
        dense = gen.rates.toarray()
        assert np.abs(dense.sum(axis=1)).max() <= 1e-12
        assert (dense - np.diag(np.diag(dense)) >= 0).all()
    # closed chain conserves particle number: no flow between blocks
    G = closed.rates.toarray()
    for s in range(8):
        for t in range(8):
            if bin(s).count("1") != bin(t).count("1"):
                assert G[s, t] == 0.0


def test_open_chain_has_unique_stationary_law():
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=4)
    pi = stationary_distribution(oracles.asep_generator(p, open_boundary=True))
    assert pi.values.min() > 0


def _open_band_bytes(p):
    """Bytes of the band stationary_distribution would factor for the open
    chain p, found without allocating it."""
    rates = oracles.asep_generator(p, open_boundary=True).rates
    members = oracles._closed_class(rates)
    adjoint = rates[members][:, members].T.tocsc()
    _, kl, ku, _ = oracles._band_layout(adjoint[1:, 1:])
    return 8 * (2 * kl + ku + 1) * (members.size - 1)


# Both ends open, then only the left and only the right: the band's pattern
# depends only on which ends have a nonzero rate.
@pytest.mark.parametrize("rates", [
    {"alpha": 0.6, "beta": 0.4, "gamma": 0.1, "delta": 0.2},
    {"alpha": 0.6, "gamma": 0.1},
    {"beta": 0.4, "delta": 0.2},
], ids=["both", "left", "right"])
def test_band_sites_cap_is_the_band_bytes_cap(rates):
    cap = oracles.MAX_BAND_SITES
    fits = _open_band_bytes(AsepParams(q=0.5, L=cap, **rates))
    refused = _open_band_bytes(AsepParams(q=0.5, L=cap + 1, **rates))
    assert fits <= oracles.MAX_BAND_BYTES < refused


def test_open_band_law_refuses_a_long_chain_before_its_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cap must precede the generator")

    monkeypatch.setattr(oracles, "asep_generator", refuse)
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, L=oracles.MAX_BAND_SITES + 1)
    with pytest.raises(StateSpaceTooLarge):
        oracles.open_band_law(p)


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 8), q=RATE, alpha=RATE, beta=RATE, gamma=RATE,
       delta=RATE, open_boundary=st.booleans())
def test_sparse_stationary_law_matches_dense_null_space(
    L, q, alpha, beta, gamma, delta, open_boundary
):
    p = AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    G = oracles.asep_generator(p, open_boundary=open_boundary)
    # closed chains: the half-filled class, as the CLI reports it
    if not open_boundary:
        sector = [s for s in range(2**L) if bin(s).count("1") == L // 2]
        G = Generator(G.rates[sector][:, sector])
    pi = stationary_distribution(G).values
    null = scipy.linalg.null_space(G.rates.toarray().T)
    assert null.shape[1] == 1
    oracle = np.abs(null[:, 0]) / np.abs(null[:, 0]).sum()
    assert np.max(np.abs(pi - oracle)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), width=st.integers(2, 6), q=RATE,
       t=st.floats(0.0, 4.0), data=st.data())
def test_uniformized_row_matches_expm(n, width, q, t, data):
    # the oracle's matrix-free row against expm of the dense window generator
    n = min(n, width)
    G = _window_generator(n, q, 0, width - 1)
    state = data.draw(st.integers(0, G.dim - 1))
    exact = scipy.linalg.expm(t * G.rates.toarray())[state]
    row = models._window_row(n, q, 0, width - 1, state, t)
    assert np.max(np.abs(row - exact)) <= 1e-12


# Asymmetries on both sides of q = 1, where the law's weights flip order.
ASYMMETRY = st.floats(0.05, 20.0)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 8), q=ASYMMETRY, data=st.data())
def test_closed_law_matches_the_sparse_lu(L, q, data):
    particles = data.draw(st.integers(0, L))
    p = AsepParams(q=q, L=L)
    filled = np.array([bin(s).count("1") for s in range(2**L)])
    sector = np.flatnonzero(filled == particles)
    G = oracles.asep_generator(p).rates
    lu = stationary_distribution(Generator(G[sector][:, sector])).values
    law = models.closed_asep_law(p, particles).values
    assert 0.5 * np.abs(law[sector] - lu).sum() <= 1e-12
    assert np.delete(law, sector).max(initial=0.0) == 0.0
    assert law.max() > 0


def test_closed_law_is_its_closed_form():
    # L = 3, one particle at site x: weights q^-1, q^-2, q^-3, site 1 the
    # most significant bit; at L = 20 and q = 0.01 the weights span 1e-200
    # and none overflows
    q = 0.4
    law = models.closed_asep_law(AsepParams(q=q, L=3), 1).values
    w = np.array([q**-3, q**-2, q**-1])
    assert np.allclose(law[[1, 2, 4]], w / w.sum(), rtol=1e-15, atol=0)
    wide = models.closed_asep_law(AsepParams(q=0.01, L=20), 10).values
    assert np.isfinite(wide).all() and wide.argmax() == 2**10 - 1
    with pytest.raises(ParameterError):
        models.closed_asep_law(AsepParams(q=q, L=3), 4)


# Log-uniform asymmetries on both sides of q = 1, which U_q(sl2) at
# deformation sqrt(q) excludes; sqrt(q) rounds to 1 for q an ulp above 1.
LOG_ASYMMETRY = st.floats(math.log(0.05), math.log(20.0)).map(math.exp).filter(
    lambda q: math.sqrt(q) != 1.0)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 7), q=LOG_ASYMMETRY)
@example(L=7, q=0.05)
@example(L=7, q=20.0)
def test_reversible_conjugate_is_the_uq_symmetric_chain(L, q):
    # H = Pi^(1/2) G Pi^(-1/2), Pi the closed chain's reversible law, is
    # symmetric and commutes with the L-fold coproduct of U_q(sl2) at
    # deformation sqrt(q): the open XXZ chain of Pasquier and Saleur
    eps = np.finfo(float).eps
    _, H = oracles.reversible_conjugate(AsepParams(q=q, L=L))
    assert np.abs(H - H.T).max() <= 4 * eps * np.abs(H).max()
    scale = np.abs(H).sum(axis=1).max()
    for X in oracles.uq_coproduct(L, q):
        comm = np.abs(H @ X - X @ H).max()
        assert comm <= 8 * eps * scale * np.abs(X).sum(axis=1).max()


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 10), q=ASYMMETRY,
       rates=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
                      min_size=4, max_size=4),
       open_boundary=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_left_action_matches_the_generator(L, q, rates, open_boundary, seed):
    alpha, beta, gamma, delta = rates
    p = AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    v = np.random.default_rng(seed).standard_normal(2**L)
    want = oracles.asep_generator(p, open_boundary=open_boundary).rates.T @ v
    got = models.asep_left_action(v, p, open_boundary=open_boundary)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1e-300, np.max(np.abs(want)))


# Rates that include 0, as at a closed end.
RATE_OR_ZERO = st.one_of(st.just(0.0), st.floats(0.05, 5.0))


@settings(max_examples=60, deadline=None)
@given(L=st.integers(1, 6), q=ASYMMETRY,
       rates=st.lists(RATE_OR_ZERO, min_size=4, max_size=4),
       open_boundary=st.booleans())
def test_generator_is_the_sum_of_its_local_terms(L, q, rates, open_boundary):
    # the dense oracle: each term embedded at its sites, summed
    alpha, beta, gamma, delta = rates
    p = AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    dense = np.zeros((2**L, 2**L))
    for x, m in models.asep_local_terms(p, open_boundary):
        dense += embed(m, range(x, x + len(m).bit_length() - 1), (2,) * L)
    G = oracles.asep_generator(p, open_boundary=open_boundary).rates.toarray()
    off = ~np.eye(2**L, dtype=bool)
    assert np.array_equal(dense[off], G[off])
    # the diagonals sum the same rates in another order
    diag = np.diag(G)
    assert (np.abs(np.diag(dense) - diag) <= 1e-15 * np.maximum(1.0, -diag)).all()
    # the boundary terms sit on sites 1 and L: site 1 fills at alpha and
    # empties at gamma, site L (the last bit) fills at delta, empties at beta
    if open_boundary and L > 1:
        top = 2 ** (L - 1)
        assert (G[0, top], G[top, 0], G[0, 1], G[1, 0]) == (alpha, gamma, delta, beta)


# Away from q = 1: K's denominator cancels to q - 1 at x = 1, so its
# rounding grows as the largest rate over |q - 1|.
BOUNDARY_Q = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0))


def _k_derivative_at_one(q, a, c):
    """K'(1) of the one K family, by a complex step: Im K(1 + ih)/h is
    K'(1) to O(h^2), with no cancellation."""
    h = 1e-20
    k, _ = ybe.reflection_k(np.array([1.0 + h * 1j]), q, a, c)
    return k[0].imag / h


@settings(max_examples=200, deadline=None)
@given(q=BOUNDARY_Q, alpha=st.floats(0.05, 5.0), gamma=st.floats(0.05, 5.0))
def test_site_one_term_is_the_left_k_derivative(q, alpha, gamma):
    # K'(1) = 2B/(q - 1) at (a, c) = (alpha, gamma) (Sklyanin 1988)
    p = AsepParams(q=q, alpha=alpha, gamma=gamma, L=3)
    site, B = models.asep_local_terms(p, open_boundary=True)[-2]
    assert site == 1
    want = 2.0 / (q - 1.0) * B
    got = _k_derivative_at_one(q, alpha, gamma)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=200, deadline=None)
@given(q=BOUNDARY_Q, beta=st.floats(0.05, 5.0), delta=st.floats(0.05, 5.0))
def test_site_l_term_is_the_right_k_derivative(q, beta, delta):
    # the same family at (a, c) = (-delta, -beta) gives the right
    # boundary: K'(1)(1 - q)/2 is the site-L term [[-delta, delta],
    # [beta, -beta]], whose rows sum to zero
    p = AsepParams(q=q, beta=beta, delta=delta, L=3)
    site, B = models.asep_local_terms(p, open_boundary=True)[-1]
    assert site == 3
    got = _k_derivative_at_one(q, -delta, -beta) * (1.0 - q) / 2.0
    assert np.max(np.abs(got - B)) <= 1e-12 * np.max(np.abs(B))


def test_absorbing_configuration_is_the_stationary_law():
    # injection only: the full configuration is the one closed class, and
    # every other state (state 0 included) is transient
    p = AsepParams(q=0.5, alpha=0.7, L=5)
    pi = stationary_distribution(oracles.asep_generator(p, open_boundary=True))
    assert pi.values[-1] == 1.0
    assert pi.values[:-1].sum() == 0.0


def test_closed_chain_without_support_is_reducible():
    p = AsepParams(q=0.5, L=4)
    with pytest.raises(ReducibleChain):
        stationary_distribution(oracles.asep_generator(p))


def test_state_space_cap_precedes_allocation():
    with pytest.raises(StateSpaceTooLarge):
        oracles.asep_generator(AsepParams(q=0.5, L=40), open_boundary=True)


PAULI = (np.array([[0.0, 1.0], [1.0, 0.0]]),
         np.array([[0.0, -1j], [1j, 0.0]]),
         np.diag([1.0, -1.0]))


def _total_spin_commutator(H: np.ndarray, a: int) -> float:
    """max |[H, S^a]| with S^a the sum over sites of the Pauli matrix a."""
    L = int(math.log2(H.shape[0]))
    S = sum(embed(PAULI[a - 1], (x,), (2,) * L) for x in range(1, L + 1))
    return float(np.max(np.abs(H @ S - S @ H)))


def test_xxz_isotropic_su2_symmetry():
    # at q = 1 the closed chain's generator is the isotropic XXX chain
    G, _ = oracles.reversible_conjugate(AsepParams(q=1.0, L=4))
    for a in (1, 2, 3):
        assert _total_spin_commutator(G, a) <= 1e-12


def test_xxz_anisotropic_keeps_only_axial_symmetry():
    # q != 1: the conjugated generator is the open XXZ chain with anisotropy
    # (1 + q) / (2 sqrt(q)); q is chosen to make it 1.6
    q = (1.6 - math.sqrt(1.6**2 - 1)) ** 2
    _, H = oracles.reversible_conjugate(AsepParams(q=q, L=4))
    assert _total_spin_commutator(H, 3) <= 1e-12
    assert _total_spin_commutator(H, 1) > 1e-3


def test_tw_single_particle_is_heat_kernel_like():
    # q=1 would be symmetric; at general q the formula must match the CTMC
    for y, x in [((0,), (0,)), ((0,), (3,)), ((2,), (-1,))]:
        v = models.tw_transition_probability(y, x, 0.7, 0.4)
        o = models.ctmc_oracle_probability(y, x, 0.7, 0.4)
        assert abs(v - o) <= 1e-8


def test_tw_two_particle_matches_oracle():
    v = models.tw_transition_probability((0, 2), (1, 3), 0.6, 0.3)
    o = models.ctmc_oracle_probability((0, 2), (1, 3), 0.6, 0.3)
    assert abs(v - o) <= 1e-8


def test_tw_rejects_bad_positions():
    # the contour formula and its oracle share the checks
    for probability in (models.tw_transition_probability, models.ctmc_oracle_probability):
        with pytest.raises(ParameterError):
            probability((1, 0), (0, 1), 0.5, 0.4)
        with pytest.raises(ParameterError, match="N <= 4"):
            probability((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), 0.5, 0.4)
        with pytest.raises(ParameterError, match="1 <= N <= 4"):
            probability((), (), 0.5, 0.4)


def test_probabilities_sum_to_one_over_target_window():
    t, q = 0.5, 0.4
    total = sum(
        models.tw_transition_probability((0,), (x,), t, q)
        for x in range(-8, 9)
    )
    assert total == pytest.approx(1.0, abs=1e-8)


TW_POINTS = {1: ((0,), (1,)), 2: ((0, 2), (1, 3)), 3: ((0, 2, 4), (1, 3, 5))}


@pytest.mark.parametrize("q", [0.2, 0.5])
@pytest.mark.parametrize("t", [0.1, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_tw_adaptive_equals_the_fixed_512_node_rule(N, t, q):
    y, x = TW_POINTS[N]
    fixed = models._tw_block(y, x, t, q, 512, 2)[-1].real
    assert abs(models.tw_transition_probability(y, x, t, q) - fixed) <= 1e-10
    # starting at 256 nodes is the fixed 256/512 rule, bit for bit: one
    # block of the counts 256 and 512
    assert models.tw_transition_probability(y, x, t, q, n_quad=256) == fixed


@pytest.mark.parametrize("n_quad", [4, 8, 16])
@pytest.mark.parametrize("y, x, t, q", [
    ((0,), (2,), 2.0, 0.4),
    ((0, 2), (1, 3), 0.5, 0.3),
    ((0, 2), (1, 3), 4.0, 0.5),
    ((0, 2, 4), (1, 3, 5), 0.5, 0.4),
])
def test_tw_coarse_start_is_right_or_raises(y, x, t, q, n_quad):
    oracle = models.ctmc_oracle_probability(y, x, t, q)
    try:
        val = models.tw_transition_probability(y, x, t, q, n_quad=n_quad)
    except models.NonConvergedQuadrature:
        return
    assert abs(val - oracle) <= 1e-8


@pytest.mark.parametrize("wrong", [
    (0.25, 0.25), (0.25, 0.25, 0.25), (0.25,) * 4,
    # a first level that differs, then two that agree on a wrong value
    (0.5, 0.25, 0.25), (0.25 + 1e-3, 0.25, 0.25), (0.5, 0.25, 0.25, 0.25),
])
def test_tw_coarse_levels_agreeing_by_chance_are_not_accepted(monkeypatch, wrong):
    y, x, t, q = (0, 2), (1, 3), 0.6, 0.3
    truth = models.tw_transition_probability(y, x, t, q)
    start = models.tw_start_nodes(y, x, t, q)
    real_block = models._tw_block

    def fooled_block(y, x, t, q, n, counts):
        # the first levels return the values in `wrong`
        values = real_block(y, x, t, q, n, counts)
        for i in range(counts):
            level = ((n >> (counts - 1 - i)) // start).bit_length() - 1
            if level < len(wrong):
                values[i] = complex(wrong[level])
        return values

    monkeypatch.setattr(models, "_tw_block", fooled_block)
    if start * 2**len(wrong) >= models.TW_MAX_NODES:
        # only the last level is right: one change, and it is large
        with pytest.raises(models.NonConvergedQuadrature,
                           match=r"nodes \[32, 64, 128, 256, 512\]"):
            models.tw_transition_probability(y, x, t, q)
        return
    assert abs(models.tw_transition_probability(y, x, t, q) - truth) <= 1e-8


def test_tw_rounding_noise_that_does_not_fall_is_accepted(monkeypatch):
    # three counts within rounding of each other settle at the third even
    # when the second change is the larger; a change of 1e-11 does not
    y, x, t, q = (0, 2), (1, 3), 4.0, 0.3
    start = models.tw_start_nodes(y, x, t, q)
    truth = models._tw_block(y, x, t, q, start, 1)[0]
    for noise, settled in (((0.0, 1e-15, -2e-15), 3), ((0.0, 1e-11, -1e-11), 4)):
        def noisy_block(y, x, t, q, n, counts, noise=noise):
            levels = [((n >> (counts - 1 - i)) // start).bit_length() - 1
                      for i in range(counts)]
            return [truth + (noise[level] if level < len(noise) else 0.0)
                    for level in levels]

        monkeypatch.setattr(models, "_tw_block", noisy_block)
        diagnostics = {}
        models.tw_transition_probability(y, x, t, q, diagnostics=diagnostics)
        assert diagnostics["nodes"] == [start << k for k in range(settled)]


@pytest.mark.parametrize("n_quad", [None, 4, 16])
def test_tw_contour_inside_the_poles_converges_at_q_08(n_quad):
    # At radius 1/2 a scattering pole lay on the torus for 2/3 <= q <= 2.
    # There the first pair never settled, and the second was 1.03e-8 from
    # the oracle and passed. On the derived radius both converge.
    for y, x, t in [((0, 3), (2, 4), 4.0), ((0, 2), (1, 3), 6.0)]:
        value = models.tw_transition_probability(y, x, t, 0.8, n_quad=n_quad)
        assert abs(value - models.ctmc_oracle_probability(y, x, t, 0.8)) <= 1e-11


def _r_star(q):
    return 2.0 / ((1.0 + q) + math.sqrt((1.0 + q) ** 2 + 4.0 * q))


@pytest.mark.parametrize("q", [0.0, 0.05, 0.2, 0.3, 0.8, 1.0, 2.0, 5.0, 50.0])
def test_tw_radius_leaves_the_scattering_poles_outside(q):
    # one particle has no scattering factor: the radius stays 1/2
    assert models.tw_radius(q, 1) == 0.5
    r = models.tw_radius(q, 2)
    assert r == models.tw_radius(q, 3) == min(0.5, models.TW_RADIUS_MARGIN * _r_star(q))
    assert 0 < models.TW_RADIUS_MARGIN < 1
    # at radius r* the denominator vanishes on the torus, at xi_a = -r*, xi_b = r*
    s = _r_star(q)
    assert abs(1.0 - q * s * s - (1.0 + q) * s) <= 1e-15
    # on the torus of radius r, |denominator| >= 1 - q r^2 - (1 + q) r >= 1 - c
    nodes = r * np.exp(2j * np.pi * np.arange(512) / 512)
    num = 1.0 + q * nodes[:, None] * nodes[None, :] - (1.0 + q) * nodes[None, :]
    bound = 1.0 - q * r * r - (1.0 + q) * r
    assert np.abs(num).min() >= bound - 1e-15
    assert bound >= 1.0 - models.TW_RADIUS_MARGIN - 1e-15


# N <= 4 on both sides of q = 1, t up to 4 for N <= 3; the oracle checks
# each value. At N = 4 the oracle's window grows as C(width, 4): t = 4
# takes it 0.2-3.7 s a point, and at q = 5 past MAX_STATE_SPACE, so N = 4
# stops at t = 1.
TW_GRID_PAIRS = [
    ((0,), (1,), (0.1, 1.0, 4.0)), ((0, 2), (1, 3), (0.1, 1.0, 4.0)),
    ((0, 3), (2, 4), (0.1, 1.0, 4.0)), ((0, 2, 4), (1, 3, 5), (0.1, 1.0, 4.0)),
    ((0, 2, 4, 6), (1, 3, 5, 7), (0.1, 1.0)), ((0, 1, 2, 3), (1, 2, 4, 6), (0.1, 1.0)),
]


@pytest.mark.parametrize("y, x, times", TW_GRID_PAIRS,
                         ids=["N1", "N2", "N2-gap", "N3", "N4", "N4-packed"])
def test_tw_contour_is_right_or_raises_on_the_grid(y, x, times):
    unsettled = []
    for q in (0.05, 0.3, 0.8, 1.0, 2.0, 5.0):
        for t in times:
            try:
                value = models.tw_transition_probability(y, x, t, q)
            except models.NonConvergedQuadrature:
                unsettled.append((q, t))
                continue
            assert abs(value - models.ctmc_oracle_probability(y, x, t, q)) <= 1e-8, (q, t)
    # the large-q corner may refuse, where exp(t / xi) cancels on a small
    # circle; every point with 0.8 <= q <= 2 converges
    assert all(q > 2 for q, _ in unsettled), unsettled


def test_tw_start_nodes_grow_with_t_and_are_capped():
    floors = [models.tw_start_nodes((0,), (1,), t, 0.4) for t in (0.1, 2.0, 4.0, 6.0, 100.0)]
    assert floors == [32, 32, 64, 128, 256]
    assert models.tw_start_nodes((0,), (70,), 0.1, 0.4) == 128
    # the monomials pair every y_a with every x_j: here the shift is 41, not 1
    assert models.tw_start_nodes((0, 40), (1, 41), 0.1, 0.4) == 64
    assert models.tw_start_nodes((0,), (1,), 0.1, 0.4, n_quad=8) == 8
    # the floor grows with t / radius: at q = 3 the N = 2 radius is 0.151
    assert models.tw_start_nodes((0,), (1,), 1.0, 3.0) == 32
    assert models.tw_start_nodes((0, 2), (1, 3), 1.0, 3.0) == 64
    with pytest.raises(ValueError):
        models.tw_start_nodes((0,), (1,), 0.5, -0.4)
    with pytest.raises(ValueError):
        models.tw_start_nodes((0,), (1,), 0.5, 0.4, n_quad=0)


def _tw_eval_per_permutation(y, x, t, q, n):
    """The contour sum as the package computed it before its plan: complex
    powers of the nodes and one einsum(optimize=True) per permutation.
    Also returns the sum of the same terms in absolute value, the scale of
    its rounding error."""
    N = len(y)
    nodes = models.tw_radius(q, N) * np.exp(1j * 2.0 * np.pi * np.arange(n) / n)
    if N > 1:
        scattering = oracles.scattering_matrix(q, nodes)
    base = nodes / n * np.exp(models._epsilon(nodes, q) * t)
    total = scale = 0.0
    for sigma in itertools.permutations(range(N)):
        inv_sigma = [0] * N
        for j, a in enumerate(sigma):
            inv_sigma[a] = j
        operands = [base * nodes ** (x[inv_sigma[a]] - y[a] - 1) for a in range(N)]
        subs = list("abcd"[:N])
        for j, k in itertools.combinations(range(N), 2):
            if sigma[j] > sigma[k]:
                operands.append(scattering)
                subs.append("abcd"[sigma[j]] + "abcd"[sigma[k]])
        subs = ",".join(subs) + "->"
        total = total + np.einsum(subs, *operands, optimize=True)
        scale += np.einsum(subs, *map(np.abs, operands), optimize=True)
    return complex(total), scale


@pytest.mark.parametrize("n", [32, 256])
@pytest.mark.parametrize("y, x", [
    ((0,), (1,)), ((2,), (-3,)), ((0, 2), (1, 3)), ((0, 3), (2, 4)),
    ((0, 2, 4), (1, 3, 5)), ((0, 1, 3), (1, 2, 4)), ((0, 2, 4), (3, 5, 9)),
])
def test_planned_contour_sum_matches_the_per_permutation_einsum(y, x, n):
    for t, q in [(0.1, 0.2), (0.5, 0.4), (2.0, 2.5), (4.0, 0.5)]:
        want, scale = _tw_eval_per_permutation(y, x, t, q, n)
        assert abs(models._tw_block(y, x, t, q, n, 1)[0] - want) <= 1e-14 * scale


@pytest.mark.parametrize("y, x", [
    ((0,), (1,)), ((2,), (-3,)), ((0, 2), (1, 3)), ((0, 2, 4), (1, 3, 5)),
    ((0, 1, 3), (1, 2, 4)), ((0, 2, 4, 6), (1, 3, 5, 7)), ((0, 1, 2, 3), (1, 2, 4, 6)),
])
def test_block_values_equal_blocks_of_one(y, x):
    # the n/4-, n/2- and n-node values of one pass over n nodes: each is the
    # block of one at its count, and the per-permutation sum, to rounding.
    # Far from convergence (t = 2, q = 2.5 needs about 64 nodes) the three
    # counts differ, so a count read from the wrong classes, with the wrong
    # class weight or in the wrong order cannot pass.
    n = 64
    for t, q in [(0.5, 0.4), (2.0, 2.5)]:
        block = models._tw_block(y, x, t, q, n, 3)
        assert len(block) == 3
        for value, count in zip(block, (n // 4, n // 2, n)):
            want, scale = _tw_eval_per_permutation(y, x, t, q, count)
            assert abs(value - models._tw_block(y, x, t, q, count, 1)[0]) <= 1e-14 * scale
            assert abs(value - want) <= 1e-14 * scale


EPS = np.finfo(float).eps
SCATTERING_Q = st.one_of(st.sampled_from([0.0, 1.0]),
                         st.floats(math.log(1e-3), math.log(1e3)).map(math.exp))


@settings(max_examples=60, deadline=None)
@given(q=SCATTERING_Q, n=st.sampled_from([8, 32, 512]))
@example(q=0.0, n=512).via("no scattering series: S = -A_a / A_b")
@example(q=1.0, n=512).via("the largest ratio, rho = 0.2, and K = 23")
def test_scattering_factors_match_the_dense_matrix(q, n):
    r = models.tw_radius(q, 2)
    rho = q * r * r / (1.0 - (1.0 + q) * r)
    assert 0.0 <= rho <= 0.2002 < 1.0

    def bound(K):
        return (1.0 + rho) * rho ** (K + 1) / (1.0 - rho)

    K, claimed = models._tw_series(q, r)
    # K is the fewest terms whose tail bound is a quarter of the epsilon
    assert K <= 23 and claimed == bound(K) <= EPS / 4
    assert K == 0 or bound(K - 1) > EPS / 4
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    U, V = models._tw_factors(q, r, roots, np.arange(n))
    assert U.shape == V.shape == (n, K + 2)
    S = oracles.scattering_matrix(q, r * roots)
    # The dense oracle rounds too: its numerator and denominator cancel to
    # at least 0.3 of terms summing to 1.7, and the factored sum is at most
    # 8 eps from it at n = 512. 16 eps leaves that margin twice over; a
    # halved K alone leaves 1e-9.
    assert np.all(np.abs(U @ V.T - S) <= (bound(K) + 16 * EPS) * np.abs(S))


def test_contour_sum_at_three_particles_builds_no_scattering_matrix():
    y, x, t, q, n = (0, 2, 4), (1, 3, 5), 2.0, 1.0, 512
    models._tw_block(y, x, t, q, n, 1)  # the plan is cached on the first call
    # a block of one count and one of three, from the same 512 nodes
    for counts in (1, 3):
        tracemalloc.start()
        try:
            models._tw_block(y, x, t, q, n, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense 512 x 512 complex S alone takes 4 MiB
        assert peak < 2 * 2**20, counts


@pytest.mark.parametrize("y, x, q, rank", [
    ((0,), (1,), 0.4, 0), ((0, 2), (1, 3), 0.0, 2), ((0, 2), (1, 3), 1.0, 25),
    ((0, 2, 4), (1, 3, 5), 0.05, 12),
])
def test_tw_diagnostics_say_how_the_value_was_reached(y, x, q, rank):
    diagnostics = {}
    value = models.tw_transition_probability(y, x, 0.5, q, diagnostics=diagnostics)
    assert value == models.tw_transition_probability(y, x, 0.5, q)
    nodes = diagnostics["nodes"]
    assert nodes[0] == models.tw_start_nodes(y, x, 0.5, q)
    assert nodes == [nodes[0] * 2**k for k in range(len(nodes))] and len(nodes) >= 2
    # the value is the last of the block that computed it: the first block
    # holds up to three counts, and each later count is a block of one
    first = min(3, (max(models.TW_MAX_NODES, 2 * nodes[0]) // nodes[0]).bit_length())
    if len(nodes) <= first:
        block = models._tw_block(y, x, 0.5, q, nodes[0] << (first - 1), first)
        assert value == block[len(nodes) - 1].real
    else:
        assert value == models._tw_block(y, x, 0.5, q, nodes[-1], 1)[0].real
    assert diagnostics["rank"] == rank
    assert 0.0 <= diagnostics["truncation_bound"] <= models.TW_SERIES_TOL == EPS / 4
    assert (diagnostics["truncation_bound"] == 0.0) == (rank <= 2)


def transition_row(G: Generator, state: int, t: float, tol: float = 1e-12) -> np.ndarray:
    """Row `state` of the stochastic matrix exp(tG), by uniformization with
    sparse products: the oracle of models._window_row.

    e_s exp(tG) = sum_k e^{-lambda t}(lambda t)^k / k! * e_s (I + G/lambda)^k
    with lambda the max exit rate, truncated when the Poisson tail drops
    below `tol`. Each term costs one sparse matrix-vector product.
    """
    import scipy.sparse

    row = np.zeros(G.dim)
    row[state] = 1.0
    lam = float(np.max(-G.rates.diagonal()))
    if lam <= 0 or t == 0:
        return row
    # Row vectors times P = I + G/lambda, as P^T times column vectors.
    step = (scipy.sparse.eye_array(G.dim, format="csr") + G.rates / lam).T.tocsr()
    mu = lam * t
    weight = math.exp(-mu)
    acc = weight
    result = weight * row
    k = 0
    kmax = int(mu + 40.0 * math.sqrt(mu) + 50)
    while 1.0 - acc > tol and k < kmax:
        k += 1
        row = step @ row
        weight *= mu / k
        acc += weight
        result += weight * row
    return result


def test_transition_row_is_stochastic_and_exact():
    G = Generator(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    t = 0.7
    P = np.array([transition_row(G, s, t) for s in range(2)])
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(P, scipy.linalg.expm(t * G.rates.toarray()), atol=1e-12)


def _window_generator(n_particles, q, lo, hi) -> Generator:
    """Sparse generator of N-particle ASEP (right rate 1, left rate q) with
    blocking on [lo, hi], from the library's move table. The moves are
    listed state by state, particle by particle, right before left; that
    order fixes how each row's rates are summed into its diagonal, and so
    every bit of the generator."""
    moves = models._window_moves(n_particles, lo, hi)
    count = len(moves)
    free = moves < count
    rows = np.broadcast_to(np.arange(count)[:, None], moves.shape)[free]
    rates = np.broadcast_to(np.tile([1.0, q], n_particles), moves.shape)[free]
    return oracles._sparse_generator(count, rows, moves[free], rates)


def _window_generator_loop(n_particles, q, lo, hi):
    """The per-state loop that the move table replaced: the state index,
    the move table and the generator."""
    states = itertools.combinations(range(lo, hi + 1), n_particles)
    index = {s: i for i, s in enumerate(states)}
    moves = np.full((len(index), 2 * n_particles), len(index))
    rows, cols, rates = [], [], []
    for s, i in index.items():
        for k, pos in enumerate(s):
            for d, (target, rate) in enumerate(((pos + 1, 1.0), (pos - 1, q))):
                if lo <= target <= hi and target not in s:
                    moves[i, 2 * k + d] = index[s[:k] + (target,) + s[k + 1:]]
                    rows.append(i)
                    cols.append(moves[i, 2 * k + d])
                    rates.append(rate)
    return index, moves, oracles._sparse_generator(len(index), rows, cols, rates)


@pytest.mark.parametrize("n, q, lo, hi", [
    (1, 0.4, -6, 7), (1, 0.5, 3, 3), (2, 0.3, -6, 9), (2, 0.5, 0, 1),
    (3, 0.37, -7, 12), (3, 0.9, 0, 2), (3, 0.55, -14, 19),
])
def test_window_generator_equals_the_loop(n, q, lo, hi):
    G = _window_generator(n, q, lo, hi)
    index_loop, moves_loop, G_loop = _window_generator_loop(n, q, lo, hi)
    assert [models._window_rank(s, lo, hi) for s in index_loop] == list(index_loop.values())
    assert np.array_equal(models._window_moves(n, lo, hi), moves_loop)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(G.rates, name), getattr(G_loop.rates, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _ranks(configs, lo, hi):
    """_window_rank of each row of `configs`, all at once."""
    m, n = hi - lo + 1, configs.shape[1]
    binom = np.array([[math.comb(a, j) for j in range(n + 1)] for a in range(m)])
    return math.comb(m, n) - 1 - sum(binom[m - 1 - (configs[:, k] - lo), n - k]
                                     for k in range(n))


@st.composite
def _oracle_points(draw):
    n = draw(st.integers(1, 3))
    y, x = (tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=n, max_size=n))))
            for _ in range(2))
    return y, x, draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 3.0))


@settings(max_examples=20, deadline=None)
@given(point=_oracle_points())
# a right margin sized from q t would be 10 sites where 20 are needed
@example(point=((0, 2), (1, 3), 2.0, 0.1))
# and the left margin matters most where q t is large
@example(point=((0, 1, 4), (1, 2, 3), 4.0, 3.0))
def test_oracle_window_is_within_its_tail_bound(point):
    # The sized window's row is within ORACLE_TAIL of the infinite
    # chain's in total variation, so within 2 ORACLE_TAIL in l1 (plus the
    # 1e-13 each uniformization drops) of the row on a window with both
    # margins doubled; its value agrees with that window's to 1e-12.
    y, x, t, q = point
    n = len(y)
    lo, hi = models._oracle_window(y, x, t, q)
    left, right = min(min(x), min(y)) - lo, hi - max(max(x), max(y))
    assert left >= 1 and right >= 1
    wide_lo, wide_hi = lo - left, hi + right
    rows = []
    for a, b in ((lo, hi), (wide_lo, wide_hi)):
        G = _window_generator(n, q, a, b)
        rows.append(transition_row(G, models._window_rank(y, a, b), t, tol=1e-13))
    row, wide = rows
    value = models.ctmc_oracle_probability(y, x, t, q)
    # the sparse route sums each step in another order
    assert abs(value - row[models._window_rank(x, lo, hi)]) <= 1e-15
    assert abs(value - wide[models._window_rank(x, wide_lo, wide_hi)]) <= 1e-12
    configs = np.array(list(itertools.combinations(range(lo, hi + 1), n)))
    assert np.array_equal(_ranks(configs, lo, hi), np.arange(len(row)))
    inside = _ranks(configs, wide_lo, wide_hi)
    outside = np.ones(len(wide), dtype=bool)
    outside[inside] = False
    l1 = np.abs(row - wide[inside]).sum() + wide[outside].sum()
    assert l1 <= 2.0 * (models.ORACLE_TAIL + 1e-13)


def test_oracle_cap_refuses_before_anything_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a move table was built")

    monkeypatch.setattr(models, "_window_moves", refuse)
    # margins of about 180 sites at t = 100: C(366, 3) = 7.9e6 states
    lo, hi = models._oracle_window((0, 1, 2), (0, 1, 2), 100.0, 1.0)
    assert math.comb(hi - lo + 1, 3) > MAX_STATE_SPACE
    with pytest.raises(StateSpaceTooLarge):
        models.ctmc_oracle_probability((0, 1, 2), (0, 1, 2), 100.0, 1.0)
    # a lone particle at q = 1 needs more than 2^20 sites from t of about 5.2e5
    with pytest.raises(StateSpaceTooLarge):
        models.ctmc_oracle_probability((0,), (3,), 1e6, 1.0)
    # and past 2^20 in one margin, before that margin is summed
    with pytest.raises(StateSpaceTooLarge):
        models.ctmc_oracle_probability((0,), (3,), 1e12, 0.5)


def test_oracle_memory_per_state():
    # The move table and one gathered step take 96 B per state at N = 3,
    # and the row and its step vectors about 40 more; the sparse route
    # peaked near 820 B per state.
    y, x, t, q = (0, 2, 4), (1, 3, 5), 4.0, 0.5
    models.ctmc_oracle_probability(y, x, t, q)
    lo, hi = models._oracle_window(y, x, t, q)
    count = math.comb(hi - lo + 1, 3)
    assert count == 22100
    tracemalloc.start()
    try:
        models.ctmc_oracle_probability(y, x, t, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * count


@pytest.mark.parametrize("y, x", [((1, 0), (0, 1)), ((0, 1), (1, 1))])
def test_oracle_rejects_unsorted_positions(y, x):
    with pytest.raises(ParameterError):
        models.ctmc_oracle_probability(y, x, 0.5, 0.4)


@pytest.mark.parametrize("t", [370.0, 400.0])
def test_oracle_weights_do_not_underflow_at_large_t(t):
    # one particle at q = 1 is a symmetric walk, whose law at 3 is the
    # Skellam value e^(-2t) I_3(2t); e^(-2t) alone underflows past t = 372
    want = scipy.special.ive(3, 2.0 * t)
    assert abs(models.ctmc_oracle_probability((0,), (3,), t, 1.0) - want) <= 1e-12


@pytest.mark.parametrize("probability", [models.tw_transition_probability,
                                         models.ctmc_oracle_probability],
                         ids=["contour", "oracle"])
@pytest.mark.parametrize("t, q", [(math.nan, 0.5), (0.5, math.nan), (-0.5, 0.5),
                                  (0.5, -0.5)], ids=["t-nan", "q-nan", "t-neg", "q-neg"])
def test_contour_and_oracle_refuse_the_same_arguments(probability, t, q):
    with pytest.raises(ParameterError):
        probability((0, 2), (1, 3), t, q)


def test_asep_params_validation():
    with pytest.raises(ValueError):
        AsepParams(q=-0.5, alpha=0.5, beta=0.5, gamma=0.1, delta=0.1, L=3)
    with pytest.raises(ValueError):
        AsepParams(q=0.5, alpha=0.5, beta=0.5, gamma=0.1, delta=0.1, L=0)
