import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from integrable import models
from integrable.models import AsepParams, XxzParams
from integrable.tensor import (
    Operator,
    ReducibleChain,
    StateSpaceTooLarge,
    is_generator,
    stationary_distribution,
    transition_row,
)

RATE = st.floats(0.05, 1.0)


def test_local_generator_rates():
    G = models.asep_local_generator(0.5).entries.real
    assert G[1, 2] == pytest.approx(1.0)
    assert G[2, 1] == pytest.approx(0.25)
    assert np.allclose(G.sum(axis=1), 0.0)


def test_bulk_w_is_generator_summand():
    w = models.asep_bulk_w(0.5).entries.real
    assert w[1, 2] == pytest.approx(0.5)
    assert w[2, 1] == pytest.approx(1.0)
    assert np.allclose(w.sum(axis=1), 0.0)


def test_full_generator_closed_and_open():
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=3)
    closed = models.asep_generator(p)
    opened = models.asep_generator(p, open_boundary=True)
    assert is_generator(closed) and is_generator(opened)
    # closed chain conserves particle number: no flow between blocks
    G = closed.rates.toarray()
    for s in range(8):
        for t in range(8):
            if bin(s).count("1") != bin(t).count("1"):
                assert G[s, t] == 0.0


def test_open_chain_has_unique_stationary_law():
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=4)
    pi = stationary_distribution(models.asep_generator(p, open_boundary=True))
    assert pi.values.min() > 0


@settings(max_examples=30, deadline=None)
@given(L=st.integers(1, 8), q=RATE, alpha=RATE, beta=RATE, gamma=RATE,
       delta=RATE, open_boundary=st.booleans())
def test_sparse_stationary_law_matches_dense_null_space(
    L, q, alpha, beta, gamma, delta, open_boundary
):
    p = AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    G = models.asep_generator(p, open_boundary=open_boundary)
    # closed chains: the half-filled class, as the CLI reports it
    support = None
    dense = G.rates.toarray()
    if not open_boundary:
        support = [s for s in range(2**L) if bin(s).count("1") == L // 2]
        dense = dense[np.ix_(support, support)]
    pi = stationary_distribution(G, support=support).values
    null = scipy.linalg.null_space(dense.T)
    assert null.shape[1] == 1
    oracle = np.abs(null[:, 0]) / np.abs(null[:, 0]).sum()
    got = pi
    if support is not None:
        got = pi[support]
        assert np.delete(pi, support).max() == 0.0
    assert np.max(np.abs(got - oracle)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), width=st.integers(2, 6), q=RATE,
       t=st.floats(0.0, 4.0), data=st.data())
def test_uniformized_row_matches_expm(n, width, q, t, data):
    n = min(n, width)
    _, G = models._window_generator(n, q, 0, width - 1)
    state = data.draw(st.integers(0, G.dim - 1))
    exact = scipy.linalg.expm(t * G.rates.toarray())[state]
    assert np.max(np.abs(transition_row(G, state, t, tol=1e-13) - exact)) <= 1e-12


def test_absorbing_configuration_is_the_stationary_law():
    # injection only: the full configuration is the one closed class, and
    # every other state (state 0 included) is transient
    p = AsepParams(q=0.5, alpha=0.7, L=5)
    pi = stationary_distribution(models.asep_generator(p, open_boundary=True))
    assert pi.values[-1] == 1.0
    assert pi.values[:-1].sum() == 0.0


def test_closed_chain_without_support_is_reducible():
    p = AsepParams(q=0.5, L=4)
    with pytest.raises(ReducibleChain):
        stationary_distribution(models.asep_generator(p))


def test_state_space_cap_precedes_allocation():
    with pytest.raises(StateSpaceTooLarge):
        models.asep_generator(AsepParams(q=0.5, L=40), open_boundary=True)
    with pytest.raises(StateSpaceTooLarge):
        models.xxz_hamiltonian(XxzParams(Jx=1.0, Jy=1.0, Jz=1.0, N=40))
    # the dense cap: 2^13 states would ask for 1 GiB per complex array
    with pytest.raises(StateSpaceTooLarge):
        models.xxz_hamiltonian(XxzParams(Jx=1.0, Jy=1.0, Jz=1.0, N=13))


def test_xxz_isotropic_su2_symmetry():
    H = models.xxz_hamiltonian(XxzParams(Jx=1.0, Jy=1.0, Jz=1.0, N=4))
    for a in (1, 2, 3):
        assert models.symmetry_commutator(H, a) <= 1e-12


def test_xxz_anisotropic_keeps_only_axial_symmetry():
    H = models.xxz_hamiltonian(XxzParams(Jx=1.0, Jy=1.0, Jz=1.6, N=4))
    assert models.symmetry_commutator(H, 3) <= 1e-12
    assert models.symmetry_commutator(H, 1) > 1e-3


@pytest.mark.parametrize("q", [0.4, 0.8])
def test_xxz_to_asep_gauge_search(q):
    out = models.xxz_to_asep_search(q, grid=21)
    assert out["residual"] <= 1e-9
    assert out["scale"] == pytest.approx(4.0 / (1.0 + q**2))


def test_ground_state_transform_builds_generator():
    # a generator conjugated by its positive left eigenvector stays a
    # generator with eigenvalue shift zero
    p = AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=3)
    G = models.asep_generator(p, open_boundary=True)
    g = np.ones(8)
    out = models.ground_state_transform(Operator(G.site_dims, G.rates.toarray()), g)
    assert is_generator(out)


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
    with pytest.raises(ValueError):
        models.tw_transition_probability((1, 0), (0, 1), 0.5, 0.4)
    with pytest.raises(ValueError):
        models.tw_transition_probability((0, 1, 2, 3), (0, 1, 2, 3), 0.5, 0.4)


def test_probabilities_sum_to_one_over_target_window():
    t, q = 0.5, 0.4
    total = sum(
        models.tw_transition_probability((0,), (x,), t, q)
        for x in range(-8, 9)
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_asep_params_validation():
    with pytest.raises(ValueError):
        AsepParams(q=-0.5, alpha=0.5, beta=0.5, gamma=0.1, delta=0.1, L=3)
    with pytest.raises(ValueError):
        AsepParams(q=0.5, alpha=0.5, beta=0.5, gamma=0.1, delta=0.1, L=0)
