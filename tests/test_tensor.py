import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from integrable import models, oscillator, sixvertex, tensor, uqsl2, ybe
from integrable.errors import ParameterError
from integrable.tensor import (
    DimensionMismatch,
    ProbVector,
    StateSpaceTooLarge,
    embed,
    kron,
    permutation_operator,
)

import oracles
from oracles import Generator, NotAGenerator, ReducibleChain, stationary_distribution


def test_kron_dimensions_and_values():
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.eye(3, dtype=complex)
    ab = kron(a, b)
    assert ab.shape == (6, 6)
    assert np.array_equal(ab, np.kron(a, b))


def _kron_fold(*entries):
    """The former tensor.kron: numpy.kron folded from a 1 x 1 identity."""
    mat = np.eye(1)
    for e in entries:
        mat = np.kron(mat, e)
    return mat


@given(data=st.data())
def test_kron_equals_the_numpy_kron_fold(data):
    dims = data.draw(st.lists(st.integers(1, 4), max_size=3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ops = []
    for d in dims:
        entries = rng.normal(size=(d, d))
        if data.draw(st.booleans()):
            entries = entries + 1j * rng.normal(size=(d, d))
        ops.append(entries)
    product = kron(*ops)
    expected = _kron_fold(*ops)
    assert product.dtype == expected.dtype
    assert np.array_equal(product, expected)


def test_embed_matches_manual_kron():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    emb = embed(x, (2,), (2, 2, 2))
    manual = np.kron(np.eye(2), np.kron(x, np.eye(2)))
    assert np.allclose(emb, manual)


@given(data=st.data())
def test_embed_matches_entrywise_construction(data):
    site_dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    n = len(site_dims)
    # a prefix of a random permutation: non-adjacent and reversed tuples occur
    order = data.draw(st.permutations(range(1, n + 1)))
    sites = tuple(order[: data.draw(st.integers(1, n))])
    op_dims = tuple(site_dims[s - 1] for s in sites)
    d = math.prod(op_dims)
    seed = data.draw(st.integers(0, 2**32 - 1))
    entries = np.random.default_rng(seed).normal(size=(d, d))

    def index(digits, dims):
        out = 0
        for digit, dim in zip(digits, dims):
            out = out * dim + digit
        return out

    total = math.prod(site_dims)
    expected = np.zeros((total, total))
    basis = list(itertools.product(*(range(dim) for dim in site_dims)))
    for row in basis:
        for col in basis:
            # identity on every site the operator does not touch
            if any(row[s] != col[s] for s in range(n) if s + 1 not in sites):
                continue
            local_row = index([row[s - 1] for s in sites], op_dims)
            local_col = index([col[s - 1] for s in sites], op_dims)
            expected[index(row, site_dims), index(col, site_dims)] = entries[
                local_row, local_col
            ]
    got = embed(entries, sites, site_dims)
    assert np.array_equal(got, expected)


def test_embed_rejects_bad_sites():
    x = np.eye(6)
    with pytest.raises(DimensionMismatch):
        embed(x, (1, 1), (2, 3))
    with pytest.raises(DimensionMismatch):
        embed(x, (1,), (2, 3))  # the side of x is not that of the sites
    with pytest.raises(DimensionMismatch):
        embed(x, (1, 3), (2, 3))
    with pytest.raises(StateSpaceTooLarge):
        embed(x, (1, 2), (2, 3, 2**11))


def test_embed_checks_its_sites_before_it_allocates():
    # sites of dims (2, 512) do not have the side of x; the placed matrix
    # would be 2 * 3 * 512 = 3072 square: 75 MB
    x = np.eye(6)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch):
            embed(x, (1, 3), (2, 3, 512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_stack_past_the_dense_cap_is_refused_before_allocation():
    # 2^22 matrices of side 4 hold 2^26 entries, four dense matrices at
    # the cap; the broadcast factors themselves take no memory
    many = np.broadcast_to(np.eye(2), (2**22, 2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            kron(many, np.eye(2))
        with pytest.raises(StateSpaceTooLarge):
            kron(np.eye(2), many)
        with pytest.raises(StateSpaceTooLarge):
            embed(many, (1,), (2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # a stack of exactly MAX_DENSE_DIM^2 entries is allowed
    tensor.check_stack((2**20,), 4)
    with pytest.raises(StateSpaceTooLarge):
        tensor.check_stack((2**20 + 1,), 4)


def test_real_input_stays_real():
    r1 = uqsl2.rep(2, 0.6)
    at = np.array([0.4])
    ops = [
        permutation_operator(2, 3),
        ybe.r_alpha_beta(0.3, 0.6),
        ybe.asep_spectral_r(at, 0.5)[0],
        ybe.reflection_k(at, 0.5, 0.6, 0.15)[0],
        ybe.reflection_k(at, 0.5, -0.2, -0.4)[0],
        ybe.frt_r(0.7),
        *(m for _, m in models.asep_local_terms(
            models.AsepParams(q=0.5, alpha=0.6, beta=0.4, L=2), True)),
        models.asep_bulk_w(0.5),
        r1.E, r1.F, r1.K, r1.Kinv,
        oracles.universal_r(r1, uqsl2.rep(1, 0.6)),
        embed(kron(r1.K, r1.E), (2, 1), (3, 3)),
        oscillator.jordan_schwinger(np.array([[1.0, 2.0], [0.0, -1.0]]), 3),
    ]
    for op in ops:
        assert op.dtype == np.float64
    tables = [
        sixvertex.six_vertex_weights(0.3, 0.8),
        sixvertex.higher_spin_base_weights(2, 0.3, 0.5),
        sixvertex.fused_weights_recurrence(2, 2, 0.3, 0.5),
    ]
    for w in tables:
        assert w.table.dtype == np.float64
    fock = oscillator.truncated_fock(4)
    for mat in (fock.a, fock.adag, fock.number_op):
        assert mat.dtype == np.float64
    # complex input stays complex
    assert ybe.asep_spectral_r(np.array([0.4 + 0.1j]), 0.5)[0].dtype == np.complex128


@given(d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_permutation_swaps_factors(d1, d2):
    P = permutation_operator(d1, d2)
    u = np.arange(1, d1 + 1, dtype=float)
    v = np.arange(1, d2 + 1, dtype=float) * 10
    assert np.allclose(P @ np.kron(u, v), np.kron(v, u))


def test_permutation_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        permutation_operator(0, 2)


def test_generator_accepts_and_rejects():
    G = Generator(np.array([[-1.0, 1.0], [2.0, -2.0]]))
    assert G.dim == 2
    with pytest.raises(NotAGenerator):  # a row sum of -0.5
        Generator(np.array([[-1.0, 0.5], [2.0, -2.0]]))
    with pytest.raises(NotAGenerator):  # a negative off-diagonal rate
        Generator(np.array([[1.0, -1.0], [2.0, -2.0]]))
    with pytest.raises(NotAGenerator):
        Generator(np.array([[-1.0, 1.0], [2.0, -2.0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        Generator(np.zeros((2, 3)))


def test_generator_cap_precedes_the_csr_copy():
    # 2^20 + 1 states: refused from the shape, before the rates are copied
    import scipy.sparse

    n = tensor.MAX_STATE_SPACE + 1
    rates = scipy.sparse.csr_array((n, n))
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            Generator(rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stationary_two_state():
    G = Generator(np.array([[-1.0, 1.0], [3.0, -3.0]]))
    pi = stationary_distribution(G)
    assert pi.values == pytest.approx([0.75, 0.25])


def test_stationary_refuses_several_closed_classes():
    G = Generator(np.zeros((4, 4)))
    with pytest.raises(ReducibleChain):
        stationary_distribution(G)


def test_stationary_rejects_non_generator():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotAGenerator):
        stationary_distribution(bad)
    with pytest.raises(NotAGenerator):
        Generator(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_prob_vector_refuses_non_finite_entries(bad, where):
    values = np.array([0.0, 1.0])
    values[where] = bad
    with pytest.raises(ParameterError):
        ProbVector(values)


RATE = st.floats(0.05, 1.0)
# A boundary rate that is zero half of the time: gamma = delta = 0 is the
# injection-only, extraction-only open chain.
EXCHANGE = st.one_of(st.just(0.0), RATE)


def _null_space_law(dense):
    """The stationary law as the one dense null vector of G^T."""
    import scipy.linalg

    null = scipy.linalg.null_space(dense.T)
    assert null.shape[1] == 1
    return np.abs(null[:, 0]) / np.abs(null[:, 0]).sum()


@st.composite
def _stationary_cases(draw):
    """A generator: open ASEP at L <= 7, the closed chain restricted to its
    half-filled sector, or a random sparse irreducible generator."""
    kind = draw(st.sampled_from(["open", "closed", "random"]))
    if kind == "random":
        n = draw(st.integers(2, 16))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rates = np.zeros((n, n))
        # a cycle through every state makes the chain irreducible
        cycle = rng.permutation(n)
        rates[cycle, np.roll(cycle, -1)] = rng.uniform(0.05, 1.0, n)
        extra = rng.random((n, n)) < draw(st.floats(0.0, 0.5))
        rates[extra] += rng.uniform(0.05, 1.0, int(extra.sum()))
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        return Generator(rates)
    p = models.AsepParams(q=draw(RATE), alpha=draw(RATE), beta=draw(RATE),
                          gamma=draw(EXCHANGE), delta=draw(EXCHANGE),
                          L=draw(st.integers(1 if kind == "open" else 2, 7)))
    G = oracles.asep_generator(p, open_boundary=kind == "open")
    if kind == "open":
        return G
    filled = [bin(s).count("1") for s in range(2**p.L)]
    sector = np.flatnonzero(np.array(filled) == p.L // 2)
    return Generator(G.rates[sector][:, sector])


@settings(max_examples=60, deadline=None)
@given(G=_stationary_cases())
def test_stationary_matches_dense_null_space(G):
    pi = stationary_distribution(G).values
    assert np.max(np.abs(pi - _null_space_law(G.rates.toarray()))) <= 1e-12
    assert np.abs(G.rates.T @ pi).sum() <= 1e-13


# Open chains over a wide range of rates. Closeness to the dense null
# vector is no test here: that oracle itself misses 1e-12 in metastable
# corners such as q = 13.5, alpha = 0.09, beta = 0.07, L = 8.
@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 11), q=st.floats(0.05, 20.0),
       rates=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
                      min_size=4, max_size=4))
# Both pinned the first state at a mass of about 1e-19 and missed by 1 to 8.
@example(L=7, q=6.54, rates=[2.55, 3.09, 0.0, 2.61])
@example(L=11, q=0.0246, rates=[2.45, 0.0125, 0.0209, 0.00621])
# A re-pin where a 64-step walk from the uniform law peaked left 0.871 here.
@example(L=10, q=46.47848607733105, rates=[0.0027522646135283743,
                                          0.0052862984388549455, 0.0,
                                          0.44790675088142945])
def test_stationary_residual_is_at_rounding_level(L, q, rates):
    alpha, beta, gamma, delta = rates
    p = models.AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    G = oracles.asep_generator(p, open_boundary=True)
    try:
        pi = stationary_distribution(G).values
    except ReducibleChain:  # no boundary rate: a closed chain
        assume(False)
    rate = float(-G.rates.diagonal().min())
    assert np.abs(G.rates.T @ pi).sum() <= 1e-13 * max(1.0, rate)


@pytest.mark.parametrize("leak", [1e-300, 1e-16])
def test_exact_zero_pivot_pins_again_at_its_state(leak):
    # State 1 returns to state 0 at a rate lost to rounding, so pinned at
    # state 0 the system {1, 2} is singular in floats: dgbsv meets an
    # exactly zero pivot and leaves no finite weight but the pin.
    G = Generator(np.array([[-1.0, 1.0, 0.0],
                            [leak, -(1.0 + leak), 1.0],
                            [0.0, 1.0, -1.0]]))
    solved = oracles._pinned_solve(G.rates.T.tocsc())
    assert solved[0] == 1.0 and np.isinf(solved).sum() == 1
    pi = stationary_distribution(G).values
    assert np.allclose(pi, [leak / 2, 0.5, 0.5], rtol=1e-12, atol=0.0)


# The stability argument of stationary_distribution, on the band it solves
# last: elimination keeps the columns diagonally dominant, so the factor U
# grows by at most 2 over A. With every boundary rate positive, no column
# ties its diagonal, and partial pivoting exchanges no rows. A zero rate
# allows such ties, and rounding may break them either way.
@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 11), q=st.floats(0.05, 20.0),
       rates=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0)),
                      min_size=4, max_size=4))
@example(L=9, q=0.1875, rates=[0.0, 0.0, 1.0, 2.0])  # exchanges rows 509, 510
def test_band_factorisation_is_stable(L, q, rates):
    from unittest import mock

    from scipy.linalg.lapack import dgbsv

    alpha, beta, gamma, delta = rates
    p = models.AsepParams(q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L)
    G = oracles.asep_generator(p, open_boundary=True)
    build, bands = oracles._band_system, []

    def spy(system):
        order, kl, ku, band = build(system)
        bands.append((kl, ku, band.copy(order="F")))
        return order, kl, ku, band

    with mock.patch.object(oracles, "_band_system", spy):
        try:
            stationary_distribution(G)
        except ReducibleChain:  # no boundary rate: a closed chain
            assume(False)
    assume(bands)
    kl, ku, band = bands[-1]
    n = band.shape[1]
    factors, piv, _, info = dgbsv(kl, ku, band.copy(order="F"), np.ones((n, 1)))
    assert info == 0
    assert np.abs(factors[:kl + ku + 1]).max() <= 2 * np.abs(band).max()
    if min(rates) > 0:
        assert np.array_equal(piv, np.arange(n))


def test_band_past_its_cap_is_refused_before_allocation():
    import tracemalloc

    # The open chain's band at L = 15 would take 1,077 MiB.
    p = models.AsepParams(q=0.5, alpha=0.6, beta=0.4, gamma=0.1, delta=0.2, L=15)
    G = oracles.asep_generator(p, open_boundary=True)
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            stationary_distribution(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
