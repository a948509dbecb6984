import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from integrable import tensor
from integrable.tensor import (
    DimensionMismatch,
    Generator,
    NotAGenerator,
    Operator,
    ReducibleChain,
    embed_local,
    identity,
    is_generator,
    kron,
    permutation_operator,
    stationary_distribution,
    transition_row,
)


def test_kron_dimensions_and_values():
    a = Operator((2,), np.array([[0, 1], [1, 0]], dtype=complex))
    b = Operator((3,), np.eye(3, dtype=complex))
    ab = kron(a, b)
    assert ab.site_dims == (2, 3)
    assert np.allclose(ab.entries, np.kron(a.entries, b.entries))


def test_embed_local_matches_manual_kron():
    x = Operator((2,), np.array([[1, 2], [3, 4]], dtype=complex))
    emb = embed_local(x, 2, 3)
    manual = np.kron(np.eye(2), np.kron(x.entries, np.eye(2)))
    assert np.allclose(emb.entries, manual)


@given(d1=st.integers(1, 4), d2=st.integers(1, 4))
def test_permutation_swaps_factors(d1, d2):
    P = permutation_operator(d1, d2).entries
    u = np.arange(1, d1 + 1, dtype=float)
    v = np.arange(1, d2 + 1, dtype=float) * 10
    assert np.allclose(P @ np.kron(u, v), np.kron(v, u))


def test_permutation_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        permutation_operator(0, 2)


def test_is_generator_accepts_and_rejects():
    G = Operator((2,), np.array([[-1.0, 1.0], [2.0, -2.0]], dtype=complex))
    assert is_generator(G)
    bad = Operator((2,), np.array([[-1.0, 0.5], [2.0, -2.0]], dtype=complex))
    assert not is_generator(bad)


def test_stationary_two_state():
    G = Generator((2,), np.array([[-1.0, 1.0], [3.0, -3.0]]))
    pi = stationary_distribution(G)
    assert pi.values == pytest.approx([0.75, 0.25])


def test_stationary_reducible_needs_support():
    G = Generator((2, 2), np.zeros((4, 4)))
    with pytest.raises(ReducibleChain):
        stationary_distribution(G)


def test_stationary_rejects_non_generator():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotAGenerator):
        stationary_distribution(Operator((2,), bad))
    with pytest.raises(NotAGenerator):
        Generator((2,), bad)


def test_transition_row_is_stochastic_and_exact():
    G = Generator((2,), np.array([[-2.0, 2.0], [1.0, -1.0]]))
    t = 0.7
    P = np.array([transition_row(G, s, t) for s in range(2)])
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    from scipy.linalg import expm

    assert np.allclose(P, expm(t * G.rates.toarray()), atol=1e-12)


def test_identity_factory():
    I = identity((2, 3))
    assert I.site_dims == (2, 3)
    assert np.allclose(I.entries, np.eye(6))
