from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from integrable import qnum


@given(
    a=st.floats(-2, 2),
    q=st.floats(0.05, 0.95),
    n=st.integers(0, 8),
)
def test_pochhammer_recursion(a, q, n):
    # (a;q)_{n+1} = (a;q)_n (1 - a q^n)
    lhs = qnum.q_pochhammer(a, q, n + 1)
    rhs = qnum.q_pochhammer(a, q, n) * (1 - a * q**n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(q=st.floats(0.1, 0.9), n=st.integers(1, 6))
def test_pochhammer_negative_order_inverts(q, n):
    a = 2.0  # a > 1 keeps a q^{-k} away from the pole at 1 for q < 1
    pos = qnum.q_pochhammer(a * q ** (-n), q, n)
    neg = qnum.q_pochhammer(a, q, -n)
    assert abs(pos * neg - 1.0) <= 1e-8 * max(1.0, abs(pos))


@given(
    l=st.integers(0, 10), j=st.integers(0, 10), q=st.floats(0.1, 2.0)
)
@settings(max_examples=60)
def test_q_binomial_pascal(l, j, q):
    if j > l or abs(q - 1.0) < 1e-3:
        return
    # q-Pascal rule: C(l+1,j) = C(l,j) + q^(l+1-j) C(l,j-1)
    lhs = qnum.q_binomial(l + 1, j, q)
    rhs = qnum.q_binomial(l, j, q)
    if j >= 1:
        rhs += q ** (l + 1 - j) * qnum.q_binomial(l, j - 1, q)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 7), Fraction(5, 3)])
def test_q_binomial_pascal_is_exact_at_rational_q(q):
    for l in range(8):
        for j in range(l + 2):
            rhs = qnum.q_binomial(l, j, q) + q ** (l + 1 - j) * qnum.q_binomial(
                l, j - 1, q
            )
            assert qnum.q_binomial(l + 1, j, q) == rhs
            assert isinstance(rhs, Fraction)


def test_q_binomial_counts_at_q_one_limit():
    assert qnum.q_binomial(5, 2, 1.0 + 1e-9) == pytest.approx(10.0, rel=1e-6)


def test_q_int_and_factorial():
    q = 0.5
    assert qnum.q_int(3, q) == pytest.approx(1 + q + q**2)
    assert qnum.q_factorial(3, q) == pytest.approx(
        qnum.q_int(1, q) * qnum.q_int(2, q) * qnum.q_int(3, q)
    )


def test_basic_hypergeometric_q_binomial_theorem():
    # 1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf, here via a terminating
    # upper parameter a = q^{-3}
    q, z = 0.4, 0.2
    spec = qnum.HypergeometricSpec(upper=(q**-3,), lower=(), q=q, z=z)
    val = qnum.basic_hypergeometric(spec)
    expected = qnum.q_pochhammer(q**-3 * z, q, 3) / qnum.q_pochhammer(
        z * q ** 0, q, 0
    )
    # terminating case: finite product form (z q^{-3} a; q)_3 with a=1
    assert abs(val - expected) <= 1e-10 * max(1.0, abs(expected))


def test_basic_hypergeometric_pole_raises():
    spec = qnum.HypergeometricSpec(
        upper=(0.4**-2,), lower=(0.4**-1,), q=0.4, z=0.3
    )
    with pytest.raises(qnum.PoleInLowerParameters):
        qnum.basic_hypergeometric(spec)


def test_q_racah_degree_zero_is_one():
    p = qnum.QRacahParams(
        n=0, x=1, alpha=0.4 ** (-4), beta=0.3, gamma=0.2, delta=0.5,
        q=0.4, N=3,
    )
    assert qnum.q_racah(p) == pytest.approx(1.0)


def test_q_racah_orthogonality_small():
    # 4phi3 truncation data: alpha q = q^{-N}
    q, N = 0.5, 2
    alpha = q ** (-N - 1)
    beta, gamma, delta = 0.3, 0.7, 0.6

    def R(n, x):
        return qnum.q_racah(
            qnum.QRacahParams(
                n=n, x=x, alpha=alpha, beta=beta, gamma=gamma,
                delta=delta, q=q, N=N,
            )
        )

    # polynomials of different degree are distinct functions of mu(x)
    vals = np.array([[R(n, x) for x in range(N + 1)] for n in range(N + 1)])
    assert np.linalg.matrix_rank(vals) == N + 1


def test_mu_symmetric_combination():
    q, gamma, delta = 0.5, 0.7, 0.6
    for x in range(4):
        m = qnum.mu(x, gamma, delta, q)
        assert m == pytest.approx(q**-x + gamma * delta * q ** (x + 1))
