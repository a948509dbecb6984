from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from integrable import qnum
from integrable.errors import ParameterError


@given(
    a=st.floats(-2, 2),
    q=st.floats(0.05, 0.95),
    n=st.integers(0, 8),
)
def test_pochhammer_recursion(a, q, n):
    # (a;q)_{n+1} = (a;q)_n (1 - a q^n), of the fusion oracle's q-Pochhammer
    lhs = oracles.q_pochhammer(a, q, n + 1)
    rhs = oracles.q_pochhammer(a, q, n) * (1 - a * q**n)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pochhammer_negative_order_raises():
    for n in (-1, -3):
        with pytest.raises(ParameterError):
            oracles.q_pochhammer(2.0, 0.5, n)


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
