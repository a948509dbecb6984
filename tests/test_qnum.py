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
    lhs = oracles.q_binomial(l + 1, j, q)
    rhs = oracles.q_binomial(l, j, q)
    if j >= 1:
        rhs += q ** (l + 1 - j) * oracles.q_binomial(l, j - 1, q)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 7), Fraction(5, 3)])
def test_q_binomial_pascal_is_exact_at_rational_q(q):
    for l in range(8):
        for j in range(l + 2):
            rhs = oracles.q_binomial(l, j, q) + q ** (l + 1 - j) * oracles.q_binomial(
                l, j - 1, q
            )
            assert oracles.q_binomial(l + 1, j, q) == rhs
            assert isinstance(rhs, Fraction)


def test_q_binomial_counts_at_q_one_limit():
    assert oracles.q_binomial(5, 2, 1.0 + 1e-9) == pytest.approx(10.0, rel=1e-6)
    assert oracles.q_binomial(5, 2, 1.0) == 10.0


@given(n=st.integers(0, 40),
       q=st.one_of(st.floats(0.01, 20.0), st.floats(1 - 1e-6, 1 + 1e-6)))
def test_q_ints_equal_the_exact_sums(n, q):
    # the exact sum of powers of the float q; each [k] is within a few
    # roundings of it, also where (1 - q^k)/(1 - q) would cancel
    exact = [sum(Fraction(q) ** i for i in range(k)) for k in range(n + 1)]
    got = qnum.q_ints(n, q)
    assert len(got) == n + 1 and got[0] == 0
    for k, (value, sum_k) in enumerate(zip(got, exact)):
        assert abs(Fraction(value) - sum_k) <= 4 * k * 2.0**-53 * sum_k


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(5, 3), Fraction(-3, 7)])
def test_q_ints_are_exact_at_rational_q(q):
    got = qnum.q_ints(12, q)
    assert all(isinstance(v, Fraction) for v in got)
    assert got == [(1 - q**k) / (1 - q) for k in range(13)]


@pytest.mark.parametrize("one", [1, 1.0, Fraction(1)])
def test_q_ints_at_q_one_are_the_integers(one):
    got = qnum.q_ints(16, one)
    assert got == list(range(17))
    assert all(type(v) is type(one) for v in got)
