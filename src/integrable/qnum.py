"""q-arithmetic primitives: q-integers and q-binomials.

Conventions follow the standard q-analysis literature: the q-integer is
[n]_q = (1 - q^n)/(1 - q). Every function keeps the number type of its
input, so a Fraction q gives an exact value.
"""

from __future__ import annotations

# |q - 1| below this switches every q-formula to its analytic q -> 1 limit.
Q_ONE_THRESHOLD = 1e-8


def q_int(n: int, q: float) -> float:
    """[n]_q = (1 - q^n)/(1 - q), with the limit value n at q = 1."""
    if abs(q - 1) < Q_ONE_THRESHOLD:
        return n * q**0
    return (1 - q**n) / (1 - q)


def q_binomial(l: int, j: int, q: float) -> float:
    """Gaussian binomial [l choose j]_q; zero outside 0 <= j <= l.

    Computed by the product form prod_{k=1}^{j} [l-j+k]_q / [k]_q, which
    stays finite at q = 1 (classical binomial). Like q_int, it keeps the
    number type of q, so a Fraction q gives an exact value.
    """
    if j < 0 or j > l:
        return 0 * q
    out = q**0
    for k in range(1, j + 1):
        out *= q_int(l - j + k, q) / q_int(k, q)
    return out
