"""q-arithmetic primitives: the q-integers.

The q-integer [n]_q = 1 + q + ... + q^(n-1), which is (1 - q^n)/(1 - q)
for q != 1 and n at q = 1.
"""

from __future__ import annotations


def q_ints(n: int, q) -> list:
    """[0]_q, [1]_q, ..., [n]_q by [k]_q = [k-1]_q + q^(k-1). A sum of
    powers with no division: it has no cancellation near q = 1, equals the
    integers exactly at q = 1, and keeps the number type of q, so a
    Fraction q gives exact values."""
    out = [0 * q]
    for k in range(1, n + 1):
        out.append(out[-1] + q ** (k - 1))
    return out
