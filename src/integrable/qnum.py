"""q-arithmetic primitives: q-Pochhammer symbols, q-binomials, basic
hypergeometric series, and q-Racah polynomials.

Conventions follow the standard q-analysis literature: the q-integer is
[n]_q = (1 - q^n)/(1 - q), and the q-Racah polynomial is the terminating
4phi3 with argument mu(x) = q^{-x} + gamma*delta*q^{x+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError

# |q - 1| below this switches every q-formula to its analytic q -> 1 limit.
Q_ONE_THRESHOLD = 1e-8

# Relative tolerance for recognising a parameter as an exact power q^{-n}.
TERMINATION_RTOL = 1e-12


class NonTerminatingDivergent(ConvergenceError):
    """Series neither terminated nor converged within max_terms."""


class PoleInLowerParameters(ParameterError):
    """A lower parameter hit q^{-k} before the series terminated."""


def q_pochhammer(a: complex, q: float, n: int) -> complex:
    """(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k); empty product is 1.

    Negative orders use the standard continuation
    (a; q)_{-n} = 1 / (a q^{-n}; q)_n = prod_{k=1}^{n} 1/(1 - a q^{-k}),
    which diverges (pole) when a = q^k for some 1 <= k <= n. The value has
    the number type of a and q: real, complex, or an exact Fraction.
    """
    out = q**0
    if n < 0:
        for k in range(1, -n + 1):
            factor = 1 - a * q ** (-k)
            if abs(factor) < 1e-14:
                raise ParameterError(f"pole in (a;q)_{{{n}}} at a={a}, q={q}")
            out /= factor
        return out
    for k in range(n):
        out *= 1 - a * q**k
    return out


def q_int(n: int, q: float) -> float:
    """[n]_q = (1 - q^n)/(1 - q), with the limit value n at q = 1."""
    if abs(q - 1) < Q_ONE_THRESHOLD:
        return n * q**0
    return (1 - q**n) / (1 - q)


def q_factorial(n: int, q: float) -> float:
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    out = q**0
    for k in range(1, n + 1):
        out *= q_int(k, q)
    return out


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


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of an r-phi-s basic hypergeometric series."""

    upper: tuple
    lower: tuple
    q: float
    z: complex
    max_terms: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(self.upper))
        object.__setattr__(self, "lower", tuple(self.lower))


def _termination_index(upper, q, rtol=TERMINATION_RTOL):
    """Smallest n with some upper parameter equal to q^{-n}, or None.

    A parameter a = q^{-n} makes (a; q)_k vanish for k > n, so the series
    terminates exactly after the k = n term.
    """
    best = None
    for a in upper:
        if a == 0:
            continue
        # n solves |a - q^{-n}| small; scan a sane range of integers.
        for n in range(0, 512):
            target = q ** (-n)
            if abs(a - target) <= rtol * max(1.0, abs(target)):
                if best is None or n < best:
                    best = n
                break
    return best


def basic_hypergeometric(spec: HypergeometricSpec) -> complex:
    """Evaluate the r-phi-s series of `spec`.

    sum_k [(a_1..a_r; q)_k / (b_1..b_s; q)_k] *
          [(-1)^k q^(k choose 2)]^{1+s-r} * z^k / (q; q)_k

    Terminates exactly when some upper parameter is q^{-n}; otherwise sums
    until the running term drops below machine-scale tolerance.
    """
    q = spec.q
    z = complex(spec.z)
    r = len(spec.upper)
    s = len(spec.lower)
    stop = _termination_index(spec.upper, q)

    total = complex(0.0)
    term = complex(1.0)  # k = 0 term
    k = 0
    while True:
        total += term
        if stop is not None and k >= stop:
            return total
        if stop is None:
            if abs(term) < 1e-16 * max(1.0, abs(total)) and k > 0:
                return total
            if k >= spec.max_terms:
                raise NonTerminatingDivergent(
                    f"series did not terminate or converge in {spec.max_terms} terms"
                )
        # ratio from term k to k+1
        num = complex(1.0)
        for a in spec.upper:
            num *= 1.0 - a * q**k
        den = complex(1.0)
        for b in spec.lower:
            factor = 1.0 - b * q**k
            if abs(factor) <= TERMINATION_RTOL:
                raise PoleInLowerParameters(
                    f"lower parameter {b} hits q^{{-{k}}} before termination"
                )
            den *= factor
        den *= 1.0 - q ** (k + 1)  # the (q; q)_k factor
        extra = ((-1.0) * q**k) ** (1 + s - r)
        term = term * num / den * extra * z
        k += 1


@dataclass(frozen=True)
class QRacahParams:
    """Degree n, argument index x, parameters (alpha, beta, gamma, delta),
    deformation q, and truncation N of a q-Racah polynomial."""

    n: int
    x: int
    alpha: complex
    beta: complex
    gamma: complex
    delta: complex
    q: float
    N: int

    def __post_init__(self):
        if not (0 <= self.n <= self.N and 0 <= self.x <= self.N):
            raise ParameterError(
                f"need 0 <= n,x <= N, got n={self.n}, x={self.x}, N={self.N}"
            )
        target = self.q ** (-self.N)
        hits = sum(
            1
            for v in (
                self.alpha * self.q,
                self.beta * self.delta * self.q,
                self.gamma * self.q,
            )
            if abs(v - target) <= 1e-8 * max(1.0, abs(target))
        )
        if hits != 1:
            raise ParameterError(
                "exactly one of alpha*q, beta*delta*q, gamma*q must equal "
                f"q^-N; found {hits}"
            )


def q_racah(p: QRacahParams) -> complex:
    """R_n(mu(x); alpha, beta, gamma, delta | q).

    The terminating 4phi3 with upper parameters
    (q^{-n}, alpha*beta*q^{n+1}, q^{-x}, gamma*delta*q^{x+1}),
    lower parameters (alpha*q, beta*delta*q, gamma*q), and argument (q, q).
    """
    q = p.q
    spec = HypergeometricSpec(
        upper=(
            q ** (-p.n),
            p.alpha * p.beta * q ** (p.n + 1),
            q ** (-p.x),
            p.gamma * p.delta * q ** (p.x + 1),
        ),
        lower=(p.alpha * q, p.beta * p.delta * q, p.gamma * q),
        q=q,
        z=q,
    )
    return basic_hypergeometric(spec)


def mu(x: int, gamma: complex, delta: complex, q: float) -> complex:
    """q-Racah argument mu(x) = q^{-x} + gamma*delta*q^{x+1}."""
    return q ** (-x) + gamma * delta * q ** (x + 1)
