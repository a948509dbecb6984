"""Finite-dimensional representations of U_q(sl2), defining-relation
checks, and the universal R-matrix on pairs of representations, checked
by weight grading.

On the (m+1)-dimensional representation with weight basis v_0..v_m:
    e v_k = [(q^{m-k} - q^{k-m}) / (q - q^{-1})] v_{k+1}
    f v_k = [(q^k - q^{-k}) / (q - q^{-1})] v_{k-1}
    h v_k = (2k - m) v_k,   K = q^h
All powers q^{c h} are realized diagonally on the weight basis, and no
matrix is built: `check_relations` evaluates each defining relation on the
one diagonal where it can be nonzero, from the same q tables (`_q_tables`)
as the universal-R check. The dense representation, one (m+1) x (m+1)
array for each of e, f, K and K^{-1}, is the test suite's oracle.

The universal R on V_l (x) V_m is checked by weight grading, in factored
form R = C U (`universal_r_check`): C is diagonal, U maps the weight block
a + b = s into itself, and the intertwining U Delta(x) = C^-1 Delta'(x) C U
is a sum of four terms on each point of an (a, b, k) grid, with only
integer powers of q. The same code runs on a float q and, exactly, on a
Fraction q. The dense R, built one numpy.kron at a time, is the check's oracle
in the test suite (tests/oracles.py), and nothing here builds it.

What the check computes from (l, m) alone is its plan (`_Plan`): the
indices into the q tables of the weights and of the terms, all by integer
arithmetic. The plan of a grid of at most MAX_EXACT_GRID points, the grids
the exact check takes, is kept read-only, one per shape, so a float check
and its exact rerun build one plan. At most _PLANS = 32 are kept, each at
most about 0.8 MB, so about 25 MB in all. A larger grid builds its term
indices one chunk at a time.

The checks return residuals and pass no verdict; the caller compares them
with its tolerance.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .tensor import MAX_DENSE_DIM, StateSpaceTooLarge, state_space


class InvalidDeformation(ParameterError):
    pass


def _check_input(q, *labels) -> None:
    """Check the spin labels and q, for both checks."""
    if min(labels) < 0:
        raise ParameterError(f"spin label{'s' * (len(labels) > 1)} must be nonnegative, "
                             f"got {', '.join(map(str, labels))}")
    if q <= 0 or q == 1:
        raise InvalidDeformation(f"need q > 0 and q != 1, got {q}")


def check_relations(m: int, q: float) -> dict:
    """Residuals of the defining relations, the antipode anti-homomorphism,
    and counit consistency on the trivial rep, on the (m+1)-dimensional
    representation; m + 1 is checked against the dense cap before anything
    is allocated. Each relation is evaluated on the one diagonal of the
    weight basis where it can be nonzero, with the products of the dense
    matrices in their order, so the residuals are theirs to the bit
    (tests/oracles.py). A relation's residual is its largest componentwise
    relative residual |sum of terms| / sum |terms|, 0 where every term is
    0, as in `universal_r_check`: the terms grow like q^(+-2m), and an
    absolute residual would fail correct identities at large m. The counit
    is absolute."""
    _check_input(q, m)
    state_space((m + 1,))
    powers, qint = _q_tables(q, m, float)
    # e v_k = [m - k] v_(k+1), f v_(k+1) = [k + 1] v_k and K v_k = q^(2k - m) v_k
    e, f, K = qint[m + 1:][::-1], qint[m + 1:], powers[::2]
    Kinv = 1.0 / K
    denom = q - 1.0 / q

    def relative(*terms):
        total = np.abs(sum(terms))
        size = sum(np.abs(term) for term in terms)
        return float((total / np.where(size == 0, 1, size)).max(initial=0.0))

    # the diagonals of the commutators, from products padded with a zero at
    # each end: (E F)_kk = ef[k] and (F E)_kk = ef[k + 1]
    ef, s = np.zeros(m + 2), np.zeros(m + 2)
    with np.errstate(all="ignore"):
        ef[1:-1] = e * f
        res = {
            "kek": relative(K[1:] * e * Kinv[:-1], -q**2 * e),
            "kfk": relative(K[:-1] * f * Kinv[1:], -q**-2 * f),
            "ef_commutator": relative(ef[:-1], -ef[1:], -(K - Kinv) / denom),
            "k_kinv": relative(K * Kinv, -1.0),
        }
        # Antipode S(e) = -K^{-1} e, S(f) = -f K, S(K) = K^{-1}; being an
        # anti-homomorphism it must reverse the commutation relation:
        # (SE SF)_kk = s[k] and (SF SE)_kk = s[k + 1].
        SE = -Kinv[1:] * e
        SF = -f * K[1:]
        s[1:-1] = SF * SE
        res["antipode_commutator"] = relative(s[1:], -s[:-1], -(Kinv - K) / denom)
        res["antipode_kek"] = relative(K[1:] * SE * Kinv[:-1], -q**2 * SE)
    # Counit: on the trivial (m=0) rep, e and f act as 0 (they have no
    # entries) and K as 1.
    if m == 0:
        res["counit"] = float(np.abs(K - 1.0).max())
    return res


# Entries of the (a, b, k) grid the graded check works on: as many as one
# dense matrix at the cap holds (tensor.check_stack's budget).
MAX_GRID = MAX_DENSE_DIM**2
# The exact check runs in Fraction arithmetic, whose cost per grid point
# grows with l and m: 1.6 s for the 3,600 points of l = m = 14 at q = 0.7.
MAX_EXACT_GRID = 2**12

# Points of the grid evaluated at once, about 410 bytes each: a small grid
# takes one pass, and a large one holds this many (1.7 MB) and its weights,
# about 50 bytes a point. Eight times as many took 1.3 to 1.5 times as long at
# l = m = 24 and 63, on a 2-core x86 VM: the chunk no longer stays in cache.
_CHUNK = 2**12
# Plans kept, one per shape (l, m) whose grid has at most MAX_EXACT_GRID
# points, so a float check and its exact rerun share one. A plan holds 24
# int64 per grid point, at most about 0.8 MB, so the kept plans hold at
# most about 25 MB.
_PLANS = 32

# Each term of (U Delta(x) - Dt(x) U) at grid point (a, b, k), four for
# each of x = e and x = f: its sign; the argument n of its q-integer [n] and
# the power p of q, each as coefficients on (a, b, k, l, m, 1); and the
# shift (da, db, dk) of the entry u(a + da, b + db, k + dk) it multiplies.
_TERMS = np.array([
    # sign  n: a   b   k   l   m   1     p: a   b   k   l   m   1    da  db  dk
    [+1,       0, -1,  0,  0,  1,  0,        2,  0,  0, -1,  0,  0,    0,  1, -1],
    [+1,      -1,  0,  0,  1,  0,  0,        0,  0,  0,  0,  0,  0,    1,  0,  0],
    [-1,      -1,  0,  1,  1,  0,  0,        0,  0,  0,  0,  0,  0,    0,  0,  0],
    [-1,       0, -1, -1,  0,  1,  1,       -2,  0,  2,  1,  0, -2,    0,  0, -1],
    [+1,       0,  1,  0,  0,  0,  0,        0,  0,  0,  0,  0,  0,    0, -1,  0],
    [+1,       1,  0,  0,  0,  0,  0,        0, -2,  0,  0,  1,  0,   -1,  0, -1],
    [-1,       1,  0, -1,  0,  0,  1,        0,  2,  2,  0, -1, -2,    0,  0, -1],
    [-1,       0,  1,  1,  0,  0,  0,        0,  0,  0,  0,  0,  0,    0,  0,  0],
])
_SIGN = _TERMS[:, :1]
# _AFFINE[c] holds the coefficients on c in (a, b, k, l, m, 1) of each
# term's n (row 0) and p (row 1), shaped to broadcast on (a, b) and k.
_AFFINE = _TERMS[:, 1:13].reshape(8, 2, 6).T.copy()[..., None, None]
_SHIFT = _TERMS[:, 13:]
# The exponent of a zero term: below every exponent of a nonzero one, and
# far enough from the int32 bounds that differences with it do not wrap.
_NO_EXPONENT = -(2**30)


class _Plan(NamedTuple):
    """What the graded check computes from (l, m) alone. ratio: the indices
    into the q tables (powers, then qint three times) of the weights' ratio
    u(a, b, i) / u(a, b, i-1); terms: the eight terms' (n, p, at) on the
    whole grid (`_term_index`) in a kept plan, else None."""

    ratio: tuple
    terms: tuple | None


def _is_exact(q) -> bool:
    """True for a rational q that is not an int, such as a Fraction: the
    checks then run in its exact arithmetic."""
    return isinstance(q, numbers.Rational) and not isinstance(q, numbers.Integral)


def _grid(l: int, m: int) -> tuple:
    """The (a, b, k) grid's shape: a <= l, b <= m, k <= min(l, m) + 1."""
    return l + 1, m + 1, min(l, m) + 2


def _check_grid(l: int, m: int, q) -> None:
    """Check l, m and q, and the (a, b, k) grid's entry count against its
    cap, MAX_EXACT_GRID for a Fraction q and MAX_GRID otherwise, before
    anything is allocated on it."""
    _check_input(q, l, m)
    cap = MAX_EXACT_GRID if _is_exact(q) else MAX_GRID
    if math.prod(_grid(l, m)) > cap:
        raise StateSpaceTooLarge(f"the {_grid(l, m)} grid exceeds {cap} entries")


def _q_tables(q, N: int, dtype) -> tuple:
    """q^j and the q-integer [j] = (q^j - q^-j) / (q - q^-1) for |j| <= N,
    both at index j + N. A float power is Python's, not numpy's, which can
    differ in the last digit."""
    q = q if dtype == object else float(q)
    powers = np.array([q**j for j in range(-N, N + 1)], dtype=dtype)
    return powers, (powers - powers[::-1]) / (q - 1 / q)


def _tables(l: int, m: int, q) -> tuple:
    """The q tables the graded check reads on V_l (x) V_m, exact for an
    exact q."""
    return _q_tables(q, l + m + 2 * min(l, m) + 2, object if _is_exact(q) else float)


def _term_index(l: int, m: int, start: int, stop: int) -> tuple:
    """The eight terms' q-integer index n, power index p and index `at` into
    the padded flat weights (see `_residuals`), each of shape (8, points), at
    every grid point (a, b, k) whose (a, b) is start..stop-1 in flat order."""
    side = min(l, m) + 1
    a, b = np.divmod(np.arange(start, stop)[:, None], m + 1)
    k = np.arange(side + 1)
    # the constant joins before k, so only the last sum takes the chunk's
    # full size
    constant = _AFFINE[3] * l + _AFFINE[4] * m + _AFFINE[5] + l + m + 2 * side
    n, p = (_AFFINE[0] * a + _AFFINE[1] * b + constant + _AFFINE[2] * k).reshape(2, 8, -1)
    # the padded weights have shape (l + 3, m + 3, side + 2): each shift,
    # plus one for the border, adds its offset to the point's
    offset = ((_SHIFT[:, :1] + 1) * (m + 3) + _SHIFT[:, 1:2] + 1) * (side + 2) + _SHIFT[:, 2:] + 1
    at = offset[:, :, None] + (a * (m + 3) + b) * (side + 2) + k
    return n, p, at.reshape(8, -1)


def _weight_plan(l: int, m: int) -> _Plan:
    """The plan of (l, m) without its term indices."""
    side = min(l, m) + 1
    N = l + m + 2 * side
    a = np.arange(l + 1)[:, None, None]
    b = np.arange(m + 1)[None, :, None]
    i = np.arange(1, side)
    ratio = (i - 1 + N, i + N, a - i + 1 + N, m - b - i + 1 + N)
    return _Plan(ratio, None)


@functools.lru_cache(maxsize=_PLANS)
def _kept_plan(l: int, m: int) -> _Plan:
    """The plan of a grid of at most MAX_EXACT_GRID points, read-only."""
    plan = _weight_plan(l, m)._replace(terms=_term_index(l, m, 0, (l + 1) * (m + 1)))
    for array in (*plan.ratio, *plan.terms):
        array.setflags(write=False)
    return plan


def _plan(l: int, m: int) -> _Plan:
    """The plan of (l, m): kept for a grid of at most MAX_EXACT_GRID points,
    otherwise built afresh, without term indices, which the check then
    builds one chunk at a time."""
    if math.prod(_grid(l, m)) <= MAX_EXACT_GRID:
        return _kept_plan(l, m)
    return _weight_plan(l, m)


def _weights(q, tables, plan: _Plan) -> tuple:
    """The weights of the universal R on V_l (x) V_m, from its q tables and
    plan. R is in factored form R = C U: C is the diagonal q^(w_a w_b / 2), w_a = 2a - l and w_b = 2b - m, and U, unit
    triangular on each weight block a + b = s, maps v_a (x) v_b to
    sum_i u[a, b, i] v_(a-i) (x) v_(b+i), for i <= min(l, m), with
        u(a, b, i) = c_i [a]!/[a-i]! [m-b]!/[m-b-i]!,
        c_i = (q - q^-1)^i q^(i(i-1)/2) / [i]!,
    from one cumprod over i of u(a, b, i) / u(a, b, i-1). At
    i = min(a, m - b) + 1 the ratio holds the factor [0] = 0, so from there
    on the weight is exactly zero and its exponent means nothing. The
    weights grow like q^(-lm), so for a float q they come as (mantissa,
    exponent), u = mantissa * 2^exponent, with a nonzero mantissa in
    [0.5^i, 1). For a Fraction q they come exact, as an object array, with
    exponent 0."""
    powers, qint = tables
    at_power, at_i, at_a, at_b = plan.ratio
    with np.errstate(all="ignore"):
        ratio = (q - 1 / q) * powers[at_power] / qint[at_i] * qint[at_a] * qint[at_b]
        shape = (*ratio.shape[:2], ratio.shape[2] + 1)
        mantissa = np.ones(shape, ratio.dtype)
        exponent = np.zeros(shape, np.int32)
        if powers.dtype == object:
            np.multiply.accumulate(ratio, axis=2, out=mantissa[..., 1:])
        else:
            step, shift = np.frexp(ratio)
            np.cumprod(step, axis=2, out=mantissa[..., 1:])
            np.cumsum(shift, axis=2, out=exponent[..., 1:])
    return mantissa, exponent


def _residuals(mantissa: np.ndarray, exponent: np.ndarray, tables, plan: _Plan) -> dict:
    """Residuals of U Delta(x) = Dt(x) U, for x in (e, f), on the weights u
    of `_weights` (mantissa, exponent), on V_l (x) V_m. Here
    Dt(x) = C^-1 Delta'(x) C, Delta' is the coproduct with its legs swapped,
    and only integer powers of q appear:
        Delta(e) = K (x) E + E (x) 1,    Dt(e) = E (x) 1 + K^-1 (x) E,
        Delta(f) = 1 (x) F + F (x) K^-1, Dt(f) = F (x) K + 1 (x) F.
    The entry of U Delta(x) - Dt(x) U from v_a (x) v_b to v_(a+1-k) (x)
    v_(b+k) (x = e) or v_(a-k) (x) v_(b+k-1) (x = f) is a sum of four
    terms: a q-integer, times a power of q, times an entry of u (_TERMS).
    Each term is scaled by 2^-E, E the largest exponent among the terms at
    its grid point, which keeps the float sums in range. The grid is taken
    at most _CHUNK points at a time, every k of an (a, b) in one chunk.

    Returns {x: (relative, absolute)}: the largest componentwise relative
    residual |sum of terms| / sum |terms| over the grid, which no diagonal
    change of basis moves, and the largest |sum of terms|, the absolute
    residual in the weight basis, inf where it passes the float range.
    Fraction weights give both exactly, as Fractions."""
    l, m, side = mantissa.shape[0] - 1, mantissa.shape[1] - 1, mantissa.shape[2]
    exact = mantissa.dtype == object
    powers, qint = tables
    # u's entries with a zero border, so every shifted read lands inside,
    # read by flat index (`_term_index`)
    shape = (l + 3, m + 3, side + 2)
    u_m = np.zeros(shape, mantissa.dtype)
    u_e = np.zeros(shape, np.int32)
    u_m[1:-1, 1:-1, 1:-1] = mantissa
    u_e[1:-1, 1:-1, 1:-1] = exponent
    u_m, u_e = u_m.ravel(), u_e.ravel()
    # a chunk holds every k of as many (a, b) as fit in _CHUNK points
    pairs, step = (l + 1) * (m + 1), max(1, _CHUNK // (side + 1))
    chunks = ([plan.terms] if plan.terms is not None else
              (_term_index(l, m, start, min(start + step, pairs))
               for start in range(0, pairs, step)))
    worst = np.zeros((2, 2), mantissa.dtype)  # (relative, absolute) by x
    with np.errstate(all="ignore"):
        for n, p, at in chunks:
            terms = qint[n]
            terms *= _SIGN
            terms *= powers[p]
            terms *= u_m[at]
            terms = terms.reshape(2, 4, -1)
            if not exact:
                shift = u_e[at].reshape(2, 4, -1)
                scale = np.max(np.where(terms != 0, shift, _NO_EXPONENT), axis=1)
                np.ldexp(terms, np.subtract(shift, scale[:, None], out=shift), out=terms)
            total = np.abs(terms.sum(axis=1))
            size = np.abs(terms, out=terms).sum(axis=1)
            relative = (total / np.where(size == 0, 1, size)).max(axis=1)
            absolute = (total if exact else np.ldexp(total, scale)).max(axis=1)
            worst = np.maximum(worst, np.array([relative, absolute]).T)
    return {gen: tuple(worst[g]) for g, gen in enumerate("ef")}


def _finite_or_none(value):
    try:
        value = float(value)
    except OverflowError:  # an exact rational past the float range
        return None
    return value if math.isfinite(value) else None


def universal_r_check(l: int, m: int, q) -> tuple:
    """The universal R's intertwining on V_l (x) V_m, block by weight block
    in its factored form R = C U (see `_weights` and `_residuals`); no
    dense R, Delta(x) or inverse is built. K (x) K is constant on every block, so R commutes with Delta(k), and U
    is unit triangular, so R is invertible: both hold by construction.

    Returns (residuals, results): residuals holds the componentwise relative
    residuals intertwine_e and intertwine_f; results holds the absolute
    ones (None past the float range), the block count l + m + 1, the
    largest block side min(l, m) + 1 and whether q was exact (a
    Fraction)."""
    _check_grid(l, m, q)
    tables, plan = _tables(l, m, q), _plan(l, m)
    checked = _residuals(*_weights(q, tables, plan), tables, plan)
    residuals = {f"intertwine_{gen}": float(rel) for gen, (rel, _) in checked.items()}
    results = {
        "absolute": {f"intertwine_{gen}": _finite_or_none(ab)
                     for gen, (_, ab) in checked.items()},
        "blocks": l + m + 1,
        "largest_block": min(l, m) + 1,
        "exact": _is_exact(q),
    }
    return residuals, results
