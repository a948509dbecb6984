import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from integrable import cli, uqsl2, ybe
from integrable.errors import ParameterError
from integrable.tensor import StateSpaceTooLarge, embed

import oracles

# Bytes the graded check holds at its peak per point of a chunk of its
# (a, b, k) grid (about 410 on numpy 2) and per point of the whole grid
# (about 50): 64 and 16 float64 values.
CHUNK_BYTES = 64 * 8
GRID_BYTES = 16 * 8


@pytest.mark.parametrize("q", [0.3, 0.7, 1.5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_defining_relations(m, q):
    res = uqsl2.check_relations(uqsl2.rep(m, q))
    assert max(res.values()) <= 1e-10, res


def test_rep_dimension_and_weights():
    r = uqsl2.rep(3, 0.5)
    assert r.dim == 4
    # K = q^h is diagonal with exponents m, m-2, ..., -m
    diag = np.diag(r.K).real
    assert np.allclose(sorted(diag), sorted(0.5 ** np.array([3, 1, -1, -3])))


def test_invalid_deformation_rejected():
    with pytest.raises(uqsl2.InvalidDeformation):
        uqsl2.rep(2, 1.0)
    with pytest.raises(uqsl2.InvalidDeformation):
        uqsl2.rep(2, 0.0)


def coproduct(rl, rm, gen):
    """Coproduct image on V_l (x) V_m, the dense oracle's:
    Delta(e) = K (x) E + E (x) 1,  Delta(f) = 1 (x) F + F (x) K^{-1},
    Delta(k) = K (x) K."""
    if gen == "e":
        return np.kron(rl.K, rm.E) + np.kron(rl.E, np.eye(rm.dim))
    if gen == "f":
        return np.kron(np.eye(rl.dim), rm.F) + np.kron(rl.F, rm.Kinv)
    return np.kron(rl.K, rm.K)


def opposite_coproduct(rl, rm, gen):
    """Delta' = P o Delta on V_l (x) V_m: Delta on V_m (x) V_l with its legs
    swapped."""
    return embed(coproduct(rm, rl, gen), (2, 1), (rl.dim, rm.dim))


def graded_r(l, m, q):
    """C U as a dense matrix, from the graded weights: R's column
    v_a (x) v_b holds c u(a, b, i) at v_(a-i) (x) v_(b+i), c the Cartan
    factor q^(w w' / 2) of that row."""
    u = np.ldexp(*uqsl2.universal_r_weights(l, m, q))
    R = np.zeros(((l + 1) * (m + 1),) * 2)
    for a, b, i in itertools.product(range(l + 1), range(m + 1), range(min(l, m) + 1)):
        if i <= a and b + i <= m:
            cartan = q ** ((2 * (a - i) - l) * (2 * (b + i) - m) / 2.0)
            R[(a - i) * (m + 1) + b + i, a * (m + 1) + b] = cartan * u[a, b, i]
    return R


def test_coproduct_vs_opposite_differ_generically():
    r = uqsl2.rep(1, 0.6)
    D = coproduct(r, r, "e")
    Dop = opposite_coproduct(r, r, "e")
    assert np.max(np.abs(D - Dop)) > 1e-3


@pytest.mark.parametrize("q", [0.4, 1.3])
@pytest.mark.parametrize("lm", [(1, 1), (1, 2), (2, 2)])
def test_universal_r_intertwines(lm, q):
    # the dense oracle R Delta(x) = Delta'(x) R, x in (e, f, k), R invertible;
    # and the graded check on the same pair
    l, m = lm
    rl, rm = uqsl2.rep(l, q), uqsl2.rep(m, q)
    R = oracles.universal_r(rl, rm)
    for gen in "efk":
        D, Dop = coproduct(rl, rm, gen), opposite_coproduct(rl, rm, gen)
        assert np.max(np.abs(R @ D - Dop @ R)) <= 1e-10
    assert np.max(np.abs(R @ np.linalg.inv(R) - np.eye(len(R)))) <= 1e-10
    residuals, results = uqsl2.universal_r_check(l, m, q)
    assert max(residuals.values()) <= 1e-14, residuals
    assert max(results["absolute"].values()) <= 1e-10, results
    assert results["blocks"] == l + m + 1
    assert results["largest_block"] == min(l, m) + 1
    assert results["exact"] is False


@pytest.mark.parametrize("q", [0.3, 0.7, 1.7])
@pytest.mark.parametrize("l", range(7))
def test_graded_factor_is_the_dense_r(l, q):
    for m in range(7):
        R = oracles.universal_r(uqsl2.rep(l, q), uqsl2.rep(m, q))
        CU = graded_r(l, m, q)
        weight = np.add.outer(np.arange(l + 1), np.arange(m + 1)).ravel()
        off_block = weight[:, None] != weight[None, :]
        assert np.all(R[off_block] == 0)
        assert np.all(np.abs(CU - R) <= 1e-14 * np.abs(R)), (l, m)
        residuals, _ = uqsl2.universal_r_check(l, m, q)
        assert max(residuals.values()) <= 1e-14, (l, m, residuals)


# test_cli runs (4, 4, 0.3) to (63, 63, 0.7) through the CLI; these add a
# smaller q, a q above 1 and unequal spins.
@pytest.mark.parametrize("lmq", [(63, 63, 0.3), (40, 40, 1.7), (3, 30, 0.5)])
def test_graded_check_holds_where_r_outgrows_a_float(lmq):
    residuals, results = uqsl2.universal_r_check(*lmq)
    assert max(residuals.values()) <= 1e-14, residuals
    assert results["exact"] is False


def test_absolute_residual_past_the_float_range_is_none():
    # U's weights pass the float range at (63, 63, 0.3), and so does their
    # absolute residual; the relative one stays at rounding
    residuals, results = uqsl2.universal_r_check(63, 63, 0.3)
    assert results["absolute"] == {"intertwine_e": None, "intertwine_f": None}
    assert max(residuals.values()) <= 1e-14


def loop_weights(l, m, q):
    """universal_r_weights one entry at a time: u(a, b, i) / u(a, b, i-1)
    where i <= min(a, m - b), else 0, multiplied up over i; for a float q
    as (mantissa, exponent) by frexp at each step."""
    side = min(l, m) + 1
    N = l + m + 2 * side
    exact = isinstance(q, Fraction)
    powers, qint = uqsl2._q_tables(q, N, object if exact else float)
    mantissa = np.ones((l + 1, m + 1, side), object if exact else float)
    exponent = np.zeros((l + 1, m + 1, side), np.int32)
    for a, b, i in itertools.product(range(l + 1), range(m + 1), range(1, side)):
        ratio = 0
        if i <= min(a, m - b):
            ratio = ((q - 1 / q) * powers[i - 1 + N] / qint[i + N]
                     * qint[a - i + 1 + N] * qint[m - b - i + 1 + N])
        step, shift = (ratio, 0) if exact else math.frexp(ratio)
        mantissa[a, b, i] = mantissa[a, b, i - 1] * step
        exponent[a, b, i] = exponent[a, b, i - 1] + shift
    return mantissa, exponent


SHAPES = [(0, 0), (0, 3), (1, 1), (2, 5), (5, 2), (4, 4), (3, 7)]


def _values(mantissa, exponent):
    """The weights u = mantissa 2^exponent; exact weights have exponent 0."""
    if mantissa.dtype == object:
        assert not exponent.any()
        return mantissa
    return np.ldexp(mantissa, exponent)


@pytest.mark.parametrize("q", [0.3, 1.7, Fraction(7, 10)])
def test_weights_are_the_loop_reference(q):
    # to the bit: the same operations on the same q tables, entry by entry.
    # A zero weight's exponent means nothing, so exponents are compared only
    # where the weight is nonzero.
    for l, m in SHAPES:
        got, want = uqsl2.universal_r_weights(l, m, q), loop_weights(l, m, q)
        assert got[0].shape == want[0].shape, (l, m)
        assert np.array_equal(_values(*got), _values(*want)), (l, m)
        nonzero = want[0] != 0
        assert np.array_equal(got[1][nonzero], want[1][nonzero]), (l, m)


@pytest.mark.parametrize("q", [0.3, 1.7, Fraction(7, 10)])
def test_kept_plan_gives_the_residuals_of_a_fresh_one(q, monkeypatch):
    # a kept plan, a fresh build of it, and the chunked term indices of a
    # large grid, one (a, b) per chunk, give the same residuals
    for l, m in SHAPES:
        kept = uqsl2._plan(l, m)
        assert kept is uqsl2._kept_plan(l, m)
        fresh = uqsl2._kept_plan.__wrapped__(l, m)
        tables = uqsl2._tables(l, m, q)
        weights = uqsl2._weights(q, tables, fresh)
        for got, want in zip(uqsl2._weights(q, tables, kept), weights):
            assert np.all(got == want)
        checked = uqsl2._residuals(*weights, tables, kept)
        assert uqsl2._residuals(*weights, tables, fresh) == checked
        with monkeypatch.context() as patch:
            patch.setattr(uqsl2, "_CHUNK", 1)
            chunked = uqsl2._residuals(*weights, tables, fresh._replace(terms=None))
        assert chunked == checked, (l, m)


def test_kept_plan_is_read_only():
    plan = uqsl2._plan(3, 4)
    for array in (*plan.ratio, *plan.terms):
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_plans_kept_are_bounded_and_small_grids_only():
    uqsl2._kept_plan.cache_clear()
    maxsize = uqsl2._kept_plan.cache_info().maxsize
    shapes = [(l, m) for l in range(1, 9) for m in range(1, 9)][:maxsize + 5]
    for l, m in shapes:
        uqsl2.universal_r_check(l, m, 0.7)
    assert uqsl2._kept_plan.cache_info().currsize <= maxsize
    # (24, 24): a grid of 16,250 points, over MAX_EXACT_GRID
    before = uqsl2._kept_plan.cache_info()
    assert math.prod(uqsl2._grid(24, 24)) > uqsl2.MAX_EXACT_GRID
    uqsl2.universal_r_check(24, 24, 0.7)
    assert uqsl2._kept_plan.cache_info() == before


def test_float_check_and_its_exact_rerun_build_one_plan(capsys):
    uqsl2._kept_plan.cache_clear()
    argv = ["--tol", "1e-17", "universal-r", "--l", "4", "--m", "4", "--q", "0.3"]
    assert cli.main(argv) == 0
    assert '"exact": true' in capsys.readouterr().out
    info = uqsl2._kept_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(0.7), Fraction(17, 10)])
def test_exact_check_is_zero_and_sees_one_perturbed_weight(q):
    residuals, results = uqsl2.universal_r_check(3, 4, q)
    assert residuals == {"intertwine_e": 0.0, "intertwine_f": 0.0}
    assert results["absolute"] == residuals
    assert results["exact"] is True
    mantissa, exponent = uqsl2.universal_r_weights(3, 4, q)
    assert not any(isinstance(x, float) for x in mantissa.flat)
    assert not exponent.any()
    mantissa[2, 1, 1] *= 1 + Fraction(1, 10**12)
    checked = uqsl2.intertwining_residuals(mantissa, exponent, q)
    assert all(relative > 0 for relative, _ in checked.values())


def test_graded_check_rejects_bad_input():
    with pytest.raises(uqsl2.InvalidDeformation):
        uqsl2.universal_r_check(2, 2, 1.0)
    with pytest.raises(uqsl2.InvalidDeformation):
        uqsl2.universal_r_check(2, 2, 0.0)
    with pytest.raises(ParameterError):
        uqsl2.universal_r_check(-1, 2, 0.5)
    # the exact check's grid is capped far below the float check's
    uqsl2.universal_r_check(20, 20, 0.7)
    with pytest.raises(StateSpaceTooLarge):
        uqsl2.universal_r_check(20, 20, Fraction(7, 10))


def test_deformation_mismatch_raises():
    with pytest.raises(oracles.DeformationMismatch):
        oracles.universal_r(uqsl2.rep(1, 0.4), uqsl2.rep(1, 0.5))


def test_braided_r_satisfies_braid_relation():
    # the braid relation of R-check = P o R
    r = uqsl2.rep(1, 0.7)
    assert ybe.verify_braided_ybe(oracles.universal_r(r, r))["r_check_residual"] <= 1e-12


def test_rep_beyond_the_dense_cap_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            uqsl2.rep(5000, 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the two 5001^2 matrices would take 400 MB


def test_universal_r_beyond_the_dense_cap_allocates_nothing():
    rl = uqsl2.rep(1000, 0.999)
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            oracles.universal_r(rl, rl)
        # the graded check's 1001 x 1001 x 1002 grid passes MAX_GRID
        with pytest.raises(StateSpaceTooLarge):
            uqsl2.universal_r_check(1000, 1000, 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 1001^2 Cartan diagonal alone would take 8 MB


def test_universal_r_check_memory_does_not_grow_with_its_terms():
    # R has 25 terms f^i (x) e^i on a space of side 625 at l = m = 24, and
    # the dense check held several 625 x 625 arrays. The graded check holds
    # the weights and works on at most uqsl2._CHUNK points of its (a, b, k)
    # grid at a time: 16,250 points at l = m = 24, in four chunks, and
    # 266,240 at l = m = 63, in 66.
    for l in (24, 63):
        points = (l + 1) ** 2 * (l + 2)
        tracemalloc.start()
        try:
            uqsl2.universal_r_check(l, l, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_BYTES * min(points, uqsl2._CHUNK) + GRID_BYTES * points
