import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import integrable
from integrable import oscillator
from integrable.errors import ParameterError
from integrable.tensor import StateSpaceTooLarge

import oracles


def js_homomorphism_violation(A, B, cutoff):
    """‖[JS(A), JS(B)] - JS([A, B])‖ on the states of total number <=
    cutoff - 2, for any pair: the oracle of oscillator.sl2_js_violation."""
    A = np.asarray(A)
    ja, jb, jc = (oracles.jordan_schwinger(M, cutoff) for M in (A, B, A @ B - B @ A))
    return oracles.restricted_commutator_defect(ja, jb, jc, A.shape[0], cutoff)


def _hermite(n, x):
    """H_n(x) by the three-term recurrence, one Python float at a time: the
    oracle of oscillator.hermite_table."""
    h_prev, h = 1.0, 2.0 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h


def test_hermite_low_degrees():
    x = 0.7
    h = oscillator.hermite_table(3, np.array([x]))[:, 0]
    assert h[0] == 1.0
    assert h[1] == pytest.approx(2 * x)
    assert h[2] == pytest.approx(4 * x**2 - 2)
    assert h[3] == pytest.approx(8 * x**3 - 12 * x)


def test_hermite_rejects_negative_degree():
    with pytest.raises(ParameterError, match="degree must be nonnegative, got -1"):
        oscillator.hermite_table(-1, np.array([0.0]))


def test_hermite_overlap_diagonal_normalization():
    # the trapezoid rule of step 1/4 is exact to rounding here; at step 1/2
    # the error at n = 12 is 2e-4
    gram = oscillator.hermite_gram(12)
    for n in range(13):
        expected = math.sqrt(math.pi) * 2**n * math.factorial(n)
        assert gram[n, n] == pytest.approx(expected, rel=1e-14)


def test_hermite_overlap_off_diagonal_vanishes():
    gram = oscillator.hermite_gram(5)
    for m in range(6):
        for n in range(m):
            norm = math.sqrt(gram[m, m] * gram[n, n])
            assert abs(gram[m, n]) / norm <= 1e-10


def test_hermite_table_rows_are_the_recurrence_at_each_point():
    x = np.array([-1.7, 0.0, 0.3, 5.5])
    table = oscillator.hermite_table(9, x)
    assert table.shape == (10, 4)
    for n in range(10):
        assert table[n].tolist() == [_hermite(n, v) for v in x]
    assert oscillator.hermite_table(0, x).tolist() == [[1.0] * 4]


def test_hermite_table_past_the_float_range_does_not_warn():
    # H_400(30) overflows, and the recurrence then takes inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = oscillator.hermite_table(400, np.array([30.0]))
    assert math.isnan(table[400, 0]) and math.isnan(_hermite(400, 30.0))


def test_hermite_gram_is_every_overlap_from_one_table():
    gram = oscillator.hermite_gram(6)
    for m in range(7):
        for n in range(7):
            overlap = oscillator.hermite_gram(max(m, n))[m, n]
            assert gram[m, n] == pytest.approx(overlap, rel=1e-14, abs=2.3e-13)
            if m != n:
                assert abs(gram[m, n]) <= 2.3e-13


def test_hermite_report_leaves_numpy_polynomial_unloaded():
    # a Gauss rule from numpy.polynomial's leggauss would load that package
    # and run a LAPACK eigensolve, about 2 MB of peak resident memory on the
    # verify benchmark, which the trapezoid rule does not need
    code = (
        "import contextlib, io, sys\n"
        "import integrable.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = integrable.cli.main(['oscillator', 'hermite', '--n', '6', '--x', '0.3'])\n"
        "print(code, 'numpy.polynomial' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(integrable.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.split() == ["0", "False"]


def test_truncated_fock_ladder_action():
    f = oracles.truncated_fock(6)
    v = np.zeros(6)
    v[2] = 1.0
    assert np.allclose(f.a @ v, math.sqrt(2) * np.eye(6)[1])
    assert np.allclose(f.adag @ v, math.sqrt(3) * np.eye(6)[3])
    assert oracles.restricted_commutator_defect(f.a, f.adag, np.eye(6), 1, 6) <= 1e-12


def test_number_operator_diagonal():
    f = oracles.truncated_fock(5)
    assert np.allclose(np.diag(f.number_op), np.arange(5))


def test_jordan_schwinger_identity_gives_total_number():
    cutoff = 4
    op = oracles.jordan_schwinger(np.eye(2), cutoff)
    diag = np.diag(op).real
    for idx in range(cutoff**2):
        assert diag[idx] == pytest.approx(idx // cutoff + idx % cutoff)


def test_jordan_schwinger_sl2_commutators():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.diag([1.0, -1.0])
    for A, B in [(h, e), (h, f), (e, f)]:
        assert js_homomorphism_violation(A, B, 8) <= 1e-12


@pytest.mark.parametrize("cutoff", [2, 3, 8, 12])
def test_sl2_violation_from_three_images_is_the_pairwise_one(cutoff):
    basis = oracles.SL2_BASIS
    pairwise = max(js_homomorphism_violation(basis[a], basis[b], cutoff)
                   for a, b in ("he", "hf", "ef"))
    assert oracles.sl2_js_violation(cutoff) == pairwise
    assert oscillator.sl2_js_violation(cutoff) == pairwise


@pytest.mark.parametrize("cutoff", [*range(2, 65), 4096])
def test_fock_commutator_is_the_dense_oracles_to_the_bit(cutoff):
    # the one nonzero term of each diagonal entry of a a' - a' a - 1
    assert oscillator.fock_commutator_defect(cutoff) == oracles.fock_commutator_defect(cutoff)


@pytest.mark.parametrize("cutoff", range(2, 41))
def test_sl2_js_violation_is_the_dense_oracles_to_the_bit(cutoff):
    # each commutator's one nonzero diagonal, with the dense products'
    # operations in their order
    assert oscillator.sl2_js_violation(cutoff) == oracles.sl2_js_violation(cutoff)


@pytest.mark.parametrize("cutoff", [-1, 0, 1])
def test_cutoff_below_two_is_refused(cutoff):
    with pytest.raises(ParameterError):
        oscillator.fock_commutator_defect(cutoff)
    with pytest.raises(ParameterError):
        oscillator.sl2_js_violation(cutoff)


def test_jordan_schwinger_rejects_non_square():
    with pytest.raises(ValueError):
        oracles.jordan_schwinger(np.zeros((2, 3)), 4)


def test_dense_cap_precedes_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(StateSpaceTooLarge):
            oscillator.sl2_js_violation(256)
        with pytest.raises(StateSpaceTooLarge):
            oscillator.fock_commutator_defect(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # even s = sqrt(0 ... 99,999) would take 800 KB


def _shell_projector(n_modes, cutoff, max_total):
    """The dense diagonal projector onto states with total occupation <=
    max_total, one basis state at a time (site 1 slowest)."""
    diag = np.zeros(cutoff**n_modes)
    for idx in range(diag.size):
        rem, total = idx, 0
        for _ in range(n_modes):
            total += rem % cutoff
            rem //= cutoff
        diag[idx] = total <= max_total
    return np.diag(diag)


@pytest.mark.parametrize("cutoff", [2, 3, 6, 9, 12])
def test_js_restriction_equals_the_projector_sandwich(cutoff):
    # 2 modes with cutoff 3: total occupation <= 2 leaves 6 states
    assert int(np.trace(_shell_projector(2, 3, 2))) == 6
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    h = np.diag([1.0, -1.0])
    rng = np.random.default_rng(cutoff)
    # The sl2 pairs of `oscillator js` agree bit for bit. On random pairs
    # BLAS may sum the smaller products in another order, so they agree to
    # a rounding bound fixed from float64's epsilon.
    pairs = [(h, e, True), (h, f, True), (e, f, True),
             (*rng.normal(size=(2, 2, 2)), False)]
    if cutoff <= 6:  # 3 modes only at small cutoffs, to keep the test fast
        pairs.append((*rng.normal(size=(2, 3, 3)), False))
    for A, B, exact in pairs:
        ja, jb, jc = (oracles.jordan_schwinger(M, cutoff)
                      for M in (A, B, A @ B - B @ A))
        P = _shell_projector(A.shape[0], cutoff, cutoff - 2)
        oracle = float(np.max(np.abs(P @ (ja @ jb - jb @ ja - jc) @ P)))
        got = js_homomorphism_violation(A, B, cutoff)
        bound = 0 if exact else (
            4 * ja.shape[0] * np.finfo(float).eps
            * max(np.abs(ja).max() * np.abs(jb).max() * ja.shape[0], np.abs(jc).max()))
        assert abs(got - oracle) <= bound
