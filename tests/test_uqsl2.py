import tracemalloc

import numpy as np
import pytest

from integrable import uqsl2, ybe
from integrable.tensor import StateSpaceTooLarge


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


def test_coproduct_vs_opposite_differ_generically():
    r = uqsl2.rep(1, 0.6)
    D = uqsl2.coproduct(r, r, "e")
    Dop = uqsl2.opposite_coproduct(r, r, "e")
    assert np.max(np.abs(D - Dop)) > 1e-3


@pytest.mark.parametrize("q", [0.4, 1.3])
@pytest.mark.parametrize("lm", [(1, 1), (1, 2), (2, 2)])
def test_universal_r_intertwines(lm, q):
    l, m = lm
    res = uqsl2.universal_r_check(uqsl2.rep(l, q), uqsl2.rep(m, q))
    assert max(res.values()) <= 1e-10, res


def test_deformation_mismatch_raises():
    with pytest.raises(uqsl2.DeformationMismatch):
        uqsl2.universal_r(uqsl2.rep(1, 0.4), uqsl2.rep(1, 0.5))


def test_braided_r_satisfies_braid_relation():
    # the braid relation of R-check = P o R
    r = uqsl2.rep(1, 0.7)
    assert ybe.verify_braided_ybe(uqsl2.universal_r(r, r))["r_check_residual"] <= 1e-12


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
            uqsl2.universal_r(rl, rl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 1001^2 Cartan diagonal alone would take 8 MB


def test_universal_r_check_memory_does_not_grow_with_its_terms():
    # R has 25 terms f^i (x) e^i on a space of side D = 625. Building them
    # one at a time keeps a few D x D arrays alive (6 at the peak), where a
    # stack of the terms would hold 25.
    r = uqsl2.rep(24, 0.7)
    side = r.dim**2
    tracemalloc.start()
    try:
        uqsl2.universal_r_check(r, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * side * side)
