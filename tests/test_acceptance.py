"""End-to-end acceptance gate: one test per headline property, each
printing a single pass/fail line. These are the contracts the library is
shipped against; the per-module tests probe finer-grained behavior."""

import functools
import json
import math

import numpy as np
import pytest

from integrable import cli, models, oscillator, sixvertex, uqsl2, ybe
from integrable.models import AsepParams
from integrable.sixvertex import PoleInSpectralLadder
from integrable.tensor import embed, permutation_operator

import oracles


def _line(num: int, label: str, ok: bool, detail: str):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _main_report(capsys, argv) -> dict:
    """The JSON report of `argv` through cli.main, whose exit code must be
    the report's verdict."""
    code = cli.main([str(a) for a in argv])
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["pass"] else 1), argv
    return report


def _at(family, x: float) -> np.ndarray:
    """A family's matrix at the one point x, which must not be a pole."""
    stack, poles = family(np.array([x]))
    assert not poles[0]
    return stack[0]


def test_criterion_1_braided_ybe_family():
    worst = 0.0
    for R in (permutation_operator(2, 2), np.eye(4)):
        worst = max(worst, ybe.verify_braided_ybe(R)["residual"])
    grid = [round(0.1 * i, 1) for i in range(11)]
    for a in grid:
        r = ybe.verify_braided_ybe(ybe.r_alpha_beta(a, 0.0))
        worst = max(worst, min(r["residual"], r["r_check_residual"]))
    for b in grid:
        r = ybe.verify_braided_ybe(ybe.r_alpha_beta(1.0, b))
        worst = max(worst, min(r["residual"], r["r_check_residual"]))
    bad = ybe.verify_braided_ybe(ybe.r_alpha_beta(0.5, 0.5))
    necessity = min(bad["residual"], bad["r_check_residual"])
    ok = worst <= 1e-10 and necessity > 1e-3
    _line(1, "braided YBE family", ok,
          f"max residual {worst:.2e}, generic-point residual {necessity:.2e}")


def test_criterion_2_spectral_suite():
    worst = 0.0
    reg = 0.0
    rho_err = 0.0
    zs = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    for q in (0.3, 0.5, 0.8):
        r = functools.partial(ybe.asep_spectral_r, q=q)
        for z in zs:
            for w in zs:
                worst = max(
                    worst, ybe.verify_spectral_ybe(r, z, w)["residual"]
                )
        P = permutation_operator(2, 2)
        reg = max(reg, float(np.max(np.abs(_at(r, 1.0) - P))))
        rep = ybe.markov_structure_report(r, models.asep_bulk_w(q))
        rho_err = max(rho_err, abs(rep["rho_fit"] - 1.0 / (q - 1.0)))
    ok = worst <= 1e-10 and reg <= 1e-12 and rho_err <= 1e-5
    _line(2, "spectral R suite", ok,
          f"YBE {worst:.2e}, regularity {reg:.2e}, rho error {rho_err:.2e}")


def test_criterion_3_quantum_group_suite(capsys):
    rel = 0.0
    intw = 0.0
    frt = 0.0
    trip = 0.0
    verdicts = []
    for q in (0.3, 0.7, 1.5):
        for m in range(1, 5):
            report = _main_report(capsys, ["rep-check", "--m", m, "--q", q])
            verdicts.append(report["pass"])
            rel = max(rel, *report["residuals"].values())
        report = _main_report(capsys, ["universal-r", "--l", 1, "--m", 1, "--q", q])
        verdicts.append(report["pass"])
        intw = max(intw, max(v for k, v in report["residuals"].items()
                             if k.startswith("intertwine")))
        report = _main_report(capsys, ["verify", "ybe", "--family", "frt", "--q", q])
        verdicts.append(report["pass"])
        frt = max(frt, report["residuals"]["braided_ybe"])
        # no CLI family reaches the universal R's braid relation
        r1 = uqsl2.rep(1, q)
        trip = max(
            trip,
            ybe.verify_braided_ybe(oracles.universal_r(r1, r1))["r_check_residual"],
        )
    ok = all(verdicts) and rel <= 1e-10 and intw <= 1e-10 and frt <= 1e-10 and trip <= 1e-10
    _line(3, "quantum group suite", ok,
          f"relations {rel:.2e}, intertwining {intw:.2e}, FRT braid {frt:.2e}, "
          f"triple YBE {trip:.2e}, {verdicts.count(True)} of {len(verdicts)} reports pass")


# Pauli matrices with sigma^z = +1 on an empty site (basis index 0).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0])


def _xxz_bond(q: float) -> np.ndarray:
    """(sqrt(q)/2)(sx sx + sy sy) + ((1+q)/4)(sz sz - 1)
    + ((1-q)/4)(sz (x) 1 - 1 (x) sz): the bond term of the U_q(sl2)-symmetric
    open XXZ chain (Pasquier-Saleur, Nucl. Phys. B 330 (1990) 523)."""
    one = np.eye(2)
    hop = (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)).real
    return (math.sqrt(q) / 2 * hop + (1 + q) / 4 * (np.kron(SIGMA_Z, SIGMA_Z) - np.eye(4))
            + (1 - q) / 4 * (np.kron(SIGMA_Z, one) - np.kron(one, SIGMA_Z)))


def _spin_sum(pauli: np.ndarray, L: int) -> np.ndarray:
    return sum(embed(pauli, (x,), (2,) * L) for x in range(1, L + 1))


def _commutator(A: np.ndarray, B: np.ndarray) -> float:
    return float(np.max(np.abs(A @ B - B @ A)))


def _row_norm(A: np.ndarray) -> float:
    return float(np.abs(A).sum(axis=1).max())


def test_criterion_4_xxz_asep_equivalence():
    # The closed chain's generator G, conjugated by the square root of its
    # reversible law, is the U_q(sl2)-symmetric open XXZ chain H at
    # deformation sqrt(q): symmetric, commuting with the L-fold coproduct,
    # and a sum of XXZ bond terms.
    eps = np.finfo(float).eps
    sym = comm = bond = 0.0
    for L in (3, 5, 7):
        for q in (0.37, 1.7):
            _, H = oracles.reversible_conjugate(AsepParams(q=q, L=L))
            sym = max(sym, float(np.max(np.abs(H - H.T)) / np.max(np.abs(H))))
            comm = max(comm, *(_commutator(H, X) / (_row_norm(H) * _row_norm(X))
                               for X in oracles.uq_coproduct(L, q)))
    L = 4
    dims = (2,) * L
    for q in np.geomspace(0.05, 6.0, 13):
        half = oracles.reversible_half(L, q)
        w, xxz = models.asep_bulk_w(q), _xxz_bond(q)
        for sites in zip(range(1, L), range(2, L + 1)):
            term = half[:, np.newaxis] * embed(w, sites, dims) / half
            bond = max(bond, float(np.abs(term - embed(xxz, sites, dims)).max()) / max(1.0, q))
    # q = 1: G is the isotropic chain, with the full SU(2) symmetry
    G, _ = oracles.reversible_conjugate(AsepParams(q=1.0, L=5))
    isotropic = max(_commutator(G, _spin_sum(s, 5)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    # q != 1: only the axial symmetry is left
    _, H = oracles.reversible_conjugate(AsepParams(q=0.37, L=5))
    axial = _commutator(H, _spin_sum(SIGMA_Z, 5))
    transverse = _commutator(H, _spin_sum(SIGMA_X, 5))
    ok = (
        sym <= 4 * eps
        and comm <= 8 * eps
        and bond <= 4 * eps
        and isotropic <= 1e-12
        and axial <= 1e-12
        and transverse > 1e-3
    )
    _line(4, "spin chain / exclusion equivalence", ok,
          f"symmetry {sym:.2e}, coproduct commutators {comm:.2e}, bond form {bond:.2e}, "
          f"isotropic {isotropic:.2e}, axial {axial:.2e}, transverse {transverse:.2e}")


def _kappa_plus(u: float, v: float, q: float) -> float:
    """kappa_+(u, v) of Uchiyama, Sasamoto and Wadati: a = kappa_+(beta,
    delta) and c = kappa_+(alpha, gamma) place a chain in the shock region
    when ac >= 1."""
    s = 1.0 - q - u + v
    return (s + math.sqrt(s * s + 4.0 * u * v)) / (2.0 * u)


def test_criterion_5_mpa_vs_oracle(capsys):
    rng = np.random.Generator(np.random.Philox(7))
    worst = 0.0
    shock = 0
    passed = 0
    for L in range(2, 7):
        for q in (0.3, 0.5, 0.8):
            for _ in range(5):
                # rates on both sides of the shock line ac = 1
                alpha, beta = map(float, rng.uniform(0.05, 1.2, size=2))
                gamma, delta = map(float, rng.uniform(0.0, 1.0, size=2))
                p = AsepParams(
                    q=q, alpha=alpha, beta=beta, gamma=gamma, delta=delta, L=L
                )
                shock += _kappa_plus(beta, delta, q) * _kappa_plus(alpha, gamma, q) >= 1
                report = _main_report(capsys, [
                    "mpa", "--L", L, "--q", q, "--alpha", alpha, "--beta", beta,
                    "--gamma", gamma, "--delta", delta])
                passed += report["pass"]
                mu = np.array(report["results"]["measure"])
                pi = oracles.open_band_law(p)
                worst = max(worst, 0.5 * float(np.abs(mu - pi.values).sum()))
    ok = worst <= 1e-8 and shock > 0 and passed == 75
    _line(5, "mpa reports vs null-space oracle", ok,
          f"max total variation {worst:.2e}, {passed} of 75 reports pass, "
          f"{shock} of 75 chains in the shock region")


def test_criterion_6_fusion_cross_check():
    q = 0.5
    worst_dev = 0.0
    row_dev = 0.0
    exact_dev = 0.0
    pole_points = []
    for l in range(1, 5):
        for m in range(1, 5):
            for z in (0.1, 0.25, 0.4):
                try:
                    rec = sixvertex.fused_weights_recurrence(l, m, z, q)
                except PoleInSpectralLadder:
                    # z = 0.25 = q^(m+1) q^(2s) for some rung: the exact
                    # oracle must refuse the evaluation too
                    with pytest.raises(PoleInSpectralLadder):
                        oracles.fused_weights_closed_form(l, m, z, q)
                    pole_points.append((l, m, z))
                    continue
                # the closed form in exact rational arithmetic; entries
                # reach ~1e10 at l=m=4, so deviations are relative per row
                exact = oracles.fused_weights_closed_form(l, m, z, q)
                exact_dev = max(exact_dev, exact.row_sum_violation(),
                                exact.conservation_violation())
                worst_dev = max(worst_dev, rec.row_deviation(exact))
                row_dev = max(row_dev, rec.row_sum_violation())
    # fused l=m=2 spectral check: in T(x) := S(x / q^(l-1)) the spectral
    # variable is multiplicative across the three factors
    l = m = 2
    P = permutation_operator(m + 1, m + 1)

    def T(x):
        return sixvertex.fused_weights_recurrence(
            l, m, x * q ** (-(l - 1)), q
        ).table.reshape((l + 1) * (m + 1), -1)

    def e12(M):
        return np.kron(M, np.eye(m + 1))

    def e23(M):
        return np.kron(np.eye(l + 1), M)

    X = np.kron(np.eye(l + 1), P)

    def e13(M):
        return X @ np.kron(M, np.eye(m + 1)) @ X

    fused_ybe = 0.0
    for u, v in [(0.3, 0.7), (0.45, 0.8), (0.6, 0.35)]:
        lhs = e12(T(u)) @ e13(T(u * v)) @ e23(T(v))
        rhs = e23(T(v)) @ e13(T(u * v)) @ e12(T(u))
        fused_ybe = max(fused_ybe, float(np.max(np.abs(lhs - rhs))))
    ok = (
        exact_dev == 0
        and worst_dev <= 1e-13
        and row_dev <= 1e-9
        and fused_ybe <= 1e-9
        and len(pole_points) > 0
    )
    _line(6, "fusion against the exact closed form", ok,
          f"row deviation {worst_dev:.2e}, exact row sums {exact_dev:.2e}, "
          f"row sums {row_dev:.2e}, fused YBE {fused_ybe:.2e}, "
          f"pole refusals {len(pole_points)}")


def test_criterion_7_reflection_suite():
    q, alpha, gamma, beta, delta = 0.5, 0.6, 0.15, 0.4, 0.2
    r = functools.partial(ybe.asep_spectral_r, q=q)
    # one K family: (alpha, gamma) on the left, (-delta, -beta) on the right
    k = functools.partial(ybe.reflection_k, q=q, a=alpha, c=gamma)
    kbar = functools.partial(ybe.reflection_k, q=q, a=-delta, c=-beta)
    worst = 0.0
    # grid chosen so q z/w and q z w stay away from 1 (R-matrix poles)
    for z in (0.3, 0.5, 0.7, 0.9):
        for w in (0.32, 0.55, 0.77, 0.95):
            for kf in (k, kbar):
                worst = max(
                    worst,
                    ybe.verify_reflection_equation(r, kf, z, w)["residual"],
                )
    k_one = max(float(np.max(np.abs(_at(kf, 1.0) - np.eye(2))))
                for kf in (k, kbar))
    # K'(1) by a complex step is 2B/(q - 1) on the left and 2B_L/(1 - q)
    # on the right, B and B_L the generator's boundary terms
    h = 1e-20
    B = np.array([[-alpha, alpha], [gamma, -gamma]])
    B_L = np.array([[-delta, delta], [beta, -beta]])
    deriv = max(
        float(np.max(np.abs(_at(kf, 1.0 + h * 1j).imag / h - want)))
        for kf, want in ((k, 2.0 * B / (q - 1.0)), (kbar, 2.0 * B_L / (1.0 - q)))
    )
    ok = worst <= 1e-10 and k_one <= 1e-12 and deriv <= 1e-12
    _line(7, "boundary reflection suite", ok,
          f"reflection {worst:.2e}, K(1) {k_one:.2e}, K'(1) {deriv:.2e}")


def test_criterion_8_contour_formula_vs_ctmc():
    worst1 = 0.0
    for t in (0.5, 1.0, 2.0):
        for q in (0.0, 0.5):
            for y, x in [((0,), (1,)), ((2,), (0,)), ((1,), (1,))]:
                v = models.tw_transition_probability(y, x, t, q)
                o = models.ctmc_oracle_probability(y, x, t, q)
                worst1 = max(worst1, abs(v - o))
    assert worst1 <= 1e-6  # single-particle gate before the two-particle run
    worst2 = 0.0
    for q in (0.0, 0.5):
        for y, x in [((0, 2), (1, 3)), ((0, 1), (0, 2))]:
            v = models.tw_transition_probability(y, x, 0.5, q)
            o = models.ctmc_oracle_probability(y, x, 0.5, q)
            worst2 = max(worst2, abs(v - o))
    ok = worst1 <= 1e-6 and worst2 <= 1e-5
    _line(8, "contour transition formula vs CTMC oracle", ok,
          f"one-particle {worst1:.2e}, two-particle {worst2:.2e}")


def test_criterion_9_sampler_statistics():
    b1, b2 = 0.35, 0.7
    w = sixvertex.six_vertex_weights(b1, b2)
    n = 100_000
    # iid single-vertex draws: a 1x1 lattice per seed, conditioned on each
    # nontrivial input state, all seeds in one batched sweep
    up = sixvertex.sample_lattices(
        w, 1, 1, boundary_left=(0,), boundary_bottom=(1,), seeds=range(n)
    )
    counts_up = int(np.sum(up.k_out[:, 0, 0] == 1))
    right = sixvertex.sample_lattices(
        w, 1, 1, boundary_left=(1,), boundary_bottom=(0,), seeds=range(n, 2 * n)
    )
    counts_right = int(np.sum(right.j_out[:, 0, 0] == 1))
    dev1 = abs(counts_up / n - b1) / math.sqrt(b1 * (1 - b1) / n)
    dev2 = abs(counts_right / n - b2) / math.sqrt(b2 * (1 - b2) / n)
    a = sixvertex.sample_lattice(
        w, 20, 20, boundary_left=(1,) * 20, boundary_bottom=(0,) * 20, seed=11
    ).to_csv()
    b = sixvertex.sample_lattice(
        w, 20, 20, boundary_left=(1,) * 20, boundary_bottom=(0,) * 20, seed=11
    ).to_csv()
    ok = dev1 <= 4.0 and dev2 <= 4.0 and a == b
    _line(9, "sampler statistics", ok,
          f"vertical z-score {dev1:.2f}, horizontal z-score {dev2:.2f}, "
          f"byte-stable {a == b}")


def test_criterion_10_oscillator_suite():
    gram = oscillator.hermite_gram(6)
    worst = 0.0
    for m in range(7):
        for n in range(m):
            norm = math.sqrt(gram[m, m] * gram[n, n])
            worst = max(worst, abs(gram[m, n]) / norm)
    js = oscillator.sl2_js_violation(8)
    ok = worst <= 1e-6 and js <= 1e-10
    _line(10, "oscillator suite", ok,
          f"orthogonality {worst:.2e}, sl2 commutators {js:.2e}")
