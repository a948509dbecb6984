import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from integrable import cli, models, ybe

import oracles

SCHEMA_PATH = "src/integrable/schemas/run_report.schema.json"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _schema():
    import importlib.resources as res

    with res.files("integrable").joinpath(
        "schemas/run_report.schema.json"
    ).open() as fh:
        return json.load(fh)


def test_verify_ybe_pass_exit_zero(capsys):
    code, out = _run(
        capsys,
        ["verify", "ybe", "--family", "r-alpha-beta", "--alpha", "0.5",
         "--beta", "1.0"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    jsonschema.validate(report, _schema())


def test_verify_ybe_generic_point_exit_one(capsys):
    code, out = _run(
        capsys,
        ["verify", "ybe", "--family", "r-alpha-beta", "--alpha", "0.5",
         "--beta", "0.5"],
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_usage_error_exit_two(capsys):
    code, _ = _run(capsys, ["verify", "nonsense"])
    assert code == 2
    code, _ = _run(capsys, ["rep-check", "--m", "2"])  # missing --q
    assert code == 2
    # fuse has one construction and no --method
    code, _ = _run(capsys, ["fuse", "--l", "2", "--m", "2", "--z", "0.3",
                            "--q", "0.5", "--method", "both"])
    assert code == 2


def test_parameter_error_exit_two(capsys):
    for argv in (
        # fused weights at a spectral-ladder pole must refuse, not emit output
        ["fuse", "--l", "2", "--m", "1", "--z", "0.25", "--q", "0.5"],
        ["verify", "hecke", "--q", "inf"],
        ["--tol", "nan", "rep-check", "--m", "2", "--q", "0.5"],
        ["sample6v", "--b1", "0.4", "--b2", "0.7", "--width", "0", "--height", "4"],
    ):
        code, out = _run(capsys, argv)
        assert code == 2, argv
        assert out == "", argv


TWPROB = ["twprob", "--t", "0.5", "--q", "0.4"]
# Rates over five decades, in the gap gamma delta q^(L-1) < alpha beta <
# gamma delta where z changes sign in all four images: the least
# cancellation among them leaves a probability of -2.8e-6.
CANCELLED = ["--L", "12", "--q", "0.0165", "--alpha", "0.00019", "--beta", "0.000061",
             "--gamma", "24.6", "--delta", "3.8"]
# No injection at site 1, at the first L whose band LU would take 1,077 MiB.
BAND_CAP_ARGV = ["asep", "stationary", "--open", "--L", "15", "--q", "0.5", "--alpha",
                 "0", "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2"]


@pytest.mark.parametrize(
    "argv, expected, silent",
    [
        # the radius is derived from q, and the option is gone: a circle of
        # radius 2 enclosed the wrong poles, and one of radius 0 none
        (TWPROB + ["--y", "0", "2", "--x", "1", "3", "--radius", "2.0"], 2, True),
        # the start count is derived from t, and the option is gone
        (TWPROB + ["--y", "0", "--x", "1", "--nquad", "0"], 2, True),
        (TWPROB + ["--y", "0", "2", "--x", "1", "3", "--nquad", "0"], 2, True),
        (TWPROB + ["--y", "0", "2", "--x", "1", "3", "--radius", "0"], 2, True),
        (["verify", "spectral", "--grid"], 2, True),
        # qz = 1 at z = 2: any pole of the spectral check is a parameter error
        (["verify", "spectral", "--q", "0.5", "--grid", "2.0"], 2, True),
        # w = 0 at every point leaves nothing to check
        (["verify", "reflection", "--q", "0.5", "--grid", "0"], 2, True),
        # 129^2 points: checked in blocks, with no pole among them
        (["verify", "spectral", "--grid", *["0.3"] * 129], 0, False),
        # zw overflows to inf, where R is NaN: a null residual that fails
        (["verify", "spectral", "--q", "0.5", "--grid", "1e-300", "1e300"], 1, False),
        (["verify", "hecke", "--q", "nan"], 2, True),
        # a float cancellation in the matrix product, in every image, is a
        # failed computation, not a parameter error
        (["mpa", *CANCELLED], 1, True),
        # 2^40 configurations: refused before the weights are allocated
        (["mpa", "--L", "40", "--q", "0.5", "--alpha", "0.6", "--beta", "0.4"],
         2, True),
        # the CSV mode keeps the verdict of the JSON report
        (["--tol", "1e-20", "asep", "stationary", "--L", "4", "--q", "0.5",
          "--alpha", "0.6", "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2",
          "--open", "--csv"], 1, False),
        # the float closed form lost rows here (row_sums 0.011); the
        # recurrence, the one construction fuse builds, does not
        (["fuse", "--l", "8", "--m", "8", "--z", "0.1", "--q", "0.2", "--csv"],
         0, False),
        # 2^40 states: refused before any array is allocated
        (["asep", "stationary", "--L", "40", "--q", "0.5", "--open"], 2, True),
        # no injection at site 1: the mirror image's matrix product
        (BAND_CAP_ARGV, 0, False),
        # row sums relative to each row's largest entry (3.9e34 here)
        (["fuse", "--l", "8", "--m", "8", "--z", "0.25", "--q", "0.5"], 0, False),
        (["fuse", "--l", "4", "--m", "4", "--z", "0.1", "--q", "0.5"], 0, False),
        # capacity beyond MAX_CAPACITY: refused before any table is built
        (["fuse", "--l", "1100", "--m", "1", "--z", "0.3", "--q", "0.5"], 2, True),
        # the base weights divide by q^(2g-m+1): q = 0 is outside the domain
        (["fuse", "--l", "1", "--m", "2", "--z", "0.3", "--q", "0"], 2, True),
        # exp overflows at large t: a failed check, not a crash
        (["twprob", "--t", "1200", "--q", "0.5", "--y", "0", "--x", "1"], 1, True),
        # H_400(30) overflows to inf - inf: a non-finite result, never NaN
        (["oscillator", "hermite", "--n", "400", "--x", "30"], 1, True),
        (["oscillator", "hermite", "--n", "-1"], 2, True),
        # 256^2 and 100000 dense states: refused before allocation
        (["oscillator", "js", "--cutoff", "256"], 2, True),
        (["oscillator", "fock", "--cutoff", "100000"], 2, True),
        # two modes of 64 levels fill the dense cap, and 65 pass it
        (["oscillator", "js", "--cutoff", "64"], 0, False),
        (["oscillator", "js", "--cutoff", "65"], 2, True),
        # q^-2 overflows a float: a non-finite result, not a traceback
        (["verify", "hecke", "--q", "1e-200"], 1, True),
        (["rep-check", "--m", "2", "--q", "1e-200"], 1, True),
        # 10^12 vertices: refused before the 7 TiB of arrows are allocated
        (["sample6v", "--b1", "0.4", "--b2", "0.7", "--width", "1000000",
          "--height", "1000000"], 2, True),
        # a 1001^2-dimensional tensor product: refused before it is allocated
        (["universal-r", "--l", "1000", "--m", "1000", "--q", "0.999"], 2, True),
        # nothing is truncated, and the option is gone: a usage error
        (["mpa", "--L", "4", "--q", "0.5", "--alpha", "0.6", "--beta", "0.4",
          "--truncation", "2048"], 2, True),
        # q = 1 puts a pole of K at x = 1, and of R(z) at z = 1
        (["verify", "reflection", "--q", "1"], 2, True),
        (["verify", "markov", "--q", "1"], 2, True),
        # no boundary rate: every particle number is a closed class
        (["asep", "stationary", "--open", "--L", "6", "--q", "0.5"], 2, True),
        # boundary rates without --open: the closed chain has none to use
        (["asep", "stationary", "--L", "6", "--q", "0.5", "--alpha", "0.6"], 2, True),
    ],
    ids=["radius-2", "nquad-0-n1", "nquad-0-n2", "radius-0", "empty-grid",
         "spectral-pole", "reflection-all-poles", "spectral-grid-in-blocks",
         "spectral-overflow", "q-nan",
         "mpa-not-converged", "mpa-cap", "asep-csv-fails", "fuse-l8-z01",
         "asep-cap", "asep-band-cap", "fuse-l8-relative", "fuse-l4-relative", "fuse-cap",
         "fuse-q0", "twprob-overflow",
         "hermite-nan", "hermite-negative", "js-cap", "fock-cap", "js-at-cap", "js-past-cap",
         "hecke-overflow",
         "rep-check-overflow", "sample6v-cap", "universal-r-cap", "mpa-truncation-cap",
         "reflection-k-pole", "markov-pole", "asep-no-rates",
         "asep-closed-rates"],
)
def test_exit_code(capsys, argv, expected, silent):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    assert (out == "") == silent
    # Past argparse, a call with no report says why in one line on stderr,
    # and a warning would print more lines there.
    if silent and not err.startswith("usage:"):
        assert len(err.splitlines()) + len(caught) == 1, (err, caught)


# U's entries pass 1e33 at (20, 20, 0.7) and the float range at (63, 63,
# 0.7); the dense check failed each of these correct identities.
@pytest.mark.parametrize("lmq", [("4", "4", "0.3"), ("8", "8", "0.7"),
                                 ("20", "20", "0.7"), ("63", "63", "0.7")])
def test_universal_r_passes_where_r_grows(capsys, lmq):
    l, m, q = lmq
    code, out = _run(capsys, ["universal-r", "--l", l, "--m", m, "--q", q])
    assert code == 0
    report = json.loads(out)
    assert max(report["residuals"].values()) <= 1e-13
    assert report["results"]["exact"] is False
    assert report["results"]["blocks"] == 2 * int(l) + 1
    assert report["results"]["largest_block"] == int(l) + 1


def test_universal_r_float_failure_goes_to_the_exact_check(capsys):
    # no float residual meets --tol 1e-17; the exact check then decides
    argv = ["--tol", "1e-17", "universal-r", "--l", "4", "--m", "4", "--q", "0.3"]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["residuals"] == {"intertwine_e": 0.0, "intertwine_f": 0.0}
    assert report["results"]["absolute"] == report["residuals"]
    assert report["results"]["exact"] is True
    jsonschema.validate(report, _schema())
    # past the exact check's grid cap the float verdict stands
    code, out = _run(capsys, ["--tol", "1e-17", "universal-r", "--l", "20", "--m", "20",
                              "--q", "0.7"])
    assert code == 1
    assert json.loads(out)["results"]["exact"] is False


def test_universal_r_cap_allocates_nothing(capsys):
    tracemalloc.start()
    try:
        code = cli.main(["universal-r", "--l", "1000", "--m", "1000", "--q", "0.999"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().out == ""
    assert peak < 2**20


def test_reflection_pole_at_one_names_k(capsys):
    assert cli.main(["verify", "reflection", "--q", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parameter error: K denominator vanishes at x=1.0\n"


# Grids whose products overflow: a null residual that fails, and no numpy
# warning on stderr.
@pytest.mark.parametrize("argv", [
    ["verify", "spectral", "--q", "0.5", "--grid", "1e-300", "1e300"],
    ["verify", "reflection", "--q", "0.5", "--grid", "1e-300", "1e300"],
], ids=["spectral", "reflection"])
def test_overflowing_verify_grid_prints_no_warning(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outputs(argv)
    assert (code, err) == (1, "")
    assert None in json.loads(out)["residuals"].values()


def test_verify_reflection_reports_the_points_it_checked(capsys):
    # of the 8 (z, w, side) triples, the 4 with w = 0 are poles of R(z/w)
    code, out = _run(capsys, ["verify", "reflection", "--q", "0.5", "--grid", "0", "0.5"])
    assert code == 0
    report = json.loads(out)
    assert report["params"]["grid"] == [0.0, 0.5]
    assert report["results"] == {"points_checked": 4}
    code, out = _run(capsys, ["verify", "reflection", "--q", "0.5"])
    assert code == 0
    assert json.loads(out)["results"] == {"points_checked": 32}


def test_right_boundary_poles_come_from_the_one_family(capsys):
    # at (a, c) = (-delta, -beta) = (-0.25, -0.5), K-bar has a pole at
    # x = 0.5, which leaves 1 of the 4 right-boundary points; swapping the
    # two rates moves the pole off the grid
    argv = ["verify", "reflection", "--q", "0.5", "--beta", "0.5", "--delta", "0.25",
            "--grid", "0.3", "0.5"]
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["results"] == {"points_checked": 5}


def test_reflection_row_sums_see_the_off_diagonal_entries(capsys, monkeypatch):
    # the reflection equation leaves K[0, 1] free: tripling it in both
    # boundaries keeps the reflection residual near rounding, and only the
    # row sums fail
    code, out = _run(capsys, ["verify", "reflection"])
    assert code == 0
    assert json.loads(out)["residuals"]["k_row_sums"] <= 1e-14
    family = ybe.reflection_k

    def tripled(x, q, a, c):
        K, poles = family(x, q, a, c)
        K[:, 0, 1] *= 3
        return K, poles

    monkeypatch.setattr(ybe, "reflection_k", tripled)
    code, out = _run(capsys, ["verify", "reflection"])
    residuals = json.loads(out)["residuals"]
    assert code == 1
    assert residuals["reflection"] <= 1e-10 and residuals["k_row_sums"] > 1e-2


# R'(1) by a complex step: no difference to cancel near q = 1, where the
# entries of R'(1) grow as 1/(q - 1)
@pytest.mark.parametrize("q", ["0.05", "0.3", "0.5", "0.9", "0.99", "0.999", "0.9999",
                               "0.99999", "1.001", "3", "10"])
def test_verify_markov_near_and_far_from_q_one(capsys, q):
    code, out = _run(capsys, ["verify", "markov", "--q", q])
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["markov"] <= 1e-10
    assert report["results"]["rho_fit"] == pytest.approx(1 / (float(q) - 1), rel=1e-9)
    assert report["residuals"]["rho"] <= 1e-15


def test_verify_markov_fails_a_family_with_no_derivative(capsys, monkeypatch):
    # R(Re z): ASEP's R at every real point, but R'(1) = 0, so the fit is
    # rho = 0 with no misfit; only rho against 1 / (q - 1) sees it
    asep_r = ybe.asep_spectral_r
    monkeypatch.setattr(ybe, "asep_spectral_r", lambda z, q: asep_r(np.real(z), q))
    code, out = _run(capsys, ["verify", "markov", "--q", "0.5"])
    report = json.loads(out)
    assert code == 1
    assert report["results"]["rho_fit"] == 0.0
    assert report["residuals"]["markov"] == 0.0
    assert report["residuals"]["rho"] == 1.0


@pytest.mark.parametrize("L", range(1, 13))
def test_measure_csv_labels_match_the_format_string(L):
    values = np.random.default_rng(L).random(2**L)
    values[0] = 0.0
    rows = [f"{idx:0{L}b},{val!r}" for idx, val in enumerate(values.tolist())]
    expected = "\n".join(["configuration,probability", *rows]) + "\n"
    assert cli._measure_csv(values, L) == expected


# Points where the closed form in float64 lost whole rows (row sums off by
# 0.011 to 1.3); fuse now builds the recurrence alone.
@pytest.mark.parametrize("lmzq", [("8", "0.1", "0.2"), ("10", "0.4", "0.3"),
                                  ("12", "0.25", "0.3"), ("8", "0.05", "0.1")])
def test_fuse_rows_sum_to_one_at_large_capacity(capsys, lmzq):
    lm, z, q = lmzq
    code, out = _run(capsys, ["fuse", "--l", lm, "--m", lm, "--z", z, "--q", q])
    assert code == 0
    assert json.loads(out)["residuals"]["row_sums"] <= 1e-13


# Q-integers taken as (1 - Q^n)/(1 - Q) cancel near Q = 1: these rows were
# off by up to 1.2e-9, and a 1e-8 floor on fuse let them pass any --tol.
@pytest.mark.parametrize("lmzq", [("8", "8", "0.25", "1.00000002"),
                                  ("6", "6", "0.1", "0.99999999"),
                                  ("8", "8", "0.25", "1.0001"),
                                  ("4", "8", "0.3", "1")])
def test_fuse_near_q_one_is_judged_at_tol(capsys, lmzq):
    l, m, z, q = lmzq
    code, out = _run(capsys, ["--tol", "1e-13", "fuse", "--l", l, "--m", m,
                              "--z", z, "--q", q])
    report = json.loads(out)
    assert report["residuals"]["row_sums"] <= 1e-13
    assert code == 0 and report["pass"]


@pytest.mark.parametrize("extra", [["--alpha", "0.6", "--beta", "0.4", "--gamma",
                                    "0.1", "--delta", "0.2", "--open"], []])
def test_asep_report_checks_stationarity(capsys, extra):
    code, out = _run(capsys, ["asep", "stationary", "--L", "8", "--q", "0.5", *extra])
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["stationarity"] <= 1e-12
    jsonschema.validate(report, _schema())
    if not extra:
        # the closed chain reports the half-filled class, and only it
        measure = report["results"]["measure"]
        assert [s for s, v in enumerate(measure) if v > 0] == [
            s for s in range(2**8) if bin(s).count("1") == 4]


# Open chains whose first state has a stationary mass of about 1e-19: pinned
# there alone, the band LU put most of the mass in the wrong place. The
# report takes the matrix product's law at both; the band LU, its oracle,
# is checked here directly.
@pytest.mark.parametrize("rates", [
    ["--L", "7", "--q", "6.54", "--alpha", "2.55", "--beta", "3.09",
     "--gamma", "0", "--delta", "2.61"],
    ["--L", "11", "--q", "0.0246", "--alpha", "2.45", "--beta", "0.0125",
     "--gamma", "0.0209", "--delta", "0.00621"],
], ids=["L7", "L11"])
def test_open_asep_with_a_tiny_first_state(capsys, rates):
    p = cli._asep_params(cli.build_parser().parse_args(["asep", "stationary", *rates]))
    pi = oracles.open_band_law(p)
    assert pi.values[0] < 1e-15
    assert np.abs(cli.models.asep_left_action(pi.values, p, True)).sum() <= 1e-12
    code, out = _run(capsys, ["asep", "stationary", "--open", *rates])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["solver"] == "matrix-product"
    assert 0.5 * np.abs(np.array(report["results"]["measure"]) - pi.values).sum() <= 1e-12


# Laws that need no generator: the closed chain's closed form and the
# matrix product, through `mpa` and through `asep stationary --open`, also
# with no injection at site 1 and at q = 1.
NO_GENERATOR = pytest.mark.parametrize("argv", [
    ["asep", "stationary", "--L", "10", "--q", "3.0"],
    ["mpa", "--L", "10", "--q", "0.5", "--alpha", "0.6", "--beta", "0.4",
     "--gamma", "0.1", "--delta", "0.2"],
    ["asep", "stationary", "--open", "--L", "10", "--q", "0.5", "--alpha", "0.6",
     "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2"],
    ["asep", "stationary", "--open", "--L", "10", "--q", "0.5", "--alpha", "0",
     "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2"],
    ["asep", "stationary", "--open", "--L", "10", "--q", "1", "--alpha", "0.6",
     "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2"],
], ids=["asep", "mpa", "asep-open", "asep-open-no-injection", "asep-open-q-one"])


@NO_GENERATOR
def test_closed_asep_builds_no_generator(capsys, argv):
    # the package has no generator to build: the band LU is a test oracle
    assert not hasattr(cli.models, "asep_generator")
    assert not hasattr(cli.tensor, "stationary_distribution")
    code, out = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["residuals"]["stationarity"] <= 1e-12


def _scipy_modules_after(argv):
    """Exit code of main(argv) in a fresh interpreter, and the scipy
    modules loaded there afterwards."""
    script = ("import contextlib, io, sys\n"
              "from integrable import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
              "print(code, sorted(scipy))\n")
    # the child imports this copy of the package, wherever it lives
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env=env).stdout
    return out.split()


@NO_GENERATOR
def test_closed_asep_imports_no_scipy(argv):
    assert _scipy_modules_after(argv) == ["0", "[]"]


def test_twprob_oracle_imports_no_scipy():
    # the oracle steps on its window's move table: no sparse matrix
    argv = ["twprob", "--t", "4", "--q", "0.5", "--y", "0", "2", "--x", "1", "3",
            "--check-oracle"]
    assert _scipy_modules_after(argv) == ["0", "[]"]


def test_chain_refused_at_the_band_cap_is_the_mirror_image(capsys):
    code, out = _run(capsys, BAND_CAP_ARGV + ["--csv"])
    assert code == 0
    assert out.count("\n") == 2**15 + 1
    params = {"L": 15, "q": 0.5, "beta": 0.4, "gamma": 0.1, "delta": 0.2}
    p = cli.models.AsepParams(**params)
    law, rounding, image = cli.mpa.measure_with_rounding(p)
    assert image == "mirror" and rounding == 32 * np.finfo(float).eps
    assert np.abs(cli.models.asep_left_action(law.values, p, True)).sum() <= 1e-15


def test_open_chain_runs_past_the_band_cap(capsys):
    code, out = _run(capsys, ["asep", "stationary", "--open", "--L", "16", "--q", "0.5",
                              "--alpha", "0.6", "--beta", "0.4", "--gamma", "0.1",
                              "--delta", "0.2", "--csv"])
    assert code == 0
    assert out.count("\n") == 2**16 + 1


def _band_lu(params):
    return oracles.open_band_law(cli.models.AsepParams(**params))


def _exact_tv(report, params):
    """TV of a report's law from the exact Fraction law."""
    exact = oracles.exact_open_law(cli.models.AsepParams(**params))
    return 0.5 * np.abs(np.array(report["results"]["measure"]) - exact).sum()


def _open_argv(params):
    return ["asep", "stationary", "--open"] + [
        a for k, v in params.items() for a in (f"--{k}", repr(v))]


def test_open_report_names_its_rates_and_solver(capsys):
    params = {"L": 5, "q": 0.5, "alpha": 0.6, "beta": 0.4, "gamma": 0.1, "delta": 0.2}
    argv = _open_argv(params)
    code, out = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv)[1] == out  # byte-identical
    report = json.loads(out)
    assert report["params"] == dict(params, open=True)
    assert report["results"]["solver"] == "matrix-product"
    assert report["results"]["image"] == "identity"
    assert set(report["residuals"]) == {"normalization", "stationarity", "rounding"}
    # other boundary rates, other params
    code, other = _run(capsys, _open_argv(dict(params, gamma=0.3)))
    assert code == 0 and json.loads(other)["params"]["gamma"] == 0.3
    code, out = _run(capsys, ["asep", "stationary", "--L", "5", "--q", "0.5"])
    assert json.loads(out)["params"] == {"L": 5, "q": 0.5, "open": False}
    assert json.loads(out)["results"]["solver"] == "closed-form"
    assert "image" not in json.loads(out)["results"]
    code, out = _run(capsys, ["mpa", *_open_argv(params)[3:]])
    assert json.loads(out)["results"]["solver"] == "matrix-product"


# Open chains with no way in, whose law is the point mass on the empty
# configuration (index 0), and with no way out, on the full one (index -1).
# Every pivot of z is zero in the image solved, so z restarts at each site
# and ends as e_L: the weights are exact.
POINT_MASSES = {
    "no-way-in": ({"alpha": 0.0, "beta": 0.4, "gamma": 0.1, "delta": 0.0}, 0,
                  "particle-hole"),
    "no-way-out": ({"alpha": 0.6, "beta": 0.0, "gamma": 0.0, "delta": 0.2}, -1,
                   "identity"),
}


@pytest.mark.parametrize("rates, state, image", POINT_MASSES.values(),
                         ids=POINT_MASSES.keys())
def test_point_mass_chains_are_exact(capsys, rates, state, image):
    params = {"L": 6, "q": 0.5, **rates}
    code, out = _run(capsys, _open_argv(params))
    report = json.loads(out)
    assert code == 0 and report["results"]["solver"] == "matrix-product"
    assert report["results"]["image"] == image
    assert np.array_equal(report["results"]["measure"], _band_lu(params).values)
    assert report["residuals"]["normalization"] == report["residuals"]["stationarity"] == 0.0
    # past the band cap
    code, out = _run(capsys, _open_argv(dict(params, L=16)))
    measure = json.loads(out)["results"]["measure"]
    assert code == 0 and len(measure) == 2**16
    assert measure[state] == 1.0 and sum(measure) == 1.0


# Chains the band LU once answered for the matrix product: a zero pivot of
# z, a cancellation in the identity image, no injection at site 1, and
# q = 1. Each is now one image's product, with z >= 0.
ONCE_BAND_LU = {
    # all four rates equal: alpha beta = gamma delta, a zero pivot of z
    "zero-pivot": ({"L": 6, "q": 0.5, "alpha": 1.0, "beta": 1.0, "gamma": 1.0,
                    "delta": 1.0}, "identity"),
    # the identity image's weights cancel to a probability of -1.5e-3
    "cancellation": ({"L": 10, "q": 0.95, "alpha": 0.05, "beta": 0.05, "gamma": 5.0,
                      "delta": 5.0}, "mirror"),
    "no-injection": ({"L": 6, "q": 0.5, "alpha": 0.0, "beta": 0.4, "gamma": 0.1,
                      "delta": 0.2}, "mirror"),
    "q-one": ({"L": 6, "q": 1.0, "alpha": 0.6, "beta": 0.4, "gamma": 0.1,
               "delta": 0.2}, "identity"),
}


@pytest.mark.parametrize("params, image", ONCE_BAND_LU.values(), ids=ONCE_BAND_LU.keys())
def test_open_chain_once_left_to_the_band_lu_is_a_matrix_product(capsys, params, image):
    code, out = _run(capsys, _open_argv(params))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["solver"] == "matrix-product"
    assert report["results"]["image"] == image
    assert report["residuals"]["rounding"] == (2 * params["L"] + 2) * np.finfo(float).eps
    assert _exact_tv(report, params) <= 1e-15


# Where the identity image's float product cancels (shock region,
# gamma / alpha large, q near 1), its law is 1.1e-10 and 2.3e-11 in TV from
# the exact law, and its rounding bound, 5.0e-8 and 3.5e-9, fails it. The
# mirror's z >= 0 there, and it is the image `mpa` and `asep stationary`
# contract.
CANCELLATION_POINTS = {
    "L8": {"L": 8, "q": 0.7283976664604349, "alpha": 0.031253827912071465,
           "beta": 1.3625796959257777, "gamma": 4.580578458508393,
           "delta": 0.3150901183048461},
    "L7": {"L": 7, "q": 0.8097885652479058, "alpha": 0.0653804926238747,
           "beta": 0.11523345663118026, "gamma": 0.8875736307980883,
           "delta": 0.6706633464067916},
}


@pytest.mark.parametrize("params", CANCELLATION_POINTS.values(),
                         ids=CANCELLATION_POINTS.keys())
def test_cancelled_identity_image_gives_way_to_the_mirror(capsys, params):
    reports = []
    for argv in (["mpa", *_open_argv(params)[3:]], _open_argv(params)):
        code, out = _run(capsys, argv)
        assert code == 0
        reports.append(json.loads(out))
    mpa_report, asep_report = reports
    assert mpa_report["results"] == asep_report["results"]
    assert mpa_report["residuals"] == asep_report["residuals"]
    assert asep_report["results"]["image"] == "mirror"
    assert asep_report["residuals"]["rounding"] <= 1e-14
    assert _exact_tv(asep_report, params) <= 1e-15


# Five decades of rates in the gap where z changes sign in every image:
# the least cancellation, in the image of both symmetries, bounds the
# rounding at 2.4e-9, and the report fails with it (||pi G||_1 is 1.05e-10
# too). Its law is 7.0e-12 from the exact one.
RESIDUE = {"L": 11, "q": 0.09545620748077711, "alpha": 0.005964814093491864,
           "beta": 0.002397672249545482, "gamma": 7.481696763614977,
           "delta": 1.3160689188805264}


def test_uncertified_open_chain_fails_with_its_report(capsys):
    code, out = _run(capsys, _open_argv(RESIDUE))
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["results"]["image"] == "both"
    assert report["residuals"]["rounding"] > 1e-9
    assert _exact_tv(report, RESIDUE) <= report["residuals"]["rounding"]


# The band LU's laws are 2.7e-8 and 7.7e-9 in TV from the exact ones here,
# with ||pi G||_1 at 4.3e-16 and 2.8e-18.
BAND_LU_ERRORS = {
    "alpha-beta": {"L": 11, "q": 91.934024521971, "alpha": 0.009456302815915514,
                   "beta": 0.002785857908207739, "gamma": 0.0, "delta": 0.0},
    "gamma-delta": {"L": 11, "q": 0.010558913830906722, "alpha": 0.0, "beta": 0.0,
                    "gamma": 0.005728088611445672, "delta": 0.07188791713730672},
}


@pytest.mark.parametrize("params", BAND_LU_ERRORS.values(), ids=BAND_LU_ERRORS.keys())
def test_open_chain_where_the_band_lu_errs_is_exact(capsys, params):
    code, out = _run(capsys, _open_argv(params))
    assert code == 0
    report = json.loads(out)
    assert _exact_tv(report, params) <= 1e-15
    assert 0.5 * np.abs(np.array(report["results"]["measure"])
                        - _band_lu(params).values).sum() > 1e-9


@st.composite
def _open_params(draw):
    """Open chains at L <= 10: q on both sides of 1 and q = 1, boundary
    rates that include 0, and small alpha, beta with large gamma, delta,
    which reach the shock region. One draw in two has rates in powers of
    two with alpha beta = gamma delta q^j for some j < L, where pivot j of
    z is exactly zero."""
    L = draw(st.integers(1, 10))
    if draw(st.booleans()):
        q, alpha, gamma, delta = (2.0 ** draw(st.integers(-2, 2)) for _ in "qagd")
        beta = gamma * delta * q ** draw(st.integers(0, L - 1)) / alpha
        return {"L": L, "q": q, "alpha": alpha, "beta": beta, "gamma": gamma,
                "delta": delta}
    q = draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0), st.just(1.0)))
    rate = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    return {"L": L, "q": q, **{k: draw(rate) for k in ("alpha", "beta", "gamma", "delta")}}


@settings(max_examples=150, deadline=None)
@given(params=_open_params())
@example(params=BAND_LU_ERRORS["alpha-beta"])
@example(params=BAND_LU_ERRORS["gamma-delta"])
def test_open_report_matches_the_band_lu(params):
    p = cli.models.AsepParams(**params)
    try:
        pi = _band_lu(params)
    except oracles.ReducibleChain:  # no boundary rate: a closed chain
        assert _outputs(_open_argv(params))[:2] == (2, "")
        return
    # where the oracle certifies its own law at the report's tolerance
    assume(np.abs(cli.models.asep_left_action(pi.values, p, True)).sum() <= 1e-10)
    code, out, _ = _outputs(_open_argv(params))
    assert code == 0
    report = json.loads(out)
    tv = 0.5 * np.abs(np.array(report["results"]["measure"]) - pi.values).sum()
    # The band LU has no accuracy bound of its own: where it misses, the
    # exact law decides, which its oracle checks as the generator's exact
    # null vector.
    if tv > 1e-12:
        assert _exact_tv(report, params) <= 1e-12, report["results"]["image"]


def test_mpa_report_fails_on_a_wrong_law(capsys, monkeypatch):
    # the law of the chain with its two boundaries swapped
    measure = cli.mpa.measure_with_rounding

    def swapped(p):
        return measure(dataclasses.replace(p, alpha=p.beta, beta=p.alpha,
                                           gamma=p.delta, delta=p.gamma))

    monkeypatch.setattr(cli.mpa, "measure_with_rounding", swapped)
    code, out = _run(capsys, ["mpa", "--L", "6", "--q", "0.5", "--alpha", "0.6",
                              "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2"])
    assert code == 1
    report = json.loads(out)
    assert report["residuals"]["stationarity"] > 1e-3
    assert report["residuals"]["normalization"] <= 1e-12


def test_mpa_report_certifies_where_the_truncations_settled_on_a_wrong_law(capsys):
    # A truncated q-oscillator settled here on a law 0.125 in TV from the
    # LU's (shock region, a = 1.77 and c = 1.51).
    params = {"L": 10, "q": 0.5448, "alpha": 0.3207, "beta": 0.3304,
              "gamma": 0.211, "delta": 0.295}
    argv = ["mpa"] + [a for k, v in params.items() for a in (f"--{k}", str(v))]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["params"] == params
    pi = _band_lu(params)
    assert 0.5 * np.abs(np.array(report["results"]["measure"]) - pi.values).sum() <= 1e-12


@pytest.mark.parametrize("argv, cause", [
    (CANCELLED, "probability of -"),
], ids=["cancellation"])
def test_mpa_float_failure_prints_one_error_and_no_warning(argv, cause):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outputs(["mpa", *argv])
    assert (code, out) == (1, "")
    assert err.startswith("convergence error: ") and err.count("\n") == 1
    assert cause in err


def test_mpa_mirrors_q_above_one(capsys):
    # At q > 1 with gamma delta > 0 a pivot beta - delta gamma q^j / alpha
    # turns negative, and z changes sign in every image here. The identity
    # image cancels by kappa = 1.7e11, the mirror by 1.0002, the least.
    argv = ["mpa", "--L", "10", "--q", "2.5", "--alpha", "0.6", "--beta", "0.4",
            "--gamma", "0.1", "--delta", "0.2"]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["image"] == "mirror"
    assert report["residuals"]["stationarity"] <= 1e-15


def test_open_chain_where_the_band_lu_fails_takes_the_matrix_product(capsys):
    # The band LU's law had ||pi G||_1 = 0.871 here when its re-pin followed
    # a 64-step walk; the matrix product is tried first either way.
    params = {"L": 10, "q": 46.47848607733105, "alpha": 0.0027522646135283743,
              "beta": 0.0052862984388549455, "gamma": 0.0,
              "delta": 0.44790675088142945}
    code, out = _run(capsys, _open_argv(params))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["solver"] == "matrix-product"
    assert report["residuals"]["stationarity"] <= 1e-16


def test_open_chain_beyond_the_float_range_is_certified_at_L20(capsys):
    # The chain above at L = 20: z overflows in the identity image and the
    # mirror, and the weights of the image of both symmetries span more
    # than the float range, so they are contracted in scale.
    params = {"L": 20, "q": 46.47848607733105, "alpha": 0.0027522646135283743,
              "beta": 0.0052862984388549455, "gamma": 0.0,
              "delta": 0.44790675088142945}
    code, out = _run(capsys, _open_argv(params))
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True and report["results"]["image"] == "both"
    assert report["residuals"]["rounding"] == 42 * np.finfo(float).eps
    assert report["residuals"]["stationarity"] <= 1e-16


def test_deterministic_json_output(capsys):
    argv = ["mpa", "--L", "3", "--q", "0.5", "--alpha", "0.6", "--beta",
            "0.4", "--gamma", "0.1", "--delta", "0.2"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2
    assert json.loads(out1)["wall_time"] is None


def test_timing_flag_populates_wall_time(capsys):
    code, out = _run(capsys, ["--timing", "rep-check", "--m", "2", "--q", "0.5"])
    assert code == 0
    assert json.loads(out)["wall_time"] > 0


def _outputs(argv):
    """Exit code, stdout and stderr of one main() call; a --timing report
    drops its wall_time, which differs from call to call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = out.getvalue()
    if "--timing" in argv:
        report = json.loads(stdout)
        assert report.pop("wall_time") > 0
        stdout = json.dumps(report, sort_keys=True)
    return code, stdout, err.getvalue()


def test_twprob_overflow_prints_one_error_and_no_warning():
    # exp(t eps(xi)) overflows on the contour at t = 1200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _outputs(["twprob", "--t", "1200", "--q", "0.5",
                                   "--y", "0", "--x", "1"])
    assert (code, out) == (1, "")
    assert err.startswith("convergence error: ") and err.count("\n") == 1


@pytest.mark.parametrize("oracle", [[], ["--check-oracle"]], ids=["formula", "oracle"])
def test_twprob_refuses_negative_q(oracle):
    # a negative left rate is no chain: a parameter error with or without
    # the oracle, while q = 0 (a totally asymmetric chain) stays valid
    argv = ["twprob", "--t", "0.5", "--y", "0", "2", "--x", "1", "3", *oracle]
    code, out, err = _outputs(argv[:3] + ["--q", "-0.5"] + argv[3:])
    assert (code, out) == (2, "")
    assert err.startswith("parameter error: q must be nonnegative")
    code, out, _ = _outputs(argv[:3] + ["--q", "0"] + argv[3:])
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert ("oracle" in report["results"]) == bool(oracle)


@pytest.mark.parametrize("q, radius, probability", [
    # radius 1/2 gave 0.00252, 1.04e-2 from the oracle, at q = 3, and did
    # not converge at q = 0.8, where a scattering pole lay on its torus
    ("3", 0.7 * 2 / (4 + math.sqrt(28)), 0.012896330007064),
    ("0.8", 0.7 * 2 / (1.8 + math.sqrt(6.44)), 0.057888439444074),
    # below q = 0.2335 the derived radius stays 1/2
    ("0.2", 0.5, 0.087649518747710),
])
def test_twprob_takes_its_radius_from_q(capsys, q, radius, probability):
    argv = ["twprob", "--t", "0.5", "--q", q, "--y", "0", "2", "--x", "1", "3",
            "--check-oracle"]
    code, out = _run(capsys, argv)
    report = json.loads(out)
    assert code == 0
    assert report["params"]["radius"] == pytest.approx(radius, rel=1e-15)
    assert report["results"]["probability"] == pytest.approx(probability, abs=1e-8)
    assert report["residuals"]["oracle_diff"] <= models.TW_DOUBLING_TOL


@pytest.mark.parametrize("argv, rank", [
    (["--t", "2", "--q", "1.5", "--y", "0", "2", "4", "--x", "1", "3", "5"], 25),
    (["--t", "1", "--q", "0.05", "--y", "0", "1", "3", "--x", "1", "2", "4"], 12),
    (["--t", "0.5", "--q", "0.4", "--y", "0", "--x", "1"], 0),
    (["--t", "2", "--q", "0.4", "--y", "0", "2", "4", "6", "--x", "1", "3", "5", "7"], 24),
])
def test_twprob_reports_how_it_converged(capsys, argv, rank):
    code, out = _run(capsys, ["twprob", *argv, "--check-oracle"])
    report = json.loads(out)
    assert code == 0 and report["pass"]
    results = report["results"]
    nodes = results["nodes"]
    assert report["params"]["nquad"] == nodes[0]
    assert nodes == [nodes[0] * 2**k for k in range(len(nodes))] and len(nodes) >= 2
    assert results["rank"] == rank
    assert 0.0 <= results["truncation_bound"] <= models.TW_SERIES_TOL
    jsonschema.validate(report, _schema())


def test_hermite_report_checks_every_overlap_to_degree_six(capsys):
    code, out = _run(capsys, ["oscillator", "hermite", "--n", "9", "--x", "0.3"])
    report = json.loads(out)
    gram = cli.oscillator.hermite_gram(6)
    assert code == 0
    assert report["residuals"]["orthogonality"] == max(
        abs(gram[m, n]) for m in range(7) for n in range(m)) <= 2.3e-13


def test_tolerance_floors_are_the_claimed_accuracies():
    # a contour value 1.03e-8 from the oracle passed the old 1e-5 floor;
    # the floor is now the accuracy the node doubling claims
    assert cli.TOL_FLOOR["twprob"] == models.TW_DOUBLING_TOL
    assert not cli._passes("twprob", {"oracle_diff": 1.03e-8}, 1e-10)
    # fused rows sum to 1 to rounding at every q: fuse has no floor
    assert "fuse" not in cli.TOL_FLOOR
    assert not cli._passes("fuse", {"row_sums": 4.8e-10}, 1e-10)
    # overlaps up to degree 6 are at most 4.5e-13: the default 1e-10 holds
    assert not cli._passes("oscillator hermite", {"orthogonality": 1e-9}, 1e-10)


def _json_dumps(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                      default=np.ndarray.tolist)


def test_report_writer_matches_json_dumps_on_every_markov_argv(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    argvs = []
    for seed in (7, 8, 9):
        w = workloads.markov(seed)
        argvs += [c.argv for c in w.warmup + w.calls(0) if c.argv not in argvs]
    reports = []
    writer = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda report: reports.append(report) or writer(report))
    for argv in argvs:
        code, out, _ = _outputs(argv)
        assert code == 0 and out == _json_dumps(reports[-1]) + "\n"
    assert len(reports) == len(argvs)
    stationary = [argv[0] != "twprob" for argv in argvs]
    assert [isinstance(r["results"].get("measure"), np.ndarray) for r in reports] == stationary


@pytest.mark.parametrize("size", [0, 1, 2**12])
def test_report_writer_matches_json_dumps_on_arrays(size):
    rng = np.random.default_rng(size)
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    report = {"results": {"measure": values, "nested": [{"a": values[:1]}, values[::-1]],
                          "ints": np.arange(3), "grid": np.ones((2, 2)), "solver": "x"},
              "params": {"L": 3, "list": [1.5, -0.0]}, "pass": True, "wall_time": None}
    assert cli._dumps(report) == _json_dumps(report)


def test_reused_parser_matches_a_fresh_one(monkeypatch):
    sequence = [
        ["verify", "nonsense"],
        ["--timing", "rep-check", "--m", "2", "--q", "0.5"],
        ["verify", "spectral", "--grid", "0.2", "0.4"],
        ["verify", "spectral"],
        ["verify", "ybe", "--family", "frt", "--q", "0.3"],
        ["verify", "ybe"],
        ["asep", "stationary", "--L", "4", "--q", "0.5", "--csv"],
    ]
    parser = cli.build_parser()
    hits = cli.build_parser.cache_info().hits
    reused = [_outputs(argv) for argv in sequence]
    assert cli.build_parser.cache_info().hits == hits + len(sequence)
    assert cli.build_parser() is parser
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_outputs(argv) for argv in sequence]
    assert [r[:2] for r in reused] == [f[:2] for f in fresh]
    # the default r-alpha-beta point (alpha = beta = 0.5) fails its check
    assert [r[0] for r in reused] == [2, 0, 0, 0, 0, 1, 0]
    assert reused[0][2] == fresh[0][2] != ""
    assert parser.parse_args(["verify", "spectral"]).grid == [0.3, 0.5, 0.7, 0.9]
    # the cached parser still dispatches to the current table entry
    run = cli.Run("oscillator fock", {"cutoff": 3}, {}, {"commutator": 0.5})
    monkeypatch.setitem(cli._OSCILLATOR, "fock", lambda args: run)
    assert _outputs(["oscillator", "fock", "--cutoff", "3"])[0] == 1


def test_sample6v_deterministic_csv(capsys):
    argv = ["sample6v", "--b1", "0.4", "--b2", "0.7", "--width", "5",
            "--height", "4", "--seed", "3"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2
    assert out1.splitlines()[1] == "x,y,j1,k1,j2,k2"
    assert json.loads(out1.splitlines()[0][2:])["sampler"] == "antidiagonal-philox-1"
    # Pinned bytes: a change here changes every CSV a seed reproduces.
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "58904ebbd8076aa1ffc6e513ab73081c4fd4f6b283d74c0d16275bd16570ff08")


# Pinned bytes at the benchmark's lattice size, for a seed above 2^32. No
# arrow enters the empty boundary, so its lattice draws nothing and pins
# only the CSV; the step boundary's pins all 16,384 uniforms.
@pytest.mark.parametrize("boundary, digest", [
    ("empty", "4c38a50a0848fe838618e108f1e9e9e749bafec818c1d892fe120ecbe9a0e4ba"),
    ("step", "b2db75abaa96c8d2cd850c7f56f4e97ba7f2edbf297da5bc4577d7e647e2b731"),
], ids=["empty", "step"])
def test_sample6v_pinned_csv_at_benchmark_scale(capsys, boundary, digest):
    argv = ["sample6v", "--b1", "0.4", "--b2", "0.7", "--width", "128",
            "--height", "128", "--seed", str(2**40 + 3), "--boundary", boundary]
    code, out = _run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_json_subcommand_validates(capsys):
    schema = _schema()
    for argv in (
        ["verify", "spectral", "--q", "0.4"],
        ["verify", "hecke", "--q", "0.7"],
        ["verify", "markov", "--q", "0.4"],
        ["verify", "reflection", "--q", "0.5", "--alpha", "0.6", "--gamma",
         "0.15", "--beta", "0.4", "--delta", "0.2"],
        ["rep-check", "--m", "3", "--q", "0.6"],
        ["universal-r", "--l", "1", "--m", "2", "--q", "0.6"],
        ["asep", "stationary", "--L", "3", "--q", "0.5", "--alpha", "0.6",
         "--beta", "0.4", "--gamma", "0.1", "--delta", "0.2", "--open"],
        ["mpa", "--L", "3", "--q", "0.5", "--alpha", "0.6", "--beta", "0.4",
         "--gamma", "0.1", "--delta", "0.2"],
        ["fuse", "--l", "2", "--m", "2", "--z", "0.3", "--q", "0.5"],
        ["twprob", "--t", "0.5", "--q", "0.4", "--y", "0", "--x", "1"],
        ["oscillator", "hermite", "--n", "4", "--x", "0.3"],
        ["oscillator", "fock", "--cutoff", "6"],
        ["oscillator", "js", "--cutoff", "6"],
    ):
        code, out = _run(capsys, argv)
        assert code == 0, (argv, out)
        jsonschema.validate(json.loads(out), schema)


def test_fuse_csv_table(capsys):
    code, out = _run(
        capsys,
        ["fuse", "--l", "2", "--m", "1", "--z", "0.3", "--q", "0.5", "--csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j1,k1,j2,k2,recurrence"
    # only conserving transitions are listed
    for line in lines[1:]:
        j1, k1, j2, k2 = (int(v) for v in line.split(",")[:4])
        assert j1 + k1 == j2 + k2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_residual_is_null_and_fails(capsys, monkeypatch, value):
    run = cli.Run("verify hecke", {"q": 0.5}, {}, {"hecke_quadratic": value,
                                                   "other": 0.0})
    monkeypatch.setitem(cli._VERIFY, "hecke", lambda args: run)
    code, out = _run(capsys, ["verify", "hecke"])
    assert code == 1
    report = json.loads(out)
    assert report["residuals"] == {"hecke_quadratic": None, "other": 0.0}
    assert report["pass"] is False
    jsonschema.validate(report, _schema())


@pytest.mark.parametrize("field", ["params", "results"])
def test_non_finite_result_is_a_convergence_error(capsys, monkeypatch, field):
    values = {"params": {"q": 0.5}, "results": {"eigenvalues": [1.0, -1.0]}}
    values[field] = {"nested": [0.0, {"x": float("nan")}]}
    run = cli.Run("verify hecke", values["params"], values["results"],
                  {"hecke_quadratic": 0.0})
    monkeypatch.setitem(cli._VERIFY, "hecke", lambda args: run)
    code, out = _run(capsys, ["verify", "hecke"])
    assert code == 1
    assert out == ""


@st.composite
def _verdict_cases(draw):
    """A command (with a floor, or "verify hecke" without one), a --tol,
    and 0-3 residuals: just below, at and just above the tolerance and
    the floor, zero, and non-finite values."""
    command = draw(st.sampled_from([*cli.TOL_FLOOR, "verify hecke"]))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-3]))
    edges = [tol, cli.TOL_FLOOR.get(command, tol)]
    values = [0.0, math.inf, -math.inf, math.nan] + [
        math.nextafter(edge, toward) for edge in edges
        for toward in (0.0, edge, math.inf)
    ]
    residuals = draw(st.lists(st.sampled_from(values), max_size=3))
    return command, tol, {f"r{i}": v for i, v in enumerate(residuals)}


@settings(max_examples=200, deadline=None)
@given(case=_verdict_cases())
def test_verdict_rule(case):
    command, tol, residuals = case
    run = cli.Run(command, {}, {}, residuals)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setitem(cli._VERIFY, "hecke", lambda args: run)
        code = cli.main(["--tol", repr(tol), "verify", "hecke"])
    report = json.loads(out.getvalue())
    bound = max(tol, cli.TOL_FLOOR.get(command, 0.0))
    ok = bool(residuals) and all(
        math.isfinite(v) and v <= bound for v in residuals.values()
    )
    assert code == (0 if ok else 1)
    assert report["pass"] is ok
    assert report["residuals"] == {
        k: v if math.isfinite(v) else None for k, v in residuals.items()
    }
    jsonschema.validate(report, _schema())
