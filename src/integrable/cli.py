"""Command-line interface: every verifier, solver, and sampler behind one
binary with machine-readable output.

Output contract: JSON run reports by default (sorted keys, so identical
argv gives byte-identical output); CSV for bulk tables. wall_time is null
unless --timing is passed, keeping reports deterministic. CSV modes take
their exit code from the same residuals as the JSON report. Exit codes:
0 all residuals within tolerance; 1 a residual check failed (an empty
residual set fails too) or a computation did not converge; 2 usage or
parameter error, including a non-finite number on the command line.
No report holds a NaN or an infinity: a non-finite residual is written
as null and fails its check, and a non-finite result (an overflow too)
exits 1 with nothing on stdout.

Each subcommand is one row of COMMANDS: its arguments and the function
that computes its Run. main() is the only code that turns a Run into a
report, a verdict and an exit code.

`asep stationary` and `mpa` share one report (_stationary_run), its
certificate ||pi G||_1, computed without a generator, and
`results.solver`: `closed-form` for the closed chain, and
`matrix-product` for `mpa` and for every `asep stationary --open` chain.
A matrix-product report also names the symmetry image its weights were
contracted in (`results.image`, see `mpa.images`) and bounds their
rounding (`residuals.rounding`). An open chain that report does not
certify fails with it: there is no second solver. Weights that round to
a negative probability leave no law to report: a convergence error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import models, mpa, oscillator, sixvertex, tensor, uqsl2, ybe
from .errors import ConvergenceError, ParameterError

PASS_EXIT = 0
FAIL_EXIT = 1
USAGE_EXIT = 2

# Residuals limited by a truncation or a quadrature are compared against
# at least this tolerance, keyed by report command. Every other command,
# `fuse` among them, is judged at --tol itself.
TOL_FLOOR = {"twprob": models.TW_DOUBLING_TOL}


class NonFiniteResult(ConvergenceError):
    """A computed result is infinite or NaN."""


class Run(NamedTuple):
    """What one subcommand computed. `table`, when set, renders the CSV
    printed in place of the JSON report."""

    command: str
    params: dict
    results: dict
    residuals: dict
    table: Callable[[], str] | None = None


class Command(NamedTuple):
    """One subcommand: its argparse arguments as (flags, keywords) pairs,
    the function computing its Run, and whether it only prints CSV."""

    name: str
    arguments: tuple
    run: Callable[[argparse.Namespace], Run]
    csv_only: bool = False


def _is_finite(value) -> bool:
    """False if any float in value, nested in lists, dicts and arrays, is
    infinite or NaN."""
    if isinstance(value, dict):
        return all(_is_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_is_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    return not isinstance(value, float) or math.isfinite(value)


def _passes(command: str, residuals: dict, tol: float) -> bool:
    """The verdict: every residual is finite and at most the tolerance,
    raised to the command's floor. An empty residual set never passes."""
    tol = max(tol, TOL_FLOOR.get(command, tol))
    return bool(residuals) and all(
        math.isfinite(v) and v <= tol for v in residuals.values()
    )


def _report(run: Run, tol: float, t0) -> dict:
    """The run report: the verdict of _passes, with each non-finite
    residual reported as null."""
    ok = _passes(run.command, run.residuals, tol)
    residuals = {k: v if math.isfinite(v) else None
                 for k, v in run.residuals.items()}
    return {
        "command": run.command,
        "params": run.params,
        "results": run.results,
        "residuals": residuals,
        "pass": ok,
        "wall_time": (time.perf_counter() - t0) if t0 is not None else None,
    }


def _dumps(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
    default=np.ndarray.tolist), byte for byte, without the pure-Python
    encoder's walk over every float of an array. json.dumps writes each
    1-D float array as a placeholder string, "\\u0000<i>" (no report
    string holds a NUL), and each placeholder is then replaced by its
    array, one repr of a float per line, indented two spaces past the
    placeholder's line."""
    arrays = []

    def placeholder(value):
        if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
            arrays.append(value)
            return f"\0{len(arrays) - 1}"
        return np.ndarray.tolist(value)

    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False,
                      default=placeholder)
    for i, values in enumerate(arrays):
        token = f'"\\u0000{i}"'
        at = text.index(token)
        line = text[text.rfind("\n", 0, at) + 1:at]
        pad = " " * (len(line) - len(line.lstrip(" ")))
        rows = f",\n{pad}  ".join(map(repr, values.tolist()))
        text = text.replace(token, f"[\n{pad}  {rows}\n{pad}]" if rows else "[]", 1)
    return text


def _measure_csv(values, L: int) -> str:
    # Row i's label is i in L binary digits, most significant first. All
    # labels are built at once as one ASCII string of L characters per row.
    idx = np.arange(len(values), dtype=">u4").view(np.uint8).reshape(-1, 4)
    labels = (np.unpackbits(idx, axis=1)[:, 32 - L:] + ord("0")).tobytes().decode("ascii")
    rows = [f"{labels[k:k + L]},{val!r}"
            for k, val in zip(range(0, len(labels), L), values.tolist())]
    return "\n".join(["configuration,probability", *rows]) + "\n"


_YBE_FAMILIES = {
    "r-alpha-beta": lambda args: ybe.r_alpha_beta(args.alpha, args.beta),
    "permutation": lambda args: tensor.permutation_operator(2, 2),
    "identity": lambda args: np.eye(4),
    "frt": lambda args: ybe.frt_r(args.q),
}


def _verify_ybe(args) -> Run:
    res = ybe.verify_braided_ybe(_YBE_FAMILIES[args.family](args))
    residuals = {"braided_ybe": min(res["residual"], res["r_check_residual"])}
    return Run(
        "verify ybe",
        {"family": args.family, "alpha": args.alpha, "beta": args.beta, "q": args.q},
        res,
        residuals,
    )


def _verify_spectral(args) -> Run:
    r = functools.partial(ybe.asep_spectral_r, q=args.q)
    res = ybe.verify_spectral_ybe(r, args.grid, args.grid)
    return Run("verify spectral", {"q": args.q, "grid": list(args.grid)}, {},
               {"spectral_ybe": res["residual"]})


def _verify_reflection(args) -> Run:
    """Both boundaries from the one K family: K at (alpha, gamma) and the
    right boundary's K-bar at (-delta, -beta)."""
    r = functools.partial(ybe.asep_spectral_r, q=args.q)
    k = functools.partial(ybe.reflection_k, q=args.q, a=args.alpha, c=args.gamma)
    kbar = functools.partial(ybe.reflection_k, q=args.q, a=-args.delta, c=-args.beta)
    checked = []
    for kf in (k, kbar):
        try:
            checked.append(ybe.verify_reflection_equation(r, kf, args.grid, args.grid))
        except ybe.EvaluationPole:
            continue  # every grid point sits on a pole of R or of this K
    if not checked:
        raise ParameterError("every grid point hits an evaluation pole")
    k1, pole = k(np.ones(1))
    if pole[0]:
        raise ybe.PoleInDenominator("K denominator vanishes at x=1.0")
    return Run(
        "verify reflection",
        {"q": args.q, "alpha": args.alpha, "gamma": args.gamma,
         "beta": args.beta, "delta": args.delta, "grid": list(args.grid)},
        {"points_checked": sum(res["points_checked"] for res in checked)},
        {"reflection": float(np.max([res["residual"] for res in checked])),
         "k_row_sums": float(np.max([res["k_row_sums"] for res in checked])),
         "k_at_one": float(np.max(np.abs(k1[0] - np.eye(2))))},
    )


def _verify_hecke(args) -> Run:
    res = ybe.verify_hecke_quadratic(ybe.frt_r(args.q), args.q**-2, -1.0)
    return Run("verify hecke", {"q": args.q}, {"eigenvalues": [args.q**-2, -1.0]},
               {"hecke_quadratic": res["residual"]})


def _verify_markov(args) -> Run:
    res = ybe.markov_structure_report(
        functools.partial(ybe.asep_spectral_r, q=args.q), models.asep_bulk_w(args.q)
    )
    fit = {"q": args.q, "rho_fit": res["rho_fit"]}
    # ASEP's R'(1) P = w / (q - 1): a family whose R'(1) is zero fits
    # rho = 0 with no misfit, and fails here
    rho = abs((args.q - 1.0) * res["rho_fit"] - 1.0)
    return Run("verify markov", fit, fit, {**res["residuals"], "rho": rho})


_VERIFY = {
    "ybe": _verify_ybe,
    "spectral": _verify_spectral,
    "reflection": _verify_reflection,
    "hecke": _verify_hecke,
    "markov": _verify_markov,
}


def _rep_check(args) -> Run:
    res = uqsl2.check_relations(uqsl2.rep(args.m, args.q))
    return Run("rep-check", {"m": args.m, "q": args.q}, {}, res)


def _universal_r(args) -> Run:
    """The graded check in floats. Where it fails, the same check on the
    Fraction a float q stands for decides: only integer powers of q enter
    it, so its residuals are exact. Past the exact check's grid cap the
    float verdict stands."""
    res, results = uqsl2.universal_r_check(args.l, args.m, args.q)
    if not _passes("universal-r", res, args.tol):
        from fractions import Fraction  # off the start-up path: rarely needed

        try:
            res, results = uqsl2.universal_r_check(args.l, args.m, Fraction(args.q))
        except tensor.StateSpaceTooLarge:
            pass
    return Run("universal-r", {"l": args.l, "m": args.m, "q": args.q}, results, res)


def _asep_params(args) -> models.AsepParams:
    return models.AsepParams(q=args.q, alpha=args.alpha, beta=args.beta,
                             gamma=args.gamma, delta=args.delta, L=args.L)


def _stationary_run(command, params, law, p, open_boundary, results,
                    residuals) -> Run:
    """A stationary law's report: the measure with `results`, which name
    the solver, and |sum pi - 1| and the certificate ||pi G||_1 from the
    matrix-free left action with `residuals`."""
    pi = law.values
    flow = models.asep_left_action(pi, p, open_boundary)
    residuals = {"normalization": abs(float(pi.sum()) - 1.0),
                 "stationarity": float(np.abs(flow).sum()), **residuals}
    return Run(command, params, {"measure": pi, **results}, residuals,
               table=lambda: _measure_csv(pi, p.L))


def _matrix_product_run(command, params, p) -> Run:
    """The open chain's report from the matrix product: its law, the image
    it was contracted in and the rounding bound of its weights."""
    law, rounding, image = mpa.measure_with_rounding(p)
    return _stationary_run(command, params, law, p, True,
                           {"solver": "matrix-product", "image": image},
                           {"rounding": rounding})


def _asep(args) -> Run:
    p = _asep_params(args)
    if args.open:
        return _matrix_product_run("asep stationary", dict(vars(p), open=True), p)
    if p.alpha or p.beta or p.gamma or p.delta:
        raise ParameterError("boundary rates need --open: the closed chain has none")
    # closed chain conserves particle number; report the half-filled class
    return _stationary_run("asep stationary", {"L": p.L, "q": p.q, "open": False},
                           models.closed_asep_law(p, p.L // 2), p, False,
                           {"solver": "closed-form"}, {})


def _mpa(args) -> Run:
    p = _asep_params(args)
    return _matrix_product_run("mpa", vars(p), p)


def _fuse_csv(w: sixvertex.VertexWeights) -> str:
    lines = ["j1,k1,j2,k2,recurrence"]
    for j1, k1, j2, k2 in itertools.product(range(w.l + 1), range(w.m + 1),
                                            range(w.l + 1), range(w.m + 1)):
        if j1 + k1 == j2 + k2:
            lines.append(f"{j1},{k1},{j2},{k2},{float(w.table[j1, k1, j2, k2])!r}")
    return "\n".join(lines) + "\n"


def _fuse(args) -> Run:
    w = sixvertex.fused_weights_recurrence(args.l, args.m, args.z, args.q)
    return Run(
        "fuse",
        {"l": args.l, "m": args.m, "z": args.z, "q": args.q},
        {"max_entry": float(np.max(np.abs(w.table)))},
        {"row_sums": w.row_sum_violation(),
         "conservation": w.conservation_violation()},
        table=lambda: _fuse_csv(w),
    )


# Arrows entering each row from the left; none enter from the bottom.
_BOUNDARIES = {"step": 1, "empty": 0}


def _sample6v(args) -> Run:
    config = sixvertex.sample_lattice(
        sixvertex.six_vertex_weights(args.b1, args.b2), args.width, args.height,
        boundary_left=(_BOUNDARIES[args.boundary],) * args.height,
        boundary_bottom=(0,) * args.width, seed=args.seed,
    )
    return Run(
        "sample6v",
        {"b1": args.b1, "b2": args.b2, "width": args.width, "height": args.height,
         "seed": args.seed, "boundary": args.boundary},
        {},
        {"conservation": config.conservation_violation()},
        table=config.to_csv,
    )


def _twprob(args) -> Run:
    y, x = tuple(args.y), tuple(args.x)
    diagnostics = {}
    val = models.tw_transition_probability(y, x, args.t, args.q, diagnostics=diagnostics)
    results = {"probability": val, **diagnostics}
    residuals = {"probability_range": max(0.0, -val, val - 1.0)}
    if args.check_oracle:
        oracle = models.ctmc_oracle_probability(y, x, args.t, args.q)
        results["oracle"] = oracle
        residuals["oracle_diff"] = abs(val - oracle)
    return Run(
        "twprob",
        {"y": list(y), "x": list(x), "t": args.t, "q": args.q,
         "radius": models.tw_radius(args.q, len(y)), "nquad": diagnostics["nodes"][0]},
        results,
        residuals,
    )


def _oscillator_hermite(args) -> Run:
    val = float(oscillator.hermite_table(args.n, np.array([args.x]))[args.n, 0])
    gram = oscillator.hermite_gram(min(args.n, 6))
    return Run("oscillator hermite", {"n": args.n, "x": args.x}, {"value": val},
               {"orthogonality": float(np.abs(np.tril(gram, -1)).max())})


def _oscillator_fock(args) -> Run:
    f = oscillator.truncated_fock(args.cutoff)
    return Run("oscillator fock", {"cutoff": args.cutoff}, {},
               {"commutator": f.commutator_violation()})


def _oscillator_js(args) -> Run:
    return Run("oscillator js", {"cutoff": args.cutoff}, {},
               {"sl2_commutators": oscillator.sl2_js_violation(args.cutoff)})


_OSCILLATOR = {
    "hermite": _oscillator_hermite,
    "fock": _oscillator_fock,
    "js": _oscillator_js,
}


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _arg(*flags, **kwargs):
    return flags, kwargs


def _float(*flags, **kwargs):
    return flags, dict(kwargs, type=_finite_float)


def _int(*flags, **kwargs):
    return flags, dict(kwargs, type=int)


def _flag(*flags):
    return flags, {"action": "store_true"}


COMMANDS = (
    Command("verify", (
        _arg("target", choices=list(_VERIFY)),
        _arg("--family", choices=list(_YBE_FAMILIES), default="r-alpha-beta"),
        _float("--alpha", default=0.5),
        _float("--beta", default=0.5),
        _float("--gamma", default=0.1),
        _float("--delta", default=0.1),
        _float("--q", default=0.5),
        _float("--grid", nargs="+", default=[0.3, 0.5, 0.7, 0.9]),
    ), lambda args: _VERIFY[args.target](args)),
    Command("rep-check", (
        _int("--m", required=True),
        _float("--q", required=True),
    ), _rep_check),
    Command("universal-r", (
        _int("--l", required=True),
        _int("--m", required=True),
        _float("--q", required=True),
    ), _universal_r),
    Command("asep", (
        _arg("mode", choices=["stationary"]),
        _int("--L", required=True),
        _float("--q", required=True),
        _float("--alpha", default=0.0),
        _float("--beta", default=0.0),
        _float("--gamma", default=0.0),
        _float("--delta", default=0.0),
        _flag("--open"),
        _flag("--csv"),
    ), _asep),
    Command("mpa", (
        _int("--L", required=True),
        _float("--q", required=True),
        _float("--alpha", required=True),
        _float("--beta", required=True),
        _float("--gamma", default=0.0),
        _float("--delta", default=0.0),
        _flag("--csv"),
    ), _mpa),
    Command("fuse", (
        _int("--l", required=True),
        _int("--m", required=True),
        _float("--z", required=True),
        _float("--q", required=True),
        _flag("--csv"),
    ), _fuse),
    Command("sample6v", (
        _float("--b1", required=True),
        _float("--b2", required=True),
        _int("--width", required=True),
        _int("--height", required=True),
        _int("--seed", default=0),
        _arg("--boundary", choices=list(_BOUNDARIES), default="step"),
    ), _sample6v, csv_only=True),
    Command("twprob", (
        _float("--t", required=True),
        _float("--q", required=True),
        _int("--y", nargs="+", required=True),
        _int("--x", nargs="+", required=True),
        _flag("--check-oracle"),
    ), _twprob),
    Command("oscillator", (
        _arg("what", choices=list(_OSCILLATOR)),
        _int("--n", default=4),
        _float("--x", default=0.0),
        _int("--cutoff", default=8),
    ), lambda args: _OSCILLATOR[args.what](args)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and reused by
    every later call in the process: parsing does not change it, and the
    verify and oscillator rows look up their _VERIFY/_OSCILLATOR entry at
    call time. `build_parser.__wrapped__()` builds a fresh one."""
    top = argparse.ArgumentParser(prog="integrable", allow_abbrev=False)
    top.add_argument("--tol", type=_finite_float, default=1e-10)
    top.add_argument("--timing", action="store_true",
                     help="include wall_time in the report (non-deterministic)")
    sub = top.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name)
        for flags, kwargs in command.arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=command.run, csv=command.csv_only)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return USAGE_EXIT if exc.code not in (0,) else 0
    t0 = time.perf_counter() if args.timing else None
    try:
        run = args.run(args)
        # params can carry a fitted value (verify markov's rho_fit)
        if not _is_finite([run.params, run.results]):
            raise NonFiniteResult(f"non-finite value in {run.command} report")
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except OverflowError as exc:  # a float power overflowed: a non-finite result
        print(f"non-finite result: {exc}", file=sys.stderr)
        return FAIL_EXIT
    except ValueError as exc:  # ParameterError, and numpy's domain errors
        print(f"parameter error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    report = _report(run, args.tol, t0)
    if args.csv:
        sys.stdout.write(run.table())
        if not report["pass"]:
            residuals = json.dumps(report["residuals"], sort_keys=True,
                                   allow_nan=False)
            print(f"check failed: {residuals}", file=sys.stderr)
    else:
        print(_dumps(report))
    return PASS_EXIT if report["pass"] else FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
