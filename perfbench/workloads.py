"""The four workloads: their call lists, drawn from the seed, and the
checks on each call's output.

A call is either a CLI invocation (``argv`` for ``integrable.cli.main``) or,
in ``measure`` only, a direct library call. Parameters that change how much
work a call does are fixed (sizes) or drawn from committed pools on which
the work is identical, so passes cost the same for every seed and the
traced counters repeat exactly; the seed moves the values the program
computes with and the sampler seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
Q_GRID = ("0.3", "0.5", "0.7", "0.9")


def _load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


@dataclass
class Call:
    """One unit of timed work.

    ``check`` receives the parsed report (CLI JSON), the raw text (CSV) or
    the library result, and returns (name, value, tolerance) triples.
    ``data`` carries what a pass-level check needs.
    """

    label: str
    argv: list = None
    func: Callable = None
    json_report: bool = True
    check: Callable = None
    data: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    warmup: list
    calls: Callable  # pass index -> list of Call
    run_check: Callable = None  # the run's calls -> (labels to fail, checks)


def _fmt(v: float) -> str:
    return repr(round(v, 4))


def _cli(argv, check=None, json_report=True, **data) -> Call:
    return Call(label=" ".join(argv), argv=list(argv), check=check,
                json_report=json_report, data=data)


# ----------------------------------------------------------------- markov

def _asep_argv(L, rates, open_boundary):
    argv = ["asep", "stationary", "--L", str(L), "--q", _fmt(rates["q"])]
    if open_boundary:
        for key in ("alpha", "beta", "gamma", "delta"):
            argv += [f"--{key}", _fmt(rates[key])]
        argv.append("--open")
    return argv


def _mpa_argv(L, point):
    return ["mpa", "--L", str(L)] + [
        a for key in ("q", "alpha", "beta", "gamma", "delta")
        for a in (f"--{key}", repr(point[key]))]


def _stationary_check(L, rates, open_boundary):
    # Use the rounded values the CLI received.
    r = {k: float(_fmt(v)) for k, v in rates.items()}

    def check(report):
        pi = report["results"]["measure"]
        res = checks.stationarity_residual(pi, L, open_boundary=open_boundary, **r)
        return [("stationarity_l1", res, checks.STATIONARITY_TOL)]

    return check


def _twprob_check(reference=None):
    def check(report):
        p = report["results"]["probability"]
        out = checks.probability_range(p)
        if reference is not None:
            out.append(("n3_reference", abs(p - reference), checks.N3_REFERENCE_TOL))
        return out

    return check


def _open_rates(rng):
    return {"q": rng.uniform(0.3, 0.8), "alpha": rng.uniform(0.3, 1.0),
            "beta": rng.uniform(0.3, 1.0), "gamma": rng.uniform(0.0, 0.3),
            "delta": rng.uniform(0.0, 0.3)}


def _twprob_argv(y, x, t, q, shift, oracle):
    argv = ["twprob", "--t", repr(t), "--q", _fmt(q),
            "--y", *[str(v + shift) for v in y], "--x", *[str(v + shift) for v in x]]
    return argv + (["--check-oracle"] if oracle else [])


def markov(seed: int) -> Workload:
    ref = _load("reference.json")
    rng = random.Random(f"markov/{seed}")
    calls = []
    for L in (10, 11):
        rates = _open_rates(rng)
        calls.append(_cli(_asep_argv(L, rates, True),
                          _stationary_check(L, rates, True)))
    closed = {"q": rng.uniform(0.3, 0.8)}
    calls.append(_cli(_asep_argv(12, closed, False),
                      _stationary_check(12, closed, False)))
    for point in rng.sample(ref["mpa_points"], 2):
        calls.append(_cli(_mpa_argv(10, point), _stationary_check(10, point, True)))
    # On this gap the oracle's window sequence (and so its work) is the same
    # for every q in [0.3, 0.6]; positions shift freely (translation invariance).
    q2 = rng.uniform(0.3, 0.6)
    shift = rng.randint(0, 40)
    for t in (0.5, 2.0, 4.0):
        calls.append(_cli(_twprob_argv((0, 2), (1, 3), t, q2, shift, True),
                          _twprob_check()))
    n3 = rng.choice(ref["twprob_n3"])
    calls.append(_cli(_twprob_argv(n3["y"], n3["x"], n3["t"], n3["q"], shift, False),
                      _twprob_check(n3["probability"])))
    warm_rates = _open_rates(rng)
    warmup = [
        _cli(_asep_argv(4, warm_rates, True)),
        _cli(_asep_argv(4, warm_rates, False)),
        _cli(_mpa_argv(4, ref["mpa_points"][0])),
        _cli(_twprob_argv((0, 2), (1, 3), 0.5, q2, 0, True)),
    ]
    return Workload("markov", warmup, lambda i: calls)


# ---------------------------------------------------------------- measure

def measure(seed: int) -> Workload:
    from integrable import models, mpa

    ref = _load("reference.json")
    rng = random.Random(f"measure/{seed}")
    points = rng.sample(ref["mpa_points"], 2)

    def library_call(L, point):
        p = models.AsepParams(L=L, **point)

        def check(measure_):
            res = checks.stationarity_residual(measure_.values, L, **point)
            return [("stationarity_l1", res, checks.STATIONARITY_TOL)]

        # Resolve mpa_stationary_measure at call time, so a traced pass
        # goes through the traced function.
        return Call(label=f"mpa_stationary_measure L={L} {point}",
                    func=lambda: mpa.mpa_stationary_measure(p), check=check)

    calls = [library_call(L, point) for point in points for L in (12, 13, 14)]
    return Workload("measure", [library_call(6, points[0])], lambda i: calls)


# ---------------------------------------------------------------- lattice

LATTICES = ((128, 128), (128, 128), (256, 128))


def lattice(seed: int) -> Workload:
    rng = random.Random(f"lattice/{seed}")
    b1, b2 = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
    base = rng.randrange(1 << 30)

    def sample(width, height, sampler_seed):
        argv = ["sample6v", "--b1", _fmt(b1), "--b2", _fmt(b2),
                "--width", str(width), "--height", str(height),
                "--seed", str(sampler_seed)]

        def check(text):
            parsed = checks.parse_lattice_csv(text, width, height, sampler_seed)
            call.data.update(parsed)
            return parsed["checks"]

        call = _cli(argv, check, json_report=False, vertices=width * height)
        return call

    # These two points are known seed failures (see known_failures.json);
    # they stay in the pass so that the failures show.
    fuse = [_cli(["fuse", "--l", "4", "--m", "4", "--z", "0.1", "--q", "0.5"]),
            _cli(["fuse", "--l", "8", "--m", "8", "--z", "0.25", "--q", "0.5"])]

    def calls(i):
        return [sample(w, h, base + 3 * i + k)
                for k, (w, h) in enumerate(LATTICES)] + fuse

    # Pooled over the whole run, so that a bias of a few percent in either
    # conditional law shows.
    def run_check(run_calls):
        sampled = [c for c in run_calls if "up" in c.data]
        up = [sum(v) for v in zip(*(c.data["up"] for c in sampled))] or [0, 0]
        right = [sum(v) for v in zip(*(c.data["right"] for c in sampled))] or [0, 0]
        z = [("pooled_z_up_given_01", checks.pooled_z(*up, float(_fmt(b1))), checks.Z_MAX),
             ("pooled_z_right_given_10", checks.pooled_z(*right, float(_fmt(b2))),
              checks.Z_MAX)]
        return {c.label for c in run_calls if c.data.get("vertices")}, z

    warmup = [sample(8, 8, base), _cli(["fuse", "--l", "2", "--m", "2", "--z", "0.3",
                                        "--q", "0.5"])]
    return Workload("lattice", warmup, calls, run_check)


# ----------------------------------------------------------------- verify

def verify(seed: int) -> Workload:
    rng = random.Random(f"verify/{seed}")
    calls = [
        _cli(["verify", "ybe", "--family", "r-alpha-beta",
              "--alpha", _fmt(rng.uniform(0.05, 0.95)), "--beta", "0.0"]),
        _cli(["verify", "ybe", "--family", "permutation"]),
        _cli(["verify", "ybe", "--family", "identity"]),
    ]
    for n, q in enumerate(Q_GRID):
        calls.append(_cli(["verify", "ybe", "--family", "frt", "--q", q]))
        calls.append(_cli(["verify", "spectral", "--q", q]))
        calls.append(_cli(["verify", "reflection", "--q", q,
                           "--alpha", _fmt(rng.uniform(0.3, 0.9)),
                           "--gamma", _fmt(rng.uniform(0.05, 0.3)),
                           "--beta", _fmt(rng.uniform(0.3, 0.9)),
                           "--delta", _fmt(rng.uniform(0.05, 0.3))]))
        calls.append(_cli(["verify", "hecke", "--q", q]))
        calls.append(_cli(["verify", "markov", "--q", q]))
        for m in range(1, 9):
            calls.append(_cli(["rep-check", "--m", str(m), "--q", q]))
        for l in range(1, 5):
            for m in range(1, 5):
                calls.append(_cli(["universal-r", "--l", str(l), "--m", str(m),
                                   "--q", q]))
        cutoff = str(6 + 2 * n)
        calls.append(_cli(["oscillator", "hermite", "--n", "6",
                           "--x", _fmt(rng.uniform(-2.0, 2.0))]))
        calls.append(_cli(["oscillator", "fock", "--cutoff", cutoff]))
        calls.append(_cli(["oscillator", "js", "--cutoff", cutoff]))
    warmup = [_cli(["verify", "hecke", "--q", "0.5"]),
              _cli(["rep-check", "--m", "2", "--q", "0.5"])]
    return Workload("verify", warmup, lambda i: calls)


WORKLOADS = {"markov": markov, "lattice": lattice, "measure": measure,
             "verify": verify}

# The layers each workload is built to stress (the traced run reports their
# share of the traced wall time).
STRESSED = {"markov": ("tensor", "models"), "lattice": ("sixvertex",),
            "measure": ("mpa",), "verify": ("cli",)}
