"""Benchmark-side correctness checks.

Each check returns a list of (name, value, tolerance) triples; a call
fails when any value exceeds its tolerance. None of these checks builds a
dense generator or calls the program's own oracles, so they stay cheap and
independent of the code under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

# ||pi G||_1 for a stationary law; the CLI's own MPA-vs-oracle bound is 1e-8.
STATIONARITY_TOL = 1e-8
# |contour value - committed oracle value| for N=3; the oracle is stable
# to 1e-9 under window doubling.
N3_REFERENCE_TOL = 1e-8
# Pooled conditional frequencies of the sampler, in standard errors.
Z_MAX = 5.0

# Effective tolerance of each CLI report, as the CLI applies it with the
# default --tol 1e-10 (some commands raise it to a floor).
CLI_DEFAULT_TOL = 1e-10
CLI_TOL_FLOOR = {
    "mpa": 1e-8,
    "fuse": 1e-8,
    "twprob": 1e-5,
    "verify markov": 1e-8,
    "oscillator hermite": 1e-6,
}


def report_residuals(report: dict) -> list:
    tol = max(CLI_DEFAULT_TOL, CLI_TOL_FLOOR.get(report["command"], 0.0))
    return [(name, value, tol) for name, value in report["residuals"].items()]


def stationarity_residual(pi, L, q, alpha=0.0, beta=0.0, gamma=0.0,
                          delta=0.0, open_boundary=True) -> float:
    """||pi G||_1 for the generator models.asep_generator builds, applied
    one local term at a time with bit operations on the 2^L configuration
    indices (site 1 is the most significant bit).

    Bond (i, i+1) moves a local 01 to 10 at rate q and 10 to 01 at rate 1;
    site 1 fills at rate alpha and empties at gamma; site L fills at delta
    and empties at beta.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (1 << L,):
        return math.inf
    idx = np.arange(1 << L)
    out = np.zeros(1 << L)

    def move(src_mask, flip, rate):
        src = idx[src_mask]
        flow = rate * pi[src]
        out[src ^ flip] += flow  # the flip is a bijection on src: no repeats
        out[src] -= flow

    for i in range(1, L):
        a, b = 1 << (L - i), 1 << (L - i - 1)
        left, right = (idx & a) != 0, (idx & b) != 0
        move(~left & right, a | b, q)
        move(left & ~right, a | b, 1.0)
    if open_boundary:
        first, last = 1 << (L - 1), 1
        occ = (idx & first) != 0
        move(~occ, first, alpha)
        move(occ, first, gamma)
        occ = (idx & last) != 0
        move(~occ, last, delta)
        move(occ, last, beta)
    return float(np.abs(out).sum())


def probability_range(p: float) -> list:
    """Distance of p outside [0, 1]; zero tolerance."""
    return [("probability_in_unit_interval", max(0.0, -p, p - 1.0), 0.0)]


def parse_lattice_csv(text: str, width: int, height: int, seed: int) -> dict:
    """Checks one sample6v CSV with the step boundary (arrows enter every
    row from the left, none from the bottom) and returns the conditional
    counts that the run-level z-test pools.

    Exact checks: header, raster order, arrow conservation at each vertex,
    and that each vertex's inputs equal its neighbours' outputs and the
    boundary.
    """
    head, columns, body = text.split("\n", 2)
    header = json.loads(head[2:])
    bad_header = float(
        columns != "x,y,j1,k1,j2,k2"
        or (header["width"], header["height"], header["seed"]) != (width, height, seed)
    )
    rows = np.array(body.replace("\n", ",").rstrip(",").split(","),
                    dtype=np.int64).reshape(-1, 6)
    if rows.shape[0] != width * height:
        return {"checks": [("vertex_count", abs(rows.shape[0] - width * height), 0)]}
    x, y, j1, k1, j2, k2 = (rows[:, c].reshape(height, width) for c in range(6))
    order = int(np.sum(x != np.arange(width)[None, :])
                + np.sum(y != np.arange(height)[:, None]))
    conservation = int(np.sum(j1 + k1 != j2 + k2))
    links = int(np.sum(j1[:, 0] != 1) + np.sum(k1[0, :] != 0)
                + np.sum(j1[:, 1:] != j2[:, :-1]) + np.sum(k1[1:, :] != k2[:-1, :]))
    up_in = (j1 == 0) & (k1 == 1)
    right_in = (j1 == 1) & (k1 == 0)
    return {
        "checks": [("header", bad_header, 0), ("raster_order", order, 0),
                   ("arrow_conservation", conservation, 0),
                   ("boundary_and_links", links, 0)],
        "up": (int(up_in.sum()), int(np.sum(k2[up_in] == 1))),
        "right": (int(right_in.sum()), int(np.sum(j2[right_in] == 1))),
    }


def pooled_z(trials: int, successes: int, p: float) -> float:
    """|z| of a binomial count against success probability p; an empty
    pool cannot pass."""
    if trials == 0:
        return math.inf
    return abs(successes - trials * p) / math.sqrt(trials * p * (1.0 - p))
