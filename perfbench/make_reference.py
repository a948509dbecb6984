"""Compute the committed reference data the benchmark reads.

Run once from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes perfbench/reference.json with

* ``twprob_n3``: N=3 transition probabilities from the dense
  master-equation oracle ``models.ctmc_oracle_probability`` (about 30 s
  each). The benchmark compares the contour formula against them, so the
  oracle never runs inside a timed pass.
* ``mpa_points``: open-ASEP parameter points on which
  ``mpa.mpa_stationary_measure`` doubles its truncation 16 -> 32 -> 64
  at every L the benchmark uses. Drawing only from these points keeps the
  work per pass, and the traced counters, identical for every seed.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

from integrable import models, mpa

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# (y, x, t, q); every value is translation invariant, so the benchmark
# shifts the positions by a seed-dependent offset.
N3_POINTS = [
    ((0, 2, 4), (1, 3, 5), 0.5, 0.4),
    ((0, 2, 4), (1, 3, 5), 0.5, 0.6),
    ((0, 1, 3), (1, 2, 4), 0.5, 0.4),
    ((0, 2, 4), (0, 3, 5), 0.4, 0.5),
]

MPA_SCHEDULE = [16, 32, 64]
MPA_LS = (10, 12, 13, 14)
MPA_POINTS_WANTED = 8


def _schedule(p: models.AsepParams) -> list:
    seen = []
    original = mpa.q_oscillator

    def recording(M, q):
        seen.append(M)
        return original(M, q)

    mpa.q_oscillator = recording
    try:
        mpa.mpa_stationary_measure(p)
    finally:
        mpa.q_oscillator = original
    return seen


def mpa_points(rng: random.Random) -> list:
    points = []
    while len(points) < MPA_POINTS_WANTED:
        point = {
            "q": round(rng.uniform(0.53, 0.63), 4),
            "alpha": round(rng.uniform(0.5, 1.0), 4),
            "beta": round(rng.uniform(0.5, 1.0), 4),
            "gamma": round(rng.uniform(0.0, 0.2), 4),
            "delta": round(rng.uniform(0.0, 0.2), 4),
        }
        try:
            ok = all(
                _schedule(models.AsepParams(L=L, **point)) == MPA_SCHEDULE
                for L in MPA_LS
            )
        except mpa.MpaError:
            ok = False
        print(point, "kept" if ok else "skipped", flush=True)
        if ok:
            points.append(point)
    return points


def main() -> int:
    n3 = []
    for y, x, t, q in N3_POINTS:
        start = time.perf_counter()
        value = models.ctmc_oracle_probability(y, x, t, q)
        print(f"N=3 y={y} x={x} t={t} q={q}: {value!r} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        n3.append({"y": list(y), "x": list(x), "t": t, "q": q,
                   "probability": value})
    data = {
        "twprob_n3": n3,
        "mpa_schedule": MPA_SCHEDULE,
        "mpa_points": mpa_points(random.Random(20251205)),
    }
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
