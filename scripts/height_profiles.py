"""Sample stochastic six-vertex lattices with step boundary data and emit
plot-ready CSV of the mean top-edge height profile.

Usage: python scripts/height_profiles.py --width 64 --height 64 --reps 200
"""

import argparse
import sys

import numpy as np

from integrable import sixvertex


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--b1", type=float, default=0.3)
    ap.add_argument("--b2", type=float, default=0.7)
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--height", type=int, default=64)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    w = sixvertex.six_vertex_weights(args.b1, args.b2)
    # All reps in one sweep: rep r is the lattice of seed args.seed + r.
    batch = sixvertex.sample_lattices(
        w, args.width, args.height,
        boundary_left=(1,) * args.height, boundary_bottom=(0,) * args.width,
        seeds=range(args.seed, args.seed + args.reps),
    )
    mean = np.mean([batch.lattice(r).top_height_profile() for r in range(args.reps)], axis=0)

    print("x,mean_height")
    for x, h in enumerate(mean):
        print(f"{x},{float(h)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
