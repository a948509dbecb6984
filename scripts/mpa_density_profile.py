"""Stationary density profile of the open exclusion chain from the matrix
product, one CSV row per site, after a comment line naming the symmetry
image the weights were contracted in and the rounding bound of those
weights.

Usage: python scripts/mpa_density_profile.py --L 8 --q 0.5
"""

import argparse
import sys

import numpy as np

from integrable import mpa
from integrable.models import AsepParams


def density(values: np.ndarray, L: int) -> np.ndarray:
    """Occupation of each site, site 1 the most significant bit."""
    shifts = L - 1 - np.arange(L)
    occupied = (np.arange(2**L)[np.newaxis, :] >> shifts[:, np.newaxis]) & 1
    # cumsum adds in configuration order, so the printed digits match a
    # plain running sum; pairwise or BLAS sums move the last digit.
    return np.cumsum(np.where(occupied, values, 0.0), axis=1)[:, -1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--L", type=int, default=8)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.8)
    ap.add_argument("--beta", type=float, default=0.6)
    ap.add_argument("--gamma", type=float, default=0.1)
    ap.add_argument("--delta", type=float, default=0.15)
    args = ap.parse_args()

    p = AsepParams(
        q=args.q, alpha=args.alpha, beta=args.beta,
        gamma=args.gamma, delta=args.delta, L=args.L,
    )
    mu, rounding, image = mpa.measure_with_rounding(p)
    rho = density(mu.values, args.L)

    print(f"# image={image} rounding={rounding!r}")
    print("site,density")
    for site in range(args.L):
        print(f"{site + 1},{float(rho[site])!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
