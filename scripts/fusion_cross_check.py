"""Check the float fused-weight recurrence against the exact closed form
(evaluated in rational arithmetic) over a (l, m, z) grid.

Per combination it prints the worst entry deviation of the recurrence,
relative per row, and the exact table's row-sum and conservation defects,
which must be 0.

Usage: python scripts/fusion_cross_check.py --lmax 4 --q 0.5
"""

import argparse
import sys

from integrable import sixvertex
from integrable.sixvertex import PoleInSpectralLadder


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lmax", type=int, default=4)
    ap.add_argument("--mmax", type=int, default=4)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--z", type=float, nargs="*", default=[0.1, 0.25, 0.4])
    args = ap.parse_args()

    print("l,m,z,row_deviation,exact_row_sums,exact_conservation,status")
    for l in range(1, args.lmax + 1):
        for m in range(1, args.mmax + 1):
            for z in args.z:
                try:
                    rec = sixvertex.fused_weights_recurrence(l, m, z, args.q)
                    exact = sixvertex.fused_weights_closed_form(l, m, z, args.q)
                except PoleInSpectralLadder:
                    print(f"{l},{m},{z},,,,pole")
                    continue
                print(f"{l},{m},{z},{rec.row_deviation(exact)!r},"
                      f"{exact.row_sum_violation()!r},"
                      f"{exact.conservation_violation()!r},ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
