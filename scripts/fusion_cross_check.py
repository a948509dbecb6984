"""Check the float fused-weight recurrence against the exact closed form
(evaluated in rational arithmetic) over a (l, m, z) grid.

Per combination it prints the worst entry deviation of the recurrence,
relative per row, and the exact table's row-sum and conservation defects.
It exits 1 if a deviation exceeds ROW_DEVIATION_TOL or a defect is not 0,
and 0 otherwise.

Usage: python scripts/fusion_cross_check.py --lmax 4 --q 0.5
"""

import argparse
import sys

from integrable import sixvertex
from integrable.sixvertex import PoleInSpectralLadder

# The bound the tests put on the recurrence's deviation from the oracle.
ROW_DEVIATION_TOL = 1e-13


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--lmax", type=int, default=4)
    ap.add_argument("--mmax", type=int, default=4)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--z", type=float, nargs="*", default=[0.1, 0.25, 0.4])
    args = ap.parse_args()

    print("l,m,z,row_deviation,exact_row_sums,exact_conservation,status")
    failed = False
    for l in range(1, args.lmax + 1):
        for m in range(1, args.mmax + 1):
            for z in args.z:
                try:
                    rec = sixvertex.fused_weights_recurrence(l, m, z, args.q)
                    exact = sixvertex.fused_weights_closed_form(l, m, z, args.q)
                except PoleInSpectralLadder:
                    print(f"{l},{m},{z},,,,pole")
                    continue
                dev = rec.row_deviation(exact)
                sums = exact.row_sum_violation()
                cons = exact.conservation_violation()
                ok = dev <= ROW_DEVIATION_TOL and sums == 0 and cons == 0
                failed |= not ok
                print(f"{l},{m},{z},{dev!r},{sums!r},{cons!r},"
                      f"{'ok' if ok else 'FAIL'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
