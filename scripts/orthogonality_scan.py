#!/usr/bin/env python3
"""Residual scans of the orthogonality constraint for the named spaces.

For each space, print the closed-form solution families (when the parameters
are a solved case) and the minimum scan residual away from them.  A minimum
above the root tolerance is numerical evidence that the families exhaust the
solutions inside the box.
"""

import argparse

from addspec.additive_space import space_from_name
from addspec.ortho_solver import SCAN_ROOT_TOL, scan_residual, solve_families


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spaces", default="L,Plus,T,Symmetric:t=-1/4,Symmetric:t=-1/3")
    ap.add_argument("--grid", type=int, default=1000)
    ap.add_argument("--half-width", type=float, default=4.0)
    args = ap.parse_args()

    w = args.half_width
    for name in args.spaces.split(","):
        space = space_from_name(name)
        t, tp = space.mu.pieces[0][0], space.nu.pieces[0][0]
        fams = solve_families(t, tp)
        res = scan_residual(t, tp, ((-w, w), (-w, w)), args.grid)
        if not fams:
            tag = "scan-only case, nothing excluded"
        elif res.min_residual >= SCAN_ROOT_TOL:
            tag = "no roots off families"
        else:
            tag = "ROOTS FOUND off the known families"
        print(f"{name:>20}  families: {[f.kind for f in fams] or 'none (unsolved)'}")
        print(f"{'':>20}  min residual {res.min_residual:.3e} at "
              f"({res.argmin[0]:+.4f}, {res.argmin[1]:+.4f})  -> {tag}")


if __name__ == "__main__":
    main()
