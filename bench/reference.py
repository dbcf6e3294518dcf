"""Independent dps-40 reference roots for the benchmark's enclosures.

The entropy of A*X is the root t of sum_{v in Z^2 minus 0} exp(-t*|A v|/sigma)
= 1/k with sigma = sqrt(n_squares).  This module encloses that root without
calling the package under test: it sums the lattice points of a disc in
mpmath, bounds the terms outside the disc in closed form, polishes the root
by Newton's method and then confirms both ends of the interval by the sign
of the equation.  The result is at least 1e-20 narrow, far below the
1e-15..1e-13 scale at which double-precision enclosures can miss.

Regenerate the pinned references for a seed (run from the repository root):

    python3 bench/reference.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

DPS = 40
# Disc cutoff: beyond the disc every term is below exp(-CUT) ~ 5e-25 and the
# tail bound keeps the interval narrower than 1e-20.
CUT = 56.0
HERE = Path(__file__).resolve().parent


def _disc(entries: tuple[float, float, float, float], radius: float):
    """Integer points v != 0 with |A v| <= radius, and their float norms."""
    a, b, c, d = entries
    f = a * a + b * b + c * c + d * d
    det = abs(a * d - b * c)
    smallest_sv = math.sqrt(max((f - math.sqrt(max(f * f - 4 * det * det, 0.0))) / 2, 0.0))
    half = int(math.ceil(radius / smallest_sv)) + 1
    r = np.arange(-half, half + 1)
    i, j = (m.ravel() for m in np.meshgrid(r, r, indexing="ij"))
    norms = np.hypot(a * i + b * j, c * i + d * j)
    keep = (norms <= radius) & ((i != 0) | (j != 0))
    return i[keep], j[keep], norms[keep]


def _float_root(ells: np.ndarray, target: float) -> float:
    """Root of sum exp(-t*ell) = target; Newton from the left never overshoots
    a convex decreasing function."""
    t = 1.0
    while np.exp(-t * ells).sum() <= target:
        t /= 2
    for _ in range(200):
        terms = np.exp(-t * ells)
        step = (terms.sum() - target) / (ells * terms).sum()
        t += step
        if step < 1e-15 * t:
            break
    return t


def root_interval(entries, n_squares: int, k: int, dps: int = DPS) -> tuple[str, str]:
    """Certified [lo, hi] around the root for the matrix ``entries()``.

    ``entries`` is called inside the working precision and returns the four
    matrix entries as floats (taken exactly) or mpmath numbers.  Returns the
    ends as decimal strings with ``dps`` significant digits.
    """
    with mp.workdps(dps):
        a, b, c, d = (mp.mpf(x) for x in entries())
        fl = tuple(float(x) for x in (a, b, c, d))
        sigma = math.sqrt(n_squares)
        target = mp.mpf(1) / k
        _, _, norms = _disc(fl, 40.0)
        t_float = _float_root(norms / sigma, 1.0 / k)
        cell = max(math.hypot(fl[0] + fl[1], fl[2] + fl[3]), math.hypot(fl[0] - fl[1], fl[2] - fl[3]))
        radius = CUT * sigma / (t_float * (1 - 1e-9)) + cell
        iv, jv, _ = _disc(fl, radius)
        sig = mp.sqrt(n_squares)
        ells = [mp.sqrt((a * i + b * j) ** 2 + (c * i + d * j) ** 2) / sig
                for i, j in zip(iv.tolist(), jv.tolist())]

        def f(t):
            return mp.fsum(mp.exp(-t * ell) for ell in ells)

        # Cells A(v + [-1/2,1/2]^2) of the points left out have area |det|, lie
        # beyond rho = R' - D/2 (D the cell diameter, R' the radius less float
        # rounding) and lose at most exp(cD/2) against their centres, so with
        # c = t/sigma the sum over them is at most
        # exp(cD/2) * 2*pi*exp(-c*rho)*(c*rho + 1) / (c^2 |det|).
        big_d = max(mp.sqrt((a + b) ** 2 + (c + d) ** 2), mp.sqrt((a - b) ** 2 + (c - d) ** 2))
        rho = mp.mpf(radius) * (1 - mp.mpf(10) ** -12) - big_d / 2

        def tail(t):
            cc = t / sig
            return (mp.exp(cc * big_d / 2) * 2 * mp.pi * mp.exp(-cc * rho) * (cc * rho + 1)
                    / (cc * cc * abs(a * d - b * c)))

        t = mp.mpf(t_float)
        for _ in range(8):
            terms = [mp.exp(-t * ell) for ell in ells]
            slope = mp.fsum(ell * e for ell, e in zip(ells, terms))
            step = (mp.fsum(terms) - target) / slope
            t += step
            if abs(step) < mp.mpf(10) ** (10 - dps) * t:
                break
        eps = mp.mpf(10) ** (10 - dps) * t
        lo = t - eps
        hi = t + eps + 2 * tail(t) / slope
        # The truncated sum lies below the full one, which lies below the
        # truncated sum plus the tail; both are decreasing in t.
        if not f(lo) > target or not f(hi) + tail(hi) < target:
            raise ArithmeticError(f"reference root not confirmed for {fl!r}")
        return mp.nstr(lo, dps), mp.nstr(hi, dps)


def pinned_path(seed: int) -> Path:
    return HERE / f"refs_seed{seed}.json"


def build_pinned(seed: int) -> dict:
    """References for every enclosure input of every workload at ``seed``."""
    import workloads

    out = {"seed": seed, "dps": DPS,
           "command": f"python3 bench/reference.py --seed {seed}", "references": {}}
    for name in workloads.WORKLOADS:
        refs = {}
        for i, op in enumerate(workloads.make_ops(name, seed)):
            if op.kind in workloads.ENCLOSING:
                refs[str(i)] = workloads.reference_record(op)
        out["references"][name] = refs
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    data = build_pinned(args.seed)
    path = pinned_path(args.seed)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(len(v) for v in data["references"].values())
    print(f"wrote {count} references to {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
