"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the table.
"""

import math
import time
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from origami_entropy import checks, oracle
from origami_entropy.lattice import (
    cell_diameter,
    diagonal,
    equilateral_matrix,
    f_truncated,
    shear,
    smallest_singular_value,
)
from origami_entropy.orbit import OrbitPoint, fd_gradient, fd_hessian, minimize, scan
from origami_entropy.solver import entropy, entropy_enclosure, entropy_enclosure_extended
from origami_entropy.surface import builtin_surface, check_hypothesis
from origami_entropy.cli import main as cli_main

# Stated constant for the equilateral entropy of L, of unknown source.  It
# agrees with the root computed by _equilateral_root to 17 significant
# digits and then departs.
REF_29 = "4.34934504614150290303138902137"
L_STRATUM = check_hypothesis(builtin_surface("L"))
EQ = equilateral_matrix()
# Value stated for det(H) of criterion 4 in a chart that no code in the
# repository identifies.  If the chart becomes known, assert it as J^T H J
# (valid at a critical point) under the same 5% bound.
STATED_DET = 0.0825337


def _equilateral_root(n_squares=3, k=2):
    """Root of f_t = 1/k at the equilateral point for a surface of n_squares squares.

    The defaults are L (3 squares, k = 2).  Independent of the package: on
    the triangular lattice of covolume 1,
    |A(a,b)|^2 / sigma^2 = (2 / (sqrt 3 n_squares)) (a^2 + ab + b^2) with
    sigma^2 = n_squares, so f_t is a sum over the integer shells
    m = a^2 + ab + b^2, weighted by their point counts.  Shells beyond
    m = 2700 contribute terms below e^-140 near the root for L and below
    e^-190 for St4 (7 squares, root near 9.05), far below the 30 digits
    compared.  Mpmath works at 45 digits.  f is convex and decreasing in t,
    so Newton's method started left of the root climbs to it monotonically.
    """
    dps, m_max = 45, 2700
    w = math.isqrt(4 * m_max // 3) + 1  # a^2 + ab + b^2 >= 3/4 max(|a|, |b|)^2
    shells = Counter()
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            m = a * a + a * b + b * b
            if 0 < m <= m_max:
                shells[m] += 1
    with mp.workdps(dps):
        scale = 2 / (n_squares * mp.sqrt(3))
        radii = [(count, mp.sqrt(scale * m)) for m, count in sorted(shells.items())]
        t = mp.mpf(4)
        for _ in range(40):
            terms = [(count, r, mp.exp(-t * r)) for count, r in radii]
            f = mp.fsum(count * e for count, _, e in terms) - mp.mpf(1) / k
            df = -mp.fsum(count * r * e for count, r, e in terms)
            step = f / df
            t -= step
            if abs(step) < mp.mpf(10) ** (5 - dps):
                return +t
    raise AssertionError("Newton iteration did not converge")


def _equilateral_f_hessian(t):
    """Closed-form Hessian of f_t in (s, u) at (0, 0) for L at the equilateral point.

    Independent of the package.  The chart is diag(e^u, e^-u) (1 s; 0 1) base,
    so with (x, y) = base (a, b) the squared norm is
    q = e^{2u} (x + s y)^2 + e^{-2u} y^2, and each term exp(-t sqrt(q) / sigma)
    is differentiated twice by the chain rule, summed over a 60-window.
    """
    window = 60
    sigma = math.sqrt(3.0)
    c = math.sqrt(2.0 / math.sqrt(3.0))
    a, b = np.meshgrid(np.arange(-window, window + 1.0), np.arange(-window, window + 1.0))
    nonzero = (a != 0) | (b != 0)
    x = (c * (a + b / 2))[nonzero]
    y = (c * math.sqrt(3.0) / 2 * b)[nonzero]
    q = x * x + y * y
    root_q = np.sqrt(q)
    dq = (2 * x * y, 2 * (x * x - y * y))                      # d/ds, d/du
    d2q = ((2 * y * y, 4 * x * y), (4 * x * y, 4 * q))         # [s, u] x [s, u]
    dr = [dqi / (2 * sigma * root_q) for dqi in dq]
    g = np.exp(-t * root_q / sigma)
    H = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            d2r = d2q[i][j] / (2 * sigma * root_q) - dq[i] * dq[j] / (4 * sigma * q * root_q)
            H[i, j] = np.sum(g * (t * t * dr[i] * dr[j] - t * d2r))
    return H


def report(n, ok, detail):
    print("\nCRITERION %2d %s: %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_headline_constant():
    start = time.perf_counter()
    enc = entropy_enclosure(L_STRATUM, EQ, 100)
    elapsed = time.perf_counter() - start
    ref = float(mp.mpf(REF_29))
    digits_ok = abs(enc.h_lo - ref) <= 1e-12 * ref and abs(enc.h_hi - ref) <= 1e-12 * ref
    width_ok = enc.width <= 1e-10
    time_ok = elapsed < 1.0
    h_lo, _ = entropy_enclosure_extended(L_STRATUM, EQ, 100, dps=40)
    independent = _equilateral_root()
    with mp.workdps(45):
        extended_ok = abs(h_lo - independent) < mp.mpf("0.5e-29")
        stated_ok = mp.nstr(mp.mpf(REF_29), 17) == mp.nstr(independent, 17)
        ext_str, ind_str = mp.nstr(h_lo, 30), mp.nstr(independent, 30)
    report(1, digits_ok and width_ok and time_ok and extended_ok and stated_ok,
           "double %.17g (12+ digits: %s, width %.1e: %s, %.2fs: %s); "
           "extended %s vs independent %s: %s; stated %s agrees to 17 digits: %s"
           % (enc.h_lo, digits_ok, enc.width, width_ok, elapsed, time_ok,
              ext_str, ind_str, extended_ok, REF_29, stated_ok))


def test_extended_root_st4_equilateral():
    # St4 has k = 6: 1/k must be formed at the working precision, or the
    # dps-40 root moves by about 1e-16.
    st4 = check_hypothesis(builtin_surface("St", 4))
    assert (st4.n_squares, st4.k) == (7, 6)
    h_lo, h_hi = entropy_enclosure_extended(st4, EQ, 60, dps=40)
    independent = _equilateral_root(7, 6)
    with mp.workdps(45):
        assert abs(h_lo - independent) < mp.mpf("1e-30"), (h_lo, independent)
        assert abs(h_hi - independent) < mp.mpf("1e-30"), (h_hi, independent)


def test_criterion_02_geometric_constants():
    d = smallest_singular_value(EQ)
    big_d = cell_diameter(EQ, math.sqrt(3.0))
    ok = abs(d - 0.759836) < 1e-5 and abs(big_d - 1.07457) < 1e-5
    report(2, ok, "d = %.6f (want 0.759836), D = %.5f (want 1.07457)" % (d, big_d))


def test_criterion_03_figure_reproduction():
    start = time.perf_counter()
    grid = scan(L_STRATUM, EQ, np.linspace(-0.5, 0.5, 21),
                np.linspace(-0.1, 0.1, 21), width_goal=1e-10)
    elapsed = time.perf_counter() - start
    E = grid.entropies
    minimum_ok = grid.argmin_cell() == (0.0, 0.0) and np.sum(E <= E[10, 10]) == 1
    row, col = E[10, :], E[:, 10]
    monotone_ok = (np.all(np.diff(row[10:]) > 0) and np.all(np.diff(row[:11]) < 0)
                   and np.all(np.diff(col[10:]) > 0) and np.all(np.diff(col[:11]) < 0))
    mirror = float(np.max(np.abs(E - E[:, ::-1])))
    report(3, minimum_ok and monotone_ok and mirror <= 1e-9 and elapsed < 120.0,
           "strict center minimum: %s, axis monotonicity: %s, mirror dev %.1e, %.1fs"
           % (minimum_ok, monotone_ok, mirror, elapsed))


def test_criterion_04_hessian_and_gradient():
    t_fixed = 4.3493450461
    _, det = fd_hessian(L_STRATUM, EQ, target="f", t_fixed=t_fixed, step=1e-3)
    closed_form = float(np.linalg.det(_equilateral_f_hessian(t_fixed)))
    det_ok = abs(det - closed_form) <= 0.05 * closed_form
    grad = fd_gradient(L_STRATUM, EQ, target="entropy", step=1e-4)
    norm = float(np.hypot(grad[0], grad[1]))
    grad_ok = norm <= 1e-6
    report(4, det_ok and grad_ok,
           "det(H) = %.7f vs closed form %.7f in the (s,u) chart within 5%%: %s "
           "(stated %.7f in an unidentified normalization, ratio %.6f); "
           "entropy gradient norm %.2e <= 1e-6: %s"
           % (det, closed_form, det_ok, STATED_DET, det / STATED_DET, norm, grad_ok))


def test_criterion_05_minimization():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        start = OrbitPoint(rng.uniform(-0.4, 0.4), rng.uniform(-0.08, 0.08), EQ)
        end = minimize(L_STRATUM, EQ, start, stop_tol=1e-5)
        worst = max(worst, abs(end.s), abs(end.u))
    starts_ok = worst <= 1e-4
    ref = entropy_enclosure(L_STRATUM, EQ, 100)
    margin = math.inf
    for _ in range(50):
        A = shear(rng.uniform(-3, 3)) @ diagonal(rng.uniform(-1, 1))
        margin = min(margin, entropy(L_STRATUM, A, 1e-6).h_lo - ref.h_hi)
    report(5, starts_ok and margin > 0,
           "10 starts converge to (0,0) within %.1e; "
           "min h_lo(A) - h_hi(eq) over 50 random A = %.2e" % (worst, margin))


def test_criterion_06_oracle_agreement():
    mult_ok = True
    worst = 0.0
    for name in ("L", "EW"):
        surf = builtin_surface(name)
        stratum = check_hypothesis(surf)
        records = oracle.enumerate_singular_connections(surf, 3)
        counts = Counter((r.start_vertex, r.holonomy) for r in records)
        mult_ok = mult_ok and set(counts.values()) == {stratum.k + 1}
        for t in (3.0, 5.0):
            traced = math.fsum(math.exp(-t * r.length) for r in records)
            formula = stratum.n_squares * f_truncated(
                oracle.identity_map(), stratum.sigma, t, 3).value
            worst = max(worst, abs(traced - formula))
    report(6, mult_ok and worst <= 1e-12,
           "multiplicities k+1 exact: %s; max |traced - n(k+1)f| = %.2e"
           % (mult_ok, worst))


def test_criterion_07_path_count_slope():
    start = time.perf_counter()
    table = oracle.count_paths(L_STRATUM, EQ, 8.0, 1e-3)
    slope = table.slope_fit(4.0, 8.0)
    elapsed = time.perf_counter() - start
    solver_value = entropy_enclosure(L_STRATUM, EQ, 100).midpoint
    rel = abs(slope - solver_value) / solver_value
    report(7, rel <= 0.05 and elapsed < 30.0,
           "slope %.4f vs solver %.4f (rel dev %.2f%%), %.1fs"
           % (slope, solver_value, 100 * rel, elapsed))


def test_criterion_08_tail_soundness():
    result = checks.check_tail_bound_soundness(seed=0, count=20)
    report(8, result.passed, result.detail)


def test_criterion_09_monotonicity_suites():
    grid = checks.check_theta_monotonicity()
    tri = checks.check_triangular_minimum(seed=0, count=200)
    report(9, grid.passed and tri.passed, "%s; %s" % (grid.detail, tri.detail))


def test_criterion_10_determinism(capsys, tmp_path):
    args = ["scan", "--surface", "L", "--s-range=-0.2:0.2:5",
            "--u-range=-0.05:0.05:3", "--width", "1e-9"]
    cli_main(args)
    scan1 = capsys.readouterr().out
    cli_main(args)
    scan2 = capsys.readouterr().out
    cli_main(["verify", "--seed", "3"])
    verify1 = capsys.readouterr().out
    cli_main(["verify", "--seed", "3"])
    verify2 = capsys.readouterr().out
    ok = scan1.encode() == scan2.encode() and verify1.encode() == verify2.encode()
    with capsys.disabled():
        report(10, ok, "scan bytes equal: %s, verify bytes equal: %s"
               % (scan1 == scan2, verify1 == verify2))
