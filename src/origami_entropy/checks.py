"""Named verification suites driven by the ``verify`` CLI subcommand.

Each check pits an independent computation against the formula it is meant
to confirm: ray-traced connection counts against the lattice sum, partial
geometric series against their closed form, finite differences of the
Gaussian lattice sum against the known monotonicity regions, random
lattices against the triangular minimizer, and brute-force truncation gaps
against the closed-form tail bound.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import oracle
from .lattice import (
    UnimodularMap,
    diagonal,
    equilateral_matrix,
    f_truncated,
    identity_map,
    modular_lattice,
    shear,
    tail_bound,
    theta_sum,
    window_radius,
)
from .surface import builtin_surface, check_hypothesis

CONNECTION_WINDOW = 3  # max(|a|,|b|) of the traced connections
ORACLE_TS, ORACLE_TOL = (3.0, 5.0), 1e-12
# The margin absorbs finite-difference noise where the true derivative is exponentially small.
THETA_TS, THETA_STEP, THETA_MARGIN, THETA_N = (1.0, 2.0, 4.0), 1e-4, 1e-8, 32
TRIANGULAR_TS = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_unimodular(rng: np.random.Generator) -> UnimodularMap:
    # shear(s) * diag(e^u, e^-u) with s in [-3,3], u in [-1,1]
    s = rng.uniform(-3.0, 3.0)
    u = rng.uniform(-1.0, 1.0)
    return shear(s) @ diagonal(u)


def check_multiplicities(expected_k: int | None = None) -> CheckResult:
    """Every (vertex class, holonomy) pair carries exactly k+1 connections."""
    failures = []
    for name in ("L", "EW"):
        surf = builtin_surface(name)
        stratum = check_hypothesis(surf)
        k = stratum.k if expected_k is None else expected_k
        records = oracle.enumerate_singular_connections(surf, CONNECTION_WINDOW)
        counts = Counter((r.start_vertex, r.holonomy) for r in records)
        bad = {key: c for key, c in counts.items() if c != k + 1}
        n_dirs = (2 * CONNECTION_WINDOW + 1) ** 2 - 1
        if len(counts) != stratum.n * n_dirs or bad:
            failures.append(f"{name}: {len(bad)} pairs off target {k + 1}")
    detail = "; ".join(failures) or f"L and EW, window {CONNECTION_WINDOW}: all pairs at k+1"
    return CheckResult("connection multiplicities", not failures, detail)


def check_oracle_agreement() -> CheckResult:
    """Traced weighted sums reproduce n*(k+1) times the truncated lattice sum."""
    worst = 0.0
    for name in ("L", "EW"):
        surf = builtin_surface(name)
        stratum = check_hypothesis(surf)
        for A in (identity_map(), equilateral_matrix()):
            records = oracle.enumerate_singular_connections(surf, CONNECTION_WINDOW, A)
            for t in ORACLE_TS:
                traced = math.fsum(math.exp(-t * r.length) for r in records)
                f = f_truncated(A, stratum.sigma, t, CONNECTION_WINDOW).value
                worst = max(worst, abs(traced - stratum.n_squares * f))
    return CheckResult("oracle vs lattice sum", worst <= ORACLE_TOL,
                       f"max |traced - formula| = {worst:.3e}")


def check_series_identity() -> CheckResult:
    """Partial chain sums match the closed form above the entropy, and the
    below-entropy regime is rejected."""
    stratum = check_hypothesis(builtin_surface("L"))
    A = equilateral_matrix()
    t, m_max, N = 5.0, 50, 60
    residual = oracle.series_identity_check(stratum, A, t=t, m_max=m_max, N=N)
    # The residual is exactly the geometric remainder n(k+1)f(kf)^m/(1-kf).
    k = stratum.k
    f = f_truncated(A, stratum.sigma, t, N).value
    remainder = stratum.n_squares * f * (k * f) ** m_max / (1.0 - k * f)
    ok = residual <= remainder * (1.0 + 1e-9)
    try:
        oracle.series_identity_check(stratum, A, t=4.0, m_max=50, N=60)
        rejected = False
    except oracle.OracleError:
        rejected = True
    ok = ok and rejected
    return CheckResult("series identity", ok,
                       f"residual {residual:.3e} vs remainder {remainder:.3e}; "
                       f"below-entropy rejected: {rejected}")


def check_theta_monotonicity() -> CheckResult:
    """Finite-difference monotonicity of the Gaussian sum over lattice shapes:
    decreasing toward x=1/2, increasing in y above the unit circle."""
    bad = 0
    cases = (((THETA_STEP, 0.0), np.linspace(0.05, 0.45, 20), np.linspace(0.55, 2.0, 20), -1.0),
             ((0.0, THETA_STEP), np.linspace(0.0, 0.5, 20), np.linspace(1.05, 2.0, 20), 1.0))
    for (dx, dy), xs, ys, sign in cases:
        for t in THETA_TS:
            for x in xs:
                for y in ys:
                    diff = (theta_sum(modular_lattice(x + dx, y + dy), t, THETA_N)
                            - theta_sum(modular_lattice(x - dx, y - dy), t, THETA_N))
                    if not sign * diff / (2 * THETA_STEP) >= -THETA_MARGIN:
                        bad += 1
    return CheckResult("gaussian-sum monotonicity grid", bad == 0,
                       f"{bad} sign violations on 2x(20x20)x{len(THETA_TS)} grid")


def _decay_sum(A: UnimodularMap, t: float) -> float:
    # For t >= 1 the window drops only terms below e^-45.
    return f_truncated(A, 1.0, t, window_radius(A, 1.0, 45.0)).value


def check_triangular_minimum(seed: int = 0, count: int = 200) -> CheckResult:
    """f_t(L) >= f_t(L_triangular) for random unimodular lattices.

    The random lattice's sum is truncated (a strict undercount), so a
    positive slack against the near-exact triangular value is conclusive.
    """
    rng = np.random.default_rng(seed)
    eq = equilateral_matrix()
    eq_values = {t: _decay_sum(eq, t) for t in TRIANGULAR_TS}
    min_slack = math.inf
    for _ in range(count):
        A = random_unimodular(rng)
        for t in TRIANGULAR_TS:
            min_slack = min(min_slack, _decay_sum(A, t) - eq_values[t])
    return CheckResult("triangular lattice minimizes decay sum", min_slack > 0,
                       f"min slack over {count} lattices = {min_slack:.3e}")


def check_tail_bound_soundness(seed: int = 0, count: int = 20) -> CheckResult:
    """The quadrupled-cutoff sum never exceeds the N-cutoff sum plus its tail."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(3.0)
    worst = -math.inf
    for i in range(count):
        A = random_unimodular(rng)
        t = float(rng.choice([2.0, 4.0, 8.0]))
        N = int(rng.choice([10, 15, 20]))
        gap = (f_truncated(A, sigma, t, 4 * N).value
               - f_truncated(A, sigma, t, N).value)
        bound = tail_bound(A, sigma, t, N, n=1, k=2)
        worst = max(worst, gap - bound)
    return CheckResult("tail bound soundness", worst <= 0,
                       f"max (gap - bound) over {count} draws = {worst:.3e}")


def run_all(seed: int = 0) -> list[CheckResult]:
    return [
        check_multiplicities(),
        check_oracle_agreement(),
        check_series_identity(),
        check_theta_monotonicity(),
        check_triangular_minimum(seed=seed),
        check_tail_bound_soundness(seed=seed),
    ]
