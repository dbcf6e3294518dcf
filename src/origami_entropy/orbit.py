"""Orbit parameterization, grid scans, finite differences and minimization.

Surfaces in the orbit are parameterized by a shear s and a diagonal
stretch u applied on top of a base map:  diag(e^u, e^-u) * (1 s; 0 1) * base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import UnimodularMap, diagonal, f_truncated, shear
from .solver import DEFAULT_ROOT_TOL, EntropyEnclosure, SolverError, _first_cutoff, entropy
from .surface import StratumInfo

DEFAULT_FD_STEP = 1e-3
_WIDTH_GOAL = 1e-11  # enclosure width of every solve of the differences and the search
_MINIMIZE_EVAL_CAP = 10_000
# The poll test evaluates the candidate's sum at t = m + _POLL_OFFSET; it is
# exact while 16*eps*t <= _POLL_OFFSET - DEFAULT_ROOT_TOL, eps = 2^-53 (t <= 56).
_POLL_OFFSET = 2 * DEFAULT_ROOT_TOL
_POLL_T_MAX = (_POLL_OFFSET - DEFAULT_ROOT_TOL) / (16 * 2.0 ** -53)


@dataclass(frozen=True)
class OrbitPoint:
    s: float
    u: float
    base: UnimodularMap


def orbit_matrix(point: OrbitPoint) -> UnimodularMap:
    """diag(e^u, e^-u) * shear(s) * base."""
    return diagonal(point.u) @ shear(point.s) @ point.base


@dataclass(frozen=True)
class GridScan:
    s_values: tuple[float, ...]
    u_values: tuple[float, ...]
    entropies: np.ndarray  # shape (len(u_values), len(s_values)), midpoints
    widths: np.ndarray
    width_goal: float
    complete: bool

    def argmin_cell(self) -> tuple[float, float]:
        iu, js = np.unravel_index(np.nanargmin(self.entropies), self.entropies.shape)
        return self.s_values[js], self.u_values[iu]

    def to_csv(self) -> str:
        """Rows in u-major order, header ``s,u,h_mid,h_width``."""
        lines = ["s,u,h_mid,h_width"]
        for iu, u in enumerate(self.u_values):
            for js, s in enumerate(self.s_values):
                lines.append("%.17g,%.17g,%.17g,%.17g"
                             % (s, u, self.entropies[iu, js], self.widths[iu, js]))
        return "\n".join(lines) + "\n"


def scan(
    stratum: StratumInfo,
    base: UnimodularMap,
    s_grid,
    u_grid,
    width_goal: float = 1e-10,
) -> GridScan:
    """Entropy enclosure at every point of the (s, u) grid.

    Cells where the solver fails are recorded as NaN and mark the scan
    incomplete; the remaining cells are still computed.
    """
    s_values = tuple(float(s) for s in s_grid)
    u_values = tuple(float(u) for u in u_grid)
    if not s_values or not u_values:
        raise ValueError("grids must be nonempty")
    if list(s_values) != sorted(s_values) or list(u_values) != sorted(u_values):
        raise ValueError("grids must be ascending")
    if not width_goal > 0:  # also rejects nan
        raise ValueError(f"width_goal must be positive, got {width_goal!r}")
    mids = np.full((len(u_values), len(s_values)), np.nan)
    widths = np.full_like(mids, np.nan)
    complete = True
    for iu, u in enumerate(u_values):
        for js, s in enumerate(s_values):
            A = orbit_matrix(OrbitPoint(s, u, base))
            try:
                enc = entropy(stratum, A, width_goal)
            except SolverError:
                complete = False
                continue
            mids[iu, js] = enc.midpoint
            widths[iu, js] = enc.width
    mids.setflags(write=False)
    widths.setflags(write=False)
    return GridScan(s_values, u_values, mids, widths, width_goal, complete)


def _evaluator(stratum: StratumInfo, base: UnimodularMap, target: str,
               t_fixed: float | None) -> Callable[..., float]:
    """(s, u[, m]) -> the target at orbit_matrix(OrbitPoint(s, u, base)).

    The target is a pure function of the map's floats, so each distinct map
    is solved once; the memo lives as long as the returned function.  Given
    a current midpoint m, a new map that :func:`_poll_rejects` turns down is
    stored as inf unsolved: its midpoint is >= m, and m only falls.
    """
    if target == "f" and t_fixed is None:
        raise ValueError("t_fixed is required when target='f'")
    if target not in ("f", "entropy"):
        raise ValueError(f"unknown target {target!r}")
    memo: dict[UnimodularMap, float] = {}

    def value(s: float, u: float, m: float | None = None) -> float:
        A = orbit_matrix(OrbitPoint(s, u, base))
        if A not in memo:
            memo[A] = (math.inf if m is not None and _poll_rejects(stratum, A, m)
                       else f_truncated(A, stratum.sigma, t_fixed, 100).value if target == "f"
                       else entropy(stratum, A, _WIDTH_GOAL).midpoint)
        return memo[A]

    return value


def _stencil(stratum: StratumInfo, base: UnimodularMap, target: str, t_fixed: float | None,
             step: float) -> Callable[[int, int], float]:
    """(i, j) -> the target at (s, u) = (i*step, j*step)."""
    if not step > 0:  # also rejects nan
        raise ValueError("step must be positive")
    value = _evaluator(stratum, base, target, t_fixed)
    return lambda i, j: value(i * step, j * step)


def _gradient(v: Callable[[int, int], float], step: float) -> np.ndarray:
    return np.array([(v(1, 0) - v(-1, 0)) / (2 * step), (v(0, 1) - v(0, -1)) / (2 * step)])


def fd_gradient(
    stratum: StratumInfo,
    base: UnimodularMap,
    target: str = "entropy",
    t_fixed: float | None = None,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central first differences of the target in (s, u) at (0, 0)."""
    return _gradient(_stencil(stratum, base, target, t_fixed, step), step)


def _fd_derivatives(
    stratum: StratumInfo,
    base: UnimodularMap,
    target: str = "entropy",
    t_fixed: float | None = None,
    step: float = DEFAULT_FD_STEP,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Central first and second differences in (s, u) at (0, 0) from one
    nine-point stencil, each map solved once; returns (gradient, H, det H)."""
    v = _stencil(stratum, base, target, t_fixed, step)
    h2 = step * step
    hss = (v(1, 0) - 2 * v(0, 0) + v(-1, 0)) / h2
    huu = (v(0, 1) - 2 * v(0, 0) + v(0, -1)) / h2
    hsu = (v(1, 1) - v(1, -1) - v(-1, 1) + v(-1, -1)) / (4 * h2)
    H = np.array([[hss, hsu], [hsu, huu]])
    return _gradient(v, step), H, float(np.linalg.det(H))


def fd_hessian(
    stratum: StratumInfo,
    base: UnimodularMap,
    target: str = "entropy",
    t_fixed: float | None = None,
    step: float = DEFAULT_FD_STEP,
) -> tuple[np.ndarray, float]:
    """Central second differences in (s, u) at (0, 0); returns (H, det H)."""
    _, H, det = _fd_derivatives(stratum, base, target, t_fixed, step)
    return H, det


def _poll_rejects(stratum: StratumInfo, A: UnimodularMap, m: float) -> bool:
    """Whether one sum shows that the midpoint of ``entropy(stratum, A, ...)``
    (at the default root_tol) is >= m, so that a poll of A against a current
    midpoint m fails; False means undecided.

    With N0 = :func:`_first_cutoff` and t = m + _POLL_OFFSET, A is rejected
    iff f_truncated(A, sigma, t, N0).value >= 1/k.  Let F_N be the exact sum
    over the computed norms n_i of the window N, eps = 2^-53 the unit
    roundoff and tol the root_tol.

    1. The computed sum is fsum, exactly rounded, of np.exp(fl(-t*n_i)), and
       fl(t*n_i) >= t*n_i*(1 - eps); np.exp errs by under 1 ulp, which is
       2*eps relative, or under 2^-1074 for a subnormal term (2e-316 over a
       window at the cap).  So the computed sum is at most (1 + eps)(1 +
       2*eps)*F_N0(t*(1 - eps)) plus that, and d ln F/dt <= -n_min puts
       F_N0 >= 1/k at t*(1 - eps) - 4*eps/n_min: its root r0 lies there or
       to the right.  If r0 < t, then 1/k = F_N0(r0) >= 2*exp(-r0*n_min)
       (v and -v) gives n_min >= ln 2/r0 > ln 2/t, so r0 > t - 7*eps*t.
    2. Windows are nested and every term is positive, so F_N >= F_N0 for the
       cutoff N >= N0 that entropy returns (or carries), and its root r >= r0.
    3. _bracket ends with g(hi) < 1/k and hi - lo <= tol, or one ulp apart
       where that ulp exceeds tol, at roots above 450 > t that need no proof.
       The bound of 1 read the other way, fsum >= (1 - eps)(1 - 2*eps)*
       F_N(hi*(1 + eps)), gives hi > r - 7*eps*r, so h_lo = lo > r - tol -
       7*eps*r.
    4. midpoint >= h_lo > t - 14*eps*t - tol, and t = fl(m + _POLL_OFFSET)
       >= (m + _POLL_OFFSET)(1 - eps); so the midpoint is >= m while
       15*eps*t <= _POLL_OFFSET - tol = 1e-13, which t <= _POLL_T_MAX
       ensures.  The float error 7*eps*t of 1 is 8e-15 at t = 10.

    A rejected map is not solved, so a solve that would raise does not.
    """
    N0, t = _first_cutoff(A, stratum.sigma), m + _POLL_OFFSET
    return (N0 is not None and t <= _POLL_T_MAX
            and f_truncated(A, stratum.sigma, t, N0).value >= 1.0 / stratum.k)


def minimize(
    stratum: StratumInfo,
    base: UnimodularMap,
    start: OrbitPoint,
    stop_tol: float = 1e-5,
) -> OrbitPoint:
    """Compass (pattern) search on the enclosure midpoint, halving steps.

    Polls the four axis directions, moves to any strict improvement, halves
    the step on failure, and stops once the step falls below stop_tol.  The
    polls read the memo of :func:`_evaluator`: a map already met reuses its
    value, and any other is first put to :func:`_poll_rejects`, one sum that
    shows most failed polls exactly, and is solved only if that does not
    reject it.  A rejected map is stored as inf, never tested again: its
    midpoint is >= the midpoint it lost to, which only falls, so it could
    never win a later poll.  So the path is that of the plain search, and
    only the start, the moves and the undecided polls are solved; the cap
    counts polls.
    """
    if abs(start.s) > 3 or abs(start.u) > 1.5:
        raise ValueError("start outside the supported region |s|<=3, |u|<=1.5")
    if not 0 < stop_tol < math.inf:  # also rejects nan
        raise ValueError(f"stop_tol must be positive and finite, got {stop_tol!r}")
    value = _evaluator(stratum, base, "entropy", None)
    s, u = start.s, start.u
    current = value(s, u)
    polls = 1
    step = 0.1
    while step >= stop_tol:
        for ds, du in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            polls += 1
            if polls > _MINIMIZE_EVAL_CAP:
                raise SolverError("minimize: evaluation cap reached")
            cand = value(s + ds, u + du, current)
            if cand < current:
                s, u, current = s + ds, u + du, cand
                break
        else:  # no poll improved
            step *= 0.5
    return OrbitPoint(s, u, base)
