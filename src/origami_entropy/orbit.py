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
from .solver import EntropyEnclosure, SolverError, entropy
from .surface import StratumInfo

DEFAULT_FD_STEP = 1e-3
_MINIMIZE_EVAL_CAP = 10_000


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
               t_fixed: float | None, width_goal: float) -> Callable[[float, float], float]:
    """(s, u) -> the target at orbit_matrix(OrbitPoint(s, u, base)).

    The target is a pure function of the map's floats, so each distinct map
    is solved once; the memo lives as long as the returned function.
    """
    if target == "f" and t_fixed is None:
        raise ValueError("t_fixed is required when target='f'")
    if target not in ("f", "entropy"):
        raise ValueError(f"unknown target {target!r}")
    memo: dict[UnimodularMap, float] = {}

    def value(s: float, u: float) -> float:
        A = orbit_matrix(OrbitPoint(s, u, base))
        if A not in memo:
            memo[A] = (f_truncated(A, stratum.sigma, t_fixed, 100).value if target == "f"
                       else entropy(stratum, A, width_goal).midpoint)
        return memo[A]

    return value


def _stencil(stratum: StratumInfo, base: UnimodularMap, target: str, t_fixed: float | None,
             step: float, width_goal: float) -> Callable[[int, int], float]:
    """(i, j) -> the target at (s, u) = (i*step, j*step)."""
    if not step > 0:  # also rejects nan
        raise ValueError("step must be positive")
    value = _evaluator(stratum, base, target, t_fixed, width_goal)
    return lambda i, j: value(i * step, j * step)


def _gradient(v: Callable[[int, int], float], step: float) -> np.ndarray:
    return np.array([(v(1, 0) - v(-1, 0)) / (2 * step), (v(0, 1) - v(0, -1)) / (2 * step)])


def fd_gradient(
    stratum: StratumInfo,
    base: UnimodularMap,
    target: str = "entropy",
    t_fixed: float | None = None,
    step: float = DEFAULT_FD_STEP,
    width_goal: float = 1e-11,
) -> np.ndarray:
    """Central first differences of the target in (s, u) at (0, 0)."""
    return _gradient(_stencil(stratum, base, target, t_fixed, step, width_goal), step)


def _fd_derivatives(
    stratum: StratumInfo,
    base: UnimodularMap,
    target: str = "entropy",
    t_fixed: float | None = None,
    step: float = DEFAULT_FD_STEP,
    width_goal: float = 1e-11,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Central first and second differences in (s, u) at (0, 0) from one
    nine-point stencil, each map solved once; returns (gradient, H, det H)."""
    v = _stencil(stratum, base, target, t_fixed, step, width_goal)
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
    width_goal: float = 1e-11,
) -> tuple[np.ndarray, float]:
    """Central second differences in (s, u) at (0, 0); returns (H, det H)."""
    _, H, det = _fd_derivatives(stratum, base, target, t_fixed, step, width_goal)
    return H, det


def minimize(
    stratum: StratumInfo,
    base: UnimodularMap,
    start: OrbitPoint,
    stop_tol: float = 1e-5,
    width_goal: float = 1e-11,
) -> OrbitPoint:
    """Compass (pattern) search on the enclosure midpoint, halving steps.

    Polls the four axis directions, moves to any strict improvement, halves
    the step on failure, and stops once the step falls below stop_tol.  A
    poll of a map already solved reuses its value, so the path is that of
    the plain search; the cap counts polls.
    """
    if abs(start.s) > 3 or abs(start.u) > 1.5:
        raise ValueError("start outside the supported region |s|<=3, |u|<=1.5")
    if not 0 < stop_tol < math.inf:  # also rejects nan
        raise ValueError(f"stop_tol must be positive and finite, got {stop_tol!r}")
    value = _evaluator(stratum, base, "entropy", None, width_goal)
    s, u = start.s, start.u
    current = value(s, u)
    polls = 1
    step = 0.1
    while step >= stop_tol:
        for ds, du in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            polls += 1
            if polls > _MINIMIZE_EVAL_CAP:
                raise SolverError("minimize: evaluation cap reached")
            cand = value(s + ds, u + du)
            if cand < current:
                s, u, current = s + ds, u + du, cand
                break
        else:  # no poll improved
            step *= 0.5
    return OrbitPoint(s, u, base)
