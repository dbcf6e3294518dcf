"""Certified entropy enclosures from the monotone equation f_t = 1/k.

The decay sum is strictly decreasing in t, blows up as t -> 0+ and vanishes
as t -> infinity, so the equation f_t = 1/k has a unique root: the entropy.
Solving with the truncated sum gives a lower bound for the root; adding the
truncation tail gives an upper bound.  The pair is a certified enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath as mp

from .lattice import (
    _N_CAP,
    UnimodularMap,
    cell_diameter,
    f_truncated,
    f_truncated_mp,
    f_truncated_mp_deriv,
    smallest_singular_value,
    tail_bound_mp,
)
from .surface import StratumInfo

DEFAULT_ROOT_TOL = 1e-13
_BISECTION_CAP = 200
_N_SCHEDULE_START = 25


class SolverError(RuntimeError):
    pass


class EnclosureWidthError(SolverError):
    """Raised when no cutoff meets the width goal; carries the narrowest enclosure."""

    def __init__(self, message: str, best: "EntropyEnclosure"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class EntropyEnclosure:
    """Certified interval [h_lo, h_hi] containing the true entropy."""

    h_lo: float
    h_hi: float
    N: int
    root_tol: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.h_lo > self.h_hi:
            raise SolverError(f"inverted enclosure [{self.h_lo}, {self.h_hi}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.h_lo + self.h_hi)

    @property
    def width(self) -> float:
        return self.h_hi - self.h_lo


def _bracket(
    g: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    root_tol: float,
) -> tuple[float, float, int]:
    """Bracket [lo, hi] with g(lo) >= target > g(hi), g strictly decreasing.

    From a start lo <= hi, hi doubles while g(hi) >= target and lo halves
    while g(lo) < target; a start with lo < hi must already satisfy
    g(lo) >= target.  A rise of g while doubling raises :class:`SolverError`:
    it breaks the precondition, and for the sum plus its tail bound (log T_N
    is convex in t and |f_N'| falls) it means g rises for every larger t.
    The bracket is then bisected to width root_tol or to floating-point
    resolution.  Returns (lo, hi, evaluations of g).
    """
    if not 0 < root_tol < math.inf:  # also rejects nan
        raise SolverError(f"root_tol must be positive and finite, got {root_tol!r}")
    evals = 1
    ghi = g(hi)
    glo = ghi if lo == hi else target
    steps = 0
    while ghi >= target:  # g too large: move right
        lo, glo = hi, ghi
        hi *= 2.0
        ghi = g(hi)
        evals += 1
        if ghi > glo:
            raise SolverError(f"no bracket found while doubling: g rises from t = {lo!r}")
        steps += 1
        if steps > _BISECTION_CAP:
            raise SolverError("no bracket found while doubling: g does not decay to 0")
    steps = 0
    while glo < target:  # g too small: move left
        hi = lo
        lo /= 2.0
        glo = g(lo)
        evals += 1
        steps += 1
        if steps > _BISECTION_CAP:
            raise SolverError("no bracket found while halving: g does not blow up at 0")
    iterations = 0
    while hi - lo > root_tol and iterations < _BISECTION_CAP:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket at floating-point resolution
        evals += 1
        if g(mid) >= target:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, evals


def entropy_enclosure(
    stratum: StratumInfo,
    A: UnimodularMap,
    N: int,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> EntropyEnclosure:
    """Enclose the entropy of the deformed surface by solving at cutoff N.

    h_lo is the left end of the truncated equation's bracket (sum >= 1/k) and
    h_hi the right end of the sum-plus-tail bracket (sum + tail < 1/k).  The
    second solve starts from the first: sum + tail >= sum puts its root at
    or right of h_lo.
    """
    sigma = stratum.sigma
    target = 1.0 / stratum.k
    t_seed = 4.0 * sigma

    def g_lo(t: float) -> float:
        return f_truncated(A, sigma, t, N).value

    def g_hi(t: float) -> float:
        s = f_truncated(A, sigma, t, N)
        return s.value + s.tail_bound

    h_lo, hi, e1 = _bracket(g_lo, target, t_seed, t_seed, root_tol)
    _, h_hi, e2 = _bracket(g_hi, target, h_lo, hi, root_tol)
    return EntropyEnclosure(h_lo=h_lo, h_hi=h_hi, N=N, root_tol=root_tol, evaluations=e1 + e2)


def _first_cutoff(A: UnimodularMap, sigma: float) -> int | None:
    """The first cutoff N = 25, 50, ... <= the cap whose tail bound decays in t,
    d(A)*N/sigma > D(A); None if there is none.  d*N/sigma doubles exactly with
    N, so every later cutoff of the schedule decays too."""
    d, big_d = smallest_singular_value(A), cell_diameter(A, sigma)
    N = _N_SCHEDULE_START
    while N <= _N_CAP:
        if d * N / sigma > big_d:
            return N
        N *= 2
    return None


def entropy(
    stratum: StratumInfo,
    A: UnimodularMap,
    width_goal: float,
    root_tol: float = DEFAULT_ROOT_TOL,
) -> EntropyEnclosure:
    """Double the cutoff N = 25, 50, ... until the enclosure is narrow enough.

    The schedule starts at the first cutoff whose tail bound decays in t
    (:func:`_first_cutoff`); below it, r = d(A)*N/sigma <= D(A), the upper
    equation need not bracket.  The first enclosure of width <= width_goal
    is returned.  Once a doubled cutoff no longer narrows the enclosure,
    root_tol, not N, sets its width, and :class:`EnclosureWidthError`
    carries the previous, narrowest enclosure; so it does at the cutoff cap.
    """
    if not width_goal > 0:  # also rejects nan
        raise SolverError("width_goal must be positive")
    N = _first_cutoff(A, stratum.sigma)
    if N is None:
        raise SolverError(f"the tail bound for {A!r} decays only above cutoff {_N_CAP}")
    enc: EntropyEnclosure | None = None
    while N <= _N_CAP:
        nxt = entropy_enclosure(stratum, A, N, root_tol)
        if nxt.width <= width_goal:
            return nxt
        if enc is not None and nxt.width >= enc.width:
            raise EnclosureWidthError(
                f"enclosure width {enc.width:.3e} at cutoff {enc.N} does not narrow at "
                f"cutoff {N}: root_tol {root_tol:.3e} sets it (goal {width_goal:.3e})",
                enc,
            )
        enc = nxt
        N *= 2
    raise EnclosureWidthError(
        f"cutoff cap {_N_CAP} reached with enclosure width {enc.width:.3e} "
        f"(goal {width_goal:.3e})",
        enc,
    )


def entropy_enclosure_extended(
    stratum: StratumInfo,
    A: UnimodularMap,
    N: int,
    dps: int = 40,
) -> tuple:
    """Extended-precision enclosure (pair of mpmath floats).

    Runs the double-precision solve for a seed, then polishes both roots by
    Newton iteration at the requested number of significant digits, both
    from the seed's h_lo: a tail below the working precision then leaves
    the two runs identical, so rounding never inverts the pair.  A Newton
    run that has not converged after 12 steps raises :class:`SolverError`.
    """
    if dps < 30:
        raise SolverError("extended mode needs at least 30 significant digits")
    seed = entropy_enclosure(stratum, A, N)
    nk1 = stratum.n_squares
    with mp.workdps(dps):
        target = mp.mpf(1) / stratum.k

        def newton(t0, with_tail: bool):
            t = mp.mpf(t0)
            for _ in range(12):
                val = f_truncated_mp(A, nk1, t, N) - target
                dv = f_truncated_mp_deriv(A, nk1, t, N)
                if with_tail:
                    tb, dtb = tail_bound_mp(A, nk1, t, N)
                    val += tb
                    dv += dtb
                step = val / dv
                t -= step
                if abs(step) < mp.mpf(10) ** (-(dps - 2)) * abs(t):
                    return t
            raise SolverError(f"extended Newton did not converge in 12 steps at N={N}")

        h_lo = newton(seed.h_lo, with_tail=False)
        h_hi = newton(seed.h_lo, with_tail=True)
        return h_lo, h_hi
