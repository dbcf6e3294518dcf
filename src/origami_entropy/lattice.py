"""Lattice exponential sums and the geometric constants controlling truncation.

The central object is the sum ``sum exp(-t * |A(a,b)| / sigma)`` over integer
pairs (a,b) in the square window of radius N with the origin removed, where A
is an area-preserving linear map and ``sigma = sqrt(n*(k+1))`` rescales the
tiling to unit area.  The truncation error is bounded by a closed-form tail
involving the smallest singular value of A and the diameter of the image of a
grid cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import mpmath as mp
import numpy as np

DET_TOL = 1e-12
_N_CAP = 3200  # largest window radius: (2N+1)^2 norms, 41 M at the cap
_MARGIN_BITS = 80  # a decay sum drops terms summing to at most 2^-80 of its largest


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class UnimodularMap:
    """A 2x2 real matrix (a b; c d) with determinant 1.

    ``exact`` optionally supplies the entries at arbitrary precision (as
    mpmath numbers) for the extended-precision mode; it never participates
    in equality or hashing.
    """

    a: float
    b: float
    c: float
    d: float
    exact: Callable[[], tuple] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self._floats)):
            raise LatticeError(f"matrix entries must be finite: {self!r}")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise LatticeError(f"matrix is not unimodular: det = {det!r}")

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        return UnimodularMap(
            *_product(self._floats, other._floats),
            exact=lambda: _product(self.entries_mp(), other.entries_mp()),
        )

    @property
    def _floats(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def entries_mp(self) -> tuple:
        if self.exact is not None:
            return self.exact()
        return tuple(map(mp.mpf, self._floats))


# Each formula below is written once, over entries (a, b, c, d) and the
# arithmetic module m: math for the floats, mpmath for the exact entries.

def _product(p: tuple, q: tuple) -> tuple:
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _map(entries: Callable) -> UnimodularMap:
    """The map with float entries ``entries(math)`` and exact entries ``entries(mp)``."""
    try:
        floats = entries(math)
    except OverflowError as exc:  # e.g. math.exp(1000) in diagonal
        raise LatticeError(f"matrix entries must be finite: {exc}") from None
    return UnimodularMap(*map(float, floats), exact=lambda: tuple(map(mp.mpf, entries(mp))))


def _min_singular(m, e: tuple):
    # d(A) = |det A| / ||A||_2, with ||A||_2 = (hypot(a+d, c-b) + hypot(a-d, b+c)) / 2
    # exact for 2x2 matrices; nothing cancels.
    a, b, c, d = e
    return m.fabs(a * d - b * c) / ((m.hypot(a + d, c - b) + m.hypot(a - d, b + c)) / 2)


def _diameter(m, e: tuple, sigma):
    # D(A): the longer image diagonal of a grid cell of side 1/sigma.
    a, b, c, d = e
    return max(m.hypot(a + b, c + d), m.hypot(a - b, c - d)) / sigma


def _tail(m, e: tuple, sigma, t, N: int, prefactor) -> tuple:
    # T = prefactor * exp(t*(D - r)) / t^2 * (t*r + 1), r = d(A)*N/sigma, and
    # d(ln T)/dt = D - r - 2/t + r/(t*r + 1).  For r > D, T falls strictly in t.
    big_d = _diameter(m, e, sigma)
    r = _min_singular(m, e) * N / sigma
    tail = prefactor * m.exp(t * (big_d - r)) / (t * t) * (t * r + 1)
    return tail, big_d - r - 2 / t + r / (t * r + 1)


def identity_map() -> UnimodularMap:
    return UnimodularMap(1.0, 0.0, 0.0, 1.0)


def rotation(theta: float) -> UnimodularMap:
    return _map(lambda m: (m.cos(theta), -m.sin(theta), m.sin(theta), m.cos(theta)))


def shear(s: float) -> UnimodularMap:
    return _map(lambda m: (1, s, 0, 1))


def diagonal(u: float) -> UnimodularMap:
    return _map(lambda m: (m.exp(u), 0, 0, m.exp(-u)))


def equilateral_matrix() -> UnimodularMap:
    """The map sending Z^2 onto the unimodular triangular lattice.

    Columns c*(1,0) and c*(1/2, sqrt(3)/2) with c = (2/sqrt(3))**0.5, so that
    the image lattice has covolume 1 and six shortest vectors of equal norm.
    """
    def entries(m):
        r3 = m.sqrt(3)
        c = m.sqrt(2 / r3)
        return (c, c / 2, 0, c * r3 / 2)

    return _map(entries)


def modular_lattice(x: float, y: float) -> UnimodularMap:
    """Unit-covolume lattice of shape z = x + i*y: columns (1,0), (x,y), over sqrt(y)."""
    if y <= 0:
        raise LatticeError("y must be positive")

    def entries(m):
        ry = m.sqrt(y)
        return (1 / ry, x / ry, 0, ry)

    return _map(entries)


def smallest_singular_value(A: UnimodularMap) -> float:
    """The smaller singular value, |det A| / ||A||_2, which does not cancel."""
    return _min_singular(math, A._floats)


def window_radius(A: UnimodularMap, sigma: float, r: float) -> int:
    """Radius of a square window holding every vector of norm |A(a,b)|/sigma <= r."""
    # |A(a,b)| >= d(A)*max(|a|,|b|); the +1 absorbs the rounding of d(A) and of the inputs.
    return math.floor(r * sigma / smallest_singular_value(A)) + 1


def cell_diameter(A: UnimodularMap, sigma: float) -> float:
    """Diameter of the image under A of a grid cell of side 1/sigma."""
    if sigma <= 0:
        raise LatticeError("sigma must be positive")
    return _diameter(math, A._floats, sigma)


@dataclass(frozen=True)
class LatticeSum:
    """A truncated lattice exponential sum together with its tail bound."""

    value: float
    t: float
    N: int
    tail_bound: float


def _check_cap(N: int) -> None:
    if N > _N_CAP:
        raise LatticeError(f"cutoff N = {N} is above the cap {_N_CAP}")


@lru_cache(maxsize=2)
def lattice_norms(A: UnimodularMap, sigma: float, N: int) -> np.ndarray:
    """Norms |A(a,b)|/sigma over the punctured square window of radius N.

    Sorted ascending and read-only.  ``math.fsum`` is exactly rounded, so the
    order never changes a sum; ascending order only makes it fast.  A radius
    above the cap raises :class:`LatticeError` before anything is built.
    """
    _check_cap(N)
    r = np.arange(-N, N + 1)
    a, b = np.meshgrid(r, r, indexing="ij")
    # The origin is the only lattice point of norm 0, so it sorts first.
    out = np.sort(np.hypot(A.a * a + A.b * b, A.c * a + A.d * b).ravel() / sigma)[1:]
    out.setflags(write=False)
    return out


def disc_norms(A: UnimodularMap, sigma: float, N: int, r: float) -> np.ndarray:
    """The norms <= r of :func:`lattice_norms`, built without the rest of the window.

    Equal, element for element, to ``lattice_norms(A, sigma, N)[:np.searchsorted(
    ..., r, side="right")]``: sorted ascending and read-only.  With alpha = a^2 + c^2,
    beta = ab + cd and delta = ad - bc, |A(x,y)|^2 = alpha*(x + y*beta/alpha)^2 +
    (y*delta)^2/alpha, so the rows |y| <= r*sigma*sqrt(alpha)/|delta| hold the disc,
    each in an interval of x.  The rows and the intervals are padded by one to absorb
    their rounding; the norms are computed with lattice_norms' expression and kept
    when <= r, which makes the result exact.
    """
    _check_cap(N)
    rho, n1, delta = r * sigma, math.hypot(A.a, A.c), A.a * A.d - A.b * A.c
    rows = min(N, math.floor(min(rho * n1 / abs(delta), N)) + 1)
    y = np.arange(-rows, rows + 1)
    # In units of the first column: centre -y*beta/alpha, half-width sqrt(rho^2 - q^2)/n1.
    q = np.abs(y * (delta / n1))
    # At extreme stretches this overflows to inf, and the row is then taken whole.
    with np.errstate(over="ignore"):
        half_width = np.sqrt(np.maximum(rho - q, 0.0) * (rho + q)) / n1
    centre = y * -((A.a / n1 * A.b + A.c / n1 * A.d) / n1)
    lo = np.maximum(np.ceil(centre - half_width) - 1, -N).astype(np.int64)
    hi = np.minimum(np.floor(centre + half_width) + 1, N).astype(np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    b = np.repeat(y, counts)
    a = np.arange(b.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    norms = np.hypot(A.a * a + A.b * b, A.c * a + A.d * b) / sigma
    # The origin is the only lattice point of norm 0 and lies in row 0.
    out = np.sort(norms[norms <= r])[1:]
    out.setflags(write=False)
    return out


def _tail_bound(A: UnimodularMap, sigma: float, t: float, N: int, prefactor: float) -> float:
    # It can overflow only when D > r.
    if not 0 < t < math.inf or N < 1 or sigma <= 0:  # also rejects a nan t
        raise LatticeError(f"t must be positive and finite, N and sigma positive; got t = {t!r}")
    try:
        return _tail(math, A._floats, sigma, t, N, prefactor)[0]
    except OverflowError:
        return math.inf


def tail_bound(A: UnimodularMap, sigma: float, t: float, N: int, n: int, k: int) -> float:
    """Closed-form bound on the truncation error of the N-window sum.

    E = 2*pi*n*(k+1) * exp(t*(D(A) - r)) / t^2 * (t*r + 1) with
    r = d(A)*N/sigma, d the smallest singular value and D the cell diameter.
    """
    return _tail_bound(A, sigma, t, N, 2.0 * math.pi * n * (k + 1))


@lru_cache(maxsize=2)
def _largest_disc(A: UnimodularMap, sigma: float, N: int) -> list:
    # [r, disc_norms(A, sigma, N, r)] for the largest r built so far.  t moves
    # during a solve, so the disc grows in place instead of being keyed on r.
    return [0.0, None]


def _decay_window_sum(A: UnimodularMap, sigma: float, t: float, N: int) -> float:
    """``math.fsum(np.exp(-t * norms))``, bit for bit, from a prefix of half the terms.

    ``norms`` is the sorted window ``lattice_norms(A, sigma, N)``; let ``half =
    norms[::2]``, of size 2N(N+1).

    Halving is exact.  v -> -v has no fixed point on the punctured window,
    and the computed norms of v and -v are bit-identical: negating the
    integers negates each product and sum exactly, and ``hypot`` ignores
    signs.  So the sorted array is made of runs of equal values, each of
    even length; every run starts at an even index, and ``half`` holds each
    value exactly half as often.  The exact sum of the terms of ``norms`` is
    therefore twice that of ``half``, and since scaling by 2 is exact and
    commutes with rounding to nearest while the half-sum is a normal float,
    ``fsum(full) == 2 * fsum(half)``.

    The cut.  With ell = ln(len(half)) and j = searchsorted(half, half[0] +
    (_MARGIN_BITS*ln 2 + ell) / t), only ``half[:j]`` is summed into s.
    ``-t * half[:j]`` gives the same products as ``-t * norms`` does for
    those elements, and ``np.exp`` of a contiguous array gives each element
    the same value, so the prefix terms are terms of the full expression.

    The disc.  Only ``half[:j + 1]`` is read, so only a sorted prefix of the
    window is built, :func:`disc_norms` up to a radius r; its half equals
    ``half`` wherever it is defined.  r starts above the cut with slack (a
    column is a window vector, so half[0] lies under its norm) and grows by
    1.5x until the disc holds half[j] or the whole window.

    The check.  The norms ascend, so each of the len(half) - j dropped terms
    is at most e^(-t*half[j]); ``rest = 2*(len(half) - j)*max(math.exp(-t*
    half[j]), 2^-1074)`` bounds their sum, the factor 2 covering the error
    of ``np.exp`` and ``math.exp`` (under 1 ulp each) and the floor covering
    underflow.  The exact half-sum lies between the exact prefix sum and
    that sum plus ``rest``.  If ``fsum(prefix terms + [rest]) == s``, both
    ends round to s, and rounding is monotone, so the exact half-sum rounds
    to s too.

    By the choice of j, ``rest`` is at most 2^(1 - _MARGIN_BITS) of the
    largest term, so the check fails only where the prefix sum lies within
    that distance of a rounding boundary.  There, and where s falls below
    2^-1000, near the subnormal range in which doubling does not commute
    with rounding, the expression above is evaluated as written.
    """
    size = 2 * N * (N + 1)
    extra = (_MARGIN_BITS * math.log(2) + math.log(size)) / t
    disc = _largest_disc(A, sigma, N)
    r = 1.25 * (math.hypot(A.a, A.c) / sigma + extra)
    while True:
        if disc[0] < r:
            disc[:] = r, disc_norms(A, sigma, N, r)
        half = disc[1][::2]
        j = int(np.searchsorted(half, half[0] + extra))
        if j < half.size or half.size == size:
            break
        r = 1.5 * disc[0]
    terms = np.exp(-t * half[:j]).tolist()
    s = math.fsum(terms)
    if j < size:
        # float(): the same IEEE product, whose overflow to inf numpy would warn about.
        terms.append(2 * (size - j) * max(math.exp(-t * float(half[j])), 2.0 ** -1074))
    if s < 2.0 ** -1000 or (j < size and math.fsum(terms) != s):
        return math.fsum(np.exp(-t * lattice_norms(A, sigma, N)).tolist())
    return 2 * s


def f_truncated(A: UnimodularMap, sigma: float, t: float, N: int) -> LatticeSum:
    """Truncated decay sum over the image lattice, with its tail bound.

    The value is ``math.fsum(np.exp(-t * lattice_norms(A, sigma, N)))``,
    exactly rounded, so it does not depend on the order of the terms; it is
    computed from the prefix of half the window that can change it, and
    only that prefix is built (see :func:`_decay_window_sum`).
    """
    # Tail prefactor n*(k+1) equals sigma^2 for a unit-area tiling.
    tb = _tail_bound(A, sigma, t, N, 2.0 * math.pi * sigma * sigma)
    value = _decay_window_sum(A, sigma, t, N)
    return LatticeSum(value=value, t=t, N=N, tail_bound=tb)


def theta_sum(A: UnimodularMap, t: float, N: int) -> float:
    """Gaussian lattice sum over the full window, origin included."""
    if not 0 < t < math.inf or N < 1:  # also rejects a nan t
        raise LatticeError(f"t must be positive and finite and N positive; got t = {t!r}")
    norms = lattice_norms(A, 1.0, N)
    return 1.0 + math.fsum(np.exp(-t * norms * norms))


# ---------------------------------------------------------------------------
# Extended precision (mpmath) versions, behind the same shapes.

@lru_cache(maxsize=2)
def _norms_mp(entries: tuple, nk1: int, N: int, prec: int) -> tuple:
    # prec is part of the key only: the norms are computed at the working precision.
    ea, eb, ec, ed = entries
    sigma = mp.sqrt(nk1)
    out = []
    for a in range(-N, N + 1):
        for b in range(-N, N + 1):
            if a or b:
                x = ea * a + eb * b
                y = ec * a + ed * b
                out.append(mp.sqrt(x * x + y * y) / sigma)
    return tuple(out)


def lattice_norms_mp(A: UnimodularMap, nk1: int, N: int) -> tuple:
    """Arbitrary-precision norms |A(a,b)|/sqrt(nk1) over the punctured window.

    Keyed on the exact entries, not on A: maps with equal floats can carry
    different exact entries.
    """
    _check_cap(N)
    return _norms_mp(A.entries_mp(), nk1, N, mp.mp.prec)


def _mp_window(A: UnimodularMap, nk1: int, t, N: int) -> tuple:
    """t as an mpf, and the norms of the N-window up to (dps+15)*ln 10/t, in window order:
    later terms cannot influence the result, and the smallest window holding these
    norms gives them in the order of the N-window."""
    _check_cap(N)
    t = mp.mpf(t)
    cutoff = (mp.mp.dps + 15) * mp.log(10) / t
    norms = lattice_norms_mp(A, nk1, min(N, window_radius(A, math.sqrt(nk1), float(cutoff))))
    return t, [ell for ell in norms if ell <= cutoff]


def f_truncated_mp(A: UnimodularMap, nk1: int, t, N: int):
    """Extended-precision truncated sum; returns an mpmath float."""
    t, norms = _mp_window(A, nk1, t, N)
    return mp.fsum(mp.exp(-t * ell) for ell in norms)


def f_truncated_mp_deriv(A: UnimodularMap, nk1: int, t, N: int):
    """d/dt of :func:`f_truncated_mp` (used by the extended-precision solver)."""
    t, norms = _mp_window(A, nk1, t, N)
    return -mp.fsum(ell * mp.exp(-t * ell) for ell in norms)


def tail_bound_mp(A: UnimodularMap, nk1: int, t, N: int) -> tuple:
    """Extended-precision :func:`tail_bound` T and its t-derivative, as a pair.

    d(ln T)/dt = D - r - 2/t + r/(t*r + 1).
    """
    tail, dlog = _tail(mp, A.entries_mp(), mp.sqrt(nk1), mp.mpf(t), N, 2 * mp.pi * nk1)
    return tail, tail * dlog
