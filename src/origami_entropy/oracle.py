"""Independent geometric verification by ray tracing on the square tiling.

Everything here works directly with the gluing permutations and exact
integer arithmetic: a straight segment of integer displacement (a,b) is
walked square by square, crossing right/left edges via h and top/bottom
edges via v, and passing straight through any intermediate vertex.  The
resulting connection counts and weighted sums can then be compared against
the analytic lattice-sum formulas, which they must reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import UnimodularMap, disc_norms, identity_map, window_radius
from .surface import SquareTiledSurface, StratumInfo, SurfaceError, check_hypothesis

# Corner types by the quarter-plane sector they occupy around a vertex,
# listed counterclockwise: 0 = lower-left corner of its square (sector
# [0,90)), 1 = lower-right ([90,180)), 2 = upper-right ([180,270)),
# 3 = upper-left ([270,360)).
LL, LR, UR, UL = 0, 1, 2, 3

Corner = tuple[int, int]  # (square label, corner type)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class ConnectionRecord:
    start_vertex: int
    holonomy: tuple[int, int]
    length: float
    end_vertex: int
    sector: int


@dataclass(frozen=True)
class PathCountTable:
    """Counts of geodesic connection chains bucketed by total length."""

    delta: float
    counts: np.ndarray  # counts[j] ~ number of paths of length j*delta

    @property
    def bucket_centers(self) -> np.ndarray:
        return np.arange(len(self.counts)) * self.delta

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.counts)

    def slope_fit(self, t_lo: float, t_hi: float) -> float:
        """Least-squares slope of log(cumulative count) against length."""
        cum = self.cumulative()
        centers = self.bucket_centers
        mask = (centers >= t_lo) & (centers <= t_hi) & (cum > 0)
        if mask.sum() < 2:
            raise OracleError("not enough populated buckets for a slope fit")
        return float(np.polyfit(centers[mask], np.log(cum[mask]), 1)[0])


def sector_type(p: int, q: int) -> int:
    """Sector containing the direction (p,q); rays on an edge go with the
    sector counterclockwise of the edge."""
    if p == 0 and q == 0:
        raise OracleError("degenerate direction (0,0)")
    if q == 0:
        return LL if p > 0 else UR
    if p == 0:
        return LR if q > 0 else UL
    if p > 0:
        return LL if q > 0 else UL
    return LR if q > 0 else UR


class _Tiling:
    """Permutation lookups plus the corner-orbit vertex structure."""

    def __init__(self, X: SquareTiledSurface):
        self.X = X
        self.h = X.h
        self.v = X.v
        self.h_inv = X.h.inverse()
        self.v_inv = X.v.inverse()
        self._build_vertices()

    def ccw(self, corner: Corner) -> Corner:
        # One quarter-sector counterclockwise around the vertex.
        s, typ = corner
        if typ == LL:
            return (self.h_inv(s), LR)
        if typ == LR:
            return (self.v_inv(s), UR)
        if typ == UR:
            return (self.h(s), UL)
        return (self.v(s), LL)

    def cw(self, corner: Corner) -> Corner:
        s, typ = corner
        if typ == LR:
            return (self.h(s), LL)
        if typ == UR:
            return (self.v(s), LR)
        if typ == UL:
            return (self.h_inv(s), UR)
        return (self.v_inv(s), UL)

    def _build_vertices(self) -> None:
        orbits: list[list[Corner]] = []
        seen: set[Corner] = set()
        for s in range(1, self.X.n_squares + 1):
            for typ in (LL, LR, UR, UL):
                c = (s, typ)
                if c in seen:
                    continue
                orbit = [c]
                seen.add(c)
                nxt = self.ccw(c)
                while nxt != c:
                    orbit.append(nxt)
                    seen.add(nxt)
                    nxt = self.ccw(nxt)
                orbits.append(orbit)
        orbits.sort(key=lambda o: min(o))
        self.vertex_orbits = orbits
        self.vertex_of: dict[Corner, int] = {}
        for vid, orbit in enumerate(orbits):
            for c in orbit:
                self.vertex_of[c] = vid

    def corners_of_type(self, vid: int, typ: int) -> list[Corner]:
        return [c for c in self.vertex_orbits[vid] if c[1] == typ]


def _advance_primitive(T: _Tiling, corner: Corner, p: int, q: int) -> Corner:
    """Walk one primitive step (p,q) from a vertex; returns the arrival
    corner, i.e. the sector containing the backward direction."""
    s, typ = corner
    if q == 0:  # ride a horizontal edge
        return (T.v_inv(s), UR) if p > 0 else (T.v(s), LL)
    if p == 0:  # ride a vertical edge
        return (T.h(s), UL) if q > 0 else (T.h_inv(s), LR)
    # Interior segment: cross vertical grid lines i=1..|p|-1 and horizontal
    # lines j=1..|q|-1 in the order of the crossing parameters i/|p|, j/|q|.
    # (p,q) is primitive, so no two crossings coincide.
    ap, aq = abs(p), abs(q)
    i = j = 1
    while i < ap or j < aq:
        if j >= aq or (i < ap and i * aq < j * ap):
            s = T.h(s) if p > 0 else T.h_inv(s)
            i += 1
        else:
            s = T.v(s) if q > 0 else T.v_inv(s)
            j += 1
    return (s, sector_type(-p, -q))


def _continue_straight(T: _Tiling, arrival: Corner) -> Corner:
    # Angle exactly pi on the clockwise side: two quarter-sectors clockwise
    # from the arrival sector.
    return T.cw(T.cw(arrival))


def trace_ray(
    X: SquareTiledSurface,
    start: Corner,
    direction: tuple[int, int],
    _tiling: "_Tiling | None" = None,
) -> tuple[int, float]:
    """Follow the segment of displacement ``direction`` from a vertex corner.

    Returns (terminal vertex class, arc length in square units).  The start
    corner must occupy the sector containing the direction; intermediate
    vertex hits are traversed straight.
    """
    a, b = direction
    if a == 0 and b == 0:
        raise OracleError("degenerate direction (0,0)")
    T = _tiling if _tiling is not None else _Tiling(X)
    if start not in T.vertex_of:
        raise OracleError(f"unknown corner {start!r}")
    if start[1] != sector_type(a, b):
        raise OracleError(f"corner {start!r} does not face direction {direction!r}")
    g = math.gcd(abs(a), abs(b))
    p, q = a // g, b // g
    corner = start
    for step in range(g):
        corner = _advance_primitive(T, corner, p, q)
        if step < g - 1:
            corner = _continue_straight(T, corner)
    return T.vertex_of[corner], math.hypot(a, b)


def enumerate_singular_connections(
    X: SquareTiledSurface,
    max_coeff: int,
    A: UnimodularMap | None = None,
) -> list[ConnectionRecord]:
    """Trace every (vertex, holonomy, sector) connection in the window.

    For each vertex class and each integer displacement (a,b) with
    0 < max(|a|,|b|) <= max_coeff there are exactly k+1 starting sectors,
    one per turn of the cone angle.  Lengths are |A(a,b)|/sigma (A defaults
    to the identity).
    """
    stratum = check_hypothesis(X)  # raises on mixed cone angles
    if max_coeff < 1:
        raise OracleError("max_coeff must be >= 1")
    if A is None:
        A = identity_map()
    T = _Tiling(X)
    sigma = X.sigma
    records = []
    n_vertices = len(T.vertex_orbits)
    for a in range(-max_coeff, max_coeff + 1):
        for b in range(-max_coeff, max_coeff + 1):
            if a == 0 and b == 0:
                continue
            typ = sector_type(a, b)
            x, y = A.apply(a, b)
            length = math.hypot(x, y) / sigma
            for vid in range(n_vertices):
                starts = T.corners_of_type(vid, typ)
                assert len(starts) == stratum.k + 1
                for sector, corner in enumerate(starts):
                    end_vid, _ = trace_ray(X, corner, (a, b), _tiling=T)
                    records.append(ConnectionRecord(
                        start_vertex=vid,
                        holonomy=(a, b),
                        length=length,
                        end_vertex=end_vid,
                        sector=sector,
                    ))
    return records


def count_paths(
    stratum: StratumInfo,
    A: UnimodularMap,
    t_max: float,
    delta: float,
    continuation_weight: int | None = None,
) -> PathCountTable:
    """Count connection chains by total length via bucketed convolution.

    A chain of m singular connections has n*(k+1) choices for the first and
    k for each continuation, each carrying a lattice displacement; so the
    length histogram of chains is the m-fold convolution of the single-
    connection histogram with the appropriate multiplicities.
    """
    if not 0 < t_max < math.inf:  # also rejects a nan t_max
        raise OracleError(f"t_max must be positive and finite; got {t_max!r}")
    if not 0 < delta <= 0.05:
        raise OracleError("delta must be in (0, 0.05]")
    k = stratum.k if continuation_weight is None else continuation_weight
    nk1 = stratum.n_squares
    sigma = stratum.sigma
    lengths = disc_norms(A, sigma, window_radius(A, sigma, t_max), t_max)
    nbins = int(math.floor(t_max / delta)) + 1
    hist = np.zeros(nbins)
    idx = np.rint(lengths / delta).astype(int)
    np.add.at(hist, idx[idx < nbins], 1.0)
    seed = nk1 * hist
    total = seed.copy()
    layer = seed
    while layer.any():
        layer = k * np.convolve(layer, hist)[:nbins]
        total += layer
    return PathCountTable(delta=delta, counts=total)


def series_identity_check(
    stratum: StratumInfo,
    A: UnimodularMap,
    t: float,
    m_max: int,
    N: int,
) -> float:
    """Residual of the geometric series against its closed form.

    The chain sum truncated at m_max connections is
    n*(k+1)*f*(1-(k*f)^m_max)/(1-k*f); the full series converges to
    n*(k+1)*f/(1-k*f) only when k*f < 1, i.e. above the entropy.
    """
    from .lattice import f_truncated

    if m_max < 1:
        raise OracleError("m_max must be >= 1")
    k = stratum.k
    nk1 = stratum.n_squares
    f = f_truncated(A, stratum.sigma, t, N).value
    if k * f >= 1.0:
        raise OracleError(
            f"k*f = {k * f:.6f} >= 1 at t = {t}: below the entropy, the series diverges")
    partial = math.fsum(nk1 * f * (k * f) ** (m - 1) for m in range(1, m_max + 1))
    closed = nk1 * f / (1.0 - k * f)
    return abs(partial - closed)


def vertex_structure(X: SquareTiledSurface) -> list[int]:
    """Cone multipliers from the corner-orbit construction (orbit size / 4)."""
    T = _Tiling(X)
    return [len(orbit) // 4 for orbit in T.vertex_orbits]
