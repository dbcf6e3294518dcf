import math
from collections import Counter

import numpy as np
import pytest

from origami_entropy import oracle
from origami_entropy.lattice import (
    diagonal,
    equilateral_matrix,
    f_truncated,
    identity_map,
    lattice_norms,
    shear,
    smallest_singular_value,
)
from origami_entropy.oracle import (
    LL,
    LR,
    UL,
    UR,
    OracleError,
    count_paths,
    enumerate_singular_connections,
    sector_type,
    series_identity_check,
    trace_ray,
    vertex_structure,
)
from origami_entropy.surface import builtin_surface, check_hypothesis

L_SURF = builtin_surface("L")
L_STRATUM = check_hypothesis(L_SURF)
EW_SURF = builtin_surface("EW")
EW_STRATUM = check_hypothesis(EW_SURF)


def test_sector_type_quadrants():
    assert sector_type(1, 0) == LL
    assert sector_type(2, 3) == LL
    assert sector_type(0, 1) == LR
    assert sector_type(-1, 2) == LR
    assert sector_type(-1, 0) == UR
    assert sector_type(-2, -1) == UR
    assert sector_type(0, -1) == UL
    assert sector_type(1, -3) == UL
    with pytest.raises(OracleError):
        sector_type(0, 0)


def test_trace_horizontal_edge():
    vertex, length = trace_ray(L_SURF, (1, LL), (1, 0))
    assert vertex == 0  # single vertex class on the L-shape
    assert length == pytest.approx(1.0)


def test_trace_diagonals_from_all_lifts():
    # all three first-quadrant corner copies close up after one diagonal
    tiling = oracle._Tiling(L_SURF)
    starts = tiling.corners_of_type(0, LL)
    assert len(starts) == 3
    for corner in starts:
        vertex, length = trace_ray(L_SURF, corner, (1, 1))
        assert vertex == 0
        assert length == pytest.approx(math.sqrt(2.0))


def test_trace_ew_long_direction():
    tiling = oracle._Tiling(EW_SURF)
    for vid in range(len(tiling.vertex_orbits)):
        for corner in tiling.corners_of_type(vid, LL):
            vertex, length = trace_ray(EW_SURF, corner, (2, 1))
            assert 0 <= vertex < 4
            assert length == pytest.approx(math.sqrt(5.0))


def test_trace_rejects_wrong_sector():
    with pytest.raises(OracleError):
        trace_ray(L_SURF, (1, LL), (-1, 2))
    with pytest.raises(OracleError):
        trace_ray(L_SURF, (1, LL), (0, 0))


def test_trace_length_scales_with_multiplicity():
    v1, l1 = trace_ray(L_SURF, (1, LL), (1, 1))
    v3, l3 = trace_ray(L_SURF, (1, LL), (3, 3))
    assert l3 == pytest.approx(3 * l1)


def test_multiplicity_law_l_shape():
    records = enumerate_singular_connections(L_SURF, 3)
    counts = Counter((r.start_vertex, r.holonomy) for r in records)
    assert set(counts.values()) == {3}  # k+1 = 3
    assert len(counts) == 48  # 1 vertex x (7^2 - 1) directions


def test_multiplicity_law_ew():
    records = enumerate_singular_connections(EW_SURF, 2)
    counts = Counter((r.start_vertex, r.holonomy) for r in records)
    assert set(counts.values()) == {2}  # k+1 = 2
    totals = Counter(r.holonomy for r in records)
    assert set(totals.values()) == {8}  # n(k+1) per holonomy


@pytest.mark.parametrize("surf,stratum", [(L_SURF, L_STRATUM), (EW_SURF, EW_STRATUM)])
@pytest.mark.parametrize("t", [3.0, 5.0])
def test_oracle_matches_lattice_sum(surf, stratum, t):
    records = enumerate_singular_connections(surf, 3, equilateral_matrix())
    traced = math.fsum(math.exp(-t * r.length) for r in records)
    formula = stratum.n_squares * f_truncated(
        equilateral_matrix(), stratum.sigma, t, 3).value
    assert abs(traced - formula) <= 1e-12


def test_record_lengths_use_deformed_norms():
    A = equilateral_matrix()
    records = enumerate_singular_connections(L_SURF, 1, A)
    by_holonomy = {r.holonomy: r.length for r in records}
    x, y = A.apply(1, 1)
    assert by_holonomy[(1, 1)] == pytest.approx(math.hypot(x, y) / L_STRATUM.sigma)


def test_enumerate_guards():
    with pytest.raises(OracleError):
        enumerate_singular_connections(L_SURF, 0)


def test_vertex_structure_matches_commutator():
    for name in ("L", "EW", "O3", "G3"):
        surf = builtin_surface(name[0], int(name[1])) if name[-1].isdigit() \
            else builtin_surface(name)
        assert sorted(vertex_structure(surf)) == sorted(surf.cone_multipliers)


def test_count_paths_no_continuations():
    # continuation weight 0 counts bare singular connections
    A = identity_map()
    table = count_paths(L_STRATUM, A, 2.5, 0.01, continuation_weight=0)
    total = float(np.sum(table.counts))
    sigma = L_STRATUM.sigma
    r = np.arange(-6, 7)
    aa, bb = np.meshgrid(r, r, indexing="ij")
    norms = np.hypot(aa, bb).ravel() / sigma
    n_vectors = int(np.sum((norms > 0) & (norms <= 2.5)))
    assert total == pytest.approx(3 * n_vectors)


def test_count_paths_delta_guard():
    with pytest.raises(OracleError):
        count_paths(L_STRATUM, identity_map(), 4.0, 0.2)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0, -1.0])
def test_count_paths_rejects_bad_horizon(t_max):
    with pytest.raises(OracleError, match="t_max"):
        count_paths(L_STRATUM, identity_map(), t_max, 0.01)


def _ceil_window_histogram(stratum, A, t_max, delta):
    # The single-connection histogram over the ceil + 1 window, masked at t_max.
    sigma = stratum.sigma
    m = int(math.ceil(t_max * sigma / smallest_singular_value(A))) + 1
    lengths = lattice_norms(A, sigma, m)
    lengths = lengths[lengths <= t_max]
    nbins = int(math.floor(t_max / delta)) + 1
    hist = np.zeros(nbins)
    idx = np.rint(lengths / delta).astype(int)
    np.add.at(hist, idx[idx < nbins], 1.0)
    return hist


def test_count_paths_histogram_matches_ceil_window():
    # With no continuations the counts are n(k+1) times the histogram; every
    # longer chain is convolved from it.
    for stratum in (L_STRATUM, EW_STRATUM):
        for A in (identity_map(), equilateral_matrix(), shear(0.7) @ diagonal(-0.4)):
            for t_max in (2.5, 8.0):
                counts = count_paths(stratum, A, t_max, 1e-3, continuation_weight=0).counts
                expected = stratum.n_squares * _ceil_window_histogram(stratum, A, t_max, 1e-3)
                assert np.array_equal(counts, expected), (stratum, A, t_max)


def test_count_paths_cumulative_monotone():
    table = count_paths(L_STRATUM, equilateral_matrix(), 4.0, 0.005)
    cum = table.cumulative()
    assert np.all(np.diff(cum) >= 0)


def test_slope_improves_with_horizon():
    A = equilateral_matrix()
    ref = 4.3493450461415029
    s4 = count_paths(L_STRATUM, A, 4.0, 1e-3).slope_fit(2.0, 4.0)
    s8 = count_paths(L_STRATUM, A, 8.0, 1e-3).slope_fit(4.0, 8.0)
    assert abs(s8 - ref) < abs(s4 - ref)


def test_series_identity_exact_remainder():
    A = equilateral_matrix()
    t, N = 5.0, 40
    f = f_truncated(A, L_STRATUM.sigma, t, N).value
    expected = 3 * f * (2 * f) / (1 - 2 * f)
    got = series_identity_check(L_STRATUM, A, t, m_max=1, N=N)
    assert got == pytest.approx(expected, rel=1e-13)


def test_series_identity_below_entropy_raises():
    with pytest.raises(OracleError):
        series_identity_check(L_STRATUM, equilateral_matrix(), 4.0, 50, 40)
