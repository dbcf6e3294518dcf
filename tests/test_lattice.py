import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from origami_entropy.lattice import (
    LatticeError,
    UnimodularMap,
    cell_diameter,
    diagonal,
    disc_norms,
    equilateral_matrix,
    f_truncated,
    f_truncated_mp,
    f_truncated_mp_deriv,
    identity_map,
    lattice_norms,
    lattice_norms_mp,
    modular_lattice,
    rotation,
    shear,
    smallest_singular_value,
    tail_bound,
    tail_bound_mp,
    theta_sum,
    window_radius,
)
from origami_entropy.solver import entropy_enclosure
from origami_entropy.surface import builtin_surface, check_hypothesis

# Stated entropy of the equilateral point, of unknown source.  It agrees
# with the computed root to 17 significant digits.
REF_T = 4.34934504614150290303138902137

maps = st.builds(
    lambda s, u: shear(s) @ diagonal(u),
    st.floats(-3, 3), st.floats(-1, 1),
)


def test_unimodular_guard():
    with pytest.raises(LatticeError):
        UnimodularMap(1.0, 0.0, 0.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_unimodular_rejects_non_finite(bad):
    with pytest.raises(LatticeError):
        UnimodularMap(1.0, bad, 0.0, 1.0)


def test_lattice_norms_sorted_read_only():
    A = shear(0.7) @ diagonal(0.2)
    sigma = math.sqrt(3.0)
    norms = lattice_norms(A, sigma, 6)
    r = range(-6, 7)
    want = sorted(np.hypot(A.a * a + A.b * b, A.c * a + A.d * b) / sigma
                  for a in r for b in r if a or b)
    assert norms.tolist() == want
    assert not norms.flags.writeable
    assert lattice_norms(A, sigma, 6) is norms


def test_mp_norms_follow_exact_entries():
    # Equal floats, different exact entries: the mp norms must not be shared.
    A = equilateral_matrix()
    B = UnimodularMap(A.a, A.b, A.c, A.d)
    assert A == B
    with mp.workdps(40):
        assert lattice_norms_mp(A, 3, 2) != lattice_norms_mp(B, 3, 2)


def test_window_above_cap_fails_before_building():
    # (2N+1)^2 norms at N = 3201 would take about 330 MB per float array.
    A = equilateral_matrix()
    tracemalloc.start()
    try:
        for build in (lambda: lattice_norms(A, 1.0, 3201),
                      lambda: lattice_norms_mp(A, 3, 3201),
                      lambda: f_truncated(A, 1.0, 4.0, 3201),
                      lambda: f_truncated_mp(A, 3, 4.0, 3201),
                      lambda: f_truncated_mp_deriv(A, 3, 4.0, 3201)):
            with pytest.raises(LatticeError, match="cap"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_equilateral_det():
    A = equilateral_matrix()
    assert abs(A.a * A.d - A.b * A.c - 1.0) <= 1e-15


def test_equilateral_six_shortest_vectors():
    A = equilateral_matrix()
    norms = sorted(lattice_norms(A, 1.0, 2))
    expected = math.sqrt(2.0 / math.sqrt(3.0))
    assert all(n == pytest.approx(expected, rel=1e-14) for n in norms[:6])
    assert norms[6] > expected * 1.5


def test_smallest_singular_value_identity():
    assert smallest_singular_value(identity_map()) == pytest.approx(1.0, abs=1e-15)


def test_smallest_singular_value_diagonal():
    assert smallest_singular_value(UnimodularMap(2.0, 0.0, 0.0, 0.5)) == pytest.approx(0.5)


def test_smallest_singular_value_equilateral():
    assert smallest_singular_value(equilateral_matrix()) == pytest.approx(0.759836, abs=1e-6)


@pytest.mark.parametrize("u", [5.0, 9.5, 20.0, 200.0, 460.0])
def test_smallest_singular_value_large_stretch(u):
    d = smallest_singular_value(diagonal(u))
    assert abs(d - math.exp(-u)) <= 4 * math.ulp(math.exp(-u))


def test_smallest_singular_value_matches_svd():
    rng = np.random.default_rng(8)
    for _ in range(100):
        A = shear(rng.uniform(-3, 3)) @ diagonal(rng.uniform(-4, 4)) @ equilateral_matrix()
        with mp.workdps(50):
            ref = min(mp.svd_r(mp.matrix([[A.a, A.b], [A.c, A.d]]), compute_uv=False))
            assert abs(smallest_singular_value(A) - ref) <= 1e-15 * ref, A


def test_cell_diameter_identity():
    assert cell_diameter(identity_map(), 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert cell_diameter(identity_map(), math.sqrt(3.0)) == pytest.approx(
        math.sqrt(2.0 / 3.0), rel=1e-14)


def test_cell_diameter_equilateral():
    assert cell_diameter(equilateral_matrix(), math.sqrt(3.0)) == pytest.approx(
        1.07457, abs=1e-5)


def test_f_truncated_reference_root():
    val = f_truncated(equilateral_matrix(), math.sqrt(3.0), REF_T, 100).value
    assert val == pytest.approx(0.5, abs=1e-12)


def test_f_truncated_small_window_identity():
    # eight points: four at norm 1, four at norm sqrt(2)
    val = f_truncated(identity_map(), 1.0, 1.0, 1).value
    assert val == pytest.approx(4 * math.exp(-1) + 4 * math.exp(-math.sqrt(2)), rel=1e-15)


def test_f_truncated_input_guards():
    with pytest.raises(LatticeError):
        f_truncated(identity_map(), 1.0, 0.0, 10)
    with pytest.raises(LatticeError):
        f_truncated(identity_map(), 1.0, 1.0, 0)



@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_rejected(t):
    with pytest.raises(LatticeError, match="finite"):
        f_truncated(equilateral_matrix(), math.sqrt(3.0), t, 25)
    with pytest.raises(LatticeError, match="finite"):
        theta_sum(equilateral_matrix(), t, 25)

@settings(max_examples=20, deadline=None)
@given(maps, st.floats(0.1, 3.0))
def test_rotation_invariance(A, theta):
    R = rotation(theta)
    v1 = f_truncated(A, 1.7, 3.0, 20).value
    v2 = f_truncated(R @ A, 1.7, 3.0, 20).value
    assert v2 == pytest.approx(v1, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(maps)
def test_reflection_norm_multiset(A):
    # x -> -x reflection of the plane preserves the norm multiset
    a, b = np.meshgrid(np.arange(-5, 6), np.arange(-5, 6), indexing="ij")
    direct = np.sort(np.hypot(A.a * a + A.b * b, A.c * a + A.d * b).ravel())
    mirrored = np.sort(np.hypot(-(A.a * a + A.b * b), A.c * a + A.d * b).ravel())
    assert np.array_equal(direct, mirrored)


@settings(max_examples=20, deadline=None)
@given(maps, st.floats(0.5, 6.0))
def test_scaling_law_exact(A, t):
    # halving sigma doubles every norm: f(A, sigma/2, t) == f(A, sigma, 2t)
    assert f_truncated(A, 0.5, t, 15).value == f_truncated(A, 1.0, 2.0 * t, 15).value


@settings(max_examples=20, deadline=None)
@given(maps, st.floats(0.5, 4.0), st.floats(0.1, 2.0))
def test_monotone_decreasing_in_t(A, t1, dt):
    f1 = f_truncated(A, 1.7, t1, 15).value
    f2 = f_truncated(A, 1.7, t1 + dt, 15).value
    assert f2 < f1


def test_tail_bound_decreasing_in_n():
    A = equilateral_matrix()
    e10 = tail_bound(A, math.sqrt(3.0), 4.0, 10, 1, 2)
    e20 = tail_bound(A, math.sqrt(3.0), 4.0, 20, 1, 2)
    assert e20 < e10


def test_tail_bound_tiny_at_reference_cutoff():
    e = tail_bound(equilateral_matrix(), math.sqrt(3.0), 4.35, 100, 1, 2)
    assert 0 < e < 1e-70


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
def test_tail_bound_dominates_refinement(t):
    rng = np.random.default_rng(3)
    for _ in range(5):
        A = shear(rng.uniform(-2, 2)) @ diagonal(rng.uniform(-0.7, 0.7))
        gap = (f_truncated(A, 1.0, t, 40).value - f_truncated(A, 1.0, t, 20).value)
        assert gap <= tail_bound(A, 1.0, t, 20, 1, 0)


def test_tail_bound_finite_at_large_t():
    # exp(t*D) alone overflows here; the tail itself is far below 1.
    tb = tail_bound(equilateral_matrix(), math.sqrt(3.0), 2000.0, 25, 1, 2)
    assert math.isfinite(tb) and tb < 1e-300


def test_f_truncated_matches_tail_bound_field():
    A = equilateral_matrix()
    s = f_truncated(A, math.sqrt(3.0), 4.0, 30)
    assert s.tail_bound == pytest.approx(
        tail_bound(A, math.sqrt(3.0), 4.0, 30, 1, 2), rel=1e-12)


def test_theta_origin_dominates_at_large_t():
    assert theta_sum(identity_map(), 50.0, 10) == pytest.approx(1.0, abs=1e-15)


def test_theta_square_above_triangular():
    assert theta_sum(identity_map(), math.pi, 30) > theta_sum(
        equilateral_matrix(), math.pi, 30)


@pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
def test_theta_triangular_minimizes(t):
    rng = np.random.default_rng(11)
    eq = equilateral_matrix()
    for _ in range(100):
        A = shear(rng.uniform(-3, 3)) @ diagonal(rng.uniform(-1, 1))
        N = min(int(math.ceil(8.0 / smallest_singular_value(A))), 200)
        assert theta_sum(A, t, N) >= theta_sum(eq, t, 40)


def test_modular_lattice_square():
    A = modular_lattice(0.0, 1.0)
    assert (A.a, A.b, A.c, A.d) == (1.0, 0.0, 0.0, 1.0)


def test_modular_lattice_triangular_point():
    A = modular_lattice(0.5, math.sqrt(3.0) / 2.0)
    got = np.sort(lattice_norms(A, 1.0, 3))
    want = np.sort(lattice_norms(equilateral_matrix(), 1.0, 3))
    assert np.allclose(got, want, atol=1e-14)


def test_modular_lattice_guards():
    with pytest.raises(LatticeError):
        modular_lattice(0.1, 0.0)


def test_theta_mirror_symmetry():
    f1 = theta_sum(modular_lattice(0.3, 1.2), 2.0, 30)
    f2 = theta_sum(modular_lattice(-0.3, 1.2), 2.0, 30)
    assert f2 == pytest.approx(f1, abs=1e-13)


def test_extended_matches_double():
    A = equilateral_matrix()
    with mp.workdps(40):
        v = f_truncated_mp(A, 3, mp.mpf("4.3"), 60)
        d = f_truncated(A, math.sqrt(3.0), 4.3, 60).value
        assert abs(float(v) - d) < 1e-14
        assert f_truncated_mp_deriv(A, 3, mp.mpf("4.3"), 60) < 0


def test_exact_entries_survive_composition():
    # the arbitrary-precision entries must flow through matrix products
    A = diagonal(0.0) @ shear(0.0) @ equilateral_matrix()
    with mp.workdps(40):
        ea, eb, ec, ed = A.entries_mp()
        c = mp.sqrt(2 / mp.sqrt(3))
        assert mp.almosteq(ea, c, rel_eps=mp.mpf(10) ** -38)
        assert mp.almosteq(ed, c * mp.sqrt(3) / 2, rel_eps=mp.mpf(10) ** -38)


def _random_constructor(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return rotation(rng.uniform(-4, 4))
    if pick == 1:
        return shear(rng.uniform(-3, 3))
    if pick == 2:
        return diagonal(rng.uniform(-2, 2))
    if pick == 3:
        return equilateral_matrix()
    return modular_lattice(rng.uniform(-1, 1), rng.uniform(0.2, 3))


def test_product_is_plain_arithmetic():
    # The float entries of a product must not depend on how a BLAS kernel
    # rounds (with or without fused multiply-add).
    rng = random.Random(5)
    for _ in range(200):
        A = _random_constructor(rng) @ _random_constructor(rng)
        B = _random_constructor(rng) @ _random_constructor(rng)
        a, b, c, d = A.a, A.b, A.c, A.d
        e, f, g, h = B.a, B.b, B.c, B.d
        C = A @ B
        assert (C.a, C.b, C.c, C.d) == (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _decaying_tail_cases(rng, count):
    # (A, t, N) with r = d(A)*N/sigma > D(A), for n = 1, k = 2 (nk1 = 3).
    sigma = math.sqrt(3.0)
    for _ in range(count):
        A = diagonal(rng.uniform(-0.5, 0.5)) @ shear(rng.uniform(-1, 1)) @ equilateral_matrix()
        n0 = math.floor(cell_diameter(A, sigma) * sigma / smallest_singular_value(A)) + 1
        yield A, rng.uniform(1.0, 6.0), n0 + rng.randrange(10)


def test_tail_bound_mp_matches_float():
    # The float exponent t*(D - r) carries a few ulps of rounding, so the
    # relative error grows with t*r; these cases keep t*r below about 40.
    for A, t, N in _decaying_tail_cases(random.Random(8), 60):
        assert smallest_singular_value(A) * N / math.sqrt(3.0) > cell_diameter(A, math.sqrt(3.0))
        want = tail_bound(A, math.sqrt(3.0), t, N, 1, 2)
        with mp.workdps(40):
            got = float(tail_bound_mp(A, 3, t, N)[0])
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def test_tail_bound_mp_derivative():
    with mp.workdps(40):
        for A, t, N in _decaying_tail_cases(random.Random(9), 10):
            tail, dtail = tail_bound_mp(A, 3, t, N)
            ref = mp.diff(lambda x: tail_bound_mp(A, 3, x, N)[0], mp.mpf(t))
            assert abs(dtail - ref) <= mp.mpf(10) ** -30 * abs(ref)


def test_constructor_floats_round_exact_entries():
    rng = random.Random(10)
    for _ in range(100):
        A = _random_constructor(rng)
        with mp.workdps(40):
            exact = [float(x) for x in A.entries_mp()]
        for got, want in zip((A.a, A.b, A.c, A.d), exact):
            assert abs(got - want) <= 2 * math.ulp(want)


# The window kernel: f_truncated sums a prefix of half the sorted window and
# must still equal the exactly rounded sum of every window term, bit for bit.

def _reference_sum(A, sigma, t, N):
    return math.fsum(np.exp(-t * lattice_norms(A, sigma, N)))


def _kernel_draws(count):
    # Rotated orbit maps diag(e^u, e^-u)·shear(s)·equilateral with |s| <= 3
    # and |u| <= 1.2, t log-uniform in [0.2, 800].
    rng = np.random.default_rng(2110)
    sigmas = (1.0, math.sqrt(3.0), 2.0, math.sqrt(7.0), math.sqrt(8.0), 3.0)
    for _ in range(count):
        A = (rotation(rng.uniform(-math.pi, math.pi)) @ diagonal(rng.uniform(-1.2, 1.2))
             @ shear(rng.uniform(-3, 3)) @ equilateral_matrix())
        yield (A, sigmas[rng.integers(len(sigmas))],
               math.exp(rng.uniform(math.log(0.2), math.log(800.0))),
               int(rng.choice((1, 2, 3, 10, 25, 100, 200))))


class _RecordingMath:
    """The math module, recording the length of every list given to fsum."""

    def __init__(self):
        self.fsum_sizes = []

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, xs):
        self.fsum_sizes.append(len(xs))
        return math.fsum(xs)


def test_f_truncated_equals_full_window_fsum():
    for A, sigma, t, N in _kernel_draws(320):
        assert f_truncated(A, sigma, t, N).value == _reference_sum(A, sigma, t, N), (A, sigma, t, N)


def test_window_norms_come_in_equal_pairs():
    # v and -v have bit-identical norms, so the sorted window pairs up.
    windows = [lattice_norms(A, sigma, N) for A, sigma, _, N in _kernel_draws(320)]
    windows += [lattice_norms(identity_map(), 1.0, 7),
                lattice_norms(modular_lattice(0.3, 1.7), 2.0, 9)]
    for norms in windows:
        assert np.array_equal(norms[0::2], norms[1::2])


def test_failed_cut_check_sums_the_full_window(monkeypatch):
    # With no margin the bound on the dropped terms is about as large as the
    # largest term, so the check fails unless a wide gap follows the cut.
    from origami_entropy import lattice

    monkeypatch.setattr(lattice, "_MARGIN_BITS", 0)
    recorder = _RecordingMath()
    monkeypatch.setattr(lattice, "math", recorder)
    fallbacks = 0
    for A, sigma, t, N in _kernel_draws(60):
        recorder.fsum_sizes.clear()
        got = f_truncated(A, sigma, t, N).value
        fallbacks += recorder.fsum_sizes[-1] == lattice_norms(A, sigma, N).size
        assert got == _reference_sum(A, sigma, t, N)
    assert fallbacks > 40


@pytest.mark.parametrize("t", [700.0, 720.0, 745.0, 760.0, 800.0])
def test_subnormal_or_zero_sum_equals_full_window(monkeypatch, t):
    # The shortest norm is 1, so these sums fall below 2^-1000, into the
    # subnormal range or to 0, where the full window is summed.
    from origami_entropy import lattice

    recorder = _RecordingMath()
    monkeypatch.setattr(lattice, "math", recorder)
    A = identity_map()
    got = f_truncated(A, 1.0, t, 5).value
    assert got == _reference_sum(A, 1.0, t, 5)
    assert got < 2.0 ** -1000
    assert recorder.fsum_sizes[-1] == lattice_norms(A, 1.0, 5).size


def test_disc_equals_window_prefix():
    # Rotated orbit maps with |s| <= 3 and |u| <= 3.5, a rotation twin of
    # each, and a map with orthogonal columns, whose extreme rows end on a
    # column; r runs from below the shortest norm, through the column norms,
    # to above the largest, where the disc is the whole window.
    rng = np.random.default_rng(21)
    for N in (1, 2, 3, 25, 100, 800):
        for _ in range(1 if N == 800 else 4):
            A = (rotation(rng.uniform(-math.pi, math.pi)) @ diagonal(rng.uniform(-3.5, 3.5))
                 @ shear(rng.uniform(-3, 3)) @ equilateral_matrix())
            sigma = (1.0, math.sqrt(6.0), 3.0)[rng.integers(3)]
            R = rotation(rng.uniform(-math.pi, math.pi))
            for B in (A, R @ A, R @ diagonal(rng.uniform(-3.5, 3.5))):
                window = lattice_norms(B, sigma, N)
                picks = window[np.r_[rng.integers(window.size, size=4),
                                     rng.integers(min(window.size, 40), size=3)]]
                columns = np.hypot([B.a, B.b], [B.c, B.d]) / sigma
                for r in (0.5 * window[0], *picks, *np.nextafter(picks, 0), *columns,
                          window[-1], 2 * window[-1]):
                    want = window[:np.searchsorted(window, r, side="right")]
                    got = disc_norms(B, sigma, N, float(r))
                    assert np.array_equal(got, want) and got.dtype == want.dtype, (B, sigma, N, r)
                    assert not got.flags.writeable


def test_f_truncated_builds_no_full_window(monkeypatch):
    # At (s, u) = (0, 3) the schedule solves at N = 1600, a window of 10.2 M norms.
    from origami_entropy import lattice

    def full_window(*args):
        raise AssertionError(f"lattice_norms{args} was called")

    monkeypatch.setattr(lattice, "lattice_norms", full_window)
    A, sigma = diagonal(3.0) @ equilateral_matrix(), check_hypothesis(builtin_surface("L")).sigma
    for t in (10.0, 30.0, 60.0):  # the root is 30.08
        assert 0 < f_truncated(A, sigma, t, 1600).value < math.inf


@pytest.mark.parametrize("u", [1000.0, -1000.0])
def test_overflowing_entry_is_rejected(u):
    with pytest.raises(LatticeError, match="finite"):
        diagonal(u)


def _ring_minima(A, W):
    # out[m] = min |A(a,b)| over max(|a|,|b|) = m; v and -v have equal norms,
    # so the sides a = m and b = m cover the ring.
    out = np.full(W + 1, np.inf)
    for m in range(1, W + 1):
        k = np.arange(-m, m + 1)
        out[m] = min(np.hypot(A.a * m + A.b * k, A.c * m + A.d * k).min(),
                     np.hypot(A.a * k + A.b * m, A.c * k + A.d * m).min())
    return out


def test_window_radius_holds_every_short_vector():
    # Brute force over a window twice as wide: no vector of norm <= r lies
    # outside the radius.
    rng = np.random.default_rng(19)
    cases = [(sigma, r) for sigma in (1.0, math.sqrt(3.0), math.sqrt(7.0)) for r in (0.5, 5.0, 45.0)]
    for _ in range(3):
        A = shear(rng.uniform(-3, 3)) @ diagonal(rng.uniform(-1.5, 1.5))
        for B in (A, rotation(rng.uniform(0, 2 * math.pi)) @ A):
            radii = {c: window_radius(B, *c) for c in cases}
            ring_min = _ring_minima(B, 2 * max(radii.values()))
            for (sigma, r), R in radii.items():
                assert R >= 1
                assert (ring_min[R + 1:2 * R + 1] / sigma > r).all(), (B, sigma, r, R)


def _mp_sum_over_full_window(A, nk1, t, N, deriv):
    # The mp sums as written over the whole N-window, filtered at the cutoff.
    norms = lattice_norms_mp(A, nk1, N)
    t = mp.mpf(t)
    cutoff = (mp.mp.dps + 15) * mp.log(10) / t
    if deriv:
        return -mp.fsum(ell * mp.exp(-t * ell) for ell in norms if ell <= cutoff)
    return mp.fsum(mp.exp(-t * ell) for ell in norms if ell <= cutoff)


@pytest.mark.parametrize("family, k, N, dps", [
    ("L", None, 5, 40), ("St", 4, 25, 60), ("EW", None, 100, 40),
    ("L", None, 100, 60), ("St", 4, 5, 40), ("EW", None, 25, 60),
])
def test_mp_sums_equal_full_window(family, k, N, dps):
    # nk1 is 3, 7 and 8.  N = 5 lies below the cutoff's radius; at N = 100
    # the window is clipped.
    stratum = check_hypothesis(builtin_surface(family, k))
    nk1 = stratum.n_squares
    rng = np.random.default_rng(N + dps)
    A = diagonal(rng.uniform(-0.3, 0.3)) @ shear(rng.uniform(-0.5, 0.5)) @ equilateral_matrix()
    root = entropy_enclosure(stratum, A, 25).h_lo
    with mp.workdps(dps):
        for t in (0.8 * root, 1.2 * root):
            assert f_truncated_mp(A, nk1, t, N) == _mp_sum_over_full_window(A, nk1, t, N, False)
            assert f_truncated_mp_deriv(A, nk1, t, N) == _mp_sum_over_full_window(A, nk1, t, N, True)
