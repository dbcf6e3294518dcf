import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from origami_entropy import solver
from origami_entropy.lattice import (
    UnimodularMap,
    cell_diameter,
    diagonal,
    equilateral_matrix,
    f_truncated,
    f_truncated_mp,
    rotation,
    shear,
    smallest_singular_value,
)
from origami_entropy.orbit import OrbitPoint, orbit_matrix
from origami_entropy.solver import (
    EnclosureWidthError,
    SolverError,
    entropy,
    entropy_enclosure,
    entropy_enclosure_extended,
)
from origami_entropy.surface import builtin_surface, check_hypothesis

# Stated 29-decimal constant for the equilateral entropy, of unknown source.
# It agrees with the computed root (REF_EXTENDED) to 17 significant digits.
REF_29 = "4.34934504614150290303138902137"
# Value frozen from two independent extended-precision computations of the
# same root (direct matrix entries at 50 digits, and the quadratic-form
# rewrite |A(a,b)|^2 = (2/sqrt(3)) (a^2+ab+b^2) at 60 digits).  It agrees
# with REF_29 to 17 significant digits and then departs.
REF_EXTENDED = "4.3493450461415028820995055097758795387"

L_STRATUM = check_hypothesis(builtin_surface("L"))


def test_solve_exponential():
    lo, hi, evals = solver._bracket(lambda t: math.exp(-t), 0.5, 1.0, 1.0, 1e-13)
    assert lo <= math.log(2.0) <= hi and hi - lo <= 1e-13
    assert evals > 0


def test_solve_two_term_sum():
    def g(t):
        return 4 * math.exp(-t) + 4 * math.exp(-math.sqrt(2) * t)

    lo, hi, _ = solver._bracket(g, 1.0, 4.0, 4.0, 1e-13)
    assert 1.0 < lo <= hi < 2.0 and hi - lo <= 1e-13
    assert g(lo) >= 1.0 > g(hi)


def test_solve_reference_root():
    A = equilateral_matrix()

    def g(t):
        return f_truncated(A, math.sqrt(3.0), t, 100).value

    lo, hi, _ = solver._bracket(g, 0.5, 4.0 * math.sqrt(3.0), 4.0 * math.sqrt(3.0), 1e-13)
    assert 0.5 * (lo + hi) == pytest.approx(float(mp.mpf(REF_29)), abs=5e-13)


def test_solve_guards():
    with pytest.raises(SolverError, match="does not decay"):
        solver._bracket(lambda t: 2.0, 0.5, 1.0, 1.0, 1e-13)  # never decays


def test_enclosure_reference():
    enc = entropy_enclosure(L_STRATUM, equilateral_matrix(), 100)
    assert enc.h_lo <= enc.h_hi
    ref = float(mp.mpf(REF_29))
    assert enc.h_lo == pytest.approx(ref, abs=2e-12)
    # bounds share at least 12 significant digits
    assert abs(enc.h_hi - enc.h_lo) <= 1e-11 * ref


def test_enclosure_root_residual():
    enc = entropy_enclosure(L_STRATUM, equilateral_matrix(), 100)
    resid = abs(f_truncated(equilateral_matrix(), math.sqrt(3.0), enc.h_lo, 100).value - 0.5)
    assert resid <= 2.0 * enc.root_tol  # |f'| < 2 near the root


def test_enclosure_nesting():
    A = equilateral_matrix()
    e5 = entropy_enclosure(L_STRATUM, A, 5)
    e10 = entropy_enclosure(L_STRATUM, A, 10)
    slack = 2 * e5.root_tol
    assert e5.h_lo - slack <= e10.h_lo and e10.h_hi <= e5.h_hi + slack
    assert e10.width < e5.width


def test_enclosure_rotation_invariance():
    A = equilateral_matrix()
    e1 = entropy_enclosure(L_STRATUM, A, 50)
    e2 = entropy_enclosure(L_STRATUM, rotation(0.7) @ A, 50)
    assert e2.h_lo == pytest.approx(e1.h_lo, abs=1e-12)
    assert e2.h_hi == pytest.approx(e1.h_hi, abs=1e-12)


def test_entropy_width_goal():
    enc = entropy(L_STRATUM, equilateral_matrix(), 1e-10)
    assert enc.width <= 1e-10
    assert enc.N <= 100


def test_entropy_stretched_above_equilateral():
    A = equilateral_matrix()
    stretched = entropy(L_STRATUM, diagonal(0.1) @ A, 1e-10)
    base = entropy(L_STRATUM, A, 1e-10)
    assert stretched.h_lo > base.h_hi


def test_entropy_any_width_returns_first_cutoff():
    enc = entropy(L_STRATUM, equilateral_matrix(), math.inf)
    assert enc.N == 25


def test_entropy_width_goal_guard():
    with pytest.raises(SolverError):
        entropy(L_STRATUM, equilateral_matrix(), 0.0)


def test_entropy_recovers_from_small_cutoffs():
    # strongly sheared maps have a tail bound that grows in t at small N;
    # the schedule must start at a cutoff where it decays
    A = shear(2.9) @ diagonal(-0.95)
    enc = entropy(L_STRATUM, A, 1e-6)
    assert enc.width <= 1e-6


def _first_decaying_cutoff(A, sigma):
    # The first schedule value with r = d(A)*N/sigma > D(A).
    N = 25
    while not smallest_singular_value(A) * N / sigma > cell_diameter(A, sigma):
        N *= 2
    return N


def test_entropy_starts_at_first_decaying_cutoff(monkeypatch):
    calls = []

    def recording(stratum, A, N, *args):
        try:
            enc = entropy_enclosure(stratum, A, N, *args)
        except SolverError:
            calls.append((N, True))
            raise
        calls.append((N, False))
        return enc

    monkeypatch.setattr(solver, "entropy_enclosure", recording)
    rng = np.random.default_rng(4)
    maps = [shear(2.9) @ diagonal(-0.95)] + [
        orbit_matrix(OrbitPoint(rng.uniform(-3, 3), rng.uniform(-1, 1), equilateral_matrix()))
        for _ in range(20)]
    for A in maps:
        calls.clear()
        enc = entropy(L_STRATUM, A, 1e-6)
        assert [raised for _, raised in calls] == [False] * len(calls), (A, calls)
        assert calls[0][0] == _first_decaying_cutoff(A, L_STRATUM.sigma), (A, calls)
        assert enc.width <= 1e-6


def test_bracket_stops_once_tail_rises(monkeypatch):
    # r = d(A)*N/sigma < D(A): the tail bound, and with it sum + tail, rises
    # for every t past its minimum, so doubling stops at the first rise.
    calls = []

    def counting(*args):
        calls.append(args)
        return f_truncated(*args)

    monkeypatch.setattr(solver, "f_truncated", counting)
    A = diagonal(2.5) @ equilateral_matrix()
    assert smallest_singular_value(A) * 100 / L_STRATUM.sigma < cell_diameter(A, L_STRATUM.sigma)
    with pytest.raises(SolverError):
        entropy_enclosure(L_STRATUM, A, 100)
    assert len(calls) <= 60


@pytest.mark.parametrize("A,width", [
    (diagonal(20), 1e-10),  # d(A) N / sigma stays below D(A) up to the cap
    (diagonal(460), 1e-10),  # the entries reach 1e199
    (equilateral_matrix(), math.nan),
], ids=["diag20", "diag460", "nan-width"])
def test_entropy_fails_before_any_enclosure(monkeypatch, A, width):
    calls = []
    monkeypatch.setattr(solver, "entropy_enclosure", lambda *args: calls.append(args))
    with pytest.raises(SolverError):
        entropy(L_STRATUM, A, width)
    assert calls == []


@pytest.mark.parametrize("root_tol", [math.nan, math.inf, 0.0, -1.0])
def test_bad_root_tol_fails_before_any_evaluation(monkeypatch, root_tol):
    calls = []
    monkeypatch.setattr(solver, "f_truncated", lambda *args: calls.append(args))
    with pytest.raises(SolverError, match="root_tol"):
        entropy(L_STRATUM, equilateral_matrix(), 1e-6, root_tol=root_tol)
    with pytest.raises(SolverError, match="root_tol"):
        entropy_enclosure(L_STRATUM, equilateral_matrix(), 25, root_tol=root_tol)
    assert calls == []


def test_extended_upper_root_at_small_cutoff():
    # At N=5 the tail is large, so the Newton step needs its t-derivative;
    # the reference root uses d(A) from an SVD and findroot's secant steps.
    A = equilateral_matrix()
    _, h_hi = entropy_enclosure_extended(L_STRATUM, A, 5, dps=40)
    with mp.workdps(40):
        ea, eb, ec, ed = A.entries_mp()
        sigma = mp.sqrt(3)
        r = min(mp.svd_r(mp.matrix([[ea, eb], [ec, ed]]), compute_uv=False)) * 5 / sigma
        big_d = max(mp.hypot(ea + eb, ec + ed), mp.hypot(ea - eb, ec - ed)) / sigma

        def g(t):
            tail = 6 * mp.pi * mp.exp(t * (big_d - r)) * (t * r + 1) / t**2
            return f_truncated_mp(A, 3, t, 5) + tail - mp.mpf(1) / 2

        root = mp.findroot(g, mp.mpf(entropy_enclosure(L_STRATUM, A, 5).h_hi))
    with mp.workdps(45):
        assert abs(h_hi - root) < mp.mpf("1e-38"), (h_hi, root)


# The floats of a rotation by 0.0137 rad: the characteristic-polynomial
# d(A) took the square root of a negative number on them at 40 digits.
NEAR_SQUARE = UnimodularMap(0.9999061564678048, -0.01369957144518846,
                            0.01369957144518846, 0.9999061564678048)


def test_extended_near_square_is_real_and_inside_double():
    enc = entropy_enclosure(L_STRATUM, NEAR_SQUARE, 25)
    h_lo, h_hi = entropy_enclosure_extended(L_STRATUM, NEAR_SQUARE, 25, dps=40)
    assert isinstance(h_lo, mp.mpf) and isinstance(h_hi, mp.mpf)
    assert enc.h_lo <= h_lo <= h_hi <= enc.h_hi


def test_ew_targets_one():
    stratum = check_hypothesis(builtin_surface("EW"))
    assert stratum.k == 1
    enc = entropy_enclosure(stratum, equilateral_matrix(), 60)
    val = f_truncated(equilateral_matrix(), stratum.sigma, enc.h_lo, 60).value
    assert val == pytest.approx(1.0, abs=1e-11)


def test_solver_level_minimality():
    rng = np.random.default_rng(0)
    ref = entropy_enclosure(L_STRATUM, equilateral_matrix(), 100)
    for _ in range(10):
        A = shear(rng.uniform(-3, 3)) @ diagonal(rng.uniform(-1, 1))
        enc = entropy(L_STRATUM, A, 1e-6)
        assert enc.h_lo > ref.h_hi


def test_extended_enclosure():
    A = equilateral_matrix()
    h_lo, h_hi = entropy_enclosure_extended(L_STRATUM, A, 100, dps=40)
    with mp.workdps(45):
        ref = mp.mpf(REF_EXTENDED)
        assert abs(h_lo - ref) < mp.mpf("1e-34")
        assert abs(h_hi - ref) < mp.mpf("1e-34")


def test_extended_requires_30_digits():
    with pytest.raises(SolverError):
        entropy_enclosure_extended(L_STRATUM, equilateral_matrix(), 50, dps=20)


def _containment_cases():
    rng = np.random.default_rng(5)
    for family, k in (("L", None), ("EW", None), ("O", 3), ("St", 4), ("G", 5)):
        for s, u in ((0.0, 0.0), (rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))):
            yield pytest.param(family, k, s, u, id=f"{family}{k or ''}-{s:+.3f}-{u:+.3f}")


@pytest.mark.parametrize("family,k,s,u", list(_containment_cases()))
def test_enclosure_contains_extended_roots(family, k, s, u):
    # The float entries rebuilt without exact ones, so that both solves see
    # the same lattice.  The double bounds are one-sided bracket ends, so
    # they must contain the dps-40 roots of both equations.
    stratum = check_hypothesis(builtin_surface(family, k))
    A = orbit_matrix(OrbitPoint(s, u, equilateral_matrix()))
    B = UnimodularMap(A.a, A.b, A.c, A.d)
    enc = entropy_enclosure(stratum, B, 25)
    ext_lo, ext_hi = entropy_enclosure_extended(stratum, B, 25, dps=40)
    assert enc.h_lo <= ext_lo <= ext_hi <= enc.h_hi, (enc, ext_lo, ext_hi)


def test_extended_pair_is_ordered():
    # The tail is far below 40 digits here, so both polishes must agree.
    # Started from the two ends of the double bracket, they ended 9e-41
    # apart in the wrong order.
    A = orbit_matrix(OrbitPoint(0.45519606210079544, 0.07818997124695487, equilateral_matrix()))
    h_lo, h_hi = entropy_enclosure_extended(L_STRATUM, A, 100, dps=40)
    assert h_lo <= h_hi


class _CallCap:
    """Stands in for solver.entropy_enclosure and records (N, width) per call.

    It fails the test on a call past the stop rule (one after a width no
    narrower than the one before) or past ``limit`` calls, so a schedule that keeps solving up to
    the cap fails in under a second instead of running to N = 3200.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.calls: list[tuple[int, float]] = []

    def __call__(self, stratum, A, N, *args):
        widths = [w for _, w in self.calls]
        assert len(self.calls) < self.limit, f"more than {self.limit} calls: {self.calls}"
        assert len(widths) < 2 or widths[-1] < widths[-2], \
            f"called at N={N} after the width stopped narrowing: {self.calls}"
        enc = entropy_enclosure(stratum, A, N, *args)
        self.calls.append((N, enc.width))
        return enc


def test_entropy_below_root_tol_floor_stops_after_two_cutoffs(monkeypatch):
    cap = _CallCap(limit=2)
    monkeypatch.setattr(solver, "entropy_enclosure", cap)
    with pytest.raises(EnclosureWidthError) as exc:
        entropy(L_STRATUM, equilateral_matrix(), 1e-14)
    assert [N for N, _ in cap.calls] == [25, 50]
    assert exc.value.best == entropy_enclosure(L_STRATUM, equilateral_matrix(), 25)


def _stop_maps():
    # |s| <= 1.5, |u| <= 0.5 keeps every cutoff at or below 200; the sheared
    # map starts at 100 and stops at 400.
    rng = np.random.default_rng(4)
    return [shear(2.9) @ diagonal(-0.95)] + [
        orbit_matrix(OrbitPoint(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5), equilateral_matrix()))
        for _ in range(10)]


def test_entropy_stops_one_cutoff_after_the_width_stops_shrinking(monkeypatch):
    for A in _stop_maps():
        cap = _CallCap(limit=6)
        monkeypatch.setattr(solver, "entropy_enclosure", cap)
        with pytest.raises(EnclosureWidthError) as exc:
            entropy(L_STRATUM, A, 1e-14)
        Ns, widths = zip(*cap.calls)
        assert Ns[0] == _first_decaying_cutoff(A, L_STRATUM.sigma), (A, cap.calls)
        assert list(Ns) == [Ns[0] * 2**i for i in range(len(Ns))], (A, cap.calls)
        assert all(a > b for a, b in zip(widths[:-2], widths[1:-1])), (A, cap.calls)
        assert widths[-1] == widths[-2], (A, cap.calls)
        assert (exc.value.best.N, exc.value.best.width) == (Ns[-2], widths[-2])


def test_entropy_at_cutoff_cap_carries_last_enclosure(monkeypatch):
    # The width still shrinks at N = 50 (7.2e-5 -> 9.8e-14), so the cap stops it.
    A = shear(2.0) @ equilateral_matrix()
    cap = _CallCap(limit=2)
    monkeypatch.setattr(solver, "entropy_enclosure", cap)
    monkeypatch.setattr(solver, "_N_CAP", 50)
    with pytest.raises(EnclosureWidthError, match="cap 50") as exc:
        entropy(L_STRATUM, A, 1e-14)
    assert cap.calls[0][1] > cap.calls[1][1]
    assert exc.value.best == entropy_enclosure(L_STRATUM, A, 50)


def _two_loop_schedule(stratum, A, width_goal):
    # The schedule before the stop rule: find the first decaying cutoff,
    # then solve every cutoff up to the cap.
    N = _first_decaying_cutoff(A, stratum.sigma)
    while N <= 3200:
        enc = solver.entropy_enclosure(stratum, A, N)
        if enc.width <= width_goal:
            return enc
        N *= 2
    raise EnclosureWidthError("cap", enc)


def test_entropy_equals_two_loop_schedule(monkeypatch):
    # Both schedules read one memo, so each (map, cutoff) is solved once.
    solved = {}

    def memo(stratum, A, N, *args):
        if (A, N) not in solved:
            solved[A, N] = entropy_enclosure(stratum, A, N, *args)
        return solved[A, N]

    monkeypatch.setattr(solver, "entropy_enclosure", memo)
    rng = np.random.default_rng(8)
    for _ in range(30):
        A = orbit_matrix(OrbitPoint(rng.uniform(-3, 3), rng.uniform(-1, 1), equilateral_matrix()))
        for goal in (1e-6, 1e-10):
            assert entropy(L_STRATUM, A, goal) == _two_loop_schedule(L_STRATUM, A, goal), (A, goal)


@pytest.mark.parametrize("s, u, h_lo, h_hi, N, evaluations", [
    (3.0, 1.5, "0x1.5fcfe336e87e2p+2", "0x1.5fcfe336e8851p+2", 800, 48),
    (0.0, 3.0, "0x1.e1547dd790f2ap+4", "0x1.e1547dd790f46p+4", 1600, 53),
])
def test_deep_point_runs_in_bounded_memory(s, u, h_lo, h_hi, N, evaluations):
    # The square windows of these cutoffs hold 2.6 M and 10.2 M norms.
    A = orbit_matrix(OrbitPoint(s, u, equilateral_matrix()))
    tracemalloc.start()
    try:
        enc = entropy(L_STRATUM, A, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (enc.h_lo, enc.h_hi, enc.N, enc.evaluations) == (
        float.fromhex(h_lo), float.fromhex(h_hi), N, evaluations)
    assert peak < 8e6


def _enclosure_below_cap(A):
    # None where no cutoff up to the cap has a decaying tail.
    try:
        return entropy(L_STRATUM, A, 1e-10)
    except SolverError as exc:
        if "decays only above cutoff" not in str(exc):
            raise
        return None


def _sl2z(rng):
    while True:
        a, b, c, d = (int(x) for x in rng.integers(-5, 6, size=4))
        if a * d - b * c == 1:
            return UnimodularMap(float(a), float(b), float(c), float(d))


def test_enclosures_respect_the_exact_roots_symmetries():
    # A*gamma spans the lattice of A for gamma in SL(2, Z), and the mirror
    # (-s, u) spans the mirror image of the lattice at (s, u): each pair has
    # one exact root, so their enclosures must intersect.
    rng = np.random.default_rng(2026)
    compared = 0
    for i in range(20):
        s, u = rng.uniform(-3, 3), rng.uniform(-1, 1) if i < 10 else rng.uniform(-3, 3)
        A = orbit_matrix(OrbitPoint(s, u, equilateral_matrix()))
        twins = [A @ _sl2z(rng) for _ in range(5)]
        twins.append(orbit_matrix(OrbitPoint(-s, u, equilateral_matrix())))
        enc = _enclosure_below_cap(A)
        for B in twins:
            other = _enclosure_below_cap(B)
            if enc is None or other is None:
                continue
            compared += 1
            assert max(enc.h_lo, other.h_lo) <= min(enc.h_hi, other.h_hi), (s, u, B)
    assert compared >= 100
