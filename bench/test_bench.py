"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``."""

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome, lattice, oracle, solver, surface  # noqa: E402

L = surface.check_hypothesis(surface.builtin_surface("L"))
EQ = lattice.equilateral_matrix()
MODULES = {name: getattr(workloads, name) for name in
           ("lattice", "solver", "orbit", "oracle", "checks", "cli", "surface")}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_on_the_seed_only(name):
    assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
    assert workloads.make_ops(name, 7) != workloads.make_ops(name, 8)


def test_equilateral_point_is_the_package_map():
    assert workloads.orbit_entries(0.0, 0.0) == (EQ.a, EQ.b, EQ.c, EQ.d)


def _tight_enclosure(ref):
    x = float(mp.mpf(ref[0]))
    return math.nextafter(x, -math.inf), math.nextafter(x, math.inf)


def test_enclosure_shifted_by_1e12_is_a_miss():
    wl = workloads.Workload("enclose", 0)
    pinned = workloads.load_pinned("enclose", 0)
    lo, hi = _tight_enclosure((pinned["0"]["lo"], pinned["0"]["hi"]))
    outcomes = [Outcome(0, 1.0, enclosure=(lo, hi)),
                Outcome(0, 1.0, enclosure=(lo + 1e-12, hi + 1e-12))]
    distances = wl.settle(outcomes, pinned)
    assert distances[0] == 0 and distances[1] > 0
    assert run.miss_share(distances)[0] == 0.5
    assert all(o.failure is None for o in outcomes)  # a miss, not a failure
    far = [Outcome(0, 1.0, enclosure=(lo + 1e-11, hi + 1e-11))]
    wl.settle(far, pinned)
    assert far[0].failure is not None


def _sweep(window=3):
    X = surface.builtin_surface("L")
    records = oracle.enumerate_singular_connections(X, window, EQ)
    formula = {t: L.n_squares * lattice.f_truncated(EQ, L.sigma, t, window).value
               for t in workloads.SWEEP_TS}
    return records, formula


def test_planted_oracle_mismatch_is_a_failure():
    records, formula = _sweep()
    assert workloads.check_sweep(records, formula, L.k, L.n, 3) is None
    planted = {t: v * (1 + 1e-9) for t, v in formula.items()}
    assert "traced sum" in workloads.check_sweep(records, planted, L.k, L.n, 3)
    assert "multiplicities" in workloads.check_sweep(records[1:], formula, L.k, L.n, 3)
    wl = workloads.Workload("crosscheck", 0)
    assert wl.ops[0].kind == "sweep"
    assert wl.check(0, 0.1, [("L", records, planted)]).failure


def test_verify_output_that_differs_is_a_failure():
    wl = workloads.Workload("crosscheck", 0)
    i = next(i for i, op in enumerate(wl.ops) if op.kind == "verify")
    text = "".join(f"PASS check {n}: fine\n" for n in range(6))
    assert wl.check(i, 1.0, (0, text)).failure is None
    assert wl.check(i, 1.0, (0, text.replace("fine", "FINE", 1))).failure
    assert wl.check(i, 1.0, (3, text)).failure


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 40, 1000])
def test_tail_rank_rule(n):
    xs = [((7 * i) % n) / n for i in range(n)]  # a permutation of 0, 1/n, ...
    value, pct, beyond = run.tail(xs)
    above = sum(x > value for x in xs)
    if n > run.TAIL_BEYOND:
        assert beyond == above == run.TAIL_BEYOND
        assert pct == pytest.approx(100 * (n - run.TAIL_BEYOND) / n)
    else:
        assert value == min(xs) and beyond == above == n - 1


def _traced_enclosure(monkeypatch=None, missing=()):
    for mod, attr in missing:
        monkeypatch.delattr(MODULES[mod], attr)
    tr = tracer.Tracer(MODULES)
    tr.install()
    try:
        if not missing:
            tr.op(lambda: solver.entropy_enclosure(L, EQ, 10))
    finally:
        tr.remove()
    return tr.metrics(1.0, 0.0)


def test_trace_counts_repeat_exactly():
    first, absent = _traced_enclosure()
    second, _ = _traced_enclosure()
    assert not absent
    for name in ("solver.evals", "lattice.terms", "lattice.f_calls", "oracle.rays",
                 "solver.schedule_attempts"):
        assert first[name] == second[name]
    assert first["lattice.terms"][0] == first["solver.evals"][0] * (21 ** 2 - 1)


def test_trace_reports_a_missing_name_as_absent(monkeypatch):
    values, absent = _traced_enclosure(monkeypatch, missing=[("solver", "f_truncated"),
                                                              ("oracle", "trace_ray")])
    assert {"lattice.f_calls", "lattice.terms", "oracle.rays", "oracle.rays_per_s"} <= set(absent)
    assert "solver.evals" in values and not set(absent) & set(values)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    values, _ = tracer.Tracer({"lattice": None}).metrics(1.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in values.items()]


def test_pinned_references_cover_every_enclosure_and_recompute():
    pinned = json.loads(reference.pinned_path(0).read_text())["references"]
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, 0)
        wanted = {str(i) for i, op in enumerate(ops) if op.kind in workloads.ENCLOSING}
        assert set(pinned[name]) == wanted
    op = workloads.make_ops("crosscheck", 0)[2]
    assert workloads.reference_record(op) == pinned["crosscheck"]["2"]


def test_reference_contains_the_extended_enclosure():
    # The package's own dps-40 path lands inside the independent reference.
    rec = workloads.reference_record(Op("extended", "L"))
    h_lo, h_hi = solver.entropy_enclosure_extended(L, EQ, 100, dps=40)
    with mp.workdps(45):
        assert mp.mpf(rec["lo"]) <= h_lo <= h_hi <= mp.mpf(rec["hi"])
        assert mp.mpf(rec["hi"]) - mp.mpf(rec["lo"]) < mp.mpf("1e-20")
