"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload enclose --seed 0 --seconds 35 --trace 0

A single client runs the workload's operations back to back (a closed loop)
for ``--seconds`` seconds, checks every output, and prints a report followed
by one JSON line.  With ``--trace 0`` the JSON carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a fixed list of
operations, run once untraced and once traced.  See bench/NOTES.md.
"""

from __future__ import annotations

import os

# Pin the numerical libraries to one thread before numpy is imported, so the
# numbers measure the program and not the scheduler.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_PROBES = 5
# Operations of the traced run: the first ones of each workload's list, a
# fixed plan so that counts repeat exactly.
TRACE_OPS = {"enclose": 10, "orbit": 9, "crosscheck": 10}
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("enclose", "orbit", "crosscheck"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it: (value, percentile, samples beyond).  Below TAIL_BEYOND + 1
    samples no percentile qualifies and the minimum is returned."""
    xs = sorted(latencies)
    rank = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[rank], 100.0 * (rank + 1) / len(xs), len(xs) - rank - 1


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, **{v: os.environ[v] for v in THREAD_VARS}}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first operation is
    ready: imports, surfaces built and checked, inputs generated."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, "--probe", "--workload", workload,
                           "--seed", str(seed)], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_pass(wl, indices, stop_after=None, twin=False, wrap=None, block=1):
    """Run operations until the list is done or, at the end of a block of
    ``block`` operations, ``stop_after`` seconds are nearer than half a block
    away; returns the outcomes, each with its latency."""
    import workloads

    outcomes = []
    start = time.perf_counter()
    for n, i in enumerate(indices, start=1):
        t0 = t1 = time.perf_counter()
        try:
            result = wl.run(i, twin) if wrap is None else wrap(lambda: wl.run(i, twin))
            t1 = time.perf_counter()
            outcomes.append(wl.check(i, t1 - t0, result))
            del result
        except Exception as exc:  # an operation that raises or returns garbage failed
            t1 = time.perf_counter() if t1 == t0 else t1
            outcomes.append(workloads.Outcome(i, t1 - t0, f"{type(exc).__name__}: {exc}"))
        elapsed = t1 - start
        if stop_after is not None and n % block == 0 and elapsed * (1 + 0.5 * block / n) >= stop_after:
            break
    return outcomes


def report(args, env, lines, metrics, outcomes) -> None:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    failed = [o for o in outcomes if o.failure]
    for o in failed[:5]:
        print(f"failed op {o.index}: {o.failure}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def miss_share(distances: list[float]) -> tuple[float, str]:
    misses = sum(d > 0 for d in distances)
    share = misses / len(distances) if distances else 0.0
    worst = max(distances, default=0.0)
    return share, f"({misses}/{len(distances)} enclosures miss their reference; worst by {worst:.3g})"


def run_untraced(args, wl, pinned):
    import workloads

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    outcomes = run_pass(wl, itertools.cycle(range(len(wl.ops))), stop_after=args.seconds,
                        block=workloads.BLOCK[args.workload])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    share, miss_note = miss_share(wl.settle(outcomes, pinned))
    lat = [o.latency for o in outcomes]
    tail_s, pct, beyond = tail(lat)
    n_failed = sum(1 for o in outcomes if o.failure)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6g} s (median of {SETUP_PROBES} fresh interpreters)",
        f"op_p50_s {metrics['op_p50_s'][0]:.6g} s",
        f"op_tail_s {tail_s:.6g} s (p{pct:.0f}: {len(lat)} samples, {beyond} beyond)",
        f"ops_per_s {metrics['ops_per_s'][0]:.6g} 1/s ({len(lat)} ops in {sum(lat):.4g} s busy)",
        f"fail_share {n_failed / len(lat):.6g} ratio ({n_failed}/{len(lat)})",
        f"miss_share {share:.6g} ratio {miss_note}",
        f"peak_rss_mb {peak_mb:.6g} MB",
    ]
    return metrics, lines, outcomes


def run_traced(args, wl, pinned):
    import tracer
    import workloads

    modules = {name: getattr(workloads, name) for name in
               ("lattice", "solver", "orbit", "oracle", "checks", "cli", "surface")}
    tr = tracer.Tracer(modules)
    tr.install()
    try:
        for name in workloads.NAMES:
            workloads.surface.check_hypothesis(workloads.surface.builtin_surface(*workloads.SURFACES[name]))
    finally:
        tr.remove()
    # Each operation runs untraced on its cache-cold twin, then traced; the
    # pairs keep drifts of the machine out of the tracing overhead.
    baseline, traced = [], []
    for i in range(min(TRACE_OPS[args.workload], len(wl.ops))):
        baseline += run_pass(wl, [i], twin=True)
        tr.install()
        try:
            traced += run_pass(wl, [i], wrap=tr.op)
        finally:
            tr.remove()
    wl.settle(baseline, pinned)
    share, miss_note = miss_share(wl.settle(traced, pinned))
    metrics, absent = tr.metrics(sum(o.latency for o in baseline), share)
    lines = [f"{k} {v!r} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"miss_share {share:.6g} ratio {miss_note}")
    lines.append("absent: " + (", ".join(absent) if absent else "none"))
    return metrics, lines, baseline + traced


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package from source: {exc}", file=sys.stderr)
        return 2
    if args.probe:
        workloads.Workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    env = environment()
    wl = workloads.Workload(args.workload, args.seed)
    pinned = workloads.load_pinned(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, lines, outcomes = run(args, wl, pinned)
    report(args, env, lines, metrics, outcomes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
