"""Outside-in tracing of the package's layers.

The tracer replaces, in this process only, the names each module looks up to
call into the layer below (``solver.f_truncated``, ``orbit.entropy``,
``oracle.trace_ray``, ...) with wrappers that record a span: name, parent,
start and end.  No file of the package changes.  A name that no longer
exists is skipped, and every metric built on it is reported as absent.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from statistics import median

SURFACE = "surface.build"
CHECKS = ("multiplicities", "oracle_agreement", "series_identity", "theta_monotonicity",
          "triangular_minimum", "tail_bound_soundness")
MP_SUMS = ("lattice.f_truncated_mp", "lattice.f_truncated_mp_deriv", "lattice.tail_bound_mp")

# (module, attribute its callers look up, span name)
TARGETS = (
    ("solver", "f_truncated", "lattice.f_truncated"),
    ("orbit", "f_truncated", "lattice.f_truncated"),
    ("checks", "f_truncated", "lattice.f_truncated"),
    ("lattice", "f_truncated", "lattice.f_truncated"),  # oracle imports it at call time
    ("lattice", "lattice_norms", "lattice.lattice_norms"),
    ("checks", "theta_sum", "lattice.theta_sum"),
    ("lattice", "lattice_norms_mp", "lattice.lattice_norms_mp"),
    ("solver", "f_truncated_mp", MP_SUMS[0]),
    ("solver", "f_truncated_mp_deriv", MP_SUMS[1]),
    ("solver", "tail_bound_mp", MP_SUMS[2]),
    ("solver", "entropy_enclosure", "solver.entropy_enclosure"),
    ("solver", "entropy", "solver.entropy"),
    ("orbit", "entropy", "solver.entropy"),
    ("solver", "entropy_enclosure_extended", "solver.entropy_enclosure_extended"),
    ("orbit", "minimize", "orbit.minimize"),
    ("oracle", "trace_ray", "oracle.trace_ray"),
    ("oracle", "enumerate_singular_connections", "oracle.enumerate_singular_connections"),
    ("oracle", "count_paths", "oracle.count_paths"),
    *(("checks", "check_" + c, "checks." + c) for c in CHECKS),
    ("checks", "run_all", "checks.run_all"),
    ("cli", "main", "cli.main"),
    ("surface", "builtin_surface", SURFACE),
    ("surface", "check_hypothesis", SURFACE),
    ("checks", "builtin_surface", SURFACE),
    ("checks", "check_hypothesis", SURFACE),
    ("oracle", "check_hypothesis", SURFACE),
    ("cli", "builtin_surface", SURFACE),
    ("cli", "check_hypothesis", SURFACE),
)

OP = "bench.op"
_NAME, _PARENT, _T0, _T1, _T2, _EXTRA, _RAISED = range(7)
_USEFUL_LOG = math.log(1e17)  # a term counts as useful above 1e-17 x the largest


class Tracer:
    """Spans of wrapped calls, kept in memory until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._norms = getattr(modules["lattice"], "lattice_norms", None)

    def install(self) -> None:
        extras = {"lattice.f_truncated": self._f_extra,
                  "solver.entropy_enclosure": lambda a, kw, r: (r.evaluations, r.N),
                  "solver.entropy": lambda a, kw, r: r.N}
        for mod_name, attr, name in TARGETS:
            module = self.modules[mod_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.add(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, extras.get(name)))

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _f_extra(self, args, kwargs, result):
        # (terms summed, terms above 1e-17 x the largest) for f_truncated(A, sigma, t, N).
        A, sigma, t, N = (list(args) + [kwargs.get(k) for k in ("A", "sigma", "t", "N")[len(args):]])
        if self._norms is None:  # useful_terms_share is then absent
            return (2 * N + 1) ** 2 - 1, 0
        norms = self._norms(A, sigma, N)
        return (2 * N + 1) ** 2 - 1, int((norms < norms.min() + _USEFUL_LOG / t).sum())

    def _wrap(self, name: str, fn, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[_T0] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[_T1] = rec[_T2] = clock()
                rec[_RAISED] = True
                stack.pop()
                raise
            rec[_T1] = clock()
            stack.pop()
            if extra is not None:
                try:
                    rec[_EXTRA] = extra(args, kwargs, result)
                except Exception:  # a changed signature makes the extra absent
                    rec[_EXTRA] = None
            # The parent is charged up to _T2, so bookkeeping is not its self time.
            rec[_T2] = clock()
            return result

        return wrapper

    def op(self, fn):
        """Run ``fn()`` as one benchmark operation span."""
        return self._wrap(OP, fn, None)()

    def metrics(self, untraced_s: float, miss_share: float) -> tuple[dict, list[str]]:
        """Per-layer metrics as {name: (value, unit)}, and the names absent
        because a wrapped name is gone or a span lacks its extra data."""
        spans = self.spans
        children: list[list[int]] = [[] for _ in spans]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, rec in enumerate(spans):
            by_name[rec[_NAME]].append(i)
            if rec[_PARENT] >= 0:
                children[rec[_PARENT]].append(i)

        def dur(i):
            return spans[i][_T1] - spans[i][_T0]

        def self_s(i):
            return dur(i) - sum(spans[c][_T2] - spans[c][_T0] for c in children[i])

        def total(name, f=dur):
            return sum(f(i) for i in by_name[name])

        def count(name):
            return len(by_name[name])

        def ratio(a, b):
            return a / b if b else 0.0

        def extras(name):
            vals = [spans[i][_EXTRA] for i in by_name[name] if not spans[i][_RAISED]]
            if any(v is None for v in vals):
                raise LookupError(name)
            return vals

        def under(name, parent):
            parents = set(by_name[parent])
            return [i for i in by_name[name] if spans[i][_PARENT] in parents]

        def f_stats():
            vals = extras("lattice.f_truncated")
            return sum(v[0] for v in vals), sum(v[1] for v in vals)

        def encl():
            return extras("solver.entropy_enclosure")

        def final_n():
            return extras("solver.entropy") or [0]

        def attempts():
            return under("solver.entropy_enclosure", "solver.entropy")

        def polish():
            return sum(dur(i) - sum(dur(c) for c in children[i]
                                    if spans[c][_NAME] == "solver.entropy_enclosure")
                       for i in by_name["solver.entropy_enclosure_extended"])

        op_s = total(OP)
        F, E, X = "lattice.f_truncated", "solver.entropy_enclosure", "solver.entropy_enclosure_extended"
        S, M, R = "solver.entropy", "orbit.minimize", "oracle.trace_ray"
        table = [
            ("lattice.f_calls", "count", (F,), lambda: count(F)),
            ("lattice.terms", "count", (F,), lambda: f_stats()[0]),
            ("lattice.f_s", "s", (F,), lambda: total(F, self_s)),
            ("lattice.ns_per_term", "ns", (F,), lambda: ratio(1e9 * total(F, self_s), f_stats()[0])),
            ("lattice.useful_terms_share", "ratio", (F, "lattice.lattice_norms"),
             lambda: ratio(f_stats()[1], f_stats()[0])),
            ("lattice.norms_s", "s", ("lattice.lattice_norms",), lambda: total("lattice.lattice_norms")),
            ("lattice.theta_s", "s", ("lattice.theta_sum",), lambda: total("lattice.theta_sum", self_s)),
            ("lattice.mp_norms_s", "s", ("lattice.lattice_norms_mp",),
             lambda: total("lattice.lattice_norms_mp")),
            ("lattice.mp_sum_s", "s", MP_SUMS, lambda: sum(total(n, self_s) for n in MP_SUMS)),
            ("lattice.mp_calls", "count", MP_SUMS, lambda: sum(count(n) for n in MP_SUMS)),
            ("solver.enclosures", "count", (E,), lambda: len(encl())),
            ("solver.evals", "count", (E,), lambda: sum(v[0] for v in encl())),
            ("solver.evals_per_enclosure", "count", (E,),
             lambda: ratio(sum(v[0] for v in encl()), len(encl()))),
            ("solver.self_s", "s", (E, S, X), lambda: sum(total(n, self_s) for n in (E, S, X))),
            ("solver.entropy_calls", "count", (S,), lambda: count(S)),
            ("solver.schedule_attempts", "count", (E, S), lambda: len(attempts())),
            ("solver.attempts_per_entropy", "count", (E, S), lambda: ratio(len(attempts()), count(S))),
            ("solver.schedule_retries", "count", (E, S),
             lambda: sum(spans[i][_RAISED] for i in attempts())),
            ("solver.final_N_p50", "count", (S,), lambda: median(final_n())),
            ("solver.final_N_max", "count", (S,), lambda: max(final_n())),
            ("solver.mp_polish_s", "s", (E, X), polish),
            ("solver.miss_share", "ratio", (), lambda: miss_share),
            ("orbit.minimize_calls", "count", (M,), lambda: count(M)),
            ("orbit.entropy_calls_per_minimize", "count", (M, S), lambda: ratio(len(under(S, M)), count(M))),
            ("orbit.minimize_s", "s", (M,), lambda: total(M)),
            ("orbit.self_s", "s", (M,), lambda: total(M, self_s)),
            ("oracle.rays", "count", (R,), lambda: count(R)),
            ("oracle.trace_s", "s", (R,), lambda: total(R)),
            ("oracle.rays_per_s", "1/s", (R,), lambda: ratio(count(R), total(R))),
            ("oracle.count_paths_s", "s", ("oracle.count_paths",), lambda: total("oracle.count_paths")),
            *((f"checks.{c}_s", "s", (f"checks.{c}",), functools.partial(total, f"checks.{c}"))
              for c in CHECKS),
            ("cli.self_s", "s", ("cli.main",), lambda: total("cli.main", self_s)),
            ("surface.build_s", "s", (SURFACE,), lambda: total(SURFACE)),
            ("trace.op_s", "s", (), lambda: op_s),
            ("trace.overhead_share", "ratio", (), lambda: ratio(op_s - untraced_s, untraced_s)),
        ]
        out, absent = {}, []
        for name, unit, deps, fn in table:
            if self.missing.intersection(deps):
                absent.append(name)
                continue
            try:
                out[name] = (fn(), unit)
            except LookupError:
                absent.append(name)
        return out, absent

