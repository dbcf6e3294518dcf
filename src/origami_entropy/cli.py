"""Command-line frontend for entropy computations on square-tiled surfaces.

Subcommands: ``info``, ``entropy``, ``scan``, ``hessian``, ``minimize``,
``verify``.  All output is deterministic for a fixed argument list and
seed; numbers render with 17 significant digits (32 in extended mode).
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import mpmath as mp
import numpy as np

from . import checks, oracle
from .lattice import UnimodularMap, equilateral_matrix, identity_map
from .orbit import DEFAULT_FD_STEP, OrbitPoint, _fd_derivatives, minimize, orbit_matrix, scan
from .solver import (DEFAULT_ROOT_TOL, SolverError, entropy, entropy_enclosure,
                     entropy_enclosure_extended)
from .surface import (
    SquareTiledSurface,
    SurfaceError,
    builtin_surface,
    build_surface,
    check_hypothesis,
    format_permutation,
    load_surface_file,
    parse_permutation,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_BUILTIN_RE = re.compile(r"^(O|ST|G)(\d+)$", re.IGNORECASE)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


class _CliError(ValueError):
    pass


def _resolve_surface(args: argparse.Namespace) -> SquareTiledSurface:
    if getattr(args, "squares", None) is not None:
        if args.h is None or args.v is None:
            raise _CliError("--squares requires --h and --v")
        h = parse_permutation(args.h, args.squares)
        v = parse_permutation(args.v, args.squares)
        return build_surface(h, v)
    name = args.surface
    if name is None:
        raise _CliError("no surface given (use --surface or --squares/--h/--v)")
    upper = name.upper()
    if upper in ("L", "EW"):
        return builtin_surface(upper)
    m = _BUILTIN_RE.match(name)
    if m:
        return builtin_surface(m.group(1), int(m.group(2)))
    return load_surface_file(name)


def _resolve_base(text: str) -> UnimodularMap:
    if text == "equilateral":
        return equilateral_matrix()
    if text == "identity":
        return identity_map()
    parts = text.split(",")
    if len(parts) != 4:
        raise _CliError(f"--base must be equilateral, identity or a,b,c,d; got {text!r}")
    try:
        a, b, c, d = (float(p) for p in parts)
    except ValueError as exc:
        raise _CliError(f"non-numeric entry in --base {text!r}") from exc
    return UnimodularMap(a, b, c, d)


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _CliError(f"range must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _CliError(f"malformed range {text!r}") from exc
    if n < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise _CliError(f"range needs finite lo <= hi and n >= 1, got {text!r}")
    return np.linspace(lo, hi, n)


def _positive_width(width: float) -> float:
    if not width > 0:  # also rejects nan
        raise _CliError(f"--width must be positive, got {width!r}")
    return width


def _tolerance(tol: float) -> float:
    if not 0 < tol < math.inf:  # also rejects nan
        raise _CliError(f"--tol must be positive and finite, got {tol!r}")
    return tol


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_body(body: dict, args: argparse.Namespace) -> None:
    """Write body as sorted JSON or as key=value lines, per ``--format``."""
    if args.format == "json":
        _emit(json.dumps(body, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("".join(f"{key}={val}\n" for key, val in body.items()), args.out)


def _orbit_map(args: argparse.Namespace) -> UnimodularMap:
    base = _resolve_base(args.base)
    return orbit_matrix(OrbitPoint(args.s, args.u, base))


def _shared_digits(h_lo, h_hi, cap: int) -> int:
    """Significant digits shared by the ends (floats or mpf), relative to the midpoint."""
    mid = 0.5 * (h_lo + h_hi)
    width = h_hi - h_lo
    if mid == 0:
        return 0
    if width <= 0:
        return cap
    return max(0, min(cap, int(math.floor(-math.log10(width / abs(mid))))))


def cmd_info(args: argparse.Namespace) -> int:
    surf = _resolve_surface(args)
    data = {
        "squares": surf.n_squares,
        "h": format_permutation(surf.h),
        "v": format_permutation(surf.v),
        "vertex_classes": [list(c) for c in surf.vertex_cycles],
        "cone_angles": [f"{2 * m}pi" for m in surf.cone_multipliers],
        "genus": surf.genus,
        "sigma": surf.sigma,
    }
    try:
        stratum = check_hypothesis(surf)
        data["k"] = stratum.k
        data["n"] = stratum.n
    except SurfaceError as exc:
        data["stratum"] = f"hypothesis fails: {exc}"
    if args.format == "json":
        _emit_body(data, args)
    else:
        lines = [
            f"squares={data['squares']}",
            f"h={data['h']}",
            f"v={data['v']}",
            "vertex_classes=" + ";".join(",".join(map(str, c)) for c in data["vertex_classes"]),
            "cone_angles=" + ",".join(data["cone_angles"]),
        ]
        if "k" in data:
            lines.append("genus=%d k=%d n=%d sigma=%s"
                         % (data["genus"], data["k"], data["n"], _fmt(data["sigma"])))
        else:
            lines.append("genus=%d sigma=%s  (%s)"
                         % (data["genus"], _fmt(data["sigma"]), data["stratum"]))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    stratum = check_hypothesis(_resolve_surface(args))
    A = _orbit_map(args)
    if args.precision == "extended":
        if args.width is not None or args.tol is not None:
            raise _CliError("--precision extended takes neither --width nor --tol")
        h_lo, h_hi = entropy_enclosure_extended(stratum, A, args.N, dps=40)
        body = {
            "h_lo": mp.nstr(h_lo, 32),
            "h_hi": mp.nstr(h_hi, 32),
            "N": args.N,
            "agree_digits": _shared_digits(h_lo, h_hi, 32),
        }
    else:
        tol = DEFAULT_ROOT_TOL if args.tol is None else _tolerance(args.tol)
        if args.width is not None:
            enc = entropy(stratum, A, _positive_width(args.width), root_tol=tol)
        else:
            enc = entropy_enclosure(stratum, A, args.N, root_tol=tol)
        body = {
            "h_lo": _fmt(enc.h_lo),
            "h_hi": _fmt(enc.h_hi),
            "N": enc.N,
            "width": _fmt(enc.width),
            "agree_digits": _shared_digits(enc.h_lo, enc.h_hi, 17),
        }
    _emit_body(body, args)
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    stratum = check_hypothesis(_resolve_surface(args))
    base = _resolve_base(args.base)
    grid = scan(stratum, base, _parse_range(args.s_range), _parse_range(args.u_range),
                width_goal=_positive_width(args.width))
    if np.isnan(grid.entropies).all():  # every cell failed: there is no argmin
        summary = "# argmin none\n"
    else:
        summary = "# argmin s=%s u=%s\n" % tuple(map(_fmt, grid.argmin_cell()))
    _emit(grid.to_csv() + summary, args.out)
    if args.out:
        sys.stdout.write(summary)
    return EXIT_OK if grid.complete else EXIT_NUMERICAL


def cmd_hessian(args: argparse.Namespace) -> int:
    stratum = check_hypothesis(_resolve_surface(args))
    base = _orbit_map(args)
    if (args.target == "f") != (args.t_fixed is not None):
        raise _CliError("--target f requires --t-fixed, and --t-fixed requires --target f")
    grad, H, det = _fd_derivatives(stratum, base, args.target, args.t_fixed, args.step)
    body = {
        "grad_s": _fmt(grad[0]),
        "grad_u": _fmt(grad[1]),
        "grad_norm": _fmt(float(np.hypot(grad[0], grad[1]))),
        "h_ss": _fmt(H[0, 0]),
        "h_su": _fmt(H[0, 1]),
        "h_uu": _fmt(H[1, 1]),
        "det": _fmt(det),
    }
    _emit_body(body, args)
    return EXIT_OK


def cmd_minimize(args: argparse.Namespace) -> int:
    stratum = check_hypothesis(_resolve_surface(args))
    base = _resolve_base(args.base)
    point = minimize(stratum, base, OrbitPoint(args.s, args.u, base),
                     stop_tol=args.tol)
    enc = entropy(stratum, orbit_matrix(point), 1e-10)
    body = {
        "s": _fmt(point.s),
        "u": _fmt(point.u),
        "h_mid": _fmt(enc.midpoint),
        "h_width": _fmt(enc.width),
    }
    _emit_body(body, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run_all(seed=args.seed)
    lines = ["%s %s: %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail)
             for r in results]
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        # Dump the traced connection records backing the oracle checks.
        rows = ["surface,start_vertex,a,b,sector,end_vertex,length"]
        for name in ("L", "EW"):
            for r in oracle.enumerate_singular_connections(builtin_surface(name),
                                                          checks.CONNECTION_WINDOW):
                rows.append("%s,%d,%d,%d,%d,%d,%s"
                            % (name, r.start_vertex, r.holonomy[0], r.holonomy[1],
                               r.sector, r.end_vertex, _fmt(r.length)))
        _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def _add_common(p: argparse.ArgumentParser, surface: bool = True, formats: bool = True) -> None:
    if surface:
        p.add_argument("--surface", help="builtin name (L, EW, O3, St4, G5, ...) or a file path")
        p.add_argument("--squares", type=int, help="number of squares (with --h and --v)")
        p.add_argument("--h", help="horizontal gluing in cycle notation")
        p.add_argument("--v", help="vertical gluing in cycle notation")
    if formats:
        p.add_argument("--format", choices=("json", "plain"), default="plain")
    p.add_argument("--out", help="write the primary artifact to this path")
    p.add_argument("--config", help="flat key=value file; command-line flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="origami-entropy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="surface combinatorics and stratum data")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("entropy", help="certified entropy enclosure at one orbit point")
    _add_common(p)
    p.add_argument("--base", default="equilateral")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--width", type=float, help="adaptive mode: grow N until this enclosure width")
    p.add_argument("--tol", type=float, help=f"root tolerance (default {DEFAULT_ROOT_TOL:g})")
    p.add_argument("--precision", choices=("double", "extended"), default="double")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("scan", help="entropy over an (s, u) grid, CSV output")
    _add_common(p, formats=False)
    p.add_argument("--base", default="equilateral")
    p.add_argument("--s-range", default="-0.5:0.5:21")
    p.add_argument("--u-range", default="-0.1:0.1:21")
    p.add_argument("--width", type=float, default=1e-10, help="per-cell enclosure width goal")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("hessian", help="finite-difference gradient and Hessian in (s, u)")
    _add_common(p)
    p.add_argument("--base", default="equilateral")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--target", choices=("entropy", "f"), default="entropy")
    p.add_argument("--t-fixed", type=float, help="fixed t for --target f")
    p.add_argument("--step", type=float, default=DEFAULT_FD_STEP)
    p.set_defaults(func=cmd_hessian)

    p = sub.add_parser("minimize", help="pattern-search minimization of the entropy")
    _add_common(p)
    p.add_argument("--base", default="equilateral")
    p.add_argument("--s", type=float, default=0.0, help="starting shear")
    p.add_argument("--u", type=float, default=0.0, help="starting stretch")
    p.add_argument("--tol", type=float, default=1e-3, help="stopping step size")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("verify", help="run every verification suite")
    _add_common(p, surface=False, formats=False)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def _inject_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into flags placed before the user's flags,
    so explicit flags win (argparse keeps the last occurrence)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _CliError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    injected: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _CliError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            injected += ["--" + key.strip().replace("_", "-"), value.strip()]
    if not rest:
        raise _CliError("--config given without a subcommand")
    return rest[:1] + injected + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SolverError, oracle.OracleError) as exc:  # OracleError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # SurfaceError, LatticeError, orbit input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
