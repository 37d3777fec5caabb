"""Command-line surface: parse map specs, run reports, trace level curves,
sweep curvature grids, and generate maps from generator data.

Exit codes, fixed for scripting:
  0  success (including a Convex verdict and partial-curve warnings)
  1  malformed map or generator spec
  2  evaluation error inside a computation
  3  check verdict NotConvex
  4  requested level not attained on the ray
  5  generator function out of range

CSV cells (trace, curvature-map) are exactly '%.17g' of each value; the
curvature-map kappa cell is empty where |p| <= P_MIN (1e-4).

Map specs are JSON objects {"type": ..., "params": {...}} with optional
"pre" {"a": [re, im], "theta": t} and "post" {"scale": [re, im],
"offset": [re, im]} entries.  Series coefficients are stored as
[[re, im], ...].  Built-in names: identity, halfplane, strip, sector
(--alpha), polygon (--n), koebe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .critical import PhiClass
from .errors import ConvmapError, LevelNotOnRay, NormalVanished, PhiOutOfRange
from .functionals import ConvexityReport, convexity_report, grid_functionals
from .grid import GridSpec
from .levelset import (
    DEFAULT_MAX_POINTS,
    DEFAULT_STEP,
    DEFAULT_TRACE_RMAX,
    P_MIN,
    LevelCurve,
    find_level_start,
    trace_level_set,
)
from .maps import (
    DEFAULT_ORDER,
    DEFAULT_RMAX,
    MapSpec,
    PhiSpec,
    builtin_map,
    complex_pair,
    gen_herglotz,
    map_from_json,
    map_to_json,
)

CURVATURE_MAP_HEADER = "Re z,Im z,slack1,slack3,km,kappa"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# the exit code of each error (see the module docstring); the first match wins
_EXIT_CODES = ((_UsageError, 1), (LevelNotOnRay, 4), (PhiOutOfRange, 5), (ConvmapError, 2), (ValueError, 2))


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse complex number {text!r}") from None


def _parse_complex_list(text: str) -> list[complex]:
    return [_parse_complex(tok) for tok in text.split(",") if tok.strip()]


def _add_map_flags(p: _Parser) -> None:
    p.add_argument("--map", required=True, help="builtin name or path to a JSON map spec")
    p.add_argument("--alpha", type=float, default=None, help="sector opening parameter in (0, 1]")
    p.add_argument("--n", type=int, default=None, help="polygon vertex count, n >= 3")


def _add_grid_flags(p: _Parser) -> None:
    p.add_argument("--nr", type=int, default=GridSpec.nr, help="radial grid count")
    p.add_argument("--ntheta", type=int, default=GridSpec.ntheta, help="angular grid count")
    p.add_argument("--rmax", type=float, default=GridSpec.rmax, help="outer grid radius")


def _resolve_map(args) -> MapSpec:
    name = args.map
    try:
        if name.endswith(".json") or os.path.sep in name or os.path.isfile(name):
            with open(name, "r", encoding="utf-8") as fp:
                return map_from_json(json.load(fp))
        return builtin_map(name, alpha=args.alpha, n=args.n)
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        raise _UsageError(f"malformed map spec: {exc}") from None


def _phi_class_json(pc: PhiClass) -> dict:
    fit = pc.fit_error
    return {
        "kind": pc.kind,
        "a": None if pc.a is None else complex_pair(pc.a),
        "theta": pc.theta,
        "fitError": None if not np.isfinite(fit) else float(fit),
    }


def report_to_json(rep: ConvexityReport) -> dict:
    return {
        "verdict": rep.verdict,
        "slack1Min": rep.slack1_min,
        "slack3Min": rep.slack3_min,
        "kmMax": rep.km_max,
        "nehariMax": rep.nehari_max,
        "equalityLocus": {
            "flag": rep.equality_flag,
            "count": rep.equality_count,
            "tolerance": rep.tolerance,
            "points": [complex_pair(z) for z in rep.equality_points],
        },
        "phiClass": _phi_class_json(rep.phi_class),
        "argmins": {
            "slack1": complex_pair(rep.slack1_argmin),
            "slack3": complex_pair(rep.slack3_argmin),
            "km": complex_pair(rep.km_argmax),
            "nehari": complex_pair(rep.nehari_argmax),
        },
    }


def cmd_check(args, m: MapSpec) -> int:
    grid = GridSpec(args.nr, args.ntheta, args.rmax)
    rep = convexity_report(m, grid)
    text = json.dumps(report_to_json(rep), indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    return 0 if rep.verdict == "Convex" else 3


def _fit_box(pts: np.ndarray, x0: float, x1: float, y0: float, y1: float):
    re, im = pts.real, pts.imag
    spanx = max(float(re.max() - re.min()), 1e-12)
    spany = max(float(im.max() - im.min()), 1e-12)
    scale = min((x1 - x0) / spanx, (y1 - y0) / spany)
    cx = 0.5 * float(re.max() + re.min())
    cy = 0.5 * float(im.max() + im.min())
    x = 0.5 * (x0 + x1) + scale * (re - cx)
    y = 0.5 * (y0 + y1) - scale * (im - cy)
    return x, y


def _polyline(x, y, closed: bool, color: str) -> str:
    tag = "polygon" if closed else "polyline"
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y))
    return f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'


def curve_svg(curve: LevelCurve) -> str:
    """Two panels: the curve in the disk, and its image under the map."""
    cx, cy, r = 150.0, 150.0, 132.0
    zx = cx + r * curve.z.real
    zy = cy - r * curve.z.imag
    wx, wy = _fit_box(curve.w, 320.0, 580.0, 30.0, 270.0)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="300" viewBox="0 0 600 300">',
        '<rect width="600" height="300" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="#999" stroke-width="1"/>',
        _polyline(zx, zy, curve.closed, "#1f77b4"),
        _polyline(wx, wy, curve.closed, "#d62728"),
        '<text x="150" y="292" text-anchor="middle" font-size="12">z</text>',
        '<text x="450" y="292" text-anchor="middle" font-size="12">w = f(z)</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def _write_curve(curve: LevelCurve, args) -> None:
    with open(args.out, "w", encoding="utf-8", newline="") as fp:
        curve.write_csv(fp)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fp:
            fp.write(curve_svg(curve))


def cmd_trace(args, m: MapSpec) -> int:
    z0 = find_level_start(m, args.c, args.theta, rmax=args.trace_rmax)
    try:
        curve = trace_level_set(
            m, z0, step=args.step, max_points=args.max_points, rmax=args.trace_rmax, c=args.c
        )
    except NormalVanished as exc:
        if exc.curve is None:
            print(f"warning: {exc}; nothing to write", file=sys.stderr)
            return 0
        print(f"warning: {exc}; writing the partial curve", file=sys.stderr)
        _write_curve(exc.curve, args)
        return 0
    _write_curve(curve, args)
    kind = "closed" if curve.closed else "open"
    print(f"traced {len(curve)} points ({kind}, c = {curve.c:g}) -> {args.out}", file=sys.stderr)
    return 0


def _curvature_columns(m: MapSpec, grid: GridSpec):
    """The curvature-map columns over the grid, and the mask of the cells
    left empty."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = grid_functionals(m, grid, ("z", "lhs1", "slack3", "km", "kappa", "ap"))
    zs = vals["z"]
    cols = (zs.real, zs.imag, vals["lhs1"], vals["slack3"], vals["km"], vals["kappa"])
    blank = np.zeros((zs.size, len(cols)), dtype=bool)
    blank[:, -1] = vals["ap"] <= P_MIN  # kappa is undefined there
    return cols, blank


def cmd_curvature_map(args, m: MapSpec) -> int:
    from ._csv import write_rows  # deferred: a process that writes no CSV skips compiling it

    cols, blank = _curvature_columns(m, GridSpec(args.nr, args.ntheta, args.rmax))
    with open(args.out, "wb") as fp:
        fp.write(CURVATURE_MAP_HEADER.encode() + b"\n")
        write_rows(fp, cols, blank)
    print(f"wrote {blank.shape[0]} rows -> {args.out}", file=sys.stderr)
    return 0


def _phi_from_args(args) -> PhiSpec:
    chosen = (args.phi_const, args.phi_poly, args.phi_blaschke, args.phi_random)
    if sum(flag is not None for flag in chosen) != 1:
        raise _UsageError("choose exactly one of --phi-const, --phi-poly, --phi-blaschke, --phi-random")
    if args.phi_const is not None:
        value = _parse_complex(args.phi_const)
        if abs(abs(value) - 1.0) > 1e-9:
            raise _UsageError(f"--phi-const needs a unimodular value, got |{args.phi_const}| = {abs(value):.6g}")
        return PhiSpec.unimodular_constant(float(np.angle(value)))
    if args.phi_poly is not None:
        return PhiSpec.polynomial(_parse_complex_list(args.phi_poly))
    if args.phi_blaschke is not None:
        return PhiSpec.blaschke(_parse_complex_list(args.phi_blaschke), theta=args.phi_theta)
    degree = int(args.phi_random)
    if degree < 0:
        raise _UsageError("--phi-random needs a nonnegative degree")
    if not args.target >= 0.0:
        raise _UsageError(f"malformed generator spec: --target must be nonnegative, got {args.target:g}")
    rng = np.random.default_rng(args.seed)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    phi = PhiSpec.polynomial(coeffs)
    sup = phi.boundary_sup()
    if sup > 0.0:
        phi = PhiSpec.polynomial(np.asarray(coeffs) * (args.target / sup))
    return phi


def cmd_gen(args, m=None) -> int:
    try:
        phi = _phi_from_args(args)
        generated = gen_herglotz(phi, order=args.order, rmax=args.gen_rmax)
    except ValueError as exc:  # a PhiSpec, the order or the radius refusing its data
        raise _UsageError(f"malformed generator spec: {exc}") from None
    text = json.dumps(map_to_json(generated), indent=2)
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.write(text + "\n")
    print(f"wrote map spec (order {args.order}, rmax {args.gen_rmax:g}) -> {args.out}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="convmap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="grid convexity report as JSON")
    _add_map_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_check, needs_map=True)

    p = sub.add_parser("trace", help="trace one level curve to CSV (and optional SVG)")
    _add_map_flags(p)
    p.add_argument("--c", type=float, required=True, help="level constant")
    p.add_argument("--theta", type=float, default=0.0, help="ray angle for the starting point")
    p.add_argument("--step", type=float, default=DEFAULT_STEP, help="arclength step")
    p.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    p.add_argument("--trace-rmax", type=float, default=DEFAULT_TRACE_RMAX, help="stop radius, in (0, 1)")
    p.add_argument("--out", default="trace.csv")
    p.add_argument("--svg", default=None, help="write a two-panel SVG here")
    p.set_defaults(func=cmd_trace, needs_map=True)

    p = sub.add_parser("curvature-map", help="grid CSV of slacks, km, and image curvature")
    _add_map_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", default="curvature_map.csv")
    p.set_defaults(func=cmd_curvature_map, needs_map=True)

    p = sub.add_parser("gen", help="integrate a generator function into a series map spec")
    p.add_argument("--phi-const", default=None, help="unimodular constant value, e.g. 1 or 1j")
    p.add_argument("--phi-poly", default=None, help="comma-separated polynomial coefficients")
    p.add_argument("--phi-blaschke", default=None, help="comma-separated zeros, all |a| < 1")
    p.add_argument("--phi-theta", type=float, default=0.0, help="rotation for --phi-blaschke")
    p.add_argument("--phi-random", default=None, metavar="DEGREE", help="random polynomial of this degree")
    p.add_argument("--seed", type=int, default=0, help="seed for --phi-random")
    p.add_argument("--target", type=float, default=0.95, help="boundary sup for --phi-random")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--gen-rmax", type=float, default=DEFAULT_RMAX)
    p.add_argument("--out", default="map.json")
    p.set_defaults(func=cmd_gen, needs_map=False)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, _resolve_map(args) if args.needs_map else None)
    except (_UsageError, ConvmapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
