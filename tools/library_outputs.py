#!/usr/bin/env python3
"""Run the library's searches and reports over a fixed zoo of maps and write
their results into a directory, so that two checkouts can be compared with
`diff -r` (as tools/cli_outputs.sh does for the CLI).

usage: python tools/library_outputs.py OUTDIR [CHECKOUT]

CHECKOUT (default: the checkout holding this script) supplies src/; the
package runs from it with no install, through its public API only, so the
script runs on older checkouts too.  Each map NAME gets NAME.txt with the
repr of its ``convexity_report``, ``find_critical_point`` and
``classify_phi`` results, for one traced level curve its level, start
point, point count, closure, termination, arc length, largest residual and
a SHA-256 of its arrays (z, w, p, k, kappa, residual, s), and the repr of
every public pointwise view at each of POINTS.  A call that raises writes
its exception type and message instead.  Names start with "closed-lib-" for
closed-form maps, whose bytes must not change between checkouts, and with
"series-lib-" for series maps.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

RING_RADIUS = 0.55  # the level of a trace lies between g(0) and the least g on this ring
RING_SAMPLES = 256
TRACE_RMAX = 0.78
TRACE_MAX_POINTS = 2000
POINTS = (0j, 0.3 + 0.2j, -0.5 + 0j)  # the center, a generic point, and where 2 + z P vanishes for koebe
JET_VIEWS = ("pre_schwarzian", "schwarzian", "classical_lhs", "rhs2", "rhs3", "p_field", "kim_minda",
             "nehari_value", "poincare_density", "equivalence_identity", "disk_curvature",
             "image_curvature", "schwarz_pick_slack")


def zoo(cm, np):
    """(name, map): the six closed kinds, each plain, precomposed,
    postcomposed and both; four generated maps (polynomial, Blaschke,
    polynomial precomposed and postcomposed, and unimodular-constant phi);
    and z + 1.416 z^81."""
    closed = [("identity", cm.identity()), ("halfplane", cm.halfplane()), ("strip", cm.strip()),
              ("sector0.5", cm.sector(0.5)), ("polygon5", cm.polygon(5)), ("koebe", cm.koebe())]
    maps = []
    for name, m in closed:
        pre = m.precomposed(0.2 - 0.1j, 0.7)
        maps += [(name, m), (f"{name}-pre", pre), (f"{name}-post", m.postcomposed(1.5 - 0.5j, 0.25 + 1j)),
                 (f"{name}-composed", pre.postcomposed(1.5 - 0.5j, 0.25 + 1j))]
    maps = [(f"closed-lib-{name}", m) for name, m in maps]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        maps.append(("series-lib-poly192", cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), 192, 0.85)))
        blaschke = cm.PhiSpec.blaschke([0.3 + 0.2j], 0.5)
        maps.append(("series-lib-blaschke256", cm.herglotz_map(blaschke, 256, 0.85)))
        poly = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), 192, 0.85)
        maps.append(("series-lib-poly192-composed",
                     poly.precomposed(0.2 - 0.1j, 0.7).postcomposed(1.5 - 0.5j, 0.25 + 1j)))
        maps.append(("series-lib-const256", cm.gen_herglotz(cm.PhiSpec.unimodular_constant(0.3), 256, 0.85)))
    alias = np.zeros(82, dtype=complex)
    alias[1], alias[81] = 1.0, 1.416
    maps.append(("series-lib-alias", cm.from_series(alias, 0.9)))
    return maps


def trace(cm, np, m) -> str:
    """A level curve halfway between g(0) and the least g on the ring,
    started on the ray through that least point."""
    ring = RING_RADIUS * np.exp(2j * np.pi * np.arange(RING_SAMPLES) / RING_SAMPLES)
    g = cm.level_value(m, ring)
    i = int(np.argmin(g))
    c = 0.5 * (float(cm.level_value(m, np.array([0j]))[0]) + float(g[i]))
    z0 = cm.find_level_start(m, c, theta=float(np.angle(ring[i])), rmax=TRACE_RMAX)
    curve = cm.trace_level_set(m, z0, rmax=TRACE_RMAX, max_points=TRACE_MAX_POINTS)
    digest = hashlib.sha256()
    for name in ("z", "w", "p", "k", "kappa", "residual", "s"):
        digest.update(np.ascontiguousarray(getattr(curve, name)).tobytes())
    return (f"c={curve.c!r} z0={z0!r} points={len(curve)} closed={curve.closed} termination={curve.termination} "
            f"length={float(curve.s[-1])!r} max_residual={float(curve.residual.max())!r} sha256={digest.hexdigest()}")


def pointwise(cm, m) -> list[str]:
    """One line per pointwise view and point: the views of a jet at
    ``jet_of(m, z)``, and ``phi_of(m, z)``."""
    lines = []
    for z in POINTS:
        for name in JET_VIEWS:
            lines.append(f"{name}({z!r}): {outcome(lambda: getattr(cm, name)(cm.jet_of(m, z)))}")
        lines.append(f"phi_of({z!r}): {outcome(lambda: cm.phi_of(m, z))}")
    return lines


def outcome(call) -> str:
    try:
        result = call()
    except Exception as exc:  # the type and message are the output
        return f"{type(exc).__name__}: {exc}"
    return result if isinstance(result, str) else repr(result)


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    checkout = Path(argv[2]) if len(argv) == 3 else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(checkout.resolve() / "src"))
    import numpy as np

    import convmap as cm

    warnings.simplefilter("ignore")
    for name, m in zoo(cm, np):
        lines = [
            f"convexity_report: {outcome(lambda: cm.convexity_report(m))}",
            f"find_critical_point: {outcome(lambda: cm.find_critical_point(m))}",
            f"classify_phi: {outcome(lambda: cm.classify_phi(m))}",
            f"trace: {outcome(lambda: trace(cm, np, m))}",
            *pointwise(cm, m),
        ]
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
