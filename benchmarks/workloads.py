"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload is a fixed cycle of jobs run one at a time by one client.
The seed draws the generator functions phi, the compositions and the
generated maps; ``convmap`` receives only the generated inputs.  Every job
comes with a check of properties that hold whatever the implementation, so
a faster but wrong program fails the run.

- grid_scan: convexity reports over a 100 x 100 polar grid.  The array path:
  jets over 10,000 points, the grid field kernel and the phi classifier.
- level_march: level-curve traces and critical-point searches.  The scalar
  path: thousands of single-point jets inside Newton loops.
- cli_session: a fixed cycle of ``python -m convmap.cli`` child processes,
  including error calls with their fixed exit codes.  Process start,
  JSON parsing and row-by-row CSV/SVG output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import convmap as cm
import convmap.cli  # noqa: F401  (the package namespace does not load it)
from convmap.functionals import p_field
from convmap.maps import jet_fields, jet_of
from launcher import Launcher

# grid_scan
SCAN_GRID = cm.GridSpec(100, 100, 0.9)
GEN_ORDER = 384  # the CLI's default gen --order (its GEN_ORDER)
SCAN_RMAX = 0.9

# level_march: the acceptance suite's generated-map settings
MARCH_ORDER = 192
MARCH_RMAX = 0.8
TRACE_RMAX = 0.78
TRACE_MAX_POINTS = 4000
RING_RADIUS = 0.55
RING_SAMPLES = 256
# find_critical_point defaults to GridSpec(rmax=0.9) whatever the map's
# certified radius, which raises RadiusExceeded on rmax-0.8 generated maps.
# A correct caller passes a grid inside the radius; the default is a known
# defect left for a later fix.
MARCH_CRIT_GRID = cm.GridSpec(40, 40, 0.78)

# phi: a random polynomial of degree 1..6 scaled to a boundary sup in
# [PHI_SUP_LO, PHI_SUP_HI], the sup sampled on PHI_CIRCLE_SAMPLES points
PHI_DEGREE_MAX = 6
PHI_SUP_LO = 0.3
PHI_SUP_HI = 0.95
PHI_CIRCLE_SAMPLES = 4096

# disk automorphism centre modulus for composed maps; fixed so that every
# seed asks the polygon vertex series for the same number of terms
COMPOSE_CENTER = 0.3

# pinned critical-point kinds of the closed forms (PRIMARY 11); halfplane is
# not pinned.  Composition moves the zero set but keeps its kind.
CRITICAL_KIND = {"identity": "unique", "polygon": "unique", "strip": "degenerate", "sector": "none"}

RESIDUAL_BAR = 1e-12
KAPPA_FLOOR = -1e-9
TANGENCY_BAR = 1e-8
CRITICAL_P_BAR = 1e-10

CHILD_TIMEOUT_S = 120.0


@dataclass
class Job:
    label: str  # job class, for the per-class breakdown
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # failure reason, or None


@dataclass
class Workload:
    name: str
    jobs: list[Job]  # one cycle
    inproc_jobs: list[Job] | None = None  # cli_session: the same argv in-process
    child_peak_kb: int = 0
    known_defects: dict[str, int] = field(default_factory=dict)  # defect -> jobs that hit it

    def peak_rss_mb(self) -> float:
        if self.inproc_jobs is not None:
            return self.child_peak_kb / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# seeded inputs


def random_phi(rng: np.random.Generator, deg: int, sup: float) -> cm.PhiSpec:
    coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    circle = np.exp(2j * np.pi * np.arange(PHI_CIRCLE_SAMPLES) / PHI_CIRCLE_SAMPLES)
    peak = float(np.abs(np.polynomial.polynomial.polyval(circle, coef)).max())
    return cm.PhiSpec.polynomial(coef * (sup / peak))


def phi_draws(rng: np.random.Generator, k: int) -> list[tuple[int, float]]:
    """k (degree, boundary sup) pairs, stratified: the degrees run through
    seeded permutations of 1..6 and each k-th of the sup range holds one
    draw.  Every round of a cycle then holds the same spread of phi, where
    independent draws would make a run's cost swing with the seed."""
    perms = -(-k // PHI_DEGREE_MAX)
    deg = np.concatenate([rng.permutation(PHI_DEGREE_MAX) + 1 for _ in range(perms)])[:k]
    sup = PHI_SUP_LO + (PHI_SUP_HI - PHI_SUP_LO) * (rng.permutation(k) + rng.uniform(size=k)) / k
    return [(int(d), float(s)) for d, s in zip(deg, sup)]


def compose(rng: np.random.Generator, m: cm.MapSpec) -> cm.MapSpec:
    """Precompose with a seeded disk automorphism, postcompose with a seeded
    affine map.  Both keep the image shape, so verdicts and kinds carry over."""
    a = COMPOSE_CENTER * np.exp(2j * np.pi * rng.uniform())
    theta = 2.0 * np.pi * rng.uniform()
    scale = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    offset = complex(rng.standard_normal(), rng.standard_normal())
    return m.precomposed(a, theta).postcomposed(scale, offset)


def closed_form_maps(rng: np.random.Generator, with_koebe: bool) -> list[tuple[str, cm.MapSpec]]:
    """The ten zoo maps (nine without koebe), then six (five) of them again,
    composed.  Labels carry the base kind; a trailing '~' marks composition."""
    plain = [("identity", cm.identity()), ("halfplane", cm.halfplane()), ("strip", cm.strip())]
    plain += [("sector", cm.sector(a)) for a in (0.25, 0.5, 0.75)]
    plain += [("polygon", cm.polygon(n)) for n in (3, 5, 7)]
    bases = [
        ("identity", cm.identity()),
        ("halfplane", cm.halfplane()),
        ("strip", cm.strip()),
        ("sector", cm.sector(float(rng.choice([0.25, 0.5, 0.75])))),
        ("polygon", cm.polygon(int(rng.choice([3, 5, 7])))),
    ]
    if with_koebe:
        plain.append(("koebe", cm.koebe()))
        bases.append(("koebe", cm.koebe()))
    return plain + [(kind + "~", compose(rng, m)) for kind, m in bases]


def interleave(closed: list, generated: list) -> list:
    """Two closed-form entries then one generated, so that any stretch of the
    cycle keeps the two-thirds/one-third mix."""
    assert len(closed) == 2 * len(generated)
    out = []
    for i, g in enumerate(generated):
        out += [closed[2 * i], closed[2 * i + 1], g]
    return out


def map_pool(rng, rounds: int, with_koebe: bool, order: int, rmax: float) -> list[tuple[str, cm.MapSpec]]:
    pool = []
    for _ in range(rounds):
        closed = closed_form_maps(rng, with_koebe)
        gens = [("series", cm.gen_herglotz(random_phi(rng, deg, sup), order=order, rmax=rmax))
                for deg, sup in phi_draws(rng, len(closed) // 2)]
        pool += interleave(closed, gens)
    return pool


def base_kind(label: str) -> str:
    return label.rstrip("~")


# ---------------------------------------------------------------------------
# grid_scan

SCAN_ROUNDS = 2


def _scan_check(label: str):
    kind = base_kind(label)

    def check(rep) -> str | None:
        want = "NotConvex" if kind == "koebe" else "Convex"
        if rep.verdict != want:
            return f"verdict {rep.verdict}, expected {want}"
        if want == "Convex":
            bar = 2.0 + rep.tolerance
            if not (rep.km_max <= bar and rep.nehari_max <= bar):
                return f"kmMax {rep.km_max!r} / nehariMax {rep.nehari_max!r} above 2 + tol"
        if kind == "sector" and not rep.equality_count:
            return "sector map with an empty equality locus"
        return None

    return check


def grid_scan(seed: int, workdir: Path, launcher: Launcher | None) -> Workload:
    rng = np.random.default_rng(seed)
    jobs = []
    for label, m in map_pool(rng, SCAN_ROUNDS, True, GEN_ORDER, SCAN_RMAX):
        jobs.append(Job(
            f"report/{'series' if label == 'series' else 'closed'}",
            lambda m=m: cm.convexity_report(m, SCAN_GRID),
            _scan_check(label),
        ))
    return Workload("grid_scan", jobs)


# ---------------------------------------------------------------------------
# level_march

# four rounds put 28 distinct generated maps in one cycle, so a run
# averages over many phi rather than repeating a few
MARCH_ROUNDS = 4
# Known defect, recorded rather than hidden: the Newton polish in
# find_critical_point stops only at |z| >= 0.999, not at a series map's
# certified radius, so an iterate can leave it and the search raises
# RadiusExceeded.  The check accepts that typed error on generated maps and
# counts it in the run record.
NEWTON_RADIUS_DEFECT = "find_critical_point: Newton leaves the certified radius"


def ring_level(m: cm.MapSpec) -> tuple[float, float]:
    """(level, ray angle): halfway between g(0) and the lowest g on a
    mid-disk ring, along the ray through that low point, so the ray must
    cross the level."""
    ring = RING_RADIUS * np.exp(2j * np.pi * np.arange(RING_SAMPLES) / RING_SAMPLES)
    g = cm.level_value(m, ring)
    i = int(np.argmin(g))
    g0 = float(cm.level_value(m, np.array([0j]))[0])
    return 0.5 * (g0 + float(g[i])), float(np.angle(ring[i]))


def ring_trace(m: cm.MapSpec) -> cm.LevelCurve:
    c, theta = ring_level(m)
    z0 = cm.find_level_start(m, c, theta=theta, rmax=TRACE_RMAX)
    return cm.trace_level_set(m, z0, rmax=TRACE_RMAX, max_points=TRACE_MAX_POINTS)


def _trace_check(m: cm.MapSpec):
    def check(curve) -> str | None:
        if len(curve) < 3:
            return f"only {len(curve)} points"
        res = float(curve.residual.max())
        if not res <= RESIDUAL_BAR:
            return f"residual {res:.3e} above {RESIDUAL_BAR:g}"
        kmin = float(curve.kappa.min())
        if not kmin >= KAPPA_FLOOR:
            return f"min kappa {kmin:.3e} below {KAPPA_FLOOR:g}"
        _, f1, f2, _ = jet_fields(m, curve.z)
        t = -1j * np.conj(curve.p) / np.abs(curve.p)
        gap = (t * f2 / f1).real - 2.0 * (np.conj(curve.z) * t).real / (1.0 - np.abs(curve.z) ** 2)
        worst = float(np.abs(gap).max())
        if not worst <= TANGENCY_BAR:
            return f"tangency residual {worst:.3e} above {TANGENCY_BAR:g}"
        return None

    return check


def critical_search(m: cm.MapSpec, grid: cm.GridSpec | None):
    try:
        return cm.find_critical_point(m, grid)
    except cm.RadiusExceeded as exc:
        return exc


def _critical_check(label: str, m: cm.MapSpec, known: dict):
    want = CRITICAL_KIND.get(base_kind(label))
    at_origin = want == "unique" and not label.endswith("~")

    def check(res) -> str | None:
        if isinstance(res, cm.RadiusExceeded):
            if label != "series":
                return f"RadiusExceeded on a closed-form map: {res}"
            known[NEWTON_RADIUS_DEFECT] = known.get(NEWTON_RADIUS_DEFECT, 0) + 1
            return None
        if want is not None and res.kind != want:
            return f"critical kind {res.kind}, expected {want}"
        if res.kind == "unique":
            pz = abs(p_field(jet_of(m, res.z)))
            if not pz <= CRITICAL_P_BAR:
                return f"|p(z*)| = {pz:.3e} above {CRITICAL_P_BAR:g}"
            if at_origin and not abs(res.z) <= CRITICAL_P_BAR:
                return f"critical point {res.z} not at the origin"
        return None

    return check


def level_march(seed: int, workdir: Path, launcher: Launcher | None) -> Workload:
    rng = np.random.default_rng(seed)
    wl = Workload("level_march", [])
    for label, m in map_pool(rng, MARCH_ROUNDS, False, MARCH_ORDER, MARCH_RMAX):
        cls = "series" if label == "series" else "closed"
        grid = MARCH_CRIT_GRID if label == "series" else None
        wl.jobs.append(Job(f"trace/{cls}", lambda m=m: ring_trace(m), _trace_check(m)))
        wl.jobs.append(Job(
            f"critical/{cls}",
            lambda m=m, grid=grid: critical_search(m, grid),
            _critical_check(label, m, wl.known_defects),
        ))
    return wl


# ---------------------------------------------------------------------------
# cli_session

# seeded gen argv per cycle; later cycles repeat them and compare bytes.  Each
# variant's five calls end with a different one of the four calls that exit
# non-zero, so the heavy-output curvature-map is a fifth of the calls and p90
# lands inside it rather than on the edge of the light calls.
CLI_GEN_VARIANTS = 4
CURVATURE_ROWS = 400 * 400
ERROR_EXITS = (1, 2, 4, 5)  # exit 3 is a NotConvex verdict, not an error
# the documented CLI output formats, spelled out here rather than imported
TRACE_HEADER = "s,Re z,Im z,Re w,Im w,|p|,k,kappa,residual"
CURVATURE_HEADER = "Re z,Im z,slack1,slack3,km,kappa"
MALFORMED_SPECS = (
    {"type": "sector", "params": {}},
    {"type": "series", "params": {"coeffs": []}},
    {"type": "polygon", "params": {"n": "five"}},
)
TRACE_MAPS = (("sector", {"alpha": 0.5}), ("polygon", {"n": 5}), ("halfplane", {}), ("strip", {}))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    bytes_written: int


@dataclass
class CliCall:
    label: str
    args: list[str]
    expect: int
    outputs: list[Path]
    check_output: Callable[[CliResult], "str | None"] | None = None

    def check(self, res: CliResult) -> str | None:
        if res.code != self.expect:
            return f"exit {res.code}, expected {self.expect}: {res.stderr.strip()[-200:]}"
        if self.expect in ERROR_EXITS and not res.stderr.startswith("error:"):
            return "error call printed no 'error:' line"
        return self.check_output(res) if self.check_output else None


def _csv_check(path: Path, header: str, ncols: int, rows: int | None):
    def check(res: CliResult) -> str | None:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != header:
            return f"{path.name}: bad header {lines[0] if lines else ''!r}"
        body = lines[1:]
        if rows is not None and len(body) != rows:
            return f"{path.name}: {len(body)} rows, expected {rows}"
        if len(body) < 3:
            return f"{path.name}: only {len(body)} rows"
        cells = ",".join(body).split(",")
        if len(cells) != ncols * len(body):
            return f"{path.name}: ragged rows"
        values = np.array([c for c in cells if c], dtype=float)
        if not np.all(np.isfinite(values)):
            return f"{path.name}: non-finite cell"
        return None

    return check


def _report_check(verdict: str):
    def check(res: CliResult) -> str | None:
        rep = json.loads(res.stdout)
        if rep["verdict"] != verdict:
            return f"verdict {rep['verdict']}, expected {verdict}"
        if verdict == "Convex":
            bar = 2.0 + rep["equalityLocus"]["tolerance"]
            if not (rep["kmMax"] <= bar and rep["nehariMax"] <= bar):
                return "kmMax / nehariMax above 2 + tol"
        return None

    return check


def _gen_check(path: Path, digests: dict, key: str):
    def check(res: CliResult) -> str | None:
        data = path.read_bytes()
        spec = json.loads(data)
        if spec.get("type") != "series" or len(spec["params"]["coeffs"]) != GEN_ORDER + 1:
            return "gen output is not an order-384 series spec"
        digest = hashlib.sha256(data).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return "repeating the gen argv changed the output bytes"
        return None

    return check


def _svg_check(path: Path, csv_check):
    def check(res: CliResult) -> str | None:
        svg = path.read_text(encoding="utf-8")
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            return "trace SVG is not a complete <svg> document"
        return csv_check(res)

    return check


def cli_calls(rng: np.random.Generator, work: Path) -> list[CliCall]:
    """The cycle of CLI calls; gen argv come from CLI_GEN_VARIANTS seeded
    variants, so a run repeats each one and compares the bytes."""
    digests: dict[str, str] = {}
    bad_spec = work / "malformed.json"
    bad_spec.write_text(json.dumps(MALFORMED_SPECS[int(rng.integers(len(MALFORMED_SPECS)))]))

    name, params = TRACE_MAPS[int(rng.integers(len(TRACE_MAPS)))]
    flags = [token for key, value in params.items() for token in (f"--{key}", str(value))]
    level, theta = ring_level(cm.builtin_map(name, **params))

    trace_csv, trace_svg = work / "trace.csv", work / "trace.svg"
    curv_csv = work / "curvature_map.csv"
    trace_check = _csv_check(trace_csv, TRACE_HEADER, 9, None)
    # one per variant: exit 3 (a NotConvex verdict), then the errors 1, 4 and 5
    odd_ones = [
        CliCall("check-koebe", ["check", "--map", "koebe"], 3, [], _report_check("NotConvex")),
        CliCall("error-spec", ["check", "--map", str(bad_spec)], 1, []),
        CliCall("error-level", ["trace", "--map", "identity", "--c", repr(float(rng.uniform(1.5, 3.0))),
                                "--out", str(work / "never.csv")], 4, []),
        CliCall("error-phi", ["gen", "--phi-poly", f"0,{float(rng.uniform(1.5, 3.0))!r}",
                              "--out", str(work / "never.json")], 5, []),
    ]
    calls = []
    for v in range(CLI_GEN_VARIANTS):
        gen_json = work / f"gen{v}.json"
        gen_args = ["gen", "--phi-random", str(int(rng.integers(1, PHI_DEGREE_MAX + 1))),
                    "--seed", str(int(rng.integers(2**31))),
                    "--target", repr(float(rng.uniform(PHI_SUP_LO, PHI_SUP_HI))),
                    "--out", str(gen_json)]
        calls += [
            CliCall("gen", gen_args, 0, [gen_json], _gen_check(gen_json, digests, " ".join(gen_args))),
            CliCall("check", ["check", "--map", str(gen_json)], 0, [], _report_check("Convex")),
            CliCall("trace", ["trace", "--map", name, *flags, "--c", repr(level), "--theta", repr(theta),
                              "--trace-rmax", repr(TRACE_RMAX), "--max-points", str(TRACE_MAX_POINTS),
                              "--out", str(trace_csv), "--svg", str(trace_svg)],
                    0, [trace_csv, trace_svg], _svg_check(trace_svg, trace_check)),
            CliCall("curvature-map", ["curvature-map", "--map", "polygon", "--n", "5",
                                      "--nr", "400", "--ntheta", "400", "--out", str(curv_csv)],
                    0, [curv_csv], _csv_check(curv_csv, CURVATURE_HEADER, 6, CURVATURE_ROWS)),
            odd_ones[v],
        ]
    return calls


def _clear(paths: list[Path]) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            p.unlink()


def _bytes_written(call: CliCall, stdout: str) -> int:
    return len(stdout.encode()) + sum(p.stat().st_size for p in call.outputs if p.exists())


def cli_session(seed: int, workdir: Path, launcher: Launcher | None) -> Workload:
    """Child jobs go through ``launcher``; None builds the inputs only."""
    rng = np.random.default_rng(seed)
    work = workdir / "cli"
    work.mkdir(parents=True, exist_ok=True)
    calls = cli_calls(rng, work)
    wl = Workload("cli_session", [], [])
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"

    def child(call: CliCall) -> CliResult:
        _clear(call.outputs)
        code, peak_kb = launcher.run([sys.executable, "-m", "convmap.cli", *call.args],
                                     out_path, err_path, CHILD_TIMEOUT_S)
        wl.child_peak_kb = max(wl.child_peak_kb, peak_kb)
        stdout = out_path.read_text(encoding="utf-8")
        return CliResult(code, stdout, err_path.read_text(encoding="utf-8"), _bytes_written(call, stdout))

    def inproc(call: CliCall) -> CliResult:
        _clear(call.outputs)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = convmap.cli.main(list(call.args))
        stdout = out.getvalue()
        return CliResult(code, stdout, err.getvalue(), _bytes_written(call, stdout))

    for call in calls:
        wl.jobs.append(Job(call.label, lambda c=call: child(c), call.check))
        wl.inproc_jobs.append(Job(call.label, lambda c=call: inproc(c), call.check))
    return wl


WORKLOADS = {"grid_scan": grid_scan, "level_march": level_march, "cli_session": cli_session}
