"""convmap benchmark: closed-loop workloads over the public API and CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload grid_scan --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

One client runs one job at a time in this one process (cli_session: one
child ``python -m convmap.cli`` process at a time).  ``--trace 0`` measures
the end-to-end metrics, each job's time scaled to the reference host's speed
by a probe timed next to it (``HostGauge``); ``--trace 1`` is a separate run that wraps the
``convmap`` layer boundaries, records spans and reports the per-layer
figures.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the full
record (machine, checks, per-class timings, spans summary).  A table goes
to standard error.
"""

from __future__ import annotations

import os

# one job at a time, no extra threads: pin every BLAS pool before NumPy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("grid_scan", "level_march", "cli_session")
# set-up samples, spread evenly over the timed phase so that their median
# sees the host's state across the run, not in one instant
SETUP_REPEATS = 9
CALIBRATION_N = 1_000_000

# The host probe: a fixed mix of interpreter, small-array and large-array
# work that shares no code with convmap.  PROBE_REF_MS is its typical time
# on the reference host (2-core Xeon VM, Python 3.11, NumPy 2.4).
PROBE_PY_N = 30_000
PROBE_SMALL = np.exp(2j * np.pi * np.arange(16) / 16)
PROBE_SMALL_N = 600
PROBE_BIG = np.linspace(0.0, 6.0, 1 << 16)
PROBE_REF_MS = 8.0
PROBE_EVERY_S = 0.25  # of job time

E2E_UNITS = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_ms() -> float:
    """A fixed pure-Python loop; its time shows host drift between runs."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_N):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def _probe() -> None:
    acc = 0
    for i in range(PROBE_PY_N):
        acc += i * i % 7
    a = PROBE_SMALL
    for _ in range(PROBE_SMALL_N):
        a = np.exp(1j * np.angle(a * PROBE_SMALL[1]))
    x = np.exp(1j * PROBE_BIG)
    float(np.abs(x * x - 1.0).sum())


def probe_ms() -> float:
    """The probe's time, on its second pass: the first refills the caches
    that the last job took, which would tie the reading to convmap."""
    _probe()
    t0 = time.perf_counter()
    _probe()
    return (time.perf_counter() - t0) * 1e3


class HostGauge:
    """How slow the host ran next to each job, as a factor over the
    reference host.  The probe is timed before the first job and then after
    every PROBE_EVERY_S of job time; each job's factor is the mean of the
    two readings around its stretch of jobs over PROBE_REF_MS.  Call it
    after each job with the job time spent so far."""

    def __init__(self):
        self.readings = [probe_ms()]
        self.factors: list[float] = []  # one per job
        self._pending = 0
        self._covered = 0.0

    def __call__(self, spent: float) -> None:
        self._pending += 1
        if spent - self._covered >= PROBE_EVERY_S:
            self._read(spent)

    def _read(self, spent: float) -> None:
        reading = probe_ms()
        factor = 0.5 * (self.readings[-1] + reading) / PROBE_REF_MS
        self.factors += [factor] * self._pending
        self._pending = 0
        self._covered = spent
        self.readings.append(reading)

    def close(self, spent: float) -> list[float]:
        if self._pending:
            self._read(spent)
        return self.factors


def pin_to_one_cpu() -> int | None:
    """Run this process and the children it starts on one CPU, so that the
    host probe reads the CPU that runs the jobs."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_convmap():
    """Import convmap from the checkout's src/ and nowhere else."""
    if not (SRC / "convmap" / "__init__.py").is_file():
        sys.exit(f"error: no convmap sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import convmap

    if Path(convmap.__file__).resolve().parent != (SRC / "convmap").resolve():
        sys.exit(f"error: imported convmap from {convmap.__file__}, not from {SRC}")
    return convmap


def machine_record(seed: int, calib: list[float], pinned_cpu: int | None) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # the config layout differs across NumPy versions
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "convmap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "calibration_ms": calib,
    }


def child_env() -> dict:
    """Environment for child processes: this checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------------------
# running jobs


class Pass:
    """Per-job times, labels, failures and (when kept) results of a run of jobs."""

    def __init__(self):
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failures: list[str] = []
        self.results: list[object] = []

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_job(job, out: Pass, keep: bool = False) -> None:
    t0 = time.perf_counter()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    out.times.append(time.perf_counter() - t0)
    out.labels.append(job.label)
    if error is None:
        try:
            error = job.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        out.failures.append(f"job {len(out.times) - 1} ({job.label}): {error}")
    if keep:
        out.results.append(result)


def timed_loop(jobs, seconds: float, between) -> Pass:
    """Cycle through the jobs until their summed wall time reaches seconds.
    Checks, and ``between(spent)``, run between jobs, outside the timed
    intervals."""
    out = Pass()
    spent = 0.0
    while spent < seconds or not out.times:
        run_job(jobs[len(out.times) % len(jobs)], out)
        spent += out.times[-1]
        between(spent)
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def class_breakdown(p: Pass) -> dict:
    out: dict[str, dict] = {}
    for label in sorted(set(p.labels)):
        ts = [t for t, lab in zip(p.times, p.labels) if lab == label]
        out[label] = {"count": len(ts), "p50_ms": statistics.median(ts) * 1e3, "max_ms": max(ts) * 1e3}
    return out


class SetupSampler:
    """Wall time of fresh processes that start Python, import convmap, build
    the workload's inputs and exit: the set-up a user pays before job one.
    One sample now, the rest at even steps of the timed phase."""

    def __init__(self, workload: str, seed: int, seconds: float, launcher):
        from workloads import CHILD_TIMEOUT_S

        self._launcher = launcher
        self._timeout = CHILD_TIMEOUT_S
        self._argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                      "--workload", workload, "--seed", str(seed)]
        self._due = [seconds * k / (SETUP_REPEATS - 1) for k in range(1, SETUP_REPEATS)]
        self.times: list[float] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        code, _ = self._launcher.run(self._argv, OUT_DIR / "setup.out", OUT_DIR / "setup.err", self._timeout)
        self.times.append(time.perf_counter() - t0)
        if code != 0:
            err = (OUT_DIR / "setup.err").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"set-up child exited {code}: {err.strip()[-500:]}")

    def __call__(self, spent: float) -> None:
        while self._due and spent >= self._due[0]:
            self._due.pop(0)
            self.sample()


def run_untraced(wl, seconds: float, setup: SetupSampler) -> tuple[dict, dict, Pass]:
    """Times are reported at the reference host's speed: each job's time is
    divided by the host factor read next to it, which the host's own swings
    move and a change to convmap does not."""
    gauge = HostGauge()

    def between(spent: float) -> None:
        gauge(spent)
        setup(spent)

    p = timed_loop(wl.jobs, seconds, between)
    total = sum(p.times)
    adjusted = [t / f for t, f in zip(p.times, gauge.close(total))]
    host = total / sum(adjusted)
    raw = {
        "jobs_per_s": p.attempted / total,
        "job_ms_p50": statistics.median(p.times) * 1e3,
        "job_ms_p90": quantile(p.times, 90) * 1e3,
        "setup_s": statistics.median(setup.times),
    }
    metrics = {
        "jobs_per_s": p.attempted / sum(adjusted),
        "job_ms_p50": statistics.median(adjusted) * 1e3,
        "job_ms_p90": quantile(adjusted, 90) * 1e3,
        "setup_s": raw["setup_s"] / host,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    detail = {
        "timed_s": total,
        "samples": p.attempted,
        "samples_beyond_p90": sum(t * 1e3 > metrics["job_ms_p90"] for t in adjusted),
        "host_factor": host,
        "probe_ms": {"ref": PROBE_REF_MS, "readings": len(gauge.readings),
                     "p50": statistics.median(gauge.readings),
                     "min": min(gauge.readings), "max": max(gauge.readings)},
        "raw": raw,
        "setup_runs_s": setup.times,
        "classes": class_breakdown(p),
    }
    return metrics, detail, p


def run_traced(wl, seconds: float, tracer, spans_path: Path) -> tuple[dict, dict, list[Pass]]:
    """Whole cycles, so per-job figures repeat exactly for one seed.  Each job
    runs once untraced and once traced, in alternating order, so that host
    drift and warm caches cancel out of the overhead.  cli_session first runs
    its cycles as child processes, then pairs the same argv in-process."""
    from layers import layer_figures, roadmap_comparison, span_summary
    from spans import SpanTable

    untraced, traced = Pass(), Pass()
    children = Pass()
    paired_jobs = wl.jobs if wl.inproc_jobs is None else wl.inproc_jobs

    def paired_cycle(first_index: int) -> None:
        for k, job in enumerate(paired_jobs):
            i = first_index + k
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side:
                    with tracer.recording(i):
                        run_job(job, traced, keep=True)
                else:
                    run_job(job, untraced)

    cycle = len(paired_jobs)
    if wl.inproc_jobs is None:
        paired_cycle(0)
        repeats = max(1, int(seconds // (sum(untraced.times) + sum(traced.times))))
        done = 1
    else:
        for job in wl.jobs:
            run_job(job, children)
        repeats = max(1, int((seconds / 2) // sum(children.times)))
        for _ in range(repeats - 1):
            for job in wl.jobs:
                run_job(job, children)
        done = 0
    for r in range(done, repeats):
        paired_cycle(r * cycle)
    tracer.uninstall()
    n = cycle * repeats

    table = SpanTable(tracer)
    bytes_written = sum(getattr(r, "bytes_written", 0) for r in traced.results)
    process_ms = (sum(children.times) - sum(untraced.times)) * 1e3 / n if children.times else 0.0
    figures = layer_figures(table, n, bytes_written, process_ms)
    untraced_rate = n / sum(untraced.times)
    traced_rate = n / sum(traced.times)
    figures["trace.jobs_per_s_untraced"] = untraced_rate
    figures["trace.jobs_per_s_traced"] = traced_rate
    figures["trace.overhead_ratio"] = untraced_rate / traced_rate
    tracer.save(spans_path)
    detail = {
        "traced_jobs": n,
        "cycles": repeats,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_summary": span_summary(table),
        "roadmap": roadmap_comparison(figures),
    }
    return figures, detail, [p for p in (children, untraced, traced) if p.times]


# ---------------------------------------------------------------------------


def print_table(workload: str, metrics: dict, units: dict, extra: dict) -> None:
    err = sys.stderr
    print(f"== {workload}", file=err)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}", file=err)
    for name, value in extra.items():
        print(f"  {name:34s} {value}", file=err)


def run_one(args) -> int:
    cpu = pin_to_one_cpu()
    calib = [calibration_ms()]
    load_convmap()

    from launcher import Launcher
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with Launcher(child_env()) as launcher:
        if args.trace:
            from layers import PER_LAYER
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            with tracer.recording(-1):
                wl = WORKLOADS[args.workload](args.seed, OUT_DIR, launcher)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
            figures, detail, passes = run_traced(wl, args.seconds, tracer, spans_path)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            metrics = {name: figures[name] for name, _, _, _ in PER_LAYER}
            detail["per_layer_moves"] = {name: moves for name, _, _, moves in PER_LAYER}
        else:
            setup = SetupSampler(args.workload, args.seed, args.seconds, launcher)
            wl = WORKLOADS[args.workload](args.seed, OUT_DIR, launcher)
            metrics, detail, p = run_untraced(wl, args.seconds, setup)
            units = E2E_UNITS
            passes = [p]
    calib.append(calibration_ms())

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(args.seed, calib, cpu),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "known_defects": wl.known_defects,
        **detail,
    }
    print(json.dumps({"record": record}))
    print_table(args.workload, metrics, units, {
        "fail_ratio": f"{len(failures) / attempted:.6f} ({len(failures)} of {attempted} jobs)",
        "known_defects": wl.known_defects,
        "calibration_ms": calib,
    })
    for f in failures[:20]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    from subprocess import run

    load_convmap()
    merged: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            sys.exit(f"error: {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def setup_only(args) -> int:
    load_convmap()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    WORKLOADS[args.workload](args.seed, OUT_DIR, None)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
