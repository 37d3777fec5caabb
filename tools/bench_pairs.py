#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternated pairs and write every
run, with the median and range of each metric per side, to one JSON file.

usage: python tools/bench_pairs.py BASE HEAD [--workload W] [--pairs N]
           [--seconds S] [--seed K] --out BENCH_<label>.json

BASE and HEAD are git revisions of the repository holding this script, or
directories that hold a checkout (the benchmark then writes its
``.bench_out/`` there).  A revision is unpacked into a scratch directory with
``git archive REV | tar -x -C DIR``, so nothing is written in the checkout.  Each side runs its own ``benchmarks/run.py`` (which imports
``convmap`` from that tree's ``src/``) untraced, once per pair; pair i runs
BASE first when i is even and HEAD first when it is odd.  ``--workload all``
runs the pairs of each workload in turn.

For each workload and side the file holds every run's result object (the
last line ``run.py`` prints), its machine fields (commit, src SHA-256,
calibration, Python, NumPy, CPU) and host factor, the src SHA-256 of the
side, and the median, minimum and maximum of each metric; per metric it
also lists the pairs' values in the order they ran and counts the pairs in
which HEAD reads better, by the direction ``BENCHMARK.json`` gives.  It
draws no conclusion.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_scan", "level_march", "cli_session")
SIDES = ("base", "head")


def run_order(pairs: int) -> list[tuple[str, str]]:
    """The sides of each pair in the order they run: base first in even pairs."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def parse_run(stdout: str) -> tuple[dict, dict]:
    """(record, result) from the output of an untraced ``run.py``: its last
    line is the result object and the line before it the full record."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("benchmark output ends before its record and result lines")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(results: list[dict]) -> dict:
    """Median, minimum and maximum of each metric over the result objects."""
    values: dict[str, list[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {name: {"median": statistics.median(v), "min": min(v), "max": max(v)} for name, v in values.items()}


def pair_table(base: list[dict], head: list[dict], better: dict[str, str]) -> dict:
    """Per metric the (base, head) values of each pair and, for a metric
    whose direction ``better`` gives, how many pairs HEAD reads better in
    (ties count for neither side)."""
    table = {}
    for name in base[0]["metrics"]:
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"]) for b, h in zip(base, head)]
        entry = {"pairs": pairs}
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["head_better"] = sum(sign * (h - b) > 0 for b, h in pairs)
        table[name] = entry
    return table


def workload_record(order: list[tuple[str, str]], runs: dict[str, list[tuple[dict, dict]]], better: dict) -> dict:
    """The file's entry for one workload from the (record, result) of each
    side's runs, in pair order."""
    entry: dict = {"order": [list(pair) for pair in order]}
    for side in SIDES:
        records = [record for record, _ in runs[side]]
        results = [result for _, result in runs[side]]
        entry[side] = {
            "src_sha256": sorted({r["machine"]["src_sha256"] for r in records}),
            "summary": summarize(results),
            "runs": [{"result": result, "machine": record["machine"], "host_factor": record.get("host_factor")}
                     for record, result in runs[side]],
        }
    entry["pairs"] = pair_table([r for _, r in runs["base"]], [r for _, r in runs["head"]], better)
    return entry


def checkout(rev: str, scratch: Path, side: str) -> tuple[Path, str | None]:
    """(tree, commit): the directory itself when ``rev`` names one (commit
    None), else ``git archive`` of the revision unpacked under ``scratch``."""
    if Path(rev).is_dir():
        return Path(rev).resolve(), None
    git = ["git", "-C", str(REPO)]
    commit = subprocess.run(git + ["rev-parse", "--verify", f"{rev}^{{commit}}"], capture_output=True, text=True,
                            check=True).stdout.strip()
    tree = scratch / side
    tree.mkdir()
    archive = subprocess.run(git + ["archive", commit], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree, commit


def run_side(tree: Path, workload: str, seconds: float, seed: int) -> tuple[dict, dict]:
    """One untraced benchmark run in ``tree``: its (record, result)."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=seconds * 10 + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} exited {done.returncode}\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def directions(tree: Path) -> dict[str, str]:
    """metric name -> "higher" or "lower", from the tree's BENCHMARK.json."""
    path = tree / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m["better"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees, out = {}, {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            trees[side], commit = checkout(rev, Path(scratch), side)
            out[side] = {"rev": rev, "commit": commit}
        out.update(pairs=args.pairs, seconds=args.seconds, seed=args.seed, workloads={})
        better = directions(trees["head"])
        order = run_order(args.pairs)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            runs: dict[str, list] = {side: [] for side in SIDES}
            for i, pair in enumerate(order):
                for side in pair:
                    runs[side].append(run_side(trees[side], workload, args.seconds, args.seed))
                    value = runs[side][-1][1]["metrics"]["jobs_per_s"]["value"]
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: jobs_per_s {value:.4g}", file=sys.stderr)
            out["workloads"][workload] = workload_record(order, runs, better)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
