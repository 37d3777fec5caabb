"""``tools/bench_pairs.py`` on canned benchmark output, with no benchmark
run: the order of the sides in each pair, the parsing of ``run.py``'s last
two lines, the medians and ranges per side, and the pair table."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(jobs_per_s: float, p90: float) -> dict:
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"}, "job_ms_p90": {"value": p90, "unit": "ms"}}}


def output(side: str, run: int, res: dict) -> str:
    """What an untraced run.py prints on stdout: the record line, then the result line."""
    record = {"workload": "grid_scan", "host_factor": 1.0 + run / 100,
              "machine": {"src_sha256": f"sha-{side}", "commit": None, "calibration_ms": [40.0, 41.0]}}
    return json.dumps({"record": record}) + "\n" + json.dumps(res) + "\n"


def test_the_sides_alternate():
    assert bench_pairs.run_order(4) == [("base", "head"), ("head", "base"), ("base", "head"), ("head", "base")]


def test_the_last_two_lines_are_the_record_and_the_result():
    record, res = bench_pairs.parse_run("table\n" + output("base", 2, result(100.0, 1.5)))
    assert record["host_factor"] == 1.02 and record["machine"]["src_sha256"] == "sha-base"
    assert res == result(100.0, 1.5)
    with pytest.raises(ValueError, match="ends before"):
        bench_pairs.parse_run(json.dumps(result(1.0, 1.0)))


def test_median_and_range_per_metric():
    summary = bench_pairs.summarize([result(100.0, 2.0), result(90.0, 4.0), result(120.0, 1.0), result(95.0, 3.0)])
    assert summary == {"jobs_per_s": {"median": 97.5, "min": 90.0, "max": 120.0},
                       "job_ms_p90": {"median": 2.5, "min": 1.0, "max": 4.0}}


def test_pairs_count_head_better_by_direction():
    base = [result(100.0, 2.0), result(100.0, 2.0), result(100.0, 2.0)]
    head = [result(110.0, 2.0), result(100.0, 1.0), result(90.0, 3.0)]
    table = bench_pairs.pair_table(base, head, {"jobs_per_s": "higher", "job_ms_p90": "lower"})
    assert table["jobs_per_s"] == {"pairs": [(100.0, 110.0), (100.0, 100.0), (100.0, 90.0)], "head_better": 1}
    assert table["job_ms_p90"]["head_better"] == 1  # a tie counts for neither side
    assert "head_better" not in bench_pairs.pair_table(base, head, {})["jobs_per_s"]


def test_a_run_writes_each_side_in_pair_order(tmp_path, monkeypatch):
    # canned runs: base reads 100, 101, ... and head 200, 201, ... in the order each side ran
    ran, counts = [], {"base": 0, "head": 0}

    def fake_run(tree, workload, seconds, seed):
        side = tree.name
        ran.append((workload, side))
        counts[side] += 1
        value = (100.0 if side == "base" else 200.0) + counts[side] - 1
        return bench_pairs.parse_run(output(side, counts[side], result(value, 1000.0 / value)))

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "jobs_per_s", "better": "higher"}, {"name": "job_ms_p90", "better": "lower"}]}))
    out = tmp_path / "BENCH_test.json"
    argv = [str(tmp_path / "base"), str(tmp_path / "head"), "--workload", "grid_scan", "--pairs", "3",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert ran == [("grid_scan", s) for s in ("base", "head", "head", "base", "base", "head")]
    written = json.loads(out.read_text())
    assert written["base"] == {"rev": str(tmp_path / "base"), "commit": None}
    entry = written["workloads"]["grid_scan"]
    assert entry["order"] == [["base", "head"], ["head", "base"], ["base", "head"]]
    assert [r["result"]["metrics"]["jobs_per_s"]["value"] for r in entry["head"]["runs"]] == [200.0, 201.0, 202.0]
    assert [r["host_factor"] for r in entry["base"]["runs"]] == [1.01, 1.02, 1.03]
    assert entry["base"]["src_sha256"] == ["sha-base"]
    assert entry["head"]["summary"]["jobs_per_s"] == {"median": 201.0, "min": 200.0, "max": 202.0}
    assert entry["pairs"]["jobs_per_s"]["pairs"] == [[100.0, 200.0], [101.0, 201.0], [102.0, 202.0]]
    assert entry["pairs"]["jobs_per_s"]["head_better"] == 3 and entry["pairs"]["job_ms_p90"]["head_better"] == 3
