from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convmap as cm
from convmap.cli import CURVATURE_MAP_HEADER, main
from convmap.levelset import CSV_HEADER

REPORT_KEYS = {
    "verdict",
    "slack1Min",
    "slack3Min",
    "kmMax",
    "nehariMax",
    "equalityLocus",
    "phiClass",
    "argmins",
}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def saddle_spec_file(tmp_path):
    # odd univalent series with a saddle of g, recentered to z = 0.3 so the
    # level c = 1 is reachable from a ray scan
    coeffs = np.zeros(201)
    coeffs[1::2] = 1.0
    m = cm.from_series(coeffs, rmax=0.9).precomposed(-0.3)
    path = tmp_path / "saddle.json"
    path.write_text(json.dumps(cm.map_to_json(m)))
    return path


class TestCheck:
    def test_identity_report_schema(self, capsys):
        rc, out, _ = run(capsys, "check", "--map", "identity")
        assert rc == 0
        rep = json.loads(out)
        assert set(rep) == REPORT_KEYS
        assert rep["verdict"] == "Convex"
        assert rep["slack1Min"] == pytest.approx(1.0)
        assert set(rep["equalityLocus"]) == {"flag", "count", "tolerance", "points"}
        assert set(rep["argmins"]) == {"slack1", "slack3", "km", "nehari"}
        assert rep["phiClass"]["kind"] == "strict"
        assert rep["phiClass"]["fitError"] is None

    def test_koebe_fails_check(self, capsys):
        rc, out, _ = run(capsys, "check", "--map", "koebe")
        assert rc == 3
        rep = json.loads(out)
        assert rep["verdict"] == "NotConvex"
        # slack1 keeps falling toward the omitted ray, so the grid minimum
        # sits at the outer edge of the scan
        assert rep["slack1Min"] < -9.0
        x, y = rep["argmins"]["slack1"]
        assert complex(x, y) == pytest.approx(-0.9, abs=1e-12)

    def test_sector_equality_locus(self, capsys):
        rc, out, _ = run(capsys, "check", "--map", "sector", "--alpha", "0.5")
        assert rc == 0
        rep = json.loads(out)
        assert rep["equalityLocus"]["flag"]
        assert rep["equalityLocus"]["count"] == 1600
        assert len(rep["equalityLocus"]["points"]) <= 32
        assert rep["phiClass"]["kind"] == "automorphism"
        assert rep["phiClass"]["a"][0] == pytest.approx(0.5, abs=1e-8)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "check", "--map", "strip", "--out", str(out_path))
        assert rc == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    def test_unknown_builtin(self, capsys):
        rc, _, err = run(capsys, "check", "--map", "annulus")
        assert rc == 1
        assert "malformed map spec" in err

    def test_sector_needs_alpha(self, capsys):
        rc, _, err = run(capsys, "check", "--map", "sector")
        assert rc == 1

    def test_invalid_json_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "check", "--map", str(bad))
        assert rc == 1

    @pytest.mark.parametrize(
        "composition",
        [{"pre": {"a": [float("nan"), 0.0]}}, {"pre": {"a": [0.2, 0.0], "theta": float("inf")}},
         {"post": {"offset": [float("inf"), 0.0]}}],
        ids=["pre-a-nan", "pre-theta-inf", "post-offset-inf"],
    )
    def test_nonfinite_composition(self, capsys, tmp_path, composition):
        # json writes and reads these as the literals NaN and Infinity
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"type": "polygon", "params": {"n": 5}, **composition}))
        out = tmp_path / "x.csv"
        for argv in (["check"], ["trace", "--c", "0.8", "--out", str(out)]):
            rc, _, err = run(capsys, *argv, "--map", str(spec))
            assert rc == 1
            assert "must be finite" in err
        assert not out.exists()

    def test_missing_params_json(self, capsys, tmp_path):
        bad = tmp_path / "sector.json"
        bad.write_text(json.dumps({"type": "sector", "params": {}}))
        rc, _, err = run(capsys, "check", "--map", str(bad))
        assert rc == 1
        # a non-integral vertex count is malformed, not truncated to a triangle
        bad.write_text(json.dumps({"type": "polygon", "params": {"n": 3.7}}))
        rc, out, err = run(capsys, "check", "--map", str(bad))
        assert (rc, out) == (1, "")
        assert err.startswith("error: malformed map spec")

    def test_out_of_range_regenerated_map_exits_five(self, capsys, tmp_path):
        spec = tmp_path / "h.json"
        phi = {"kind": "poly", "coeffs": [[1.0, 0.0], [1.0, 0.0]]}
        spec.write_text(json.dumps({"type": "herglotz", "params": {"phi": phi}}))
        rc, _, err = run(capsys, "check", "--map", str(spec))
        assert rc == 5
        assert err.startswith("error: sup |phi|")

    def test_grid_beyond_certified_radius(self, capsys, tmp_path):
        spec = tmp_path / "short.json"
        m = cm.from_series([0.0, 1.0, 0.5], rmax=0.5)
        spec.write_text(json.dumps(cm.map_to_json(m)))
        rc, _, err = run(capsys, "check", "--map", str(spec))
        assert rc == 2
        assert "radius" in err

    def test_composed_series_on_a_certified_grid(self, capsys, tmp_path):
        # the phi classification's own default grid must shrink with the
        # precomposition, as the report grid does
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cm.TruncationTail)
            m = cm.gen_herglotz(cm.PhiSpec.polynomial([0.2, 0.3j]), order=192, rmax=0.85)
        m = m.precomposed(0.2 + 0.1j).postcomposed(2.0 - 1.0j, 0.5)
        spec = tmp_path / "composed.json"
        spec.write_text(json.dumps(cm.map_to_json(m)))
        rc, out, err = run(capsys, "check", "--map", str(spec), "--rmax", "0.6")
        assert rc == 0, err
        assert json.loads(out)["verdict"] == "Convex"


class TestTrace:
    def test_identity_circle_csv(self, capsys, tmp_path):
        out = tmp_path / "circle.csv"
        rc, _, err = run(
            capsys, "trace", "--map", "identity", "--c", "0.75", "--out", str(out)
        )
        assert rc == 0
        assert "closed" in err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 629  # 628 points at the default step
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        np.testing.assert_allclose(data[:, 6], 2.0, atol=1e-9)

    def test_svg_output(self, capsys, tmp_path):
        out, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        rc, _, _ = run(
            capsys, "trace", "--map", "identity", "--c", "0.75",
            "--out", str(out), "--svg", str(svg),
        )
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polygon" in text  # closed curve renders as a polygon
        assert "<circle" in text

    def test_open_curve_svg_uses_polyline(self, capsys, tmp_path):
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        rc, _, _ = run(
            capsys, "trace", "--map", "strip", "--c", "0.5",
            "--theta", "1.5707963267948966", "--out", str(out), "--svg", str(svg),
        )
        assert rc == 0
        assert "<polyline" in svg.read_text()

    def test_level_not_on_ray(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "trace", "--map", "strip", "--c", "0.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 4
        assert "not crossed" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trace-rmax", "-0.9", "rmax must be positive"),
            ("--trace-rmax", "0", "rmax must be positive"),
            ("--c", "nan", "level constant must be positive and finite"),
            ("--theta", "nan", "theta must be finite"),
        ],
        ids=["-0.9", "0", "c-nan", "theta-nan"],
    )
    def test_nonpositive_trace_radius(self, capsys, tmp_path, flag, value, message):
        # a start that admits no trace is an evaluation error, not an unmet level
        out = tmp_path / "x.csv"
        args = {"--c": "0.75", flag: value}
        argv = [token for pair in args.items() for token in pair]
        rc, _, err = run(capsys, "trace", "--map", "identity", *argv, "--out", str(out))
        assert rc == 2
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("rmax", ["1.0", "1.5"])
    def test_trace_radius_below_one(self, capsys, tmp_path, rmax):
        # the start scan's last sample would sit on the circle, where the
        # half-plane's f' is infinite: the radius is refused before NumPy
        # evaluates anything there, so no RuntimeWarning is printed
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run(capsys, "trace", "--map", "halfplane", "--c", "3", "--trace-rmax", rmax, "--out", str(out))
        assert rc == 2
        assert err.splitlines() == [f"error: the search radius rmax must be positive and below 1, got {float(rmax):g}"]
        assert not out.exists()

    def test_vanishing_normal_at_start(self, capsys, tmp_path):
        out = tmp_path / "none.csv"
        rc, _, err = run(
            capsys, "trace", "--map", "strip", "--c", "1.0", "--out", str(out)
        )
        assert rc == 0
        assert "nothing to write" in err
        assert not out.exists()

    def test_partial_curve_written_on_mid_march_vanish(self, capsys, tmp_path):
        spec = saddle_spec_file(tmp_path)
        out = tmp_path / "partial.csv"
        rc, _, err = run(
            capsys, "trace", "--map", str(spec), "--c", "1.0", "--theta", "1e-3",
            "--step", "2e-5", "--max-points", "2000", "--trace-rmax", "0.89",
            "--out", str(out),
        )
        assert rc == 0
        assert "partial" in err
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 10


class TestCurvatureMap:
    def test_koebe_grid(self, capsys, tmp_path):
        out = tmp_path / "km.csv"
        rc, _, _ = run(capsys, "curvature-map", "--map", "koebe", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CURVATURE_MAP_HEADER
        assert len(lines) == 1601
        data = np.loadtxt(str(out), delimiter=",", skiprows=1)
        # the grid point nearest -0.5 shows the classical tangency value -1
        # to grid resolution; the global minimum sits at the outer edge
        j = int(np.argmin(np.abs(data[:, 0] + 1j * data[:, 1] - (-0.5))))
        assert complex(data[j, 0], data[j, 1]) == pytest.approx(-0.495, abs=1e-12)
        assert data[j, 2] == pytest.approx(-0.9735, abs=1e-3)
        i = int(np.argmin(data[:, 2]))
        assert complex(data[i, 0], data[i, 1]) == pytest.approx(-0.9, abs=1e-12)

    def test_kappa_column_matches_image_curvature(self, capsys, tmp_path):
        out = tmp_path / "polygon.csv"
        rc, _, _ = run(capsys, "curvature-map", "--map", "polygon", "--n", "5", "--out", str(out))
        assert rc == 0
        m = cm.polygon(5)
        checked = 0
        for row in out.read_text().splitlines()[1:]:
            cells = row.split(",")
            if cells[5] == "":
                continue
            j = cm.jet_of(m, complex(float(cells[0]), float(cells[1])))
            assert float(cells[5]) == pytest.approx(cm.image_curvature(j), rel=1e-13)
            checked += 1
        assert checked > 1500

    def test_strip_blanks_kappa_on_diameter(self, capsys, tmp_path):
        out = tmp_path / "strip.csv"
        rc, _, _ = run(capsys, "curvature-map", "--map", "strip", "--out", str(out))
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        trailing = [r.rsplit(",", 1)[1] for r in rows]
        assert any(t == "" for t in trailing)
        assert any(t != "" for t in trailing)


class TestGen:
    def test_round_trip_check_is_convex(self, capsys, tmp_path):
        spec = tmp_path / "map.json"
        rc, _, _ = run(capsys, "gen", "--phi-poly", "0,1", "--out", str(spec))
        assert rc == 0
        rc, out, _ = run(capsys, "check", "--map", str(spec))
        assert rc == 0
        assert json.loads(out)["verdict"] == "Convex"

    def test_default_order_is_the_library_default(self, capsys, tmp_path):
        spec = tmp_path / "map.json"
        assert run(capsys, "gen", "--phi-poly", "0.3", "--out", str(spec))[0] == 0
        assert cm.map_from_json(json.loads(spec.read_text())).series.order == cm.DEFAULT_ORDER

    def test_constant_phi_writes_halfplane_series(self, capsys, tmp_path):
        spec = tmp_path / "hp.json"
        rc, _, _ = run(capsys, "gen", "--phi-const", "1", "--out", str(spec))
        assert rc == 0
        m = cm.map_from_json(json.loads(spec.read_text()))
        expect = np.ones(40)
        expect[0] = 0.0
        np.testing.assert_allclose(m.series.coeffs[:40], expect, atol=1e-12)

    def test_random_phi_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc, _, _ = run(
                capsys, "gen", "--phi-random", "4", "--seed", "7",
                "--order", "64", "--out", str(path),
            )
            assert rc == 0
        assert a.read_text() == b.read_text()

    def test_different_seed_changes_map(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--phi-random", "4", "--seed", "7", "--order", "64", "--out", str(a))
        run(capsys, "gen", "--phi-random", "4", "--seed", "8", "--order", "64", "--out", str(b))
        assert a.read_text() != b.read_text()

    def test_oversized_phi_exits_five(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "gen", "--phi-poly", "1,1", "--out", str(tmp_path / "x.json")
        )
        assert rc == 5

    def test_target_above_one_exits_five(self, capsys, tmp_path):
        rc, _, err = run(capsys, "gen", "--phi-random", "2", "--target", "1.5", "--out", str(tmp_path / "x.json"))
        assert rc == 5
        assert "exceeds 1" in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("phi", [
        {"coeffs": [[0.2, 0.0]]},
        {"kind": "spline", "coeffs": [[0.2, 0.0]]},
        {"kind": "poly", "coeffs": [[0.2, 0.0, 0.1]]},
    ], ids=["no-kind", "unknown-kind", "bad-pair"])
    def test_malformed_phi_json_exits_one(self, capsys, tmp_path, phi):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"type": "herglotz", "params": {"phi": phi, "order": 16}}))
        rc, out, err = run(capsys, "check", "--map", str(spec))
        assert rc == 1
        assert out == ""
        assert err.startswith("error: malformed map spec")

    def test_nonunimodular_constant_is_usage_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "gen", "--phi-const", "0.5", "--out", str(tmp_path / "x.json")
        )
        assert rc == 1
        assert "unimodular" in err

    def test_exactly_one_phi_flag(self, capsys, tmp_path):
        rc, _, err = run(capsys, "gen", "--out", str(tmp_path / "x.json"))
        assert rc == 1
        rc, _, err = run(
            capsys, "gen", "--phi-const", "1", "--phi-poly", "0,1",
            "--out", str(tmp_path / "x.json"),
        )
        assert rc == 1

    def test_blaschke_zeros(self, capsys, tmp_path):
        spec = tmp_path / "b.json"
        rc, _, _ = run(
            capsys, "gen", "--phi-blaschke", "0.4,-0.2i", "--phi-theta", "0.3",
            "--order", "64", "--gen-rmax", "0.5", "--out", str(spec),
        )
        assert rc == 0
        m = cm.map_from_json(json.loads(spec.read_text()))
        assert m.series.rmax == 0.5

    @pytest.mark.parametrize("argv", [
        ("--phi-blaschke", "1.5"),
        ("--phi-poly", "nan"),
        ("--phi-blaschke", "0.2", "--phi-theta", "nan"),
        ("--phi-poly", "0.2,1e400"),
        ("--phi-poly", "0.2", "--order", "1"),
        ("--phi-poly", "0.2", "--gen-rmax", "1.5"),
        # a negative target would flip the sign of phi and keep sup |phi| = 1
        ("--phi-random", "2", "--target", "-1"),
    ])
    def test_malformed_generator_exits_one(self, tmp_path, argv):
        proc = run_in_tree("-m", "convmap", "gen", *argv, "--out", str(tmp_path / "x.json"), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: malformed generator spec")
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "x.json").exists()



TREE_ROOT = Path(cm.__file__).resolve().parents[2]


def run_in_tree(*args, timeout):
    """Run ``python *args`` in a child with the ``src`` of the tree under
    test first on ``PYTHONPATH``."""
    paths = [str(TREE_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env,
    )


def run_console_script(*argv, timeout):
    """Run the ``convmap`` script that pyproject.toml declares, without an install.

    The ``[project.scripts]`` target is read from the pyproject.toml of the tree
    that ``convmap`` was imported from, and called in a child interpreter the way
    the installed wrapper calls it, with that tree's ``src`` first on
    ``PYTHONPATH`` so the child runs the code under test.
    """
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(TREE_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"].get("scripts", {}).get("convmap")
    assert target is not None
    module, attr = target.split(":")
    code = (
        f"import sys; sys.argv[0] = 'convmap'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    return run_in_tree("-c", code, *argv, timeout=timeout)


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = run_console_script(
            "check", "--map", "identity", "--nr", "8", "--ntheta", "8", timeout=120
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "Convex"

    def test_usage_error_exit_code(self):
        proc = run_console_script("frobnicate", timeout=60)
        assert proc.returncode == 1
        # a broken entry point also exits 1, with an ImportError traceback
        assert "invalid choice" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestModuleEntry:
    def test_python_m_convmap_matches_cli_module(self):
        argv = ("check", "--map", "identity")
        pkg = run_in_tree("-m", "convmap", *argv, timeout=120)
        cli = run_in_tree("-m", "convmap.cli", *argv, timeout=120)
        assert pkg.returncode == cli.returncode == 0
        assert pkg.stdout == cli.stdout
        assert json.loads(pkg.stdout)["verdict"] == "Convex"
