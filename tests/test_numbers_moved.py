"""``tools/numbers_moved.py``, the gate before the strict output diff, run
as a command on canned pairs of output directories: a file whose numbers
moved passes, changed text or a file on one side only fails."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "numbers_moved.py"


def numbers_moved(tmp_path: Path, base: dict, head: dict) -> tuple[int, list[str]]:
    """Write ``base`` and ``head`` (file name -> text) into two directories
    and run the script on them: its exit code and its lines."""
    for side, files in (("base", base), ("head", head)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "base"), str(tmp_path / "head")],
        capture_output=True, text=True, timeout=30,
    )
    return done.returncode, done.stdout.splitlines()


def test_moved_numbers_pass_with_their_count(tmp_path):
    base = {"lib.txt": "km 2.0000000000000013 k 1.5\n", "same.txt": "verdict Convex 3\n"}
    head = {"lib.txt": "km 2.0 k 1.6\n", "same.txt": "verdict Convex 3\n"}
    rc, lines = numbers_moved(tmp_path, base, head)
    assert rc == 0
    # only the move beyond 1e-12 relative is shown line by line
    assert lines == [
        "lib.txt: 2 numbers moved, largest relative change 0.0625",
        "  line 1:",
        "    - km 2.0000000000000013 k 1.5",
        "    + km 2.0 k 1.6",
    ]


def test_a_real_part_that_moves_to_zero_is_a_moved_number(tmp_path):
    # the half-plane's Schwarzian from a full jet, and from the jet core
    rc, lines = numbers_moved(
        tmp_path, {"lib.txt": "schwarzian (-1.7763568394002505e-15+0j)\n"}, {"lib.txt": "schwarzian 0j\n"}
    )
    assert rc == 0
    assert lines == ["lib.txt: 1 numbers moved, largest relative change 1"]


def test_changed_text_fails(tmp_path):
    rc, lines = numbers_moved(tmp_path, {"check.stdout": "Convex 0.5\n"}, {"check.stdout": "NotConvex 0.5\n"})
    assert rc == 1
    assert lines == ["check.stdout: text differs"]


def test_a_file_on_one_side_only_fails(tmp_path):
    rc, lines = numbers_moved(tmp_path, {"a.txt": "1\n", "gone.csv": "2\n"}, {"a.txt": "1\n", "new.csv": "2\n"})
    assert rc == 1
    assert lines == ["gone.csv: only in base", "new.csv: only in head"]


def test_a_changed_digest_is_reported(tmp_path):
    line = "trace s=1.25 sha256={}\n"
    rc, lines = numbers_moved(tmp_path, {"t.txt": line.format("a" * 64)}, {"t.txt": line.format("b" * 64)})
    assert rc == 0
    assert lines == ["t.txt: 0 numbers moved, largest relative change 0", f"  digest changed: {'a' * 12}... -> {'b' * 12}..."]
