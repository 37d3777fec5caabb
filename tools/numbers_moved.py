#!/usr/bin/env python3
"""Sort the differences between two output directories (as written by
tools/cli_outputs.sh and tools/library_outputs.py) into moved numbers,
changed digests and changed text.

usage: python tools/numbers_moved.py OUT_BASE OUT_HEAD

For each file that differs: if its text is the same once every number and
every ``sha256=<hex>`` digest is masked, print how many numbers moved, the
largest relative change, each line where a number moved by more than RTOL
relative and ATOL absolute, and "digest changed" for each digest that
differs; otherwise print "text differs".  A file found on one side only is
named as such.  Exits 1 when some file is on one side only or its text
differs, so a change that moves only numbers passes.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

RTOL, ATOL = 1e-12, 1e-13
DIGEST = re.compile(r"sha256=[0-9a-f]{64}")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:nan|inf)\b")
# the repr of a complex whose real part is +0.0 omits it ("-2e-16j"), so a real
# part that moves to or from 0.0 would change the text: read it as "(0-2e-16j)"
IMAGINARY = re.compile(r"(?<![\w.+\-])([-+]?)((?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)j")


def complete(text: str) -> str:
    return IMAGINARY.sub(lambda m: f"(0{m[1] or '+'}{m[2]}j)", text)


def relative(a: float, b: float) -> float:
    if a == b or (a != a and b != b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(name: str, base: str, head: str) -> list[str]:
    """The report lines of one file that differs; the first ends in "text
    differs" when more than numbers and digests changed."""
    digests = [(b, h) for b, h in zip(DIGEST.findall(base), DIGEST.findall(head)) if b != h]
    base, head = (complete(DIGEST.sub("sha256=#", text)) for text in (base, head))
    if NUMBER.sub("#", base) != NUMBER.sub("#", head):
        return [f"{name}: text differs"]
    moved, worst, lines = 0, 0.0, []
    for i, (lb, lh) in enumerate(zip(base.splitlines(), head.splitlines()), 1):
        pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(lb), NUMBER.findall(lh)) if a != b]
        moved += len(pairs)
        worst = max([worst, *(relative(a, b) for a, b in pairs)])
        if any(not abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b)) for a, b in pairs):
            lines += [f"  line {i}:", f"    - {lb}", f"    + {lh}"]
    return [f"{name}: {moved} numbers moved, largest relative change {worst:.3g}", *lines,
            *(f"  digest changed: {b[7:19]}... -> {h[7:19]}..." for b, h in digests)]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    base_dir, head_dir = Path(argv[1]), Path(argv[2])
    names = sorted({str(p.relative_to(d)) for d in (base_dir, head_dir) for p in d.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        b, h = base_dir / name, head_dir / name
        if not (b.is_file() and h.is_file()):
            print(f"{name}: only in {'base' if b.is_file() else 'head'}")
            status = 1
            continue
        base, head = (p.read_text(encoding="utf-8", errors="replace") for p in (b, h))
        if base != head:
            report = compare(name, base, head)
            print("\n".join(report))
            status = 1 if report[0].endswith("text differs") else status
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
