"""Third-order jets: a map's value and first three derivatives at one point."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

_COMPONENTS = ("z", "f0", "f1", "f2", "f3")


@dataclass(frozen=True, init=False)
class Jet:
    """f, f', f'', f''' of a holomorphic map at a base point with |z| < 1.

    ``tail`` is a diagnostic only: an estimate of the truncation error when
    the jet came from a truncated series, 0.0 for closed forms.
    """

    z: complex
    f0: complex
    f1: complex
    f2: complex
    f3: complex
    tail: float = 0.0

    def __init__(self, z, f0, f1, f2, f3, tail=0.0):
        # written out rather than generated: the tracer and the critical
        # search build scalar jets in their inner loops, and a generated
        # frozen __init__ plus __post_init__ would set every field twice
        vals = (complex(z), complex(f0), complex(f1), complex(f2), complex(f3))
        tail = float(tail)
        if not all(map(cmath.isfinite, vals)):
            name = next(n for n, v in zip(_COMPONENTS, vals) if not cmath.isfinite(v))
            raise ValueError(f"jet component {name} is not finite")
        if abs(vals[0]) >= 1.0:
            raise ValueError(f"jet base point needs |z| < 1, got |z| = {abs(vals[0]):.6g}")
        self.__dict__.update(zip(_COMPONENTS, vals), tail=tail)
