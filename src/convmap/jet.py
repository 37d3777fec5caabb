"""Third-order jets: a map's value and first three derivatives at one point."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import SingularPoint

_COMPONENTS = ("z", "f0", "f1", "f2", "f3")


@dataclass(frozen=True)
class Jet:
    """f, f', f'', f''' of a holomorphic map at a base point with |z| < 1.

    A checked point, held to the rules of ``maps._jet_at``, the one
    single-point route, through which ``jet_of`` builds one: the constructor
    refuses a non-finite component or |z| >= 1 with ValueError, then f' = 0
    with SingularPoint, so every view of a Jet may divide by f'.
    """

    z: complex
    f0: complex
    f1: complex
    f2: complex
    f3: complex

    def __post_init__(self):
        vals = (complex(self.z), complex(self.f0), complex(self.f1), complex(self.f2), complex(self.f3))
        if not all(map(cmath.isfinite, vals)):
            name = next(n for n, v in zip(_COMPONENTS, vals) if not cmath.isfinite(v))
            raise ValueError(f"jet component {name} is not finite")
        if abs(vals[0]) >= 1.0:
            raise ValueError(f"jet base point needs |z| < 1, got |z| = {abs(vals[0]):.6g}")
        if vals[2] == 0:
            raise SingularPoint(f"f' vanishes at z = {vals[0]}")
        self.__dict__.update(zip(_COMPONENTS, vals))
