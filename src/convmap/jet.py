"""Third-order jets: a map's value and first three derivatives at one point."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

_COMPONENTS = ("z", "f0", "f1", "f2", "f3")


@dataclass(frozen=True, init=False)
class Jet:
    """f, f', f'', f''' of a holomorphic map at a base point with |z| < 1.

    The constructor refuses a non-finite component or |z| >= 1; ``jet_of``
    builds one through ``maps._jet_at``, the one checked point route.
    """

    z: complex
    f0: complex
    f1: complex
    f2: complex
    f3: complex

    def __init__(self, z, f0, f1, f2, f3):
        # written out rather than generated: ``jet_of`` builds one per point,
        # and a generated frozen __init__ plus __post_init__ would set every
        # field twice
        vals = (complex(z), complex(f0), complex(f1), complex(f2), complex(f3))
        if not all(map(cmath.isfinite, vals)):
            name = next(n for n, v in zip(_COMPONENTS, vals) if not cmath.isfinite(v))
            raise ValueError(f"jet component {name} is not finite")
        if abs(vals[0]) >= 1.0:
            raise ValueError(f"jet base point needs |z| < 1, got |z| = {abs(vals[0]):.6g}")
        self.__dict__.update(zip(_COMPONENTS, vals))
