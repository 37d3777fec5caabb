"""Polar evaluation grids shared by reports, scans, and searches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """nr radii times ntheta angles; radii are rmax*(i+1)/nr, so 0 is excluded."""

    nr: int = 40
    ntheta: int = 40
    rmax: float = 0.9

    def __post_init__(self):
        for name in ("nr", "ntheta"):  # 2.5 rings would put one outside rmax
            if not float(getattr(self, name)).is_integer():
                raise ValueError(f"grid {name} must be an integer, got {getattr(self, name)!r}")
        if self.nr < 1 or self.ntheta < 1:
            raise ValueError("grid counts must be positive")
        if not 0.0 < self.rmax < 1.0:
            raise ValueError(f"grid rmax must lie in (0, 1), got {self.rmax}")

    def points(self) -> np.ndarray:
        """Complex grid points in radius-major order."""
        th = 2.0 * np.pi * np.arange(self.ntheta) / self.ntheta
        return (self.radii()[:, None] * np.exp(1j * th)[None, :]).ravel()

    def radii(self) -> np.ndarray:
        """The ring radii rmax*(i+1)/nr, innermost first."""
        return self.rmax * np.arange(1, self.nr + 1) / self.nr


def grid_points(where) -> np.ndarray:
    """The points of a GridSpec, or ``where`` itself as a complex array."""
    if isinstance(where, GridSpec):
        return where.points()
    return np.asarray(where, dtype=complex)
