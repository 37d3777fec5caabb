"""Independent oracles shared by the test modules.

Closed forms are evaluated in mpmath at 50 digits; derivatives come from a
five-point stencil on a circle of radius h, which recovers f', f'', f''' of
an analytic function to near machine precision at h = 1e-4, or, for
(f', P, S) of a composed map, from mpmath's own numerical derivatives to 40
digits.  Nothing here imports the package's series or jet machinery, so
agreement is meaningful.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 50

FD_STEP = 1e-4
PHI_CIRCLE_SAMPLES = 4096


def closed_form(name: str, alpha: float = 0.5, n: int = 5):
    """Return the map as a plain mpmath callable."""
    if name == "identity":
        return lambda z: z
    if name == "halfplane":
        return lambda z: z / (1 - z)
    if name == "strip":
        return mp.atanh
    if name == "sector":
        a = mp.mpf(alpha)
        return lambda z: ((1 + z) / (1 - z)) ** a
    if name == "polygon":
        inv = mp.mpf(1) / n
        return lambda z: z * mp.hyp2f1(inv, 2 * inv, 1 + inv, z**n)
    if name == "koebe":
        return lambda z: z / (1 - z) ** 2
    raise ValueError(f"unknown closed form {name!r}")


def polynomial(coeffs):
    """The polynomial with these coefficients (constant term first) as a plain
    mpmath callable."""
    c = [mp.mpc(complex(x)) for x in reversed(coeffs)]
    return lambda z: mp.polyval(c, z)


def composed_jet(f, z, pre=None, scale=1.0):
    """(f', P = f''/f', S) at z of scale * f(tau(z)) + offset, to 40 digits:
    tau(z) = e^{i theta} (z + a) / (1 + conj(a) z) for pre = (a, theta), the
    identity for None.  The derivatives are mpmath's numerical derivatives
    (``mp.diffs``) of the composed function, so no chain rule is written."""
    g = f
    if pre is not None:
        a, e = mp.mpc(pre[0]), mp.expj(pre[1])
        g = lambda w: f(e * (w + a) / (1 + mp.conj(a) * w))
    _, d1, d2, d3 = mp.diffs(g, mp.mpc(z), 3)
    P = d2 / d1
    return complex(scale * d1), complex(P), complex(d3 / d1 - mp.mpf(3) / 2 * P**2)


def fd_jet(f, z, h: float = FD_STEP):
    """f(z), f'(z), f''(z), f'''(z) from five samples on the circle |w - z| = h."""
    z = mp.mpc(z)
    h = mp.mpf(h)
    roots = [mp.e ** (2j * mp.pi * j / 5) for j in range(5)]
    vals = [f(z + h * w) for w in roots]
    jets = [f(z)]
    for order in (1, 2, 3):
        s = sum(v * w ** (-order) for v, w in zip(vals, roots))
        jets.append(s * mp.factorial(order) / (5 * h**order))
    return jets


def fd_schwarzian(f, z, h: float = FD_STEP) -> complex:
    _, f1, f2, f3 = fd_jet(f, z, h)
    return complex(f3 / f1 - mp.mpf(3) / 2 * (f2 / f1) ** 2)


def random_phi_coeffs(rng: np.random.Generator, max_degree: int = 6, lo: float = 0.2, hi: float = 0.95):
    """Random polynomial coefficients rescaled so sup |phi| on |z|=1 lands in [lo, hi]."""
    deg = int(rng.integers(0, max_degree + 1))
    coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    circle = np.exp(2j * np.pi * np.arange(PHI_CIRCLE_SAMPLES) / PHI_CIRCLE_SAMPLES)
    sup = np.abs(np.polynomial.polynomial.polyval(circle, coef)).max()
    return coef * (rng.uniform(lo, hi) / sup)


def random_disk_points(rng: np.random.Generator, count: int, rmax: float, rmin: float = 0.05):
    """Area-uniform sample of the annulus rmin <= |z| <= rmax."""
    r = np.sqrt(rng.uniform(rmin**2, rmax**2, count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))
