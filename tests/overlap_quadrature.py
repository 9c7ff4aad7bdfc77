"""Quadrature of the circle overlaps: the reference for `dirac.overlap`.

<e_n, f_m> is the integral of sqrt(2) (-1)^m e^{i (2m - n) lam} / (2 pi)
over the arc pi/2 <= lam <= 3 pi/2; Gauss-Legendre evaluates it without
the closed form.  No command runs it.
"""

import math

import numpy as np

from quasifree.dirac import SQRT2


def overlap_quadrature(m: int, n: int, order: int = 400) -> complex:
    """Gauss-Legendre evaluation of the defining integral."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lo, hi = math.pi / 2, 3 * math.pi / 2
    lam = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = SQRT2 * (-1.0) ** m * np.exp(1j * (2 * m - n) * lam)
    return complex(np.sum(weights * vals) * 0.5 * (hi - lo) / (2 * math.pi))
