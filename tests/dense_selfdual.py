"""Dense J, P1, C and gauge extensions: the reference for selfdual.

The toolkit applies J as a roll of each axis plus a conjugation
(`selfdual.conjugate_matrix`), C as a sign flip of the second half
(`selfdual.kappa_sign`) and a gauge unitary u as u and conj(u) on the two
halves (`selfdual.apply_gauge`).  Here all of them are the 2n x 2n matrices
of the definitions, multiplied out.  `conjugate_matrix` and `kappa_sign`
keep the toolkit's signatures, so a test can compare against them or patch
them in.
"""

import numpy as np


def swap(space) -> np.ndarray:
    """The real part of J: exchanges the K and K* halves."""
    n = space.n_modes
    s = np.zeros((2 * n, 2 * n))
    s[:n, n:] = np.eye(n)
    s[n:, :n] = np.eye(n)
    return s


def p1(space) -> np.ndarray:
    n = space.n_modes
    return np.diag(np.concatenate([np.ones(n), np.zeros(n)])).astype(complex)


def charge_conjugation(space) -> np.ndarray:
    """C = P1 - P2, the fundamental symmetry of the kappa form."""
    n = space.n_modes
    return np.diag(np.concatenate([np.ones(n), -np.ones(n)])).astype(complex)


def conj_vector(space, vec: np.ndarray) -> np.ndarray:
    """J applied to coordinates: swap halves, conjugate entries."""
    return swap(space) @ np.conj(vec)


def kappa_gram(space, x: np.ndarray, y: np.ndarray) -> complex:
    """kappa(x, y) = <x, C y> (hermitian, indefinite)."""
    return complex(np.vdot(x, charge_conjugation(space) @ y))


def conjugate_matrix(matrix: np.ndarray, domain, codomain) -> np.ndarray:
    """J A J, or J A for a frame (domain None), as dense products."""
    out = swap(codomain) @ np.conj(matrix)
    return out if domain is None else out @ swap(domain)


def kappa_sign(matrix: np.ndarray, domain, codomain) -> np.ndarray:
    """C A C, with C left out on an axis whose space is None."""
    out = matrix if codomain is None else charge_conjugation(codomain) @ matrix
    return out if domain is None else out @ charge_conjugation(domain)


def extend_gauge(u11: np.ndarray, space) -> np.ndarray:
    """u + conj(u): u11 on the K1 modes extended to the self-dual space."""
    n = space.n_modes
    full = np.zeros((space.dim, space.dim), dtype=complex)
    full[:n, :n] = u11
    full[n:, n:] = np.conj(u11)
    return full
