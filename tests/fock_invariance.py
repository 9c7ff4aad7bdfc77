"""Invariance residuals of the Fock oracle's spans, for the tests.

The charge theorem presumes that Gamma(U) leaves the span of the charged
vectors Omega_alpha invariant, and that Gamma(U) Psi_alpha Gamma(U)* stays
in the span of the implementers.  These two measure both directly, by
orthogonal projection; no command runs them.
"""

import numpy as np

from quasifree.selfdual import hs_norm


def span_invariance_residual(vectors: list[np.ndarray],
                             gamma: np.ndarray) -> float:
    """Largest distance of Gamma(U) Omega_alpha from span{Omega_beta}."""
    q = np.column_stack(vectors)
    resid = 0.0
    for vec in vectors:
        img = gamma @ vec
        gap = img - q @ (q.conj().T @ img)
        resid = max(resid, float(np.linalg.norm(gap)))
    return resid


def implementer_invariance_residual(psis: list[np.ndarray],
                                    gamma_cod: np.ndarray,
                                    gamma_dom: np.ndarray) -> float:
    """Largest HS distance of Gamma Psi Gamma* from span{Psi_beta}."""
    dim_d = psis[0].shape[1]
    resid = 0.0
    for psi in psis:
        img = gamma_cod @ psi @ gamma_dom.conj().T
        proj = np.zeros_like(img)
        for basis in psis:
            proj += (np.trace(basis.conj().T @ img) / dim_d) * basis
        resid = max(resid, hs_norm(img - proj) / max(hs_norm(img), 1e-300))
    return resid
