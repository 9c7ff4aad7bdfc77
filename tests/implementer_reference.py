"""Per-column implementer chain: the reference for `fock.car_implementers`.

This is the construction `car_implementers` replaced.  Column s of Psi_alpha
takes one matvec, pi(V e_low) applied to column s ^ low, low the lowest set
bit of s, in increasing order of s.  Each intertwining gap is formed as
psi @ pi_d - pi_c @ psi, with psi @ pi_d scattered into a zero matrix and
pi_d, pi_c built by `pi` from the basis vector f and from V f.  Isometry,
completeness and the implementation bound are computed as in
`car_implementers`.
"""

import math

import numpy as np

from quasifree.fock import ImplementerSet
from quasifree.selfdual import hs_norm


def reference_car_implementers(v, fock_dom, fock_cod, omega_alphas):
    nd = fock_dom.n_modes
    pi_v = [fock_cod.pi(v.codomain, v.matrix[:, i]) for i in range(nd)]
    psis = []
    for omega in omega_alphas:
        cols = np.zeros((fock_cod.dim, fock_dom.dim), dtype=complex)
        cols[:, 0] = omega
        for s in range(1, fock_dom.dim):
            low = (s & -s).bit_length() - 1
            cols[:, s] = pi_v[low] @ cols[:, s ^ (1 << low)]
        psis.append(cols)

    stacked = np.hstack(psis)
    gram_gap = stacked.conj().T @ stacked - np.eye(stacked.shape[1])
    iso = float(np.max(np.abs(gram_gap)))
    comp = math.sqrt(max(0.0, hs_norm(gram_gap) ** 2
                         + (fock_cod.dim - stacked.shape[1])))

    inter = 0.0
    impl = 0.0
    for idx in range(v.domain.dim):
        f = np.zeros(v.domain.dim, dtype=complex)
        f[idx] = 1.0
        pi_d = fock_dom.pi(v.domain, f).tocoo()
        pi_c = fock_cod.pi(v.codomain, v.matrix @ f)
        gaps = []
        for psi in psis:
            psi_pi_d = np.zeros_like(psi)
            psi_pi_d[:, pi_d.col] = psi[:, pi_d.row] * pi_d.data
            gaps.append(hs_norm(psi_pi_d - pi_c @ psi))
        inter = max([inter, *gaps])
        impl = max(impl, math.hypot(*gaps) * math.sqrt(1.0 + comp)
                   + float(np.linalg.norm(v.matrix[:, idx])) * comp)

    return ImplementerSet(psis, inter, iso, comp, impl)
