"""Gauge compatibility of a CAR member passing to its charge data, for the tests.

When a gauge unitary U commutes with V, it commutes with T and P and leaves
h and k invariant.  ``gauge_commutation_report`` measures |[V, U]| and those
induced defects side by side; no command runs it.
"""

from dataclasses import dataclass

import numpy as np

from dense_selfdual import extend_gauge
from quasifree.selfdual import ChargeData, hs_norm, orthoprojection


@dataclass(frozen=True)
class GaugeCommutationReport:
    """Commutator norms showing gauge compatibility propagating to (T, P, h, k)."""

    v_commutator: float
    t_commutator: float
    p_commutator: float
    h_invariance: float
    k_invariance: float
    propagation_constant: float


def gauge_commutation_report(data: ChargeData,
                             u11: np.ndarray) -> GaugeCommutationReport:
    """Measure ||[V,U]|| and the induced defects on T, P, h and k."""
    v = data.v
    u_cod = extend_gauge(u11, v.codomain)
    nd = v.domain.n_modes
    u_dom = extend_gauge(u11[:nd, :nd], v.domain)
    comm_v = hs_norm(u_cod @ v.matrix - v.matrix @ u_dom)
    # U = diag(u, conj(u)) and T maps K1 into K2: [U, T] = conj(u) T - T u.
    comm_t = hs_norm(np.conj(u11) @ data.t - data.t @ u11)
    comm_p = hs_norm(u_cod @ data.p - data.p @ u_cod)
    eye = np.eye(v.codomain.dim)
    ph = orthoprojection(data.h_frame)
    pk = orthoprojection(data.k_frame)
    h_inv = hs_norm((eye - ph) @ u_cod @ ph)
    k_inv = hs_norm((eye - pk) @ u_cod @ pk)
    worst = max(comm_t, comm_p, h_inv, k_inv)
    const = worst / comm_v if comm_v > 1e-14 else 0.0
    return GaugeCommutationReport(comm_v, comm_t, comm_p, h_inv, k_inv, const)
