"""The Fock-space half of the ``oracle`` command.

For a member V with charge data (h, T, k), ``run`` builds the representing
vacuum and the charged vectors Omega_alpha on a finite Fock space
(:mod:`quasifree.fock`) and checks the implementers of V, for either
statistics: only the Fock half differs.  The charge theorem is checked per
level: the matrix G^-1 M of Gamma(U) on the span of the Omega_alpha against
det_h Lambda^l(c) (CAR) or S^l(c) (CCR, where h is empty), c the compressed
action on k, at one tolerance.  The report holds each comparison's value;
the summary lines print its relation and tolerance.  The default gauge is
the all-ones U(1) when it leaves the vacuum's basis projection invariant,
else the identity alone.  A diagonal gauge element acts on either Fock space
by a phase vector; one that is not diagonal takes a dense Gamma(U), which
only the fermionic space builds, up to GAMMA_DIM_CAP.  The bosonic charged
vectors are normalised pi-monomials, exact on the truncated space for
diagonal elements (see quasifree.fock).

Only ``cli.cmd_oracle`` imports this module, when it runs, so the other
commands load neither the Fock code nor scipy.sparse.  It imports nothing
from :mod:`quasifree.cli`: under ``python -m quasifree.cli`` the running
module is ``__main__``, and such an import would load a second copy of it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    GAMMA_DIM_CAP,
    CapExceeded,
    NotGaugeCompatible,
    require_int,
    sample_chunks,
)
from .fock import (
    BoseFock,
    FermiFock,
    bose_implementer,
    car_implementers,
    charge_rep_blocks,
    compound_matrix,
    omega_alphas_bose,
    omega_alphas_fermi,
    omega_p_bose,
    omega_p_fermi,
    symmetric_power,
)
from .report import comparison, relation
from .sectors import (
    CCR_L_MAX,
    GaugeAction,
    GaugeSample,
    compressed_action,
    oracle_compare,
)
from .selfdual import DEFAULT_TOL, apply_gauge

# Largest max |U P U* - P| at which a gauge element counts as leaving the
# representing vacuum's basis projection P invariant.
GAUGE_LEAK_TOL = 1e-9


def _vacuum_leaks(u11: np.ndarray, space, p_full: np.ndarray) -> np.ndarray:
    """max |U P U* - P| per self-dual extension U of a (samples, n, n) stack.

    U P U* is taken as (U (U P)*)*, so P need not be hermitian to the bit.
    """
    leaks = []
    for chunk in sample_chunks(len(u11), 16 * p_full.size):
        u = u11[chunk]
        up_adj = np.conj(apply_gauge(u, p_full, space)).swapaxes(1, 2)
        upu = np.conj(apply_gauge(u, up_adj, space)).swapaxes(1, 2)
        leaks.append(np.abs(upu - p_full).max(axis=(1, 2), initial=0.0))
    return np.concatenate(leaks)


def _default_gauge(v, p_full: np.ndarray) -> tuple[GaugeAction, int]:
    """All-ones U(1) when it preserves the vacuum projection, else trivial.

    The charge comparison only makes sense for gauge elements that leave the
    representing vacuum's projection invariant; pairing terms (bogoliubov,
    squeeze) break the all-ones phase action, so those fall back to the
    identity element alone.
    """
    n = v.codomain.n_modes
    u11 = np.diag(np.exp(0.9j * np.ones(n)))
    if _vacuum_leaks(u11[np.newaxis], v.codomain, p_full)[0] <= GAUGE_LEAK_TOL:
        return GaugeAction("u1", n, charges=(1,) * n), 20
    return GaugeAction("custom", n,
                       unitaries=(np.eye(n, dtype=complex),)), 1


def _oracle_gauge(model, seed: int, v, p_full: np.ndarray) -> GaugeSample:
    """The sampled gauge elements of the charge comparison.

    Every sampled element must leave the vacuum's basis projection invariant,
    or the comparison has no meaning: NotGaugeCompatible otherwise.
    """
    if model.gauge is not None:
        gauge, samples = model.gauge, model.gauge_samples
    else:
        gauge, samples = _default_gauge(v, p_full)
    elements = gauge.elements(samples=samples, seed=seed)
    leaks = _vacuum_leaks(elements.u11, v.codomain, p_full)
    bad = np.flatnonzero(leaks > GAUGE_LEAK_TOL)
    if bad.size:
        raise NotGaugeCompatible(
            f"gauge element {elements.labels[bad[0]]} does not preserve the "
            f"vacuum: max |U P U* - P| = {leaks[bad[0]]:.3e} > "
            f"{GAUGE_LEAK_TOL:.0e}")
    return elements


def _is_diagonal(u11: np.ndarray) -> bool:
    """Whether u11 is diagonal: every off-diagonal entry is exactly zero.

    This is the exact-zero rule of the minors' block pattern.  The fermionic
    half's early Gamma(U) refusal and _gamma_action both decide by it.
    """
    return np.array_equal(u11, np.diag(np.diagonal(u11)))


def _gamma_action(fock: FermiFock | BoseFock, u11: np.ndarray):
    """Gamma(U) on vectors: a phase product when u11 is diagonal, else gamma."""
    if _is_diagonal(u11):
        return fock.gamma_vector(u11).__mul__
    return fock.gamma(u11).__matmul__


def run(args, model, stats, mem, payload, lines) -> None:
    """The oracle of either statistics, refusing in one order: the bosonic
    cutoff, the vacuum, then h or k (before any Fock space, as in analyze).
    """
    data = stats.charge_data(mem)
    v = data.v
    # The highest CCR charge level checked; the fermionic half reads no
    # cutoff, but the report records it, so a negative one is refused too.
    l_max = CCR_L_MAX if stats.sign < 0 and data.k_frame.shape[1] else 0
    cutoff = require_int(args.bose_cutoff, "--bose-cutoff", least=l_max)
    fock_half = (_fermi_half if stats.sign > 0
                 else functools.partial(_bose_half, cutoff, l_max))
    elements = _oracle_gauge(model, payload["seed"], v, data.p)
    dets_h = np.linalg.det(compressed_action(elements.u11, data.h_frame,
                                             v.codomain, stats))
    comps_k = compressed_action(elements.u11, data.k_frame, v.codomain, stats)
    fock, alphas, omegas, power = fock_half(data, elements, comps_k,
                                            payload, lines)
    # The charge theorem: each level's Gram G_l = <Omega_a, Omega_b> is solved
    # against every element's block M_l = <Omega_a, Gamma(U) Omega_b>.
    grams = charge_rep_blocks(omegas, alphas, lambda vec: vec)
    blocks = [charge_rep_blocks(omegas, alphas, _gamma_action(fock, u11))
              for u11 in elements.u11]
    worst = oracle_compare(grams, blocks, {
        level: dets_h[:, None, None] * power(level) for level in grams})
    count = len(elements.labels)
    record = payload["charge_theorem"] = {
        "samples": count,
        "gauge": elements.kind,
        "levels": sorted(grams),
        "max_block_deviation": comparison(worst, 1e-8),
    }
    lines.append(
        f"charge theorem: max blockwise deviation "
        f"{relation(record['max_block_deviation'])} 1e-8 "
        f"over {count} gauge elements")


def _fermi_half(data, elements: GaugeSample, comps_k: np.ndarray,
                payload: dict, lines: list):
    """FermiFock, the implementers, and the Lambda^l(c) stacks of the theorem.

    A dense Gamma(U), for elements that are not diagonal, is refused by size
    before the implementers.
    """
    v = data.v
    fock_d = FermiFock(v.domain.n_modes)
    fock_c = FermiFock(v.codomain.n_modes)
    if (fock_c.dim > GAMMA_DIM_CAP
            and not all(map(_is_diagonal, elements.u11))):
        raise CapExceeded(
            f"Gamma on dimension {fock_c.dim} exceeds cap {GAMMA_DIM_CAP}")
    omega_p = omega_p_fermi(fock_c, v.codomain, data.h_frame, data.t)
    alphas, omegas = omega_alphas_fermi(fock_c, v.codomain, omega_p,
                                        data.k_frame)
    imp = car_implementers(v, fock_d, fock_c, omegas)
    payload["implementers"] = {
        "count": len(imp.psis),
        "expected": data.statistics_dimension,
        "intertwining": comparison(imp.intertwining_residual, DEFAULT_TOL),
        "isometry": comparison(imp.isometry_residual, DEFAULT_TOL),
        "completeness": comparison(imp.completeness_residual, DEFAULT_TOL),
        "implementation": comparison(imp.implementation_residual, DEFAULT_TOL),
    }
    lines.append(
        f"implementers: {len(imp.psis)} "
        f"(expected {data.statistics_dimension}), implementation residual "
        f"{relation(payload['implementers']['implementation'])} "
        f"{DEFAULT_TOL:.0e}")
    return fock_c, alphas, omegas, functools.partial(compound_matrix, comps_k)


def _bose_half(cutoff: int, l_max: int, data, elements: GaugeSample,
               comps_k: np.ndarray, payload: dict, lines: list):
    """BoseFock, the vacuum tail, the implementer probe, and S^l(c)."""
    v = data.v
    fock_c = BoseFock(v.codomain.n_modes, cutoff)
    omega_p, tail = omega_p_bose(fock_c, v.codomain, data.t)
    alphas, omegas = omega_alphas_bose(fock_c, v.codomain, omega_p,
                                       data.k_frame, l_max)
    payload["vacuum"] = {"tail": float(tail)}
    lines.append(f"bosonic vacuum tail bound: {tail:.3e} (cutoff M = {cutoff})")

    # Probe below the cutoff: states at the edge carry truncation noise only.
    occ_probe = max(1, cutoff // 2 - 1) if cutoff > 1 else 0
    _, inter, iso = bose_implementer(v, fock_c, omega_p, occ_probe=occ_probe)
    payload["implementer_probe"] = {
        "intertwining": comparison(inter, 1e-6),
        "gram_defect_cutoff_limited": float(iso),
    }
    lines.append(
        f"implementer probe: intertwining "
        f"{relation(payload['implementer_probe']['intertwining'])} 1e-6")
    return fock_c, alphas, omegas, functools.partial(symmetric_power, comps_k)
