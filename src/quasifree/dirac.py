"""Localized chiral isometry on the circle, in a truncated Fourier basis.

The model lives on L^2 of the unit circle with orthonormal Fourier modes
e_n(z) = z^n (normalized arc-length measure, recorded here as the chosen
convention).  The half-circle arc A = {e^{i lam}: pi/2 <= lam <= 3 pi/2}
carries the localized orthonormal family

    f_m(z) = sqrt(2) (-1)^m z^{2m} on A, 0 elsewhere,

whose Fourier coefficients <e_n, f_m> have the closed form implemented in
`overlap` (independent quadrature oracle in the tests).  The localized
isometry is

    v = 1 + sum_{m=0}^{m_loc - 1} (f_{m+1} - f_m) <f_m, .>,

which shifts f_m -> f_{m+1} for 0 <= m < m_loc, acts as the identity on
functions supported off A, and has one cokernel direction (index 1).  All
continuum objects enter only through the analytic overlap table; everything
else is finite linear algebra on the mode window |n| <= W.

On the window, v is the identity plus a low-rank update, v = 1 + A B* with
A = F[:, 1:] - F[:, :-1] and B = F[:, :-1] for the frame F = [f_0 ...
f_m_loc], a view of the table.  Every quantity reported here (index, seam
and probe defects, nested Hilbert-Schmidt norms, localization) comes from F
in O(W m_loc^2) work; no factor is stored and no (2W+1)^2 matrix formed.
The window fixes m_loc = W // 4.  The overlaps and the complement probes are
real in closed form, so the table, the frame and every product of the model
are float64.  One Gram of the table serves its orthonormality diagnostics
and, through a Cholesky factor of its frame block, the singular values of V,
the probe defects and the shift overlaps, so V* never acts on a window-sized
array.  The products keep their conjugates, which cost nothing on real
arrays, so a complex build gives the same quantities.

Truncating the m-sum leaves an exact seam: the pair (f_{m_loc-1}, f_{m_loc})
is mapped onto the single direction f_{m_loc}, so the full operator-norm
defect ||v*v - 1|| stays O(1) no matter the window.  Isometry quality is
therefore reported on a probe family (local modes |m| <= m_loc/2 plus
off-arc probes), where it decays with W; the full seam-dominated defect is
reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonMonotone,
    UnstableIndex,
    WindowTooSmall,
    require_dense_bytes,
)

SQRT2 = math.sqrt(2.0)
CAYLEY_GRID = 257  # sample points of the arc-map audit
INDEX_THRESHOLD = 0.5  # singular values below it count toward the cokernel


def cayley(x: float) -> complex:
    """The arc parametrization x -> (x - i)/(x + i) from the real line."""
    return (x - 1j) / (x + 1j)


def cayley_inverse(w: complex) -> complex:
    return 1j * (1.0 + w) / (1.0 - w)


def cayley_audit() -> dict:
    """Check the arc map: unimodular on the reals, endpoints, arc preimage."""
    xs = np.linspace(-50.0, 50.0, CAYLEY_GRID)
    values = np.array([cayley(x) for x in xs])
    unimodular_dev = float(np.max(np.abs(np.abs(values) - 1.0)))
    lam = np.linspace(math.pi / 2 + 1e-9, 3 * math.pi / 2 - 1e-9, CAYLEY_GRID)
    pre = np.array([cayley_inverse(np.exp(1j * t)) for t in lam])
    preimage_real = float(np.max(np.abs(pre.imag)))
    preimage_in_interval = bool(np.all((pre.real >= -1 - 1e-9)
                                       & (pre.real <= 1 + 1e-9)))
    return {
        "at_zero": cayley(0.0),
        "at_one": cayley(1.0),
        "at_minus_one": cayley(-1.0),
        "unimodular_deviation": unimodular_dev,
        "preimage_imag_max": preimage_real,
        "preimage_in_interval": preimage_in_interval,
    }


def overlap(m: int, n: int) -> float:
    """Fourier coefficient <e_n, f_m> of the localized mode f_m (closed form).

    With d = 2m - n: sqrt(2)(-1)^m / 2 at d = 0; zero for even d != 0; and
    -sqrt(2)(-1)^m sin(d pi/2) / (pi d) for odd d.
    """
    d = 2 * m - n
    sign_m = -1.0 if m % 2 else 1.0
    if d == 0:
        return SQRT2 * sign_m / 2.0
    if d % 2 == 0:
        return 0.0
    sin_half = 1.0 if d % 4 == 1 else -1.0
    return -SQRT2 * sign_m * sin_half / (math.pi * d)


def _overlap_profile(d: np.ndarray) -> np.ndarray:
    """overlap(0, -d) for each d: the entry <e_n, f_m> is (-1)^m times it."""
    sin_half = np.where(d % 4 == 1, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        odd_vals = -SQRT2 * sin_half / (math.pi * d)
    return np.where(d == 0, SQRT2 / 2.0, np.where(d % 2 != 0, odd_vals, 0.0))


def local_mode_table(w: int, m_values) -> np.ndarray:
    """Columns <e_n, f_m> for n in [-w, w], one column per requested m.

    The entry depends on d = 2m - n alone, up to the sign (-1)^m, so the
    profile is computed once over every d the window meets.  Column m is
    the reversed run of 2w + 1 profile values from d = 2m - w, read from a
    sliding view of the profile or of its negation (0 - g keeps +0.0), so
    the whole table is one gather and every entry has the bits of
    `overlap(m, n)`.
    """
    m = np.asarray(m_values)
    d_min = 2 * int(m.min()) - w
    profile = _overlap_profile(np.arange(d_min, 2 * int(m.max()) + w + 1))
    runs = np.lib.stride_tricks.sliding_window_view(
        np.stack([profile, 0.0 - profile]), 2 * w + 1, axis=1)[:, :, ::-1]
    return runs[m % 2, 2 * m - w - d_min].T


def complement_probe(w: int, k: int | np.ndarray) -> np.ndarray:
    """Fourier coefficients of e_k on the complementary arc, a column per k."""
    d = np.add.outer(-np.arange(-w, w + 1), k)  # d = k - n
    odd = d % 2 != 0
    sin_half = np.where(d % 4 == 1, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        odd_vals = sin_half / (math.pi * d)
    return np.where(d == 0, 0.5, np.where(odd, odd_vals, 0.0))


@dataclass(frozen=True)
class CircleWindow:
    """Mode window |n| <= w: f_m table (m_loc = w // 4), complement probes."""

    w: int
    m_loc: int
    f_table: np.ndarray = field(repr=False)
    complement: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, w: int) -> "CircleWindow":
        m_loc = w // 4
        if m_loc < 2:
            raise WindowTooSmall(
                f"need 2 <= m_loc <= w/4, got m_loc={m_loc}, w={w}")
        m_values = np.arange(-m_loc, m_loc + 1)
        require_dense_bytes(2 * w + 1, m_values.size, "circle window")
        return cls(w, m_loc, local_mode_table(w, m_values),
                   complement_probe(w, np.arange(-8, 9)))

    @property
    def dim(self) -> int:
        return 2 * self.w + 1

    def f_column(self, m: int) -> np.ndarray:
        return self.f_table[:, m + self.m_loc]


@dataclass(frozen=True)
class DiracBuild:
    """The window isometry V = 1 + A B*, held as its frame F (a table view).

    build_v also records all 2W+1 singular values of V.  V acts through
    `apply`, and V*V is read from the Gram.
    """

    window: CircleWindow
    frame: np.ndarray = field(repr=False)
    diagnostics: dict
    singular_values: np.ndarray = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """V x = x - F diff([0; c; 0]), c = B* x = conj(B^T conj(x))."""
        c = (self.frame[:, :-1].T @ x.conj()).conj()
        return x - self.frame @ np.diff(c, axis=0, prepend=0, append=0)


def build_v(w: int) -> DiracBuild:
    """Window frame of the localized shift isometry, with diagnostics."""
    window = CircleWindow.create(w)
    m_loc = window.m_loc
    frame = window.f_table[:, m_loc:]  # F = [f_0 ... f_m_loc]
    gram = window.f_table.conj().T @ window.f_table
    # F = Q R spans both factors, so V = Q M Q* + (1 - Q Q*) with the small
    # core M = 1 + (R[:, 1:] - R[:, :-1]) R[:, :-1]*: V has the singular
    # values of M plus ones, and ||V*V - 1|| = max |s^2 - 1| over them.
    # Any R with R*R = F*F gives a unitarily similar M, so R is the Cholesky
    # factor of the frame's block of the table's Gram; that block is within
    # gram_off_identity of the identity, so the factor is well conditioned.
    r = np.linalg.cholesky(gram[m_loc:, m_loc:]).conj().T
    core = np.eye(r.shape[0]) + (r[:, 1:] - r[:, :-1]) @ r[:, :-1].conj().T
    svals = np.linalg.svd(core, compute_uv=False)
    ones = np.ones(window.dim - svals.size)
    build = DiracBuild(window, frame, {}, np.concatenate([svals, ones]))

    diag = np.diag(gram)
    rownorm_dev = float(np.max(np.abs(diag.real - 1.0)))
    off_identity = np.abs(gram)  # |gram - 1| without a dense identity
    np.fill_diagonal(off_identity, np.abs(diag - 1.0))
    gram_offid = float(np.max(off_identity))
    del off_identity  # a Gram-sized temporary, not kept to the end

    # V = 1 + Q (M - 1) Q*, so V*V x - x = Q (M*M - 1) q and
    # <x', V x> = <x', x> + q'* (M - 1) q, with q = Q* x = R^{-*} F* x.  For
    # the local modes f_m, |m| <= m_loc/2, F* f_m is a column block of the
    # Gram; the complement probes take one rank x 17 product.
    half = m_loc // 2
    local = slice(m_loc - half, m_loc + half + 1)
    q = np.linalg.solve(r.conj().T, np.hstack(
        [gram[m_loc:, local], frame.conj().T @ window.complement]))
    defects = np.linalg.norm(core.conj().T @ (core @ q) - q, axis=0)
    probe_defect = float(np.max(defects / np.concatenate(
        [np.sqrt(diag.real[local]),
         np.linalg.norm(window.complement, axis=0)])))
    full_defect = float(np.max(np.abs(svals ** 2 - 1.0)))

    # <f_{m+1}, V f_m> for 0 <= m < m_loc/2: f_m is column half + m of q
    q_m, q_next = q[:, half: 2 * half], q[:, half + 1: 2 * half + 1]
    shift_overlaps = (np.diag(gram, -1)[m_loc: m_loc + half]
                      + np.einsum("ij,ij->j", q_next.conj(), core @ q_m - q_m))
    build.diagnostics.update({
        "w": w,
        "m_loc": m_loc,
        "rownorm_deviation": rownorm_dev,
        "rownorm_bound": 4.0 / (math.pi ** 2 * (w / 2.0)),
        "gram_off_identity": gram_offid,
        "probe_isometry_defect": probe_defect,
        "seam_full_defect": full_defect,
        "shift_overlap_min": float(np.min(shift_overlaps.real)),
    })
    return build


@dataclass(frozen=True)
class IndexRecord:
    counts: dict
    value: int


def index_estimate(builds) -> IndexRecord:
    """Cokernel count of the window isometry, required stable across builds.

    A singular value below INDEX_THRESHOLD counts toward the cokernel.
    """
    counts = {build.window.w: int(np.count_nonzero(
        build.singular_values < INDEX_THRESHOLD)) for build in builds}
    values = sorted(set(counts.values()))
    if len(values) != 1:
        raise UnstableIndex(f"cokernel count varies with cutoff: {counts}")
    return IndexRecord(counts, values[0])


def _dyadic_numerators(values) -> tuple[list[int], int]:
    """Integers nums and one den with values[i] == nums[i] / den exactly.

    Floats are dyadic rationals, so the largest denominator serves all.  A
    weighted sum of the values with integer weights is then exact in
    integers, and one true division rounds it correctly: the result equals
    math.fsum over the multiset with values[i] repeated weights[i] times.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _trend_verdict(cutoffs, partial_norms,
                   increments=None) -> tuple[str, float, list[float]]:
    if increments is None:
        increments = [b - a for a, b in zip(partial_norms, partial_norms[1:])]
    if any(inc <= 0 for inc in increments):
        raise NonMonotone(
            f"partial Hilbert-Schmidt sums are not increasing: {partial_norms}")
    if len(increments) < 2:
        # A single increment cannot support a log-log fit.
        return "inconclusive", math.nan, increments
    slope = float(np.polyfit(np.log(np.asarray(cutoffs[1:], dtype=float)),
                             np.log(np.asarray(increments)), 1)[0])
    decreasing = all(increments[i + 1] < increments[i]
                     for i in range(len(increments) - 1))
    verdict = ("consistent-with-HS"
               if decreasing and slope < -0.5 else "not-summable-trend")
    return verdict, slope, increments


@dataclass(frozen=True)
class HsStudy:
    partial_norms: dict
    increments: dict
    slopes: dict
    verdicts: dict


def hs_commutator_study(cutoffs, build: DiracBuild) -> HsStudy:
    """Nested partial HS norms of the Hardy-projection commutators.

    The build is the one at the largest cutoff; partial sums over nested
    windows are the partial sums of one fixed doubly-infinite array, so they
    increase and their increments must decay summably for an HS operator.

    With theta the projection onto n >= 0 and V = 1 + A B*, the commutator
    [theta, V] = theta A B* (1 - theta) - (1 - theta) A B* theta has two
    blocks, and ||X Y*||_F^2 = tr(X*X . Y*Y) on the window's rows gives each
    block's norm from the frame's Gram G on those rows: B*B = G[:-1, :-1]
    and A*A = D* G D, the second difference of G (A = F D).  The minus
    commutator is [1 - theta, V] = -[theta, V], so both signs share one.

    Subtracting nearly equal norms would lose the increments to
    cancellation, so each increment is the growth of the square over the
    sum of the two norms.  The growth comes from the Grams dG of the rows
    the larger window adds, which sum to its Gram.  Both products are linear
    in G, so with B'*B' = B*B + dB and A'*A' = A*A + dA the growth of the
    trace is tr(dB A*A) + tr(B*B dA) + tr(dB dA), each the trace of a
    product of two PSD matrices, so none cancels.
    """
    cutoffs = tuple(sorted(cutoffs))
    w_max = cutoffs[-1]
    if build.window.w != w_max:
        raise WindowTooSmall("supplied build does not match the largest cutoff")

    def cross(b_side: np.ndarray, a_side: np.ndarray) -> float:
        # tr(B_neg A_pos) + tr(B_pos A_neg), one half's A*A at a time
        return float(sum(
            np.vdot(b_side[1 - half, :-1, :-1],
                    np.diff(np.diff(a_side[half], axis=0), axis=1))
            for half in (0, 1)).real)

    frame = build.frame
    window = np.zeros((2,) + (frame.shape[1],) * 2, frame.dtype)
    ring = np.empty_like(window)
    sums, incs, pos, neg = [], [], w_max, w_max
    for w in cutoffs:
        # the rows each half gains, w_last < n <= w and -w <= n < -w_last
        # (the whole window, 0 <= n <= w and -w <= n < 0, at first)
        for half, rows in enumerate((slice(pos, w_max + w + 1),
                                     slice(w_max - w, neg))):
            np.matmul(frame[rows].conj().T, frame[rows], out=ring[half])
        pos, neg = w_max + w + 1, w_max - w
        growth = cross(ring, window) + cross(window, ring) + cross(ring, ring)
        window += ring
        sums.append(math.sqrt(cross(window, window)))
        if len(sums) > 1:
            incs.append(growth / (sums[-1] + sums[-2]))
    verdict, slope, incs = _trend_verdict(cutoffs, sums, incs)
    tags = ("plus", "minus")
    return HsStudy(dict.fromkeys(tags, sums),
                   dict.fromkeys(tags, incs), dict.fromkeys(tags, slope),
                   dict.fromkeys(tags, verdict))


def jump_symbol_control_study(cutoffs) -> HsStudy:
    """The same trend detector on a known non-HS case.

    Multiplication by the unimodular symbol with a jump and half-integer
    winding has Fourier coefficients sinc(1/2 - d); its Hardy commutator is
    log-divergent in the HS norm, so the detector must flag it.  The symbol
    is Toeplitz, so the commutator's squared entries depend on d = i - j
    alone: sinc(1/2 - d)^2 where i and j lie on opposite sides of n = 0,
    which min(|d|, 2w + 1 - |d|) pairs of the window |n| <= w do.
    """
    cutoffs = tuple(sorted(cutoffs))
    d = np.arange(1, 2 * cutoffs[-1] + 1)
    # Both signs of d share a weight, so each d carries the sum of its two
    # squares; the weight vanishes beyond d = 2w.
    nums, den = _dyadic_numerators(
        (np.concatenate([np.sinc(0.5 - d), np.sinc(0.5 + d)]) ** 2).tolist())
    nums = [a + b for a, b in zip(nums[:d.size], nums[d.size:])]
    sums = []
    for w in cutoffs:
        pairs = np.minimum(d[:2 * w], 2 * w + 1 - d[:2 * w]).tolist()
        sums.append(math.sqrt(sum(c * n for c, n in zip(pairs, nums)) / den))
    verdict, slope, incs = _trend_verdict(cutoffs, sums)
    return HsStudy({"plus": sums}, {"plus": incs}, {"plus": slope},
                   {"plus": verdict})


def prop_loc_check(build: DiracBuild) -> dict:
    """Least-squares common phase of v on the complementary arc.

    The probes are the restricted exponentials e_k, |k| <= 8, on the arc
    off A.  Returns the optimal unimodular phase tau and the largest
    relative residual |v g - tau g| / |g| it leaves; the caller gates it.
    """
    probes = build.window.complement
    images = build.apply(probes)
    overlap_sum = np.vdot(probes, images)
    tau = overlap_sum / abs(overlap_sum) if abs(overlap_sum) else 1.0 + 0j
    residual = float(np.max(np.linalg.norm(images - tau * probes, axis=0)
                            / np.linalg.norm(probes, axis=0)))
    return {"complement": {"tau": complex(tau), "residual": residual}}


def assemble_species(n_species: int, index_v: int = 1) -> dict:
    """Symbolic N-species assembly: block-diagonal copies of v and conj(v).

    The full operator acts as v on each of the N particle species and as
    conj(v) on the conjugate species, so half the index scales by N and the
    statistics dimension is 2^(N index_v / 1) for index_v = 1.
    """
    half_index = n_species * index_v
    return {
        "species": n_species,
        "blocks": ["v"] * n_species + ["conj(v)"] * n_species,
        "half_index": half_index,
        "statistics_dimension": 2 ** half_index,
    }
