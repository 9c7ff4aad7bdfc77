"""Exception hierarchy and size budgets for the quasifree toolkit.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps them onto exit codes (see :mod:`quasifree.cli`).  The size caps
and the sample chunking live here too, so every layer can use them without
importing another layer.
"""

import math
import sys


class QuasifreeError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(QuasifreeError):
    """Operator shape is incompatible with the declared self-dual spaces."""


class NotInSemigroup(QuasifreeError):
    """Membership check failed; the failing condition is named in the message."""


class IndexMismatch(QuasifreeError):
    """Structural index and kernel count of the adjoint disagree."""


class AntisymmetryViolation(QuasifreeError):
    """Computed pairing operator is not antisymmetric / symmetric as required."""


class RecoveryMismatch(QuasifreeError):
    """Recovering (h, T) from the basis projection P failed its self-check."""


class DimensionMismatch(QuasifreeError):
    """A derived subspace has the wrong dimension (e.g. dim k != ind/2)."""


class OddIndex(QuasifreeError):
    """dim ker V* or V+ came out odd, which self-duality forbids."""


class NonzeroIndex(QuasifreeError):
    """Operation requires IND V = 0 (e.g. the Z2 index)."""


class DegenerateForm(QuasifreeError):
    """The kappa form is degenerate where it must not be."""


class NormBoundViolation(QuasifreeError):
    """CCR pairing operator has ||T|| >= 1 - margin."""


class NotGaugeCompatible(QuasifreeError):
    """Gauge action does not leave the required subspace invariant."""


class OrthonormalityFailure(QuasifreeError):
    """A constructed frame failed its (kappa-)orthonormality self-check."""


class ImplementationDefect(QuasifreeError):
    """Implementer equations violated beyond tolerance on the Fock oracle."""


class WindowTooSmall(QuasifreeError):
    """Fourier window too small for the requested local construction."""


class NonMonotone(QuasifreeError):
    """Partial HS norms failed to increase monotonically."""


class UnstableIndex(QuasifreeError):
    """Singular-value index count not stable across the two largest cutoffs."""


class LevelOutOfRange(QuasifreeError):
    """Requested charge level outside 0..dim(k) (CAR) or negative (CCR)."""


class CapExceeded(QuasifreeError):
    """Requested Fock space or dense array exceeds its size cap."""


class MalformedInput(QuasifreeError):
    """Model file failed validation."""


def require_int(value, field: str, least: int | None = None,
                most: int | None = None) -> int:
    """A JSON integer or integral float as an int, else MalformedInput.

    A bound is checked where its field is read: "<field> must be at least N,
    got V" below least, "<field> must be at most N, got V" above most.
    """
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise MalformedInput(f"{field} must be an integer, got {value!r}")
    number = int(value)
    if least is not None and number < least:
        raise MalformedInput(f"{field} must be at least {least}, got {number}")
    if most is not None and number > most:
        raise MalformedInput(f"{field} must be at most {most}, got {number}")
    return number


def require_list(value, field: str) -> list:
    """A JSON array, else MalformedInput naming field."""
    if type(value) is not list:
        raise MalformedInput(f"{field} must be a list, got {value!r}")
    return value


def require_float(value, field: str) -> float:
    """A finite JSON number as a float, else MalformedInput.

    Strings, bools and non-finite floats are refused, and so is an integer
    beyond the float range.
    """
    if (type(value) is float and math.isfinite(value)
            or type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise MalformedInput(f"{field} must be a finite number, got {value!r}")


# Fock-space dimension caps: a fermionic space of at most 12 modes, a
# bosonic one of at most 6561 = 9^4 states, and a dense Gamma(U) of at most
# 10 fermionic modes.  The statistics records (car.CAR, ccr.CCR) read the
# first two from here for the oracle report's caps.fock_cap, so the CLI loads
# no Fock code before the oracle runs.
FERMI_DIM_CAP = 4096
BOSE_DIM_CAP = 6561
GAMMA_DIM_CAP = 1024

# Byte budget of one dense complex array built from input sizes: it admits
# analyze at 2000 modes (4000^2, 256 MB) and refuses before numpy would try
# to allocate more.  The circle window's overlap table is real but is
# counted at the same 16 bytes an entry, so the guard admits W <= 11583
# (at W = 8192 the 16385 x 4097 table counts 1.07 GB and takes 537 MB).
DENSE_BYTES_CAP = 2 ** 31


def require_dense_bytes(rows: int, cols: int, what: str) -> None:
    """CapExceeded when a complex rows x cols array exceeds DENSE_BYTES_CAP."""
    size = 16 * max(rows, 0) * max(cols, 0)
    if size > DENSE_BYTES_CAP:
        raise CapExceeded(f"{what}: a dense {rows} x {cols} complex array "
                          f"needs {size} bytes > cap {DENSE_BYTES_CAP}")


# Bytes of one chunk's products in a stacked pass over gauge samples or
# implementer fields; the chunk's other temporaries are of the same size.
STACK_CHUNK_BYTES = 2 ** 24


def sample_chunks(count: int, sample_bytes: int) -> list[slice]:
    """Slices of a sample stack, each about STACK_CHUNK_BYTES of products."""
    step = max(1, STACK_CHUNK_BYTES // max(sample_bytes, 1))
    return [slice(start, start + step) for start in range(0, count, step)]

