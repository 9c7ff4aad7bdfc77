"""Named example isometries used by tests, docs and the CLI.

Every builder returns a semigroup member by construction.  The circle
model's window isometry is only asymptotically isometric, so it is no
builder: the `dirac` command studies it in :mod:`quasifree.dirac`.  Mode
ordering for multi-species builders is site-major with the species index
fastest, so a domain always embeds as a mode prefix of its codomain.
"""

from __future__ import annotations

import numpy as np

from .errors import (MalformedInput, ShapeMismatch, require_dense_bytes,
                     require_float, require_int)
from .selfdual import BlockOperator, SelfDualSpace, conjugate_matrix


def _from_k1(k1: np.ndarray, domain: SelfDualSpace,
             codomain: SelfDualSpace) -> BlockOperator:
    """The member with K1 columns k1: V J = J V gives the K2 columns."""
    return BlockOperator(np.hstack([k1, conjugate_matrix(k1, None, codomain)]),
                         domain, codomain)


def identity(n_modes: int) -> BlockOperator:
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "identity")
    return _from_k1(np.eye(space.dim, n_modes), space, space)


def shift(n_sites_in: int, steps: int = 1, species: int = 1) -> BlockOperator:
    """e_{site k, species s} -> e_{site k+steps, s}; IND = 2*steps*species."""
    if n_sites_in < 1 or steps < 1 or species < 1:
        raise ShapeMismatch("shift needs n_sites_in, steps, species >= 1")
    nd = n_sites_in * species
    dom, cod = SelfDualSpace(nd), SelfDualSpace((n_sites_in + steps) * species)
    require_dense_bytes(cod.dim, dom.dim, "shift")
    return _from_k1(np.eye(cod.dim, nd, -steps * species), dom, cod)


def flip(n_modes: int, mode: int = 1) -> BlockOperator:
    """Swap e_mode with e_mode*, identity elsewhere (square, IND = 0)."""
    if not 1 <= mode <= n_modes:
        raise ShapeMismatch(f"mode {mode} outside 1..{n_modes}")
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "flip")
    k1 = np.eye(space.dim, n_modes)
    i = mode - 1
    k1[i, i] = 0.0
    k1[n_modes + i, i] = 1.0
    return _from_k1(k1, space, space)


def bogoliubov(theta: float, n_modes: int = 2) -> BlockOperator:
    """Two-mode fermionic pairing rotation, identity on any extra modes.

    V e1 = cos(theta) e1 + sin(theta) e2*, V e2 = cos(theta) e2 - sin(theta) e1*.
    """
    if n_modes < 2:
        raise ShapeMismatch("bogoliubov needs at least 2 modes")
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "bogoliubov")
    n = n_modes
    c, s = np.cos(theta), np.sin(theta)
    k1 = np.eye(space.dim, n)
    k1[0, 0] = c
    k1[n + 1, 0] = s         # e1 -> c e1 + s e2*
    k1[1, 1] = c
    k1[n, 1] = -s            # e2 -> c e2 - s e1*
    return _from_k1(k1, space, space)


def squeeze(r: float, n_modes: int = 1, mode: int = 1) -> BlockOperator:
    """Bosonic single-mode squeeze: e -> cosh(r) e + sinh(r) e*."""
    if not 1 <= mode <= n_modes:
        raise ShapeMismatch(f"mode {mode} outside 1..{n_modes}")
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "squeeze")
    with np.errstate(over="raise"):
        try:
            c, s = np.cosh(r), np.sinh(r)
        except FloatingPointError as exc:
            raise MalformedInput(
                f"squeeze: cosh(r) overflows at r = {r}") from exc
    k1 = np.eye(space.dim, n_modes)
    i = mode - 1
    k1[i, i] = c
    k1[n_modes + i, i] = s
    return _from_k1(k1, space, space)


def build(name: str, params: dict) -> BlockOperator:
    """CLI-facing registry; raises MalformedInput on unknown names/params."""
    def count(key: str, default=None) -> int:  # KeyError when required
        value = params[key] if default is None else params.get(key, default)
        return require_int(value, f"builder {name!r} parameter {key!r}")

    def number(key: str) -> float:  # KeyError when missing
        return require_float(params[key], f"builder {name!r} parameter {key!r}")
    try:
        if name == "identity":
            return identity(count("n_modes"))
        if name == "shift":
            return shift(count("n_sites_in"), count("steps", 1),
                         count("species", 1))
        if name == "flip":
            return flip(count("n_modes"), count("mode", 1))
        if name == "bogoliubov":
            return bogoliubov(number("theta"), count("n_modes", 2))
        if name == "squeeze":
            return squeeze(number("r"), count("n_modes", 1),
                           count("mode", 1))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"builder {name!r}: bad parameters: {exc}") from exc
    raise MalformedInput(f"unknown builder {name!r}")
