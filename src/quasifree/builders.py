"""Named example isometries used by tests, docs and the CLI.

Every builder returns a semigroup member by construction.  The circle
model's window isometry is only asymptotically isometric, so it is no
builder: the `dirac` command studies it in :mod:`quasifree.dirac`.  Mode
ordering for multi-species builders is site-major with the species index
fastest, so a domain always embeds as a mode prefix of its codomain.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedInput, ShapeMismatch, require_dense_bytes
from .selfdual import BlockOperator, SelfDualSpace


def identity(n_modes: int) -> BlockOperator:
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "identity")
    return BlockOperator(np.eye(space.dim, dtype=complex), space)


def shift(n_sites_in: int, steps: int = 1, species: int = 1) -> BlockOperator:
    """e_{site k, species s} -> e_{site k+steps, s}; IND = 2*steps*species."""
    if n_sites_in < 1 or steps < 1 or species < 1:
        raise ShapeMismatch("shift needs n_sites_in, steps, species >= 1")
    nd = n_sites_in * species
    nc = (n_sites_in + steps) * species
    dom, cod = SelfDualSpace(nd), SelfDualSpace(nc)
    require_dense_bytes(cod.dim, dom.dim, "shift")
    m = np.zeros((cod.dim, dom.dim), dtype=complex)
    off = steps * species
    for i in range(nd):
        m[i + off, i] = 1.0
        m[nc + i + off, nd + i] = 1.0
    return BlockOperator(m, dom, cod)


def flip(n_modes: int, mode: int = 1) -> BlockOperator:
    """Swap e_mode with e_mode*, identity elsewhere (square, IND = 0)."""
    if not 1 <= mode <= n_modes:
        raise ShapeMismatch(f"mode {mode} outside 1..{n_modes}")
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "flip")
    m = np.eye(space.dim, dtype=complex)
    i = mode - 1
    m[i, i] = 0.0
    m[n_modes + i, n_modes + i] = 0.0
    m[n_modes + i, i] = 1.0
    m[i, n_modes + i] = 1.0
    return BlockOperator(m, space)


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
    m = np.eye(space.dim, dtype=complex)
    for i in (0, 1, n, n + 1):
        m[i, i] = 0.0
    m[0, 0] = c
    m[n + 1, 0] = s          # e1 -> c e1 + s e2*
    m[1, 1] = c
    m[n, 1] = -s             # e2 -> c e2 - s e1*
    m[n, n] = c
    m[1, n] = s              # e1* -> c e1* + s e2
    m[n + 1, n + 1] = c
    m[0, n + 1] = -s         # e2* -> c e2* - s e1
    return BlockOperator(m, space)


def squeeze(r: float, n_modes: int = 1, mode: int = 1) -> BlockOperator:
    """Bosonic single-mode squeeze: e -> cosh(r) e + sinh(r) e*."""
    if not 1 <= mode <= n_modes:
        raise ShapeMismatch(f"mode {mode} outside 1..{n_modes}")
    space = SelfDualSpace(n_modes)
    require_dense_bytes(space.dim, space.dim, "squeeze")
    n = n_modes
    ch, sh = np.cosh(r), np.sinh(r)
    m = np.eye(space.dim, dtype=complex)
    i = mode - 1
    m[i, i] = ch
    m[n + i, i] = sh
    m[i, n + i] = sh
    m[n + i, n + i] = ch
    return BlockOperator(m, space)


def build(name: str, params: dict) -> BlockOperator:
    """CLI-facing registry; raises MalformedInput on unknown names/params."""
    try:
        if name == "identity":
            return identity(int(params["n_modes"]))
        if name == "shift":
            return shift(int(params["n_sites_in"]),
                         int(params.get("steps", 1)),
                         int(params.get("species", 1)))
        if name == "flip":
            return flip(int(params["n_modes"]), int(params.get("mode", 1)))
        if name == "bogoliubov":
            return bogoliubov(float(params["theta"]),
                              int(params.get("n_modes", 2)))
        if name == "squeeze":
            return squeeze(float(params["r"]), int(params.get("n_modes", 1)),
                           int(params.get("mode", 1)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"builder {name!r}: bad parameters: {exc}") from exc
    raise MalformedInput(f"unknown builder {name!r}")
