"""Quasi-free endomorphisms of CAR/CCR algebras on truncated self-dual spaces.

Library layout:

* :mod:`quasifree.selfdual` -- spaces, block operators, rank-revealing
  helpers, the membership and charge records (`ChargeData`) of both algebras
  and the `Statistics` record a command picks its algebra by
* :mod:`quasifree.car` / :mod:`quasifree.ccr` -- semigroup membership and
  charge data (h, T, P, k, index, statistics dimension), and the records
  `CAR` and `CCR`
* :mod:`quasifree.fock` -- finite Fock-space oracle (fields, twist, vacua,
  implementers, charge blocks, exterior and symmetric powers)
* :mod:`quasifree.oracle` -- the oracle command's Fock-space checks, one
  driver for both statistics, imported only when that command runs
* :mod:`quasifree.sectors` -- gauge actions, symmetric-function characters,
  sector tables, the blockwise charge-theorem comparison of both oracles
* :mod:`quasifree.dirac` -- localized chiral endomorphism on the circle
* :mod:`quasifree.report` / :mod:`quasifree.cli` -- model files, reproducible
  JSON reports, command line front end
"""

from .selfdual import BlockOperator, ChargeData, SelfDualSpace
from .car import car_charge_data, car_membership
from .ccr import ccr_charge_data, ccr_membership

__version__ = "0.1.0"

__all__ = [
    "BlockOperator",
    "ChargeData",
    "SelfDualSpace",
    "car_charge_data",
    "car_membership",
    "ccr_charge_data",
    "ccr_membership",
    "__version__",
]
