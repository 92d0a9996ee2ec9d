"""Numerical laboratory for the multidimensional Parisi functional.

The package evaluates the nested Gaussian log-moment recursion behind the
Parisi variational bound for the Sherrington-Kirkpatrick model with vector
spins, and cross-checks it against every independently computable route:
a semi-linear parabolic PDE solved by finite differences, exact Gaussian
closed forms, Ruelle-probability-cascade sampling, and exact enumeration of
finite-size spin systems.
"""

from parisi_lab.matrices import frobenius_inner, sym_sqrt
from parisi_lab.measures import AprioriMeasure, EvalConfig, TerminalCondition
from parisi_lab.paths import DiscretePath, MonotoneChain, UnitPartition

__all__ = [
    "AprioriMeasure",
    "DiscretePath",
    "EvalConfig",
    "MonotoneChain",
    "TerminalCondition",
    "UnitPartition",
    "frobenius_inner",
    "sym_sqrt",
]

__version__ = "0.1.0"
