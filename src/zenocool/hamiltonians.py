"""Interacting Hamiltonians on a chain or star of qudits.

Chains are open, with the regulator at site 0 and targets B_1..B_L at sites
1..L; the star puts the regulator at the hub (site 0) with L ring sites.
Every model is a sum of two-site bonds and one-site fields.  A spec gives
its d^2 x d^2 bond and its topology; `entries` places each term with
`qudit.operator_entries` (the bond on (j, j+1) or (0, i), then h Sz on every
chain site or on the hub) and lists H's nonzero entries term by term.  That
list is the one definition of H: `build` is its dense scatter.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .qudit import operator_entries, spin_operators


@dataclass(frozen=True)
class SystemLayout:
    """Topology and sizes; total sites = L + 1 including the regulator."""

    topology: str  # "chain" | "star"
    L: int
    d: int

    def __post_init__(self):
        if self.topology not in ("chain", "star"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.L < 1:
            raise ValueError("need at least one target qudit")
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")

    @property
    def regulator_site(self) -> int:
        return 0

    @property
    def n_sites(self) -> int:
        return self.L + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.d,) * (self.L + 1)

    @property
    def target_sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.L + 1))


class _BondsAndFields:
    """H = sum of `bond(ops)` on the topology's bonds plus `h Sz` on its field sites."""

    def entries(self, layout: SystemLayout):
        """(rows, cols, values) of every term in turn; entries of one element are summed."""
        ops = spin_operators(layout.d)
        chain = self.topology == "chain"
        bond, field = self.bond(ops), self.h * ops.sz
        terms = [(bond, (j, j + 1) if chain else (0, j + 1)) for j in range(layout.L)]
        terms += [(field, site) for site in range(layout.n_sites if chain else 1)]
        parts = [operator_entries(op, sites, layout.dims) for op, sites in terms]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def build(self, layout: SystemLayout) -> np.ndarray:
        """The dense H: the entries summed into zeros, in the order listed."""
        rows, cols, values = self.entries(layout)
        H = np.zeros((layout.d ** layout.n_sites,) * 2, dtype=complex)
        np.add.at(H, (rows, cols), values)
        return H


@dataclass(frozen=True)
class XXZSpec(_BondsAndFields):
    """Sum_j J [SxSx + SySy + Delta SzSz]_{j,j+1} + h sum_j Sz_j on the open chain.

    The regulator participates in both the bond chain and the field sum.
    """

    J: float
    Delta: float
    h: float = 1.0

    model = "xxz"
    topology = "chain"

    def bond(self, ops) -> np.ndarray:
        return self.J * (np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy)
                         + self.Delta * np.kron(ops.sz, ops.sz))


@dataclass(frozen=True)
class BBHSpec(_BondsAndFields):
    """J sum_j [cos(theta) S_j.S_{j+1} + sin(theta) (S_j.S_{j+1})^2] + h sum_j Sz_j."""

    J: float
    theta: float
    h: float = 1.0

    model = "bbh"
    topology = "chain"

    def bond(self, ops) -> np.ndarray:
        ss = np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy) + np.kron(ops.sz, ops.sz)
        return self.J * (np.cos(self.theta) * ss + np.sin(self.theta) * (ss @ ss))


@dataclass(frozen=True)
class SpinStarSpec(_BondsAndFields):
    """h Sz on the hub plus J (SxSx + SySy) between the hub and each ring site.

    Ring sites carry no local field.
    """

    J: float
    h: float = 1.0

    model = "spin_star"
    topology = "star"

    def bond(self, ops) -> np.ndarray:
        return self.J * (np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy))


HamiltonianSpec = Union[XXZSpec, BBHSpec, SpinStarSpec]
