"""Interacting Hamiltonians on a chain or star of qudits.

Chains are open, with the regulator at site 0 and targets B_1..B_L at sites
1..L; the star puts the regulator at the hub (site 0) with L ring sites.
Every model is a sum of two-site bonds and one-site fields, and every
builder places each term with `qudit.embed_operator`: the d^2 x d^2 bond on
(j, j+1) or (0, i), then h Sz on each field site.  All builders return
dense Hermitian arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .qudit import embed_operator, spin_operators


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


def build_xxz(layout: SystemLayout, J: float, Delta: float, h: float) -> np.ndarray:
    """Sum_j J [SxSx + SySy + Delta SzSz]_{j,j+1} + h sum_j Sz_j on the open chain.

    The regulator participates in both the bond chain and the field sum.
    """
    if layout.topology != "chain":
        raise ValueError("XXZ model is defined on the chain layout")
    ops = spin_operators(layout.d)
    bond = J * (np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy)
                + Delta * np.kron(ops.sz, ops.sz))
    return _bonds_and_fields(layout, bond, h * ops.sz)


def build_bbh(layout: SystemLayout, J: float, theta: float, h: float) -> np.ndarray:
    """J sum_j [cos(theta) S_j.S_{j+1} + sin(theta) (S_j.S_{j+1})^2] + h sum_j Sz_j."""
    if layout.topology != "chain":
        raise ValueError("bilinear-biquadratic model is defined on the chain layout")
    ops = spin_operators(layout.d)
    ss = (np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy) + np.kron(ops.sz, ops.sz))
    bond = J * (np.cos(theta) * ss + np.sin(theta) * (ss @ ss))
    return _bonds_and_fields(layout, bond, h * ops.sz)


def build_spin_star(L: int, d: int, J: float, h: float) -> np.ndarray:
    """h Sz on the hub plus J (SxSx + SySy) between the hub and each ring site.

    Ring sites carry no local field.
    """
    layout = SystemLayout("star", L, d)
    ops = spin_operators(d)
    bond = J * (np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy))
    return _bonds_and_fields(layout, bond, h * ops.sz)


def _bonds_and_fields(layout: SystemLayout, bond: np.ndarray, field: np.ndarray) -> np.ndarray:
    """`bond` on (j, j+1) or (0, i), then `field` on every chain site or on the star's hub."""
    chain = layout.topology == "chain"
    dims = layout.dims
    H = np.zeros((layout.d ** layout.n_sites,) * 2, dtype=complex)
    for j in range(layout.L):
        H += embed_operator(bond, (j, j + 1) if chain else (0, j + 1), dims)
    for site in range(layout.n_sites if chain else 1):
        H += embed_operator(field, site, dims)
    return H


@dataclass(frozen=True)
class XXZSpec:
    J: float
    Delta: float
    h: float = 1.0

    model = "xxz"

    def build(self, layout: SystemLayout) -> np.ndarray:
        return build_xxz(layout, self.J, self.Delta, self.h)


@dataclass(frozen=True)
class BBHSpec:
    J: float
    theta: float
    h: float = 1.0

    model = "bbh"

    def build(self, layout: SystemLayout) -> np.ndarray:
        return build_bbh(layout, self.J, self.theta, self.h)


@dataclass(frozen=True)
class SpinStarSpec:
    J: float
    h: float = 1.0

    model = "spin_star"

    def build(self, layout: SystemLayout) -> np.ndarray:
        if layout.topology != "star":
            raise ValueError("spin-star model is defined on the star layout")
        return build_spin_star(layout.L, layout.d, self.J, self.h)


HamiltonianSpec = Union[XXZSpec, BBHSpec, SpinStarSpec]
