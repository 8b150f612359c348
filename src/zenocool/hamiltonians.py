"""Interacting Hamiltonians on a chain or star of qudits.

Chains are open, with the regulator at site 0 and targets B_1..B_L at sites
1..L; the star puts the regulator at the hub (site 0) with L ring sites.
Every model is a sum of two-site bonds and one-site fields.  A spec gives
its bond and its field h Sz, each a sum of products of one-site matrices in
the ladder basis (S+, S-, Sz), and its topology.  `entries` lists H's nonzero
entries term by term with two calls of `qudit.operator_entries`, the one
routine that places an operator into the product space: the bond on every
(j, j+1) of the chain or (0, i) of the star, then the field on every chain
site or on the hub.  That list is the one definition of H: `build` is its
dense scatter, and `norm` bounds |H|_1 (the largest column sum of |H|, for
`protocol`'s gates) from the same bond and field, within 1.00-2.06x over the
models at d = 2..31.

A spec's dataclass fields are its model's parameters, with their defaults:
`MODELS` maps each model name to its spec, and a config's `base` takes
exactly those fields (`sweeps.parse_config`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    """H = sum of `bond(ops)` on the topology's bonds plus `field(ops)` on its field sites.

    Both are sums of products of one-site matrices, `[(c, (f_1, ...)), ...]`, listed by
    `qudit.operator_entries` at all of their places at once."""

    def field(self, ops) -> list:
        return [(self.h, (ops.sz,))]

    def _positions(self, layout: SystemLayout):
        """The bonds, (j, j+1) on the chain or (0, i) on the star, and the field sites."""
        chain = self.topology == "chain"
        bonds = [(j, j + 1) if chain else (0, j + 1) for j in range(layout.L)]
        return bonds, list(range(layout.n_sites if chain else 1))

    def entries(self, layout: SystemLayout):
        """(rows, cols, values) of every bond in turn, then of every field site; entries of
        one element are summed."""
        ops = spin_operators(layout.d)
        bonds, fields = self._positions(layout)
        parts = (operator_entries(self.bond(ops), bonds, layout.dims),
                 operator_entries(self.field(ops), fields, layout.dims))
        return tuple(np.concatenate(column) for column in zip(*parts))

    def norm(self, layout: SystemLayout) -> float:
        """A bound on |H|_1: the bound on one bond times the bonds, plus |field|_1 per field
        site (not finite where it overflows)."""
        bonds, fields = self._positions(layout)
        bond, field = _local_norms(self, layout.d)
        return len(bonds) * bond + len(fields) * field

    def build(self, layout: SystemLayout) -> np.ndarray:
        """The dense H: the entries summed into zeros, in the order listed."""
        rows, cols, values = self.entries(layout)
        H = np.zeros((layout.d ** layout.n_sites,) * 2, dtype=complex)
        np.add.at(H, (rows, cols), values)
        return H


# per (spec, d): every grid point's config is gated on its spec's norm
@lru_cache(maxsize=256)
def _local_norms(spec: _BondsAndFields, d: int) -> tuple[float, float]:
    """Bounds on |bond|_1, max over columns (i, j) of sum_k |c_k| colsum|a_k|_i colsum|b_k|_j,
    and |field|_1, max over columns i of sum_k |c_k| colsum|f_k|_i, from the one-site
    matrices' column sums."""
    ops = spin_operators(d)
    coeffs, factors = zip(*spec.bond(ops))
    a, b = (np.abs(np.stack(f)).sum(axis=1) for f in zip(*factors))
    field_coeffs, field_factors = zip(*spec.field(ops))
    f = np.abs(np.stack([f for f, in field_factors])).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        bond = np.einsum("k,ki,kj->ij", np.abs(coeffs), a, b).max()
        field = np.einsum("k,ki->i", np.abs(field_coeffs), f).max()
    return float(bond), float(field)


@dataclass(frozen=True)
class XXZSpec(_BondsAndFields):
    """Sum_j J [SxSx + SySy + Delta SzSz]_{j,j+1} + h sum_j Sz_j on the open chain.

    The regulator participates in both the bond chain and the field sum.
    """

    J: float = 1.0
    Delta: float = 0.0
    h: float = 1.0

    model = "xxz"
    topology = "chain"

    def bond(self, ops) -> list:
        return [(self.J / 2, (ops.splus, ops.sminus)), (self.J / 2, (ops.sminus, ops.splus)),
                (self.J * self.Delta, (ops.sz, ops.sz))]


@dataclass(frozen=True)
class BBHSpec(_BondsAndFields):
    """J sum_j [cos(theta) S_j.S_{j+1} + sin(theta) (S_j.S_{j+1})^2] + h sum_j Sz_j."""

    J: float = 1.0
    theta: float = 0.0
    h: float = 1.0

    model = "bbh"
    topology = "chain"

    def bond(self, ops) -> list:
        # S.S is the Delta = 1 XXZ bond, and (a x b)(c x d) = ac x bd: (S.S)^2 is the nine
        # pairwise products of its terms
        ss = XXZSpec(J=1.0, Delta=1.0).bond(ops)
        c, s = self.J * np.cos(self.theta), self.J * np.sin(self.theta)
        return ([(c * x, ab) for x, ab in ss]
                + [(s * x * y, (a @ f, b @ g)) for x, (a, b) in ss for y, (f, g) in ss])


@dataclass(frozen=True)
class SpinStarSpec(_BondsAndFields):
    """h Sz on the hub plus J (SxSx + SySy) between the hub and each ring site.

    Ring sites carry no local field.
    """

    J: float = 1.0
    h: float = 1.0

    model = "spin_star"
    topology = "star"

    def bond(self, ops) -> list:
        return [(self.J / 2, (ops.splus, ops.sminus)), (self.J / 2, (ops.sminus, ops.splus))]


HamiltonianSpec = Union[XXZSpec, BBHSpec, SpinStarSpec]
MODELS = {spec.model: spec for spec in (XXZSpec, BBHSpec, SpinStarSpec)}
