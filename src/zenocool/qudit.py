"""Spin-s operator algebra, qudit states and the entries of operators on a product space.

Everything here is numpy, hbar = k_B = 1.  Local basis conventions:
the computational basis is the S^z eigenbasis ordered m = s, s-1, ..., -s;
"energy-ascending" always refers to the local Hamiltonian h * S^z, so for
h > 0 the local ground state |0> is the m = -s vector.

`operator_entries` is the one routine that lists an operator on a product
space, as its nonzero entries at one place or at several of the same dims:
H's bonds and fields, the bath's jump operator and the oracles' dense
operators all come from it.  `summed_entries` sums a list of entries per
element, there and for H's elements and the bath generator's.  The dense
tools built on these (`embed_operator`, `partial_trace`, `uhlmann_fidelity`)
are the tests' oracles, in `oracles`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class SpinOperatorSet:
    """The d-dimensional spin matrices S^x, S^y, S^z, S^+/- for s = (d-1)/2."""

    d: int
    s: float
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray


def spin_operators(d: int) -> SpinOperatorSet:
    """Standard angular-momentum matrices in the Sz eigenbasis (m = s ... -s)."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d!r}")
    s = (d - 1) / 2
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    splus = np.zeros((d, d), dtype=complex)
    # <m+1| S+ |m> = sqrt(s(s+1) - m(m+1)); index i holds m = s - i
    for i in range(1, d):
        splus[i - 1, i] = np.sqrt(s * (s + 1) - m[i] * (m[i] + 1))
    sminus = splus.conj().T
    sx = (splus + sminus) / 2
    sy = (splus - sminus) / 2j
    return SpinOperatorSet(d=d, s=s, sx=sx, sy=sy, sz=sz, splus=splus, sminus=sminus)


def energy_order(d: int, h: float) -> np.ndarray:
    """Level indices of h*S^z by ascending energy; entry 0 is the local ground state.

    Level i is the S^z eigenvector m = s - i, so for h > 0 the order is d-1, ..., 0.
    """
    if h == 0:
        raise ValueError("h = 0 leaves the local Hamiltonian degenerate; level order undefined")
    m = (d - 1) / 2 - np.arange(d)
    return np.argsort(h * m, kind="stable")


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian PSD matrix with a recorded subsystem factorization.

    Hermiticity and unit trace are checked at construction; the (more costly)
    eigenvalue check is available via validate().  Treat instances as
    immutable: the array is shared, never written.
    """

    data: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))
        size = int(np.prod(self.dims))
        if data.shape != (size, size):
            raise ValueError(f"data shape {data.shape} does not match dims {self.dims}")
        if np.max(np.abs(data - data.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(data).real - 1.0) > TRACE_TOL or abs(np.trace(data).imag) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 beyond 1e-10")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def validate(self) -> "DensityMatrix":
        """Raise unless the spectrum is positive semidefinite within 1e-10."""
        lo = float(np.linalg.eigvalsh(self.data)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"density matrix has eigenvalue {lo:.3e} below -1e-10")
        return self


def thermal_state(d: int, h: float, beta: float) -> DensityMatrix:
    """Gibbs state exp(-beta*h*Sz)/Z of the local field; beta may be math.inf."""
    return DensityMatrix(np.diag(_thermal_weights(d, h, beta)).astype(complex), (d,))


def low_lying_mixture(d: int, k: int, h: float = 1.0) -> DensityMatrix:
    """Equal mixture (1/k) sum of the k lowest local-energy eigenstates."""
    return DensityMatrix(np.diag(_low_lying_weights(d, k, h)).astype(complex), (d,))


def _thermal_weights(d: int, h: float, beta: float) -> np.ndarray:
    """The diagonal of `thermal_state(d, h, beta)`, as floats.  Where beta * h * m overflows,
    the weights are beta = inf's: exp(-beta |h|) is 0 long before that."""
    if not beta >= 0:
        raise ValueError(f"inverse temperature must be non-negative, got {beta}")
    if beta == 0:
        return np.full(d, 1 / d)
    s = (d - 1) / 2
    m = s - np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(-beta * h * m - np.max(-beta * h * m))
    if np.isinf(beta) or np.isnan(w).any():     # inf - inf where beta * h * m overflowed
        return _low_lying_weights(d, 1, h)
    w /= w.sum()
    return w


def _low_lying_weights(d: int, k: int, h: float) -> np.ndarray:
    """The diagonal of `low_lying_mixture(d, k, h)`, as floats: 1/k on the k lowest levels."""
    if not 1 <= k <= d:
        raise ValueError(f"rank k={k} out of range 1..{d}")
    w = np.zeros(d)
    w[energy_order(d, h)[:k]] = 1 / k
    return w


def summed_entries(rows, cols, values, size: int):
    """A size x size matrix's entries summed per element in the order listed, zero sums
    dropped, in row-major order: no two entries share a (row, col)."""
    keys, where = np.unique(rows * size + cols, return_inverse=True)
    summed = np.zeros(len(keys), dtype=complex)
    np.add.at(summed, where, values)
    kept = summed != 0
    return *np.divmod(keys[kept], size), summed[kept]


def operator_entries(op, sites, dims: Sequence[int]):
    """The nonzero entries (rows, cols, values) of `op` on `sites`, identity elsewhere.

    `sites` is one place, a slot or an ordered tuple of distinct slots, or a list of places
    whose slots have the same dims, listed place after place: the bonds of a chain are
    `[(0, 1), (1, 2), ...]`.  `op` is a d x d matrix on one slot, or on any place a sum of
    products, `[(c, (f_1, ..., f_k)), ...]` with the one-slot matrix f_i on the place's i-th
    slot, never a dense matrix: `operator_entries([(1, (a, b))], (2, 0), dims)` puts a on
    slot 2 and b on slot 0.  Each product's entries are c times the Kronecker product of its
    factors' nonzeros; the products are summed once per call, in the operator's own index
    space (`summed_entries`), and the sums placed at the digits of each place.
    """
    dims = tuple(dims)
    places = [(p,) if isinstance(p, (int, np.integer)) else tuple(p)
              for p in (sites if isinstance(sites, list) else [sites])]
    if isinstance(op, np.ndarray):
        if len(places[0]) != 1:
            raise ValueError(f"an operator on sites {places[0]} is a list of products, "
                             f"not a dense matrix")
        op = [(1.0, (op,))]
    for place in places:
        if len(set(place)) < len(place) or not all(0 <= site < len(dims) for site in place):
            raise ValueError(f"sites {place} must be distinct slots in 0..{len(dims) - 1}")
        if [dims[i] for i in place] != [dims[i] for i in places[0]]:
            raise ValueError(f"sites {place} have dims {[dims[i] for i in place]}, not "
                             f"{[dims[i] for i in places[0]]} like sites {places[0]}")
    placed = [dims[i] for i in places[0]]
    parts = []
    for c, factors in op:
        if [np.shape(f) for f in factors] != [(dim, dim) for dim in placed]:
            raise ValueError(f"operator shapes {[np.shape(f) for f in factors]} do not match "
                             f"dims {placed} of sites {places[0]}")
        rows, cols, values = 0, 0, 1.0
        for f, dim in zip(factors, placed):     # the Kronecker product's nonzeros
            i, j = np.nonzero(f)
            rows, cols = np.add.outer(rows * dim, i), np.add.outer(cols * dim, j)
            values = np.multiply.outer(values, np.asarray(f)[i, j])
        parts.append((rows.ravel(), cols.ravel(), c * values.ravel()))
    a, b, values = summed_entries(*map(np.concatenate, zip(*parts)), math.prod(placed))
    # (place, a, rest): the flat indices whose digits on the place spell a, over the other digits
    grid = np.arange(math.prod(dims)).reshape(dims)
    grids = np.stack([grid.transpose(place + tuple(i for i in range(len(dims)) if i not in place))
                      .reshape(math.prod(placed), -1) for place in places])
    rows, cols = grids[:, a], grids[:, b]
    return rows.ravel(), cols.ravel(), np.broadcast_to(values[:, None], rows.shape).ravel()


def _zeroed(w: np.ndarray) -> np.ndarray:
    # eigenvalues indistinguishable from zero must not leak sqrt(eps) noise
    # into the trace of the matrix square root; rows of a 2-D w are separate spectra
    cutoff = np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-14
    return np.where(w > cutoff, w, 0.0)
