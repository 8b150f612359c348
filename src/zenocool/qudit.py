"""Spin-s operator algebra, qudit states and the entries of operators on a product space.

Everything here is numpy, hbar = k_B = 1.  Local basis conventions:
the computational basis is the S^z eigenbasis ordered m = s, s-1, ..., -s;
"energy-ascending" always refers to the local Hamiltonian h * S^z, so for
h > 0 the local ground state |0> is the m = -s vector.  The dense tools
built on these (`embed_operator`, `partial_trace`, `uhlmann_fidelity`) are
the tests' oracles, in `oracles`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class Summation(NamedTuple):
    """The elements of a size x size matrix that a list of its entries meets, in row-major
    order, and the element of each listed entry (`summation`)."""

    rows: np.ndarray
    cols: np.ndarray
    where: np.ndarray

    def totals(self, values) -> np.ndarray:
        """Every element's sum of the values listed at it, in the order listed."""
        total = np.zeros(len(self.rows), dtype=complex)
        np.add.at(total, self.where, values)
        return total

    def summed(self, values):
        """(rows, cols, values) of the elements whose sum is nonzero: no two share a
        (row, col)."""
        total = self.totals(values)
        kept = total != 0
        return self.rows[kept], self.cols[kept], total[kept]


def summation(rows, cols, size: int) -> Summation:
    """How entries listed at (rows, cols) of a size x size matrix sum per element."""
    keys, where = np.unique(rows * size + cols, return_inverse=True)
    return Summation(*np.divmod(keys, size), where)


def operator_entries(op, sites, dims: Sequence[int]):
    """The nonzero entries (rows, cols, values) of `op` on `sites`, identity elsewhere.

    On one slot `op` is its d x d matrix.  On an ordered tuple of distinct slots it is a
    sum of products, `[(c, (f_1, ..., f_k)), ...]` with the one-slot matrix f_i on
    `sites[i]`, never a dense matrix: `operator_entries([(1, (a, b))], (2, 0), dims)` puts
    a on slot 2 and b on slot 0.  Each product's entries come from its factors' nonzeros
    (`local_entries`); the products are summed in the operator's own index space, and the
    sums placed at the digits of `sites` (`placement`).
    """
    if isinstance(sites, (int, np.integer)):
        sites, op = (sites,), [(1.0, (op,))]
    elif isinstance(op, np.ndarray):
        raise ValueError(f"an operator on sites {sites} is a list of products, not a dense matrix")
    dims, sites = tuple(dims), tuple(sites)
    if len(set(sites)) < len(sites) or not all(0 <= site < len(dims) for site in sites):
        raise ValueError(f"sites {sites} must be distinct slots in 0..{len(dims) - 1}")
    coefficients, factors = zip(*op)
    local = local_entries(factors, [dims[i] for i in sites])
    a, b, values = local.sum.summed(local.values(coefficients))
    grid = placement(sites, dims)
    return grid[a].ravel(), grid[b].ravel(), np.repeat(values, grid.shape[1])


class LocalEntries(NamedTuple):
    """A sum of products' Kronecker nonzeros in its own index space, apart from its
    coefficients (`local_entries`)."""

    nonzeros: np.ndarray    # every product's nonzero values in turn, without its coefficient
    product: np.ndarray     # the product each of them belongs to
    sum: Summation          # how they sum per element

    def values(self, coefficients) -> np.ndarray:
        """The listed values of the sum with these coefficients, one per product."""
        return np.asarray(coefficients)[self.product] * self.nonzeros


def local_entries(factors, dims: Sequence[int]) -> LocalEntries:
    """The products' entries over slots of `dims`, product after product: each is the
    Kronecker product of its one-slot factors' nonzeros."""
    parts = []
    for product in factors:
        if [np.shape(f) for f in product] != [(dim, dim) for dim in dims]:
            raise ValueError(f"operator shapes {[np.shape(f) for f in product]} do not match "
                             f"dims {list(dims)}")
        rows, cols, values = 0, 0, 1.0
        for f, dim in zip(product, dims):
            i, j = np.nonzero(f)
            rows, cols = np.add.outer(rows * dim, i), np.add.outer(cols * dim, j)
            values = np.multiply.outer(values, np.asarray(f)[i, j])
        parts.append((rows.ravel(), cols.ravel(), values.ravel()))
    rows, cols, values = map(np.concatenate, zip(*parts))
    product = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])
    return LocalEntries(values, product, summation(rows, cols, math.prod(dims)))


def placement(sites, dims: Sequence[int]) -> np.ndarray:
    """The flat indices of the product space by their digits on `sites`: row a lists, over
    the other digits in order, the indices whose digits on `sites` spell a."""
    dims = tuple(dims)
    sites = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    grid = np.moveaxis(np.arange(math.prod(dims)).reshape(dims), sites, range(len(sites)))
    return grid.reshape(math.prod(dims[i] for i in sites), -1)


def _zeroed(w: np.ndarray) -> np.ndarray:
    # eigenvalues indistinguishable from zero must not leak sqrt(eps) noise
    # into the trace of the matrix square root; rows of a 2-D w are separate spectra
    cutoff = np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-14
    return np.where(w > cutoff, w, 0.0)
