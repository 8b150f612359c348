"""Spin-s operator algebra, qudit states, tensor tools and Uhlmann fidelity.

Everything here is dense numpy, hbar = k_B = 1.  Local basis conventions:
the computational basis is the S^z eigenbasis ordered m = s, s-1, ..., -s;
"energy-ascending" always refers to the local Hamiltonian h * S^z, so for
h > 0 the local ground state |0> is the m = -s vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    if beta < 0:
        raise ValueError("inverse temperature must be non-negative")
    if beta == 0:
        return DensityMatrix(np.eye(d, dtype=complex) / d, (d,))
    if np.isinf(beta):
        return low_lying_mixture(d, 1, h)
    s = (d - 1) / 2
    m = s - np.arange(d)
    w = np.exp(-beta * h * m - np.max(-beta * h * m))
    w /= w.sum()
    return DensityMatrix(np.diag(w).astype(complex), (d,))


def low_lying_mixture(d: int, k: int, h: float = 1.0) -> DensityMatrix:
    """Equal mixture (1/k) sum of the k lowest local-energy eigenstates."""
    if not 1 <= k <= d:
        raise ValueError(f"rank k={k} out of range 1..{d}")
    w = np.zeros(d)
    w[energy_order(d, h)[:k]] = 1 / k
    return DensityMatrix(np.diag(w).astype(complex), (d,))


def tensor_product(a, b):
    """Kronecker composition: dims concatenate, traces multiply.

    DensityMatrix inputs yield a DensityMatrix; raw arrays yield an array.
    """
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.data, b.data), a.dims + b.dims)
    return np.kron(np.asarray(a), np.asarray(b))


def operator_entries(op: np.ndarray, sites, dims: Sequence[int]):
    """The nonzero entries (rows, cols, values) of `op` on `sites`, identity elsewhere.

    `sites` is one slot, or an ordered tuple of distinct slots; `op` acts on
    them in the order given: `operator_entries(kron(a, b), (2, 0), dims)` puts
    a on slot 2 and b on slot 0.  No two entries share a (row, col).
    """
    dims, n = tuple(dims), len(dims)
    sites = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    if len(set(sites)) < len(sites) or not all(0 <= site < n for site in sites):
        raise ValueError(f"sites {sites} must be distinct slots in 0..{n - 1}")
    placed = [dims[i] for i in sites]
    op = np.asarray(op, dtype=complex)
    if op.shape != (math.prod(placed),) * 2:
        raise ValueError(f"operator shape {op.shape} does not match dims {placed} of sites {sites}")
    # row a: the flat indices whose digits on `sites` spell op's index a, over the other digits
    grid = np.moveaxis(np.arange(math.prod(dims)).reshape(dims), sites, range(len(sites)))
    grid = grid.reshape(len(op), -1)
    a, b = np.nonzero(op)
    return grid[a].ravel(), grid[b].ravel(), np.repeat(op[a, b], grid.shape[1])


def embed_operator(op: np.ndarray, sites, dims: Sequence[int]) -> np.ndarray:
    """`op` on `sites` as a dense array: the scatter of `operator_entries(op, sites, dims)`."""
    rows, cols, values = operator_entries(op, sites, dims)
    out = np.zeros((math.prod(dims),) * 2, dtype=complex)
    out[rows, cols] = values
    return out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on `keep` (system order preserved); trace is preserved."""
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    dims, n = rho.dims, len(rho.dims)
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep sites {keep} out of range for {n} subsystems")
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    red = np.einsum("".join(row) + "".join(col) + "->" + out, rho.data.reshape(dims * 2))
    dk = int(np.prod([dims[i] for i in keep]))
    return DensityMatrix(red.reshape(dk, dk), tuple(dims[i] for i in keep))


def _zeroed(w: np.ndarray) -> np.ndarray:
    # eigenvalues indistinguishable from zero must not leak sqrt(eps) noise
    # into the trace of the matrix square root; rows of a 2-D w are separate spectra
    cutoff = np.maximum(w.max(axis=-1, keepdims=True), 0.0) * 1e-14
    return np.where(w > cutoff, w, 0.0)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(Tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2 via Hermitian eigendecompositions."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w, v = np.linalg.eigh(sigma.data)
    if w[0] < -PSD_TOL:
        raise ValueError(f"state has eigenvalue {w[0]:.3e} below -1e-10")
    sq = (v * np.sqrt(_zeroed(w))) @ v.conj().T
    inner = sq @ rho.data @ sq
    ev = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if ev[0] < -PSD_TOL:
        raise ValueError(f"state has eigenvalue {ev[0]:.3e} below -1e-10")
    f = float(np.sum(np.sqrt(_zeroed(ev))) ** 2)
    return min(f, 1.0)
