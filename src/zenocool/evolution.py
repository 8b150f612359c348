"""Open-system (local master equation) evolution.

The dissipative channel is a single lowering operator A = S^-/2 on one site
at frequency omega (the uniform Sz ladder gap), with thermal occupancy
n = 1/(exp(omega/T) - 1).  rho is vectorized by row stacking, the
Liouvillian is a sparse matrix on that space, and one algorithm propagates
it: the action of exp(L tau) on a vector or a block of vectors (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011)), optionally on a subspace of
vec(rho) that L leaves invariant.  No dense superoperator is formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .qudit import DensityMatrix, embed_operator, spin_operators


@dataclass(frozen=True)
class BathSpec:
    """Thermal-bath dissipation on one site: rate gamma, temperature, channel frequency.

    `site=None` is the last (farthest) site of the system.
    """

    temperature: float
    gamma: float
    omega: float = 1.0
    site: Optional[int] = None

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN fails each check too
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"bath.temperature must be positive and finite, got {self.temperature}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"bath.omega (channel frequency) must be positive and finite, "
                             f"got {self.omega}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"bath.gamma must be non-negative and finite, got {self.gamma}")

    def occupancy(self) -> float:
        ratio = self.omega / self.temperature
        return 0.0 if ratio > 700 else 1.0 / np.expm1(ratio)


def _jump_operator(bath: BathSpec, dims: Sequence[int]) -> np.ndarray:
    site = bath.site if bath.site is not None else len(dims) - 1
    ops = spin_operators(dims[site])
    return 0.5 * embed_operator(ops.sminus, site, dims)


def dissipator(rho: DensityMatrix, bath: BathSpec) -> np.ndarray:
    """gamma[(1+n)(A rho A+ - {A+A,rho}/2) + n(A+ rho A - {AA+,rho}/2)], A = S^-/2 (checks liouvillian)."""
    A = _jump_operator(bath, rho.dims)
    n, r = bath.occupancy(), rho.data
    out = np.zeros_like(r)
    for rate, B in ((bath.gamma * (1 + n), A), (bath.gamma * n, A.conj().T)):
        BdB = B.conj().T @ B
        out += rate * (B @ r @ B.conj().T - 0.5 * (BdB @ r + r @ BdB))
    return out


def liouvillian(H, bath: BathSpec, dims: Sequence[int]):
    """Sparse (CSR) superoperator on row-stacked rho: vec(A rho B) = (A kron B^T) vec(rho)."""
    from scipy import sparse     # loaded here: closed runs never need scipy (~0.4 s, 30 MB)

    H = sparse.csr_matrix(H, dtype=complex)
    eye = sparse.identity(H.shape[0], dtype=complex, format="csr")
    lk = lambda X, Y: sparse.kron(X, Y.T, format="csr")
    L = -1j * (lk(H, eye) - lk(eye, H))
    if bath.gamma > 0:
        A = sparse.csr_matrix(_jump_operator(bath, dims))
        n = bath.occupancy()
        for rate, B in ((bath.gamma * (1 + n), A), (bath.gamma * n, A.conj().T)):
            Bd = B.conj().T
            BdB = Bd @ B
            L += rate * (lk(B, Bd) - 0.5 * (lk(BdB, eye) + lk(eye, BdB)))
    return L.tocsr()


class LindbladPropagator:
    """The action of exp(L tau) on vec(rho), by Al-Mohy & Higham's `expm_multiply`.

    `subspace` (flat indices into row-stacked rho) restricts the generator to
    entries that it maps into themselves; `apply` then acts on vectors, or on
    blocks of column vectors, over that subspace instead of the full D^2 space.
    """

    method = "expm_multiply"

    def __init__(self, H, bath: BathSpec, dims: Sequence[int], tau: float,
                 subspace: Optional[np.ndarray] = None):
        L = liouvillian(H, bath, dims)
        if subspace is not None:
            L = L[subspace][:, subspace]
        self._generator = L * float(tau)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        from scipy.sparse.linalg import expm_multiply

        return expm_multiply(self._generator, vectors)
