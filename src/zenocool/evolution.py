"""Open-system (local master equation) evolution.

The dissipative channel is a single lowering operator A = S^-/2 on one site
at frequency omega (the uniform Sz ladder gap), with thermal occupancy
n = 1/(exp(omega/T) - 1).  The primary open-system path vectorizes rho
(row stacking) and exponentiates the Liouvillian once per interval; a
fixed-step RK4 integrator backs it up for dimensions where the dense
superoperator is unreasonable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .qudit import DensityMatrix, embed_operator, spin_operators

SUPEROP_MAX_DIM = 100


class IntegrationError(RuntimeError):
    """Raised when the fallback integrator cannot keep the trace drift in spec."""


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
    """gamma[(1+n)(A rho A+ - {A+A,rho}/2) + n(A+ rho A - {AA+,rho}/2)], A = S^-/2."""
    A = _jump_operator(bath, rho.dims)
    return _dissipator_array(rho.data, A, bath.gamma, bath.occupancy())


def _dissipator_array(rho: np.ndarray, A: np.ndarray, gamma: float, n: float) -> np.ndarray:
    if gamma == 0:
        return np.zeros_like(rho)
    Ad = A.conj().T
    AdA = Ad @ A
    AAd = A @ Ad
    down = A @ rho @ Ad - 0.5 * (AdA @ rho + rho @ AdA)
    up = Ad @ rho @ A - 0.5 * (AAd @ rho + rho @ AAd)
    return gamma * ((1 + n) * down + n * up)


def liouvillian(H: np.ndarray, bath: BathSpec, dims: Sequence[int]) -> np.ndarray:
    """Dense superoperator on row-stacked rho: vec(A rho B) = (A kron B^T) vec(rho)."""
    H = np.asarray(H, dtype=complex)
    D = H.shape[0]
    eye = np.eye(D)
    lk = lambda X, Y: np.kron(X, Y.T)
    L = -1j * (lk(H, eye) - lk(eye, H))
    if bath.gamma > 0:
        A = _jump_operator(bath, dims)
        Ad = A.conj().T
        n = bath.occupancy()
        for rate, B in ((bath.gamma * (1 + n), A), (bath.gamma * n, Ad)):
            Bd = B.conj().T
            BdB = Bd @ B
            L += rate * (lk(B, Bd) - 0.5 * (lk(BdB, eye) + lk(eye, BdB)))
    return L


class LindbladPropagator:
    """exp(L*tau) built once and reused across the measurement rounds.

    For D <= 100 the exponential is exact (dense expm); larger systems fall
    back to fixed-step RK4, refined until successive halvings agree to 1e-9
    and trace drift stays below 1e-9.
    """

    def __init__(self, H: np.ndarray, bath: BathSpec, dims: Sequence[int], tau: float,
                 method: str = "auto"):
        H = np.asarray(H, dtype=complex)
        self.tau = float(tau)
        self.dims = tuple(dims)
        D = H.shape[0]
        if method == "auto":
            method = "superop" if D <= SUPEROP_MAX_DIM else "rk4"
        self.method = method
        if method == "superop":
            self._exp = expm(liouvillian(H, bath, dims) * tau)
            self._H = None
        elif method == "rk4":
            self._exp = None
            self._H = H
            self._A = _jump_operator(bath, dims) if bath.gamma > 0 else None
            self._gamma = bath.gamma
            self._n = bath.occupancy() if bath.gamma > 0 else 0.0
        else:
            raise ValueError(f"unknown method {method!r}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        if self._exp is not None:
            D = rho.shape[0]
            return (self._exp @ rho.reshape(-1)).reshape(D, D)
        return self._rk4(rho)

    def _rhs(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self._H @ rho - rho @ self._H)
        if self._A is not None:
            out += _dissipator_array(rho, self._A, self._gamma, self._n)
        return out

    def _integrate(self, rho: np.ndarray, n_steps: int) -> np.ndarray:
        dt = self.tau / n_steps
        r = rho
        for _ in range(n_steps):
            k1 = self._rhs(r)
            k2 = self._rhs(r + 0.5 * dt * k1)
            k3 = self._rhs(r + 0.5 * dt * k2)
            k4 = self._rhs(r + dt * k3)
            r = r + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return r

    def _rk4(self, rho: np.ndarray) -> np.ndarray:
        # RK4 preserves the trace of this generator at any step size, so the
        # step is controlled by successive refinement, not trace drift alone
        n_steps = 64
        prev = self._integrate(rho, n_steps)
        while True:
            n_steps *= 2
            cur = self._integrate(rho, n_steps)
            diff = float(np.max(np.abs(cur - prev)))
            drift = abs(np.trace(cur).real - np.trace(rho).real) + abs(np.trace(cur).imag)
            if diff < 1e-9 and drift < 1e-9:
                return cur
            if n_steps > 1 << 17:
                raise IntegrationError(
                    f"RK4 not converged over tau={self.tau}: refinement diff "
                    f"{diff:.3e}, trace drift {drift:.3e} at {n_steps} steps")
            prev = cur


def lindblad_evolve(rho: DensityMatrix, H: np.ndarray, bath: BathSpec, tau: float,
                    method: str = "auto") -> DensityMatrix:
    """Solve the local master equation for duration tau; trace preserved to 1e-8."""
    prop = LindbladPropagator(H, bath, rho.dims, tau, method=method)
    out = prop.apply(rho.data)
    out = (out + out.conj().T) / 2
    tr = np.trace(out).real
    if abs(tr - 1.0) > 1e-8:
        raise IntegrationError(f"trace drift {abs(tr - 1.0):.3e} exceeds 1e-8 over tau={tau}")
    return DensityMatrix(out / tr, rho.dims)
