"""The Zeno cooling state machine.

One round = evolve for tau (unitary, or LME when a bath is attached), then
project the regulator onto the k lowest local-energy eigenstates and
post-select that outcome.  Only the post-selected branch is followed; the
conditional state is propagated deterministically and per-round conditional
probabilities are accumulated (with their logs, so long runs cannot
underflow).

The projector is a 0/1 diagonal in the Sz basis, so the post-measurement
state lives on its support and every round is carried out there.  Every
model conserves total Sz (checked once at set-up) and rho(0) is diagonal,
so rho stays block-diagonal in magnetization sectors: each target's reduced
state is diagonal, and its fidelity is read off the site populations.
Both are exact algebraic restrictions, not approximations.
"""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .evolution import BathSpec, LindbladPropagator
from .hamiltonians import HamiltonianSpec, SystemLayout
from .qudit import (
    DensityMatrix,
    Projector,
    _zeroed,
    low_lying_mixture,
    projector,
    spin_operators,
    thermal_state,
)

EXTINCTION_THRESHOLD = 1e-14
SZ_CONSERVATION_TOL = 1e-12
OPEN_BLOCK_COPIES = 4   # peak memory of the open set-up over its block (4.1 traced at D=81)


class ExtinctionError(RuntimeError):
    """The post-selected branch died: a round's outcome probability fell below threshold."""

    def __init__(self, step: int, probability: float, partial: "TrajectoryRecord | None" = None):
        super().__init__(
            f"post-selected branch extinguished at step {step} (p = {probability:.3e})")
        self.step = step
        self.probability = probability
        self.partial = partial


@dataclass(frozen=True)
class ProtocolConfig:
    """Full specification of a cooling run.

    regulator_prep defaults to the projector rank; target_betas default to
    all-zero (infinite-temperature targets).  A bath switches the evolution
    between measurements from unitary to the local master equation.
    """

    layout: SystemLayout
    hamiltonian: HamiltonianSpec
    tau: float
    n_measurements: int
    rank: int
    regulator_prep: Optional[int] = None
    target_betas: Optional[tuple[float, ...]] = None
    bath: Optional[BathSpec] = None

    def __post_init__(self):
        d = self.layout.d
        if not 1 <= self.rank <= d:
            raise ValueError(f"projector rank {self.rank} out of range 1..{d}")
        if self.regulator_prep is not None and not 1 <= self.regulator_prep <= d:
            raise ValueError(f"regulator preparation rank {self.regulator_prep} out of range 1..{d}")
        if self.n_measurements < 0:
            raise ValueError("number of measurements must be >= 0")
        for name, value in (("tau", self.tau), *vars(self.hamiltonian).items()):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        site = None if self.bath is None else self.bath.site
        if site is not None and not 0 <= site <= self.layout.L:
            raise ValueError(f"bath.site {site} out of range 0..{self.layout.L}")
        if self.target_betas is not None and len(self.target_betas) != self.layout.L:
            raise ValueError(
                f"target_betas has {len(self.target_betas)} entries for {self.layout.L} targets")
        if getattr(self.hamiltonian, "model", None) == "spin_star":
            if self.layout.topology != "star":
                raise ValueError("spin-star Hamiltonian requires the star layout")
        elif self.layout.topology != "chain":
            raise ValueError(f"{self.hamiltonian.model} Hamiltonian requires the chain layout")
        if self.bath is not None:
            need = _open_set_up_bytes(self)
            have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            if need > have:
                raise ValueError(
                    f"a bath run at D={self.layout.d ** self.layout.n_sites} needs about "
                    f"{need:,} bytes to set up, more than the {have:,} bytes of physical memory")

    @property
    def prep_rank(self) -> int:
        return self.rank if self.regulator_prep is None else self.regulator_prep

    @property
    def betas(self) -> tuple[float, ...]:
        return (0.0,) * self.layout.L if self.target_betas is None else self.target_betas


def _open_set_up_bytes(config: ProtocolConfig) -> int:
    """Memory of `_open_rounds`' block and its working copies, from the Sz-sector sizes.

    The sizes come from convolving the local Sz ladders, so nothing D-sized is built.
    """
    d, L = config.layout.d, config.layout.L
    low = (np.diag(measurement_projector(config).local_matrix()).real > 0.5).astype(float)
    targets = reduce(np.convolve, [np.ones(d)] * L)
    rows = np.sum(np.convolve(np.ones(d), targets) ** 2)
    cols = np.sum(np.convolve(low, targets) ** 2) + 1
    return int(16 * OPEN_BLOCK_COPIES * rows * cols)


@dataclass
class TrajectoryRecord:
    """Per-round fidelities and outcome probabilities of one post-selected run."""

    steps: np.ndarray                       # 1..N
    fidelities: np.ndarray                  # (N, L), target sites B_1..B_L
    step_probabilities: np.ndarray          # (N,) conditional per-round
    log_cumulative: np.ndarray              # (N,) sum of log step probabilities
    initial_fidelities: np.ndarray          # (L,)
    final_state: Optional[DensityMatrix] = None
    max_trace_drift: float = 0.0            # open-system runs only

    @property
    def cumulative_probabilities(self) -> np.ndarray:
        return np.multiply.accumulate(self.step_probabilities) if len(self.steps) \
            else np.array([])

    @property
    def cumulative_probability(self) -> float:
        return float(np.exp(self.log_cumulative[-1])) if len(self.steps) else 1.0


def initial_state(config: ProtocolConfig) -> DensityMatrix:
    """rho(0) = regulator low-lying mixture tensor thermal targets."""
    h = config.hamiltonian.h
    d = config.layout.d
    rho = low_lying_mixture(d, config.prep_rank, h).data
    for beta in config.betas:
        rho = np.kron(rho, thermal_state(d, h, beta).data)
    return DensityMatrix(rho, config.layout.dims)


def measurement_projector(config: ProtocolConfig) -> Projector:
    return projector(config.layout.d, config.rank, site=config.layout.regulator_site,
                     h=config.hamiltonian.h)


def target_state(config: ProtocolConfig) -> DensityMatrix:
    """The state each target is driven toward (the regulator preparation)."""
    return low_lying_mixture(config.layout.d, config.prep_rank, config.hamiltonian.h)


def apply_measurement(rho: DensityMatrix, proj: Projector,
                      threshold: float = EXTINCTION_THRESHOLD) -> tuple[DensityMatrix, float]:
    """Post-selected projective measurement: ((P x I) rho (P x I)/p, p)."""
    P = proj.embedded(rho.dims)
    out = P @ rho.data @ P
    p = float(np.trace(out).real)
    if p < threshold:
        raise ExtinctionError(step=1, probability=p)
    return DensityMatrix((out + out.conj().T) / (2 * p), rho.dims), p


def _sz_total(layout: SystemLayout) -> np.ndarray:
    """Total Sz of every basis state, in the flat index order of rho."""
    m = np.diag(spin_operators(layout.d).sz).real
    return reduce(np.add.outer, [m] * layout.n_sites).ravel()


def _hamiltonian(layout: SystemLayout, spec: HamiltonianSpec) -> np.ndarray:
    """The model's H, checked to conserve total Sz (the round loop relies on it)."""
    H = spec.build(layout)
    sz_tot = _sz_total(layout)
    # [H, Sz_tot]_ij = H_ij (Sz_j - Sz_i) for the diagonal Sz_tot
    leak = float(np.max(np.abs(H * (sz_tot[None, :] - sz_tot[:, None]))))
    if not leak <= SZ_CONSERVATION_TOL:
        raise ValueError(f"{spec.model} Hamiltonian does not conserve total Sz: "
                         f"max |[H, Sz_tot]| = {leak:.3e} > {SZ_CONSERVATION_TOL:g}")
    return H


@lru_cache(maxsize=8)
def _eigendecomposition(layout: SystemLayout, spec: HamiltonianSpec):
    return np.linalg.eigh(_hamiltonian(layout, spec))


def _unitary(config: ProtocolConfig) -> np.ndarray:
    lam, V = _eigendecomposition(config.layout, config.hamiltonian)
    return (V * np.exp(-1j * lam * config.tau)) @ V.conj().T


def _fidelity_reader(config: ProtocolConfig):
    """rho -> Uhlmann fidelity of every target against the regulator preparation.

    rho is the full state or its block on the projector support: either way
    the regulator is the leading digit of its diagonal.  The reduced states
    are diagonal, so against the equal mixture of the k lowest levels the
    fidelity is (sum_i sqrt(p_i))^2 / k over those levels, with the zero
    cutoff of uhlmann_fidelity.
    """
    d, L = config.layout.d, config.layout.L
    low = np.flatnonzero(np.diag(target_state(config).data).real)
    others = [tuple(a for a in range(L + 1) if a != j) for j in range(1, L + 1)]

    def read(rho: np.ndarray) -> np.ndarray:
        pops = np.diagonal(rho).real.reshape((-1,) + (d,) * L)
        q = _zeroed(np.stack([pops.sum(axis=axes) for axes in others])[:, low])
        return np.minimum(np.sqrt(q).sum(axis=1) ** 2 / len(low), 1.0)

    return read


def zeno_run(config: ProtocolConfig, *, retain_state: bool = True,
             extinction_threshold: float = EXTINCTION_THRESHOLD) -> TrajectoryRecord:
    """Alternate evolution and post-selected rank-k measurement N times.

    Records per-round conditional probabilities, their running log-sum, and
    the Uhlmann fidelity of every target site against the regulator
    preparation.  Raises ExtinctionError (carrying the completed prefix) if
    a round's outcome probability drops below the threshold.
    """
    dims = config.layout.dims
    L = config.layout.L
    rho0 = initial_state(config)
    site_fidelities = _fidelity_reader(config)
    f0 = site_fidelities(rho0.data)
    N = config.n_measurements
    if N == 0:
        return TrajectoryRecord(
            steps=np.arange(0), fidelities=np.zeros((0, L)),
            step_probabilities=np.zeros(0), log_cumulative=np.zeros(0),
            initial_fidelities=f0, final_state=rho0 if retain_state else None)

    # the projector support: flat indices whose regulator digit is one of the k lowest levels
    low = np.diag(measurement_projector(config).local_matrix()).real > 0.5
    support = np.flatnonzero(np.repeat(low, config.layout.d ** L))
    rounds = _closed_rounds if config.bath is None else _open_rounds
    fids = np.zeros((N, L))
    probs = np.zeros(N)
    logs = np.zeros(N)
    log_acc = 0.0
    drift = 0.0
    for n, (rho, p, step_drift) in enumerate(rounds(config, rho0.data, support), start=1):
        drift = max(drift, step_drift)
        if p < extinction_threshold:
            partial = TrajectoryRecord(
                steps=np.arange(1, n), fidelities=fids[: n - 1].copy(),
                step_probabilities=probs[: n - 1].copy(), log_cumulative=logs[: n - 1].copy(),
                initial_fidelities=f0, final_state=None, max_trace_drift=drift)
            raise ExtinctionError(step=n, probability=p, partial=partial)
        probs[n - 1] = p
        log_acc += np.log(p)
        logs[n - 1] = log_acc
        fids[n - 1] = site_fidelities(rho)
    final = None
    if retain_state:
        full = np.zeros_like(rho0.data)
        full[np.ix_(support, support)] = (rho + rho.conj().T) / 2
        final = DensityMatrix(full, dims)
    return TrajectoryRecord(
        steps=np.arange(1, N + 1), fidelities=fids, step_probabilities=probs,
        log_cumulative=logs, initial_fidelities=f0, final_state=final,
        max_trace_drift=drift)


def _closed_rounds(config: ProtocolConfig, rho0: np.ndarray, support: np.ndarray):
    """Yield (normalized rho on the support, conditional p, 0.0) per round."""
    U = _unitary(config)
    rows = U[support, :]
    rho = (rows @ rho0) @ rows.conj().T
    M = U[np.ix_(support, support)]
    for n in range(config.n_measurements):
        if n > 0:
            rho = (M @ rho) @ M.conj().T
        p = float(np.trace(rho).real)
        if p > 0:
            rho /= p
        yield rho, p, 0.0


def _open_rounds(config: ProtocolConfig, rho0: np.ndarray, support: np.ndarray):
    """LME evolution between measurements; yields rho on the support and the trace drift.

    H conserves total Sz and A = S^-/2 lowers bra and ket together, so L maps
    the entries (i, j) of rho with Sz_tot(i) = Sz_tot(j) into themselves,
    and rho(0) lies among them.  One exponential action on that subspace
    evolves each support entry (i, j in S) and rho(0) together; every round
    is then one dense matvec on the support entries.
    """
    D, s = len(rho0), len(support)
    sz = _sz_total(config.layout)
    kept = np.flatnonzero(sz[:, None] == sz[None, :])
    inner = np.flatnonzero(sz[support][:, None] == sz[support][None, :])
    i, j = np.divmod(inner, s)
    entries = np.searchsorted(kept, support[i] * D + support[j])
    block = np.zeros((len(kept), len(inner) + 1), dtype=complex)
    block[entries, np.arange(len(inner))] = 1.0
    block[:, -1] = rho0.reshape(-1)[kept]
    H = _hamiltonian(config.layout, config.hamiltonian)
    prop = LindbladPropagator(H, config.bath, config.layout.dims, config.tau, subspace=kept)
    evolved = prop.apply(block)
    traces = evolved[kept // D == kept % D].sum(axis=0)
    M, y, trace = evolved[entries, :-1], evolved[entries, -1], traces[-1]
    del block, evolved      # the rounds need only M, y and the trace row
    pops = np.flatnonzero(i == j)
    swap = np.searchsorted(inner, j * s + i)     # entry (j, i) of each (i, j)
    rho = np.zeros((s, s), dtype=complex)
    for n in range(config.n_measurements):
        if n > 0:
            y, trace = M @ x, traces[:-1] @ x
        p = float(y[pops].real.sum())
        x = (y + y[swap].conj()) / (2 * p) if p > 0 else y
        rho.flat[inner] = x
        yield rho, p, abs(trace.real - 1.0)


def direct_cumulative_probability(config: ProtocolConfig) -> float:
    """Tr[(P U)^N rho(0) (U^+ P)^N] evaluated literally (validation oracle)."""
    U = _unitary(config)
    P = measurement_projector(config).embedded(config.layout.dims)
    M = P @ U
    MN = np.linalg.matrix_power(M, config.n_measurements)
    return float(np.trace(MN @ initial_state(config).data @ MN.conj().T).real)


@dataclass
class ZenoSpectrum:
    """Spectral data of the nonunitary round map M = P U(tau)."""

    eigenvalues: np.ndarray          # sorted by descending modulus
    dominant_right: np.ndarray       # unit-norm right eigenvector of the top eigenvalue
    dominant_left: np.ndarray        # matching left eigenvector, <L|R> = 1
    dominant_is_simple: bool


def zeno_spectrum(config: ProtocolConfig) -> ZenoSpectrum:
    """General eigendecomposition of the round map (closed-system configs)."""
    if config.bath is not None:
        raise ValueError("the round-map spectrum is defined for closed-system configs")
    U = _unitary(config)
    P = measurement_projector(config).embedded(config.layout.dims)
    M = P @ U
    vals, R = np.linalg.eig(M)
    order = np.argsort(-np.abs(vals), kind="stable")
    vals = vals[order]
    R = R[:, order]
    try:
        left_rows = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        left_rows = np.linalg.pinv(R)
    simple = bool(len(vals) < 2 or abs(abs(vals[0]) - abs(vals[1])) > 1e-9)
    if not simple:
        warnings.warn("dominant eigenspace of the round map is not simple "
                      f"(|a0|={abs(vals[0]):.12f}, |a1|={abs(vals[1]):.12f})",
                      RuntimeWarning, stacklevel=2)
    r = R[:, 0]
    norm = np.linalg.norm(r)
    r = r / norm
    l = left_rows[0, :].conj() * norm
    return ZenoSpectrum(eigenvalues=vals, dominant_right=r, dominant_left=l,
                        dominant_is_simple=simple)


def delta_p(config: ProtocolConfig, k: int, *, matched_preparation: bool = True) -> float:
    """p_1^(k)(N) - p_1^(k-1)(N) from two full runs.

    With matched_preparation (default) each branch prepares the regulator as
    the mixture matching its own rank; otherwise both reuse config's
    preparation.
    """
    if k < 2:
        raise ValueError("rank difference needs k >= 2")
    if k > config.layout.d:
        raise ValueError(f"rank {k} exceeds local dimension {config.layout.d}")
    ps = []
    for rank in (k, k - 1):
        prep = None if matched_preparation else config.prep_rank
        variant = ProtocolConfig(
            layout=config.layout, hamiltonian=config.hamiltonian, tau=config.tau,
            n_measurements=config.n_measurements, rank=rank, regulator_prep=prep,
            target_betas=config.target_betas, bath=config.bath)
        ps.append(zeno_run(variant, retain_state=False).cumulative_probability)
    return ps[0] - ps[1]
