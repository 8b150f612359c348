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

A closed run propagates X, with rho = X X^+ on the support, one matmul per
round; `zeno_run` reads all fidelities off the support populations at once.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .evolution import BathSpec, LindbladPropagator
from .hamiltonians import HamiltonianSpec, SystemLayout
from .qudit import (
    DensityMatrix,
    _zeroed,
    embed_operator,
    energy_order,
    low_lying_mixture,
    spin_operators,
    thermal_state,
)

EXTINCTION_THRESHOLD = 1e-14
SZ_CONSERVATION_TOL = 1e-12
OPEN_BLOCK_COPIES = 4   # peak memory of the open set-up over its block (4.1 traced at D=81)
# peak memory of a closed run over one D x D complex array: 3.45 traced at D=729-2187,
# chain and star alike (H, V and U's support rows), plus eigh's LAPACK workspace, which
# tracemalloc does not see (5.1-6.1 by peak RSS); the H build itself peaks at 2.1
CLOSED_DENSE_COPIES = 7
# expm_multiply picks its step count from 1-norms of (L tau)^p, p <= 9 (Al-Mohy & Higham's
# p_max + 1): past the ninth root of the largest float these can overflow, and it fails on
# a NaN or an infinity; a bath run's bound on |L tau| must stay below it
EXPM_NORM_LIMIT = sys.float_info.max ** (1 / 9)
# a bath run's bound tau |L| times its block's rows and columns: an L=4, d=3 chain at
# Jtau = 2 pi reads 3.1e11; measured runs took 2e-9 (large blocks, |H| bound) to 3.4e-7
# (D=9, gamma bound) seconds per unit, since the |H| bound is the looser one
EXPM_COST_LIMIT = 1e12


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
        if self.hamiltonian.h == 0:
            raise ValueError("h must be nonzero: h = 0 leaves the local levels degenerate")
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
        sites = self.layout.n_sites
        kind = "closed" if self.bath is None else "bath"
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if math.log2(d) > 64 / sites:       # D is not formed: 16 D^2 bytes exceed 2^132
            raise ValueError(f"a {kind} run at D={d}^{sites} needs more than 2^132 bytes "
                             f"to set up, more than the {have:,} bytes of physical memory")
        D = d ** sites
        # every run builds the dense D x D H (closed runs diagonalise it) and records N
        # rows of support populations; Python integers, so nothing overflows
        need = 16 * CLOSED_DENSE_COPIES * D * D + 8 * self.n_measurements * self.rank * (D // d)
        if need <= have and self.bath is not None:
            rows, cols = _open_block(self)
            need = max(need, 16 * OPEN_BLOCK_COPIES * rows * cols)
        if need > have:
            raise ValueError(f"a {kind} run at D={D} needs about {need:,} bytes to set up, "
                             f"more than the {have:,} bytes of physical memory")
        ham = self.hamiltonian
        # |H| <= L |bond| + (L+1) |h| s with s = (d-1)/2 < d; the BBH bond (S.S)^2 scales as d^4
        bound = (self.layout.L * abs(ham.J) * (3 + abs(getattr(ham, "Delta", 0.0))) * d ** 4
                 + sites * abs(ham.h) * d)
        if not math.isfinite(self.tau * bound):
            raise ValueError(f"tau * |H| must be finite: tau = {self.tau} with |H| <= {bound:.3g}")
        if self.bath is not None:
            bath = self.bath
            with np.errstate(over="ignore"):
                n = bath.occupancy()
            norm = self.tau * (bound + bath.gamma * (2 * n + 1))
            if not norm < EXPM_NORM_LIMIT:
                raise ValueError(
                    f"a bath run needs tau * (|H| + gamma * (2n + 1)) = {norm:.3g} below "
                    f"{EXPM_NORM_LIMIT:.3g}: tau = {self.tau}, |H| <= {bound:.3g}, "
                    f"bath.gamma = {bath.gamma}, occupancy n = {n:.3g} "
                    f"from bath.temperature = {bath.temperature}, bath.omega = {bath.omega}")
            cost = norm * rows * cols
            if cost > EXPM_COST_LIMIT:
                raise ValueError(
                    f"a bath run at D={D} would take too long: tau * (|H| + gamma * (2n + 1)) "
                    f"times its {rows} x {cols} block is {cost:.3g}, over {EXPM_COST_LIMIT:.3g}; "
                    f"lower tau = {self.tau}, J = {ham.J} or bath.gamma = {bath.gamma}")

    @property
    def prep_rank(self) -> int:
        return self.rank if self.regulator_prep is None else self.regulator_prep

    @property
    def betas(self) -> tuple[float, ...]:
        return (0.0,) * self.layout.L if self.target_betas is None else self.target_betas


def _open_block(config: ProtocolConfig) -> tuple[int, int]:
    """The shape of `_open_rounds`' block (sector-diagonal entries, support entries + 1).

    The sizes come from convolving the local Sz ladders as Python integers, so
    nothing D-sized is built and nothing overflows.
    """
    d, L = config.layout.d, config.layout.L
    ones = lambda n: np.ones(n, dtype=object)
    targets = reduce(np.convolve, [ones(d)] * L)
    rows = sum(n * n for n in np.convolve(ones(d), targets))
    # the support's sector sizes: its k levels are adjacent on the Sz ladder
    cols = sum(n * n for n in np.convolve(ones(config.rank), targets)) + 1
    return rows, cols


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


def _initial_populations(config: ProtocolConfig) -> np.ndarray:
    """The diagonal of rho(0), which is diagonal: regulator mixture tensor thermal targets."""
    h, d = config.hamiltonian.h, config.layout.d
    states = [target_state(config)] + [thermal_state(d, h, beta) for beta in config.betas]
    return reduce(np.multiply.outer, [np.diag(r.data).real for r in states]).ravel()


def initial_state(config: ProtocolConfig) -> DensityMatrix:
    """rho(0) = regulator low-lying mixture tensor thermal targets."""
    return DensityMatrix(np.diag(_initial_populations(config)), config.layout.dims)


def target_state(config: ProtocolConfig) -> DensityMatrix:
    """The state each target is driven toward (the regulator preparation)."""
    return low_lying_mixture(config.layout.d, config.prep_rank, config.hamiltonian.h)


def _support(config: ProtocolConfig) -> np.ndarray:
    """The projector support: ascending flat indices whose regulator digit is a k-lowest level."""
    d, L = config.layout.d, config.layout.L
    low = np.sort(energy_order(d, config.hamiltonian.h)[:config.rank])
    return (low[:, None] * d ** L + np.arange(d ** L)).ravel()


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


# one entry: the memory gate counts one D x D V, and sweeps enumerate Jtau innermost,
# so consecutive points of one (d, k, theta) share it
@lru_cache(maxsize=1)
def _eigendecomposition(layout: SystemLayout, spec: HamiltonianSpec):
    return np.linalg.eigh(_hamiltonian(layout, spec))


def _unitary(config: ProtocolConfig) -> np.ndarray:
    lam, V = _eigendecomposition(config.layout, config.hamiltonian)
    return (V * np.exp(-1j * lam * config.tau)) @ V.conj().T


def _support_rows(config: ProtocolConfig, support: np.ndarray):
    """V[S] e^{-i lam tau} and V, for H = V diag(lam) V^+: U[S, c] is rows @ V[c]^+."""
    lam, V = _eigendecomposition(config.layout, config.hamiltonian)
    return V[support] * np.exp(-1j * lam * config.tau), V


def _site_fidelities(config: ProtocolConfig, pops: np.ndarray) -> np.ndarray:
    """(n, L) Uhlmann fidelities of every target against the regulator preparation.

    Row r of pops is the diagonal of rho after round r, over the full space
    or over the projector support: either way the regulator is its leading
    digit.  The reduced states are diagonal, so against the equal mixture of
    the k lowest levels the fidelity is (sum_i sqrt(p_i))^2 / k over those
    levels, with the zero cutoff of uhlmann_fidelity.
    """
    d, L = config.layout.d, config.layout.L
    # in index order, so the rounding of the sum below does not depend on the sign of h
    low = np.sort(energy_order(d, config.hamiltonian.h)[:config.prep_rank])
    n, size = pops.shape        # target j's marginal sums the digits before and after it
    sites = [pops.reshape(n, size // d ** (L - j + 1), d, d ** (L - j)).sum(axis=(1, 3))
             for j in range(1, L + 1)]
    q = _zeroed(np.stack(sites, axis=1)[:, :, low])
    return np.minimum(np.sqrt(q).sum(axis=-1) ** 2 / len(low), 1.0)


def zeno_run(config: ProtocolConfig, *, retain_state: bool = True) -> TrajectoryRecord:
    """Alternate evolution and post-selected rank-k measurement N times.

    Records per-round conditional probabilities, their running log-sum, and
    the Uhlmann fidelity of every target site against the regulator
    preparation.  Raises ExtinctionError (carrying the completed prefix) if
    a round's outcome probability drops below EXTINCTION_THRESHOLD.
    """
    w = _initial_populations(config)
    f0 = _site_fidelities(config, w[None])[0]
    if config.n_measurements == 0:
        return TrajectoryRecord(
            steps=np.arange(0), fidelities=np.zeros((0, config.layout.L)),
            step_probabilities=np.zeros(0), log_cumulative=np.zeros(0), initial_fidelities=f0,
            final_state=initial_state(config) if retain_state else None)

    support = _support(config)
    rounds = _closed_rounds if config.bath is None else _open_rounds
    pops, probs, drift, block = rounds(config, w, support)
    n = len(pops)
    final = None
    if retain_state and block is not None:
        final = np.zeros((len(w), len(w)), dtype=complex)
        final[np.ix_(support, support)] = (block + block.conj().T) / 2
        final = DensityMatrix(final, config.layout.dims)
    record = TrajectoryRecord(
        steps=np.arange(1, n + 1), fidelities=_site_fidelities(config, pops / probs[:n, None]),
        step_probabilities=probs[:n], log_cumulative=np.cumsum(np.log(probs[:n])),
        initial_fidelities=f0, final_state=final, max_trace_drift=drift)
    if len(probs) > n:
        raise ExtinctionError(step=n + 1, probability=float(probs[n]), partial=record)
    return record


def _closed_rounds(config: ProtocolConfig, w: np.ndarray, support: np.ndarray):
    """Support populations (n, s) before normalization, every round's p, drift 0, final block.

    rho = X X^+ on the support S, from X = U[S, c] sqrt(w[c]) over the entries w[c] > 0 of
    rho(0) = diag(w); each later round is X <- M X, M = U[S, S], until p < EXTINCTION_THRESHOLD.
    """
    rows, V = _support_rows(config, support)
    X = (rows @ V[w > 0].conj().T) * np.sqrt(w[w > 0])
    if X.shape[1] > len(support):       # a wider preparation: s columns with the same X X^+
        X = np.linalg.qr(X.conj().T, mode="r").conj().T
    M = rows @ V[support].conj().T
    pops, probs = np.zeros((config.n_measurements, len(support))), np.zeros(config.n_measurements)
    for n in range(config.n_measurements):
        if n > 0:
            X = M @ X
        pops[n] = (X.real ** 2 + X.imag ** 2).sum(axis=1)
        probs[n] = p = pops[n].sum()
        if p < EXTINCTION_THRESHOLD:
            return pops[:n], probs[:n + 1], 0.0, None
        X /= np.sqrt(p)
    return pops, probs, 0.0, X @ X.conj().T


def _open_rounds(config: ProtocolConfig, w: np.ndarray, support: np.ndarray):
    """LME evolution between measurements, with the same returns as `_closed_rounds`.

    H conserves total Sz and A = S^-/2 lowers bra and ket together, so L maps
    the entries (i, j) of rho with Sz_tot(i) = Sz_tot(j) into themselves,
    and rho(0) lies among them.  One exponential action on that subspace
    evolves each support entry (i, j in S) and rho(0) together; every round
    is then one dense matvec on the support entries.
    """
    D, s = len(w), len(support)
    sz = _sz_total(config.layout)
    kept = np.flatnonzero(sz[:, None] == sz[None, :])
    diagonal = kept // D == kept % D
    inner = np.flatnonzero(sz[support][:, None] == sz[support][None, :])
    i, j = np.divmod(inner, s)
    entries = np.searchsorted(kept, support[i] * D + support[j])
    block = np.zeros((len(kept), len(inner) + 1), dtype=complex)
    block[entries, np.arange(len(inner))] = 1.0
    block[diagonal, -1] = w
    H = _hamiltonian(config.layout, config.hamiltonian)
    prop = LindbladPropagator(H, config.bath, config.layout.dims, config.tau, subspace=kept)
    evolved = prop.apply(block)
    traces = evolved[diagonal].sum(axis=0)
    M, y, trace = evolved[entries, :-1], evolved[entries, -1], traces[-1]
    del block, evolved      # the rounds need only M, y and the trace row
    diag = np.flatnonzero(i == j)
    swap = np.searchsorted(inner, j * s + i)     # entry (j, i) of each (i, j)
    pops, probs, drift = np.zeros((config.n_measurements, s)), np.zeros(config.n_measurements), 0.0
    for n in range(config.n_measurements):
        if n > 0:
            y, trace = M @ x, traces[:-1] @ x
        drift = max(drift, abs(trace.real - 1.0))
        pops[n] = y[diag].real
        probs[n] = p = pops[n].sum()
        if p < EXTINCTION_THRESHOLD:
            return pops[:n], probs[:n + 1], drift, None
        x = (y + y[swap].conj()) / (2 * p)
    rho = np.zeros((s, s), dtype=complex)
    rho.flat[inner] = x
    return pops, probs, drift, rho


def direct_cumulative_probability(config: ProtocolConfig) -> float:
    """Tr[(P U)^N rho(0) (U^+ P)^N] evaluated literally (validation oracle)."""
    low = low_lying_mixture(config.layout.d, config.rank, config.hamiltonian.h).data != 0
    P = embed_operator(low, config.layout.regulator_site, config.layout.dims)
    M = P @ _unitary(config)
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
    """General eigendecomposition of the round map M = P U (closed-system configs).

    M is U[S, :] on the support rows and zero elsewhere: its eigenvalues are those of
    U[S, S] plus D - s exact zeros, r lives on S, and l^+ = l_S^+ U[S, :] / a.
    """
    if config.bath is not None:
        raise ValueError("the round-map spectrum is defined for closed-system configs")
    support = _support(config)
    rows, V = _support_rows(config, support)
    top = rows @ V.conj().T                     # U[S, :]
    vals, R = np.linalg.eig(top[:, support])
    order = np.argsort(-np.abs(vals), kind="stable")
    vals = vals[order]
    R = R[:, order]
    try:
        left_rows = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        left_rows = np.linalg.pinv(R)
    simple = bool(abs(abs(vals[0]) - abs(vals[1])) > 1e-9)
    if not simple:
        warnings.warn("dominant eigenspace of the round map is not simple "
                      f"(|a0|={abs(vals[0]):.12f}, |a1|={abs(vals[1]):.12f})",
                      RuntimeWarning, stacklevel=2)
    norm = np.linalg.norm(R[:, 0])
    r = np.zeros(len(V), dtype=complex)
    r[support] = R[:, 0] / norm
    l = ((left_rows[0, :] * norm) @ top / vals[0]).conj()
    vals = np.concatenate([vals, np.zeros(len(V) - len(support), dtype=complex)])
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
