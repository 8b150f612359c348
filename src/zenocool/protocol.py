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

The engine reads H only as its nonzero entries; the dense `spec.build` is
left to the oracles.  A closed run works on the sectors, labelled by the
digit sum of the flat index.  H is diagonalised once per (layout,
Hamiltonian), as one batched eigh of its sector blocks, scattered from the
entries and zero-padded to the largest one.  It propagates X,
with rho = X X^+ on the support, as a stack of sector blocks: each round is
one batched matmul X <- M X, and `zeno_run` reads all fidelities off the
support populations at once.  The round-map spectrum takes one eig per
sector block of U[S, S].  Only `_unitary`, the tests' oracle, forms the
D x D U.
"""
from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple, Optional

import numpy as np

from .evolution import BathSpec, LindbladPropagator
from .hamiltonians import HamiltonianSpec, SystemLayout
from .qudit import (
    DensityMatrix,
    _zeroed,
    embed_operator,
    energy_order,
    low_lying_mixture,
    thermal_state,
)

EXTINCTION_THRESHOLD = 1e-14
SZ_CONSERVATION_TOL = 1e-12
OPEN_BLOCK_COPIES = 4   # peak memory of the open set-up over its block (4.1 traced at D=81)
# peak memory of a closed run: the d^2 x d^2 bond's temporaries (3.0 bonds traced for XXZ
# and 4.0 for BBH at L=1, d=31), H's entries with their sort (85-107 bytes per entry traced),
# the padded sector stacks of the set-up and rounds (6.3-6.6 n_sectors x A x A stacks traced
# at D=729-2187, chain and star alike), and the retained D x D state with DensityMatrix's
# Hermiticity check (3.5 D x D traced for rho(0) at N=0, 4 with a full-rank support block)
BOND_COPIES = 4
ENTRY_BYTES = 96
SECTOR_COPIES = 7
STATE_COPIES = 4
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
        if self.layout.topology != self.hamiltonian.topology:
            raise ValueError(f"{self.hamiltonian.model} Hamiltonian requires the "
                             f"{self.hamiltonian.topology} layout")
        sites = self.layout.n_sites
        kind = "closed" if self.bath is None else "bath"
        have = physical_memory()
        if math.log2(d) > 64 / sites:       # D is not formed: 16 D^2 bytes exceed 2^132
            raise ValueError(f"a {kind} run at D={d}^{sites} needs more than 2^132 bytes "
                             f"to set up, more than the {have:,} bytes of physical memory")
        D, need = d ** sites, run_bytes(self)
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
            rows, cols = _open_block(self)
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


def physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@lru_cache(maxsize=64)
def _sector_sizes(d: int, L: int, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sizes of the total-Sz sectors of the whole space, and of the projector support.

    They come from convolving the local Sz ladders as Python integers, so
    nothing D-sized is built and nothing overflows.  The support's k levels
    are adjacent on the ladder.
    """
    ones = lambda n: np.ones(n, dtype=object)
    targets = reduce(np.convolve, [ones(d)] * L)
    return tuple(np.convolve(ones(d), targets)), tuple(np.convolve(ones(rank), targets))


def _open_block(config: ProtocolConfig) -> tuple[int, int]:
    """The shape of `_open_rounds`' block (sector-diagonal entries, support entries + 1)."""
    full, support = _sector_sizes(config.layout.d, config.layout.L, config.rank)
    return sum(n * n for n in full), sum(n * n for n in support) + 1


def run_bytes(config: ProtocolConfig) -> int:
    """Estimated peak memory of one run, in Python integers.

    Every run lists H's entries: each Sz-conserving bond has at most d per
    row, each field one.  A closed run then holds its sector blocks,
    zero-padded to the largest sector, records N rows of padded and of plain
    support populations, and returns the D x D state; a bath run holds the
    larger of that and its exponential-action block.
    """
    d, L, N = config.layout.d, config.layout.L, config.n_measurements
    full, support = _sector_sizes(d, L, config.rank)
    D = d ** (L + 1)
    need = (16 * (BOND_COPIES * d ** 4 + SECTOR_COPIES * len(full) * max(full) ** 2
                  + STATE_COPIES * D * D) + ENTRY_BYTES * (L * d + L + 1) * D)
    # the padded record, its scatter to the support, the normalised copy, the site marginals
    need += 8 * N * (len(support) * max(support) + 2 * sum(support) + 4 * L * d)
    if config.bath is not None:
        rows, cols = _open_block(config)
        need = max(need, 16 * OPEN_BLOCK_COPIES * rows * cols)
    return need


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


def _sector_labels(layout: SystemLayout) -> np.ndarray:
    """The sector of every basis state, in the flat index order of rho: its digit sum.

    Digit i is the level m = s - i, so total Sz is n s minus the label, and
    states of equal total Sz have equal integer labels.
    """
    digits = np.arange(layout.d)
    return reduce(np.add.outer, [digits] * layout.n_sites).ravel()


def _hamiltonian(layout: SystemLayout, spec: HamiltonianSpec):
    """H's nonzero elements (rows, cols, values) in row-major order, checked to conserve total Sz.

    The spec's entries of one element are summed in the order it lists them,
    as `spec.build` sums them, so the values are H's elements bit for bit.
    """
    rows, cols, values = spec.entries(layout)
    D = layout.d ** layout.n_sites
    keys, where = np.unique(rows * D + cols, return_inverse=True)
    summed = np.zeros(len(keys), dtype=complex)
    np.add.at(summed, where, values)
    rows, cols = np.divmod(keys[summed != 0], D)
    values = summed[summed != 0]
    label = _sector_labels(layout)
    # [H, Sz_tot]_ij = H_ij (Sz_j - Sz_i) = H_ij (label_i - label_j)
    leak = float(np.max(np.abs(values * (label[rows] - label[cols])), initial=0.0))
    if not leak <= SZ_CONSERVATION_TOL:
        raise ValueError(f"{spec.model} Hamiltonian does not conserve total Sz: "
                         f"max |[H, Sz_tot]| = {leak:.3e} > {SZ_CONSERVATION_TOL:g}")
    return rows, cols, values


def _unitary(config: ProtocolConfig) -> np.ndarray:
    """U(tau) on the whole space, from one dense eigh: the oracle of the sector engine."""
    lam, V = np.linalg.eigh(config.hamiltonian.build(config.layout))
    return (V * np.exp(-1j * lam * config.tau)) @ V.conj().T


def _stack_slots(label: np.ndarray, sectors: np.ndarray):
    """Each state's place in a (len(sectors), width) stack: its sector's row, its slot in it.

    Slots follow the order of `label`; width is the largest sector's count.
    """
    which = np.searchsorted(sectors, label)
    sizes = np.bincount(which, minlength=len(sectors))
    slot = np.empty_like(which)
    slot[np.argsort(which, kind="stable")] = (np.arange(len(label))
                                              - np.repeat(np.cumsum(sizes) - sizes, sizes))
    return which, slot, int(sizes.max())


class _Sectors(NamedTuple):
    """H's total-Sz sector blocks, zero-padded to the largest sector A, diagonalised."""

    label: np.ndarray       # (D,) sector of every basis state
    slot: np.ndarray        # (D,) its row in the sector's block (ascending flat index)
    lam: np.ndarray         # (n_sectors, A) eigenvalues of each padded block
    V: np.ndarray           # (n_sectors, A, A) eigenvectors of each padded block


# one entry: the memory gate counts one set of sector blocks, and sweeps enumerate Jtau
# innermost, so consecutive points of one (d, k, theta) share it
@lru_cache(maxsize=1)
def _sector_eigh(layout: SystemLayout, spec: HamiltonianSpec) -> _Sectors:
    """One batched eigh over H's sector blocks.

    A padded block is diag(H_q, 0): its eigenvectors off the padding slots are
    those of H_q, so V e^{-i lam tau} V^+ restricted to the real slots is U's
    block exactly (also where H_q has an eigenvalue 0 that mixes with the padding).
    """
    rows, cols, values = _hamiltonian(layout, spec)
    label = _sector_labels(layout)
    _, slot, width = _stack_slots(label, np.arange(label[-1] + 1))
    inside = label[rows] == label[cols]
    rows, cols = rows[inside], cols[inside]
    blocks = np.zeros((label[-1] + 1, width, width), dtype=complex)
    blocks[label[rows], slot[rows], slot[cols]] = values[inside]
    lam, V = np.linalg.eigh(blocks)
    return _Sectors(label, slot, lam, V)


class _SupportBlocks(NamedTuple):
    """What a closed run needs of the sector eigenvectors, for every tau.

    Stacked over the n sectors that meet the support S, each padded to the
    largest one's a support states and c populated states of rho(0).
    """

    sectors: np.ndarray     # (n,) their labels, ascending
    where: np.ndarray       # (s,) each support state's flat place in an (n, a) stack
    lam: np.ndarray         # (n, A) eigenvalues of their blocks
    rows: np.ndarray        # (n, a, A) V's support rows
    cols: np.ndarray        # (n, A, c) V^+ at rho(0)'s populated states, times sqrt(w)


# one entry, like `_sector_eigh`: consecutive points of a Jtau line share it
@lru_cache(maxsize=1)
def _support_blocks(layout: SystemLayout, spec: HamiltonianSpec, rank: int,
                    regulator_prep: Optional[int], target_betas) -> _SupportBlocks:
    config = ProtocolConfig(layout=layout, hamiltonian=spec, tau=0.0, n_measurements=0,
                            rank=rank, regulator_prep=regulator_prep, target_betas=target_betas)
    sec = _sector_eigh(layout, spec)
    support, w = _support(config), _initial_populations(config)
    sectors = np.flatnonzero(np.bincount(sec.label[support]))
    which, slot, a = _stack_slots(sec.label[support], sectors)
    rows = np.zeros((len(sectors), a, sec.V.shape[1]), dtype=complex)
    rows[which, slot] = sec.V[sec.label[support], sec.slot[support]]
    # rho(0)'s states in sectors without support states never reach the support
    c = np.flatnonzero((w > 0) & np.isin(sec.label, sectors))
    col_which, col_slot, width = _stack_slots(sec.label[c], sectors)
    cols = np.zeros((len(sectors), sec.V.shape[1], width), dtype=complex)
    cols[col_which, :, col_slot] = sec.V[sec.label[c], sec.slot[c]].conj() * np.sqrt(w[c])[:, None]
    return _SupportBlocks(sectors, which * a + slot, sec.lam[sectors], rows, cols)


def _round_map(config: ProtocolConfig):
    """The support blocks, U's support rows R over the sector slots, and M = U[S, S] per sector."""
    blocks = _support_blocks(config.layout, config.hamiltonian, config.rank,
                             config.regulator_prep, config.target_betas)
    R = blocks.rows * np.exp(-1j * blocks.lam * config.tau)[:, None, :]
    return blocks, R, R @ blocks.rows.conj().transpose(0, 2, 1)


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
    if config.bath is None:
        pops, probs, drift, block = _closed_rounds(config)
    else:
        pops, probs, drift, block = _open_rounds(config, w, support)
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


def _closed_rounds(config: ProtocolConfig):
    """Support populations (n, s) before normalization, every round's p, drift 0, final block.

    rho = X X^+ on the support S, one block per total-Sz sector, from X = U[S, c] sqrt(w[c])
    over the entries w[c] > 0 of rho(0) = diag(w); each later round is X <- M X, M = U[S, S],
    one batched matmul over the sector stack, until p < EXTINCTION_THRESHOLD.
    """
    blocks, R, M = _round_map(config)
    X = R @ blocks.cols
    if X.shape[2] > X.shape[1]:     # a wider preparation: a columns with the same X X^+
        X = np.linalg.qr(X.conj().transpose(0, 2, 1), mode="r").conj().transpose(0, 2, 1).copy()
    N = config.n_measurements
    pops, probs = np.zeros((N,) + X.shape[:2]), np.zeros(N)
    for n in range(N):
        if n > 0:
            X = M @ X
        re_im = X.view(np.float64)      # |x|^2 summed over each row's real and imaginary parts
        np.einsum("ijk,ijk->ij", re_im, re_im, out=pops[n])
        probs[n] = p = pops[n].sum()
        if p < EXTINCTION_THRESHOLD:
            return pops.reshape(N, -1)[:n, blocks.where], probs[:n + 1], 0.0, None
        X /= np.sqrt(p)
    # X X^+ is block-diagonal over the sectors: assemble it on the support
    sector, slot = np.divmod(blocks.where, X.shape[1])
    i, j = np.nonzero(sector[:, None] == sector[None, :])
    block = np.zeros((len(sector),) * 2, dtype=complex)
    block[i, j] = (X @ X.conj().transpose(0, 2, 1))[sector[i], slot[i], slot[j]]
    return pops.reshape(N, -1)[:, blocks.where], probs, 0.0, block


def _open_rounds(config: ProtocolConfig, w: np.ndarray, support: np.ndarray):
    """LME evolution between measurements, with the same returns as `_closed_rounds`.

    H conserves total Sz and A = S^-/2 lowers bra and ket together, so L maps
    the entries (i, j) of rho with Sz_tot(i) = Sz_tot(j) into themselves,
    and rho(0) lies among them.  One exponential action on that subspace
    evolves each support entry (i, j in S) and rho(0) together; every round
    is then one dense matvec on the support entries.
    """
    D, s = len(w), len(support)
    label = _sector_labels(config.layout)
    kept = np.flatnonzero(label[:, None] == label[None, :])
    diagonal = kept // D == kept % D
    inner = np.flatnonzero(label[support][:, None] == label[support][None, :])
    i, j = np.divmod(inner, s)
    entries = np.searchsorted(kept, support[i] * D + support[j])
    block = np.zeros((len(kept), len(inner) + 1), dtype=complex)
    block[entries, np.arange(len(inner))] = 1.0
    block[diagonal, -1] = w
    from scipy import sparse
    rows, cols, values = _hamiltonian(config.layout, config.hamiltonian)
    H = sparse.csr_matrix((values, (rows, cols)), shape=(D, D))
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

    eigenvalues: np.ndarray          # by descending modulus; ties with the top ordered as below
    dominant_right: np.ndarray       # unit-norm right eigenvector of the top eigenvalue
    dominant_left: np.ndarray        # matching left eigenvector, <L|R> = 1
    dominant_is_simple: bool


def zeno_spectrum(config: ProtocolConfig) -> ZenoSpectrum:
    """General eigendecomposition of the round map M = P U (closed-system configs).

    M is U[S, :] on the support rows and zero elsewhere, and U keeps every
    total-Sz sector: its eigenvalues are those of the sector blocks of U[S, S],
    plus D - s exact zeros.  The dominant r lives on its sector's support
    states, and l^+ = l_S^+ U[S, :] / a on that sector's states.

    Eigenvalues within 1e-9 of the top modulus come first, by ascending sector
    label, then by phase angle, so the dominant pair does not depend on the
    order in which LAPACK lists tied eigenvalues.  An exactly degenerate
    eigenspace (one sector, one eigenvalue) still has no preferred vector:
    the pair is whichever basis vector `eig` returns first.
    """
    if config.bath is not None:
        raise ValueError("the round-map spectrum is defined for closed-system configs")
    blocks, R, M = _round_map(config)
    a = R.shape[1]
    sizes = np.bincount(blocks.where // a, minlength=len(blocks.sectors))
    eigs = [np.linalg.eig(M[q, :b, :b]) for q, b in enumerate(sizes)]
    vals = np.concatenate([v for v, _ in eigs])
    owner = np.repeat(np.arange(len(sizes)), sizes)
    modulus = np.abs(vals)
    tied = modulus >= modulus.max() - 1e-9
    order = np.lexsort((np.where(tied, np.angle(vals), 0.0),
                        np.where(tied, blocks.sectors[owner], 0),
                        np.where(tied, 0.0, -modulus), ~tied))
    vals = vals[order]
    simple = bool(np.count_nonzero(tied) == 1)
    if not simple:
        warnings.warn("dominant eigenspace of the round map is not simple "
                      f"(|a0|={abs(vals[0]):.12f}, |a1|={abs(vals[1]):.12f})",
                      RuntimeWarning, stacklevel=2)
    q = owner[order[0]]
    R_q = eigs[q][1]
    j = order[0] - (np.cumsum(sizes) - sizes)[q]
    try:
        left_rows = np.linalg.inv(R_q)
    except np.linalg.LinAlgError:
        left_rows = np.linalg.pinv(R_q)
    sec = _sector_eigh(config.layout, config.hamiltonian)
    D = len(sec.label)
    norm = np.linalg.norm(R_q[:, j])
    r = np.zeros(D, dtype=complex)
    r[_support(config)[blocks.where // a == q]] = R_q[:, j] / norm
    members = np.flatnonzero(sec.label == blocks.sectors[q])
    top = R[q, :sizes[q]] @ sec.V[blocks.sectors[q], :len(members)].conj().T   # U[S_q, members]
    l = np.zeros(D, dtype=complex)
    l[members] = ((left_rows[j, :] * norm) @ top / vals[0]).conj()
    vals = np.concatenate([vals, np.zeros(D - len(blocks.where), dtype=complex)])
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
