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

The engine reads H only as its nonzero entries and forms neither the D x D
H nor U: the dense `spec.build`, U(tau) and the literal round map are the
tests' references, in `oracles`.  A closed run works on the sectors,
labelled by the digit sum of the flat index.  A point pays only for what
changes with it; the rest is kept for the last key that asked for it:
  - per layout (`_sectors`): every state's label and slot, and where each
    sector's block and eigenvalues sit in one flat buffer, so an entry's
    place there is two gathers of its row and column;
  - per (layout, Hamiltonian) (`_sector_eigh`): H's sector blocks, its
    entries scattered into that buffer, and one float64 eigh per block size
    (every model's H is real), whose eigenvectors overwrite the blocks;
  - per (layout, rank, preparation, betas, h) (`_prepared`): the support,
    rho(0)'s populations, the support's sectors in groups of one support size
    with their positions in the buffers, the initial fidelities and the 0/1
    map from support states to each target's preparation levels;
  - per (layout, Hamiltonian, rank, preparation, betas) (`_support_blocks`):
    the groups' eigenvalues and eigenvector rows and columns, three gathers.
A point forms each group's round map M = U[S, S] and propagates X, with
rho = X X^+ on the support, so a round costs the sum of the sector sizes
cubed.  A bath run lists its generator on the sector-diagonal entries of rho
once per (layout, Hamiltonian, bath), from H's entries, as a real map of rho's
Hermitian coordinates (scipy is loaded only for a generator over
`evolution.DENSE_BYTES`).  `_plan` decides a run from its sector sizes, before
anything D-sized is built: its path (closed, or a bath on a dense or a CSR
generator), K, its round map's width, its peak memory and a bath run's cost.
A closed group stacks M^1..M^K, a dense generator the powers of the real round
map T sliced out of exp(L tau) (formed once, by scaling and squaring) with its
trace row, as rows of one array built by repeated squaring; a block of K rounds
is one product against them, the first block round 0 and K rounds after it.  A
CSR generator steps the state once per round, by the Taylor action.  One
driver, `_drive`, runs every path's blocks: it ends a block at an extinction or
after a round whose trace falls below `_trace_floor()`, so a long block cannot
underflow, and starts the next from the last kept round, normalised.  A run
whose round map is narrower than BLAS_ONE_THREAD_WIDTH runs on one OpenBLAS
thread from its set-up to its last round.  `zeno_run` reads all fidelities off
the support populations at once, one product with the site map, and forms the
D x D state only when asked to retain it (`retain_state=True`).  The round-map
spectrum takes one eig per sector block of M.
"""
from __future__ import annotations

import ctypes
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple, Optional

import numpy as np

from .evolution import BathSpec, LindbladPropagator, hermitian_entries, stored_dense
from .hamiltonians import HamiltonianSpec, SystemLayout
from .qudit import (DensityMatrix, _low_lying_weights, _thermal_weights, _zeroed, energy_order,
                    summed_entries)

EXTINCTION_THRESHOLD = 1e-14
# bytes of a run's stacked powers and block of K rounds, 32 K sum(a^2) for a closed run (the
# first block holds round 0 too, one round of X more, which `run_bytes` counts): a
# memory cap, which fits K = 30 at L=4, d=3 (the balance below takes 10 there), 3 at L=5 and
# 1 from L=6, d=3.  Warm N = 200 points, one thread, 2 vCPUs, time against 4 MiB: 1 MiB 0.95
# at L=4 (K = 7), 1.20 at L=5 (K = 1) and 1.35 at L=3, d=5 (K = 4); 8 MiB 0.94 at L=5
# (K = 7, 7.7 MB)
POWERS_BYTES = 4 * 2 ** 20
# one support group's calls per block of rounds (matmul, einsum, copy, rescale), in the
# complex multiply-adds of a round that take as long (`_plan`).  Warm N = 200
# points (fig7: N = 50), one thread, 2 vCPUs, fastest of 25 interleaved runs against the
# first K named, and the K this gives:
#   L=4, d=3 chain: K = 10 0.94, 14 0.95, 21 1.07, 30 1.11 against 7; gives 10
#   d=31, rank 15 / 11 (fig7): K = 7 0.91 / 0.85, 11 0.91 / 0.84, 14 1.10 / 0.90, 21 1.31 /
#     1.09 against 5; gives 11 / 14
#   L=3, d=4: K = 14 0.90, 18 0.90, 21 0.85, 30 0.93, 45 1.19 against 10; gives 18
#   L=3, d=5: K = 14 1.00, 21 1.05, 30 1.28 against 9; gives 9
#   L=3, d=3: K = 21 0.84, 30 0.81, 45 0.78, 60 0.82, 100 0.93, 199 1.01 against 14; gives 39
#   L=2, d=3 / d=4: K = 50 0.65 / 0.74, 100 0.59 / 0.71, 199 0.60 / 0.72 against 21; gives
#     149 / 96.  L=1, d=3: K = 100 0.60, 199 0.56 against 21; gives 199
BLOCK_CALL_MACS = 11250
# a dense bath run's calls per block of rounds (matvec, reads, drift, rescale), in the real
# multiply-adds of its powers of T that take as long.  Warm N = 200 points, one thread, time
# against the first K named, and the K this gives:
#   L=1, d=3: K = 21 0.46, 40 0.37, 70 0.34, 100 0.33, 199 0.33 against 5; gives 174
#   L=1, d=4: K = 21 0.49, 40 0.41, 70 0.40, 100 0.38, 199 0.43 against 5; gives 109
#   L=2, d=3: K = 4 0.50, 6 0.45, 10 0.41, 14 0.41, 21 0.47 against 1; gives 11
#   L=2, d=4: K = 2-18 0.96-1.02 against 1, exp(L tau) dominates; gives 3
BATH_CALL_MACS = 200000
# a run whose round map is narrower than this (`_plan`'s width: a closed run's widest support
# sector a, a bath run's T, sum(a^2) wide) runs on one OpenBLAS thread from its set-up to its
# last round, a bath run's exp(L tau) included, and wider ones keep the count they find.  Warm
# N = 200 points on 2 vCPUs, time on one thread against two: closed runs at a = 7-13
# 0.997-1.002; at 24-96 (L=3, d=4 to L=5, d=3) 1.04-1.29 on an idle host but 0.46-0.71 with a
# busy process on the other core; at 126 (L=8, d=2) 1.10-1.46 and 0.58; at 267 (L=6, d=3,
# N = 50) 1.53 and 0.57.  A whole bath run at L=2, d=3 (T 70 wide, its generator 141)
# 1.14-1.21 idle and 0.67 busy, its powers of T alone 0.43 idle, its exp(L tau) at Jtau = 6
# 2.05-2.18 ms against 2.06-2.08 ms idle (fastest of 200)
BLAS_ONE_THREAD_WIDTH = 100
SZ_CONSERVATION_TOL = 1e-12
# a dense bath generator's exponential holds K x K float64 arrays: the generator, X = A tau /
# 2^j, X^2, X^3, X^4, the Taylor sum and one product or term
SQUARING_COPIES = 7
# a bath run first lists its generator (`generator_entries`' joins and sums, the real fold and
# the CSR build): 226-233 bytes per stored entry traced at L=2-5, d=3-5, chain, star and BBH,
# a CSR run's peak, since its rounds hold 13 per entry and a few K-vectors.  The stored
# entries are at most 0.196 of `_generator_entries`' bound (BBH, L=2, d=5; XXZ 0.11-0.15)
GENERATOR_ENTRY_BYTES = 56
# peak memory of a closed run: H's entries (85-107 bytes per entry traced with the sort that
# a bath run sums them by; the listing each model keeps per layout holds 5-12 per entry of
# the bound), the sector blocks, eigenvectors and eigh workspace (1.75-2.4 float64 sum(n^2)
# traced at D=729-6561, the tables kept per layout included) and the support groups' V rows,
# R and first X with their kept positions (float64 sum(a w); 0.53-0.56 of it held); apart, a
# retained D x D state with DensityMatrix's Hermiticity check (3.5 D x D traced for rho(0)
# at N=0, 4 with a full-rank support block)
ENTRY_BYTES = 96
EIGH_COPIES = 3
ROW_COPIES = 6
STATE_COPIES = 4
# a bath run's cost: x = tau (2 |H| + the dissipator's bound), at least |(L - mu I) tau|_1, in
# which the Taylor series' work grows, times K coordinates and sum(a^2) + 1 round-map columns
# on a dense generator (its squarings grow only as log x), or N rounds of the CSR generator's
# `_generator_entries` bound (each round's action takes about x / theta_m matvecs).  Seconds
# per unit, warm, XXZ Delta = 1 unless named, rank 2, N = 200, one thread, 2 vCPUs:
#   dense, L=2, d=3: Jtau = 6 5.6-6.0e-9, J = 30 1.5-1.6e-9, gamma = 1e3 1.7-2.0e-10
#   dense, L=2, d=4: Jtau = 1 3.9e-8, 6 7.6-7.9e-9.  L=1, d=4 / d=5: gamma = 1e4
#     2.6-2.7e-11 / 1.3e-11, J = 30 (d=5) 2.0-2.1e-9.  D=9: gamma = 1e4 / 1e5 1.4-1.8e-10 / 1.5e-11
#   CSR, L=3, d=3: Jtau = 0.1 2.6e-9, 1 7.6e-10, 6 8.8-9.1e-10; star 1.8e-9, BBH 2.7-3.2e-10;
#     gamma = 1e3 (N = 20) 6.1-6.4e-10.  L=2, d=5 5.9-8.2e-10, L=3, d=4 (N = 20) 7.9-8.6e-10,
#     L=4 6.5-6.9e-10, L=5 5.2e-10 (22 s at 4.3e10)
# so either limit caps a run at about 10 min: an L=4, d=3 chain at Jtau = 2 pi reads 2.2e10
# and runs, gamma = 2e9 at D=9 reads 9.0e11 (dense) and does not.  A dense run has at least
# 2 units per unit of x, so x <= 5e9 and j <= 33 squarings; a CSR one over 1.8e4 (K > 724),
# so x < 1.2e7 and its Taylor steps stay a finite count
EXPM_COST_LIMIT = 1e10
ACTION_COST_LIMIT = 2e11


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
        # the given betas only: the default's L zeros would be formed before the gates read L
        for i, beta in enumerate(self.target_betas or ()):
            if not beta >= 0:       # NaN fails it too
                raise ValueError(f"target_betas[{i}] must be a non-negative number or inf, "
                                 f"got {beta}")
        if self.layout.topology != self.hamiltonian.topology:
            raise ValueError(f"{self.hamiltonian.model} Hamiltonian requires the "
                             f"{self.hamiltonian.topology} layout")
        sites = self.layout.n_sites
        kind = "closed" if self.bath is None else "bath"
        have = physical_memory()
        if math.log2(d) > 64 / sites:       # D is not formed: H's entries exceed 2^64 bytes
            raise ValueError(f"a {kind} run at D={d}^{sites} needs more than 2^64 bytes "
                             f"to set up, more than the {have:,} bytes of physical memory")
        plan = _plan(self)
        D, need = d ** sites, plan.bytes
        if need > have:
            raise ValueError(f"a {kind} run at D={D} needs about {need:,} bytes to set up, "
                             f"more than the {have:,} bytes of physical memory")
        ham = self.hamiltonian
        bound = ham.norm(self.layout)
        if not math.isfinite(self.tau * bound):
            raise ValueError(f"tau * |H| must be finite: tau = {self.tau} with |H| <= {bound:.3g}")
        if self.bath is not None:
            bath = self.bath
            if self.tau < 0:        # a closed run keeps tau < 0: U(-tau) is unitary
                raise ValueError(f"tau must be >= 0 with a bath, got tau = {self.tau}: "
                                 "exp(L tau) with tau < 0 runs the dissipator backwards")
            with np.errstate(over="ignore"):
                n = float(bath.occupancy())
            # |L - mu I|_1 <= 2 |H|_1 + the dissipator's bound: the commutator counts H twice.
            # In Python floats, which overflow to inf without a warning; 0 * inf is NaN
            norm = self.tau * (2 * bound + bath.norm(d))
            cost = norm * plan.units
            if not cost <= plan.limit:
                sums = _sector_sums(d, self.layout.L, self.rank)
                what = (f"its {sums.full} coordinates and {sums.squares + 1} round-map columns"
                        if plan.path == "dense" else f"{self.n_measurements} rounds of its CSR "
                        f"generator's {_generator_entries(self)} entries")
                raise ValueError(
                    f"a bath run at D={D} would take too long: tau * (2|H| + 2|A|^2 * gamma * "
                    f"(2n + 1)) = {norm:.3g} times {what} is {cost:.3g}, over {plan.limit:.3g}; "
                    f"lower tau = {self.tau}, J = {ham.J} or "
                    f"bath.gamma = {bath.gamma} (occupancy n = {n:.3g} from bath.temperature "
                    f"= {bath.temperature}, bath.omega = {bath.omega})")

    @property
    def prep_rank(self) -> int:
        return self.rank if self.regulator_prep is None else self.regulator_prep

    @property
    def betas(self) -> tuple[float, ...]:
        return (0.0,) * self.layout.L if self.target_betas is None else self.target_betas


def physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _sector_sizes(d: int, L: int, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sizes of the total-Sz sectors of the whole space, and of the projector support.

    They come from convolving the local Sz ladders as Python integers, so
    nothing D-sized is built and nothing overflows.  The support's k levels
    are adjacent on the ladder.
    """
    ones = lambda n: np.ones(n, dtype=object)
    targets = reduce(np.convolve, [ones(d)] * L)
    return tuple(np.convolve(ones(d), targets)), tuple(np.convolve(ones(rank), targets))


class _Sums(NamedTuple):
    """What the gates and the block sizes read of the sector sizes, n over the whole space
    and a over the support."""

    full: int               # sum n^2
    padded: int             # sum w (ROW_COPIES a + w), w the widest sector of support size a
    squares: int            # sum a^2
    states: int             # sum a
    widest: int             # max a
    cubes: int              # sum a^3
    sizes: int              # the distinct a: about the number of support groups


# every config of a sweep is gated, and its workers are gated again, on these sums
@lru_cache(maxsize=64)
def _sector_sums(d: int, L: int, rank: int) -> _Sums:
    """The `_Sums` of a (d, L, rank) run, as Python integers."""
    full, support = _sector_sizes(d, L, rank)
    # support sector t is full sector t for h < 0 and, mirrored, the same sizes for h > 0
    widest = {}
    for a, n in zip(support, full):
        widest[a] = max(widest.get(a, 0), n)
    return _Sums(sum(n * n for n in full),
                 sum(widest[a] * (ROW_COPIES * a + widest[a]) for a in support),
                 sum(a * a for a in support), sum(support), max(support),
                 sum(a ** 3 for a in support), len(widest))


def _generator_entries(config: ProtocolConfig) -> int:
    """A bound on the entries of a bath run's real generator: per sector-diagonal entry of rho
    (sum n^2), twice those of its complex column, which has at most 2 e + 3 for H's e = L d +
    L + 1 entries per row (one product with H on each side, A's and A^+'s jump, the diagonal)."""
    d, L = config.layout.d, config.layout.L
    return 2 * _sector_sums(d, L, config.rank).full * (2 * (L * d + L + 1) + 3)


class _Plan(NamedTuple):
    """How a run goes, worked out from its sector sizes before anything D-sized is built."""

    path: str               # "closed", or a bath run's generator: "dense" or "csr"
    K: int                  # rounds per block; the first block holds round 0 as well
    width: int              # its round map's width, which `_blas_threads` reads
    bytes: int              # estimated peak memory without a retained state
    units: int              # a bath run's cost per unit of tau (2|H| + the dissipator's bound)
    limit: float            # the limit on those units times that bound


def _plan(config: ProtocolConfig) -> _Plan:
    """A run's `_Plan`, over the sector sizes n of the whole space and a of the support, worked
    out on every call, so that a patched POWERS_BYTES or `evolution.DENSE_BYTES` holds.  A
    bath run's generator is dense as far as `stored_dense` admits its sum(n^2) coordinates.

    K is at least 1 and at most N - 1: the first block is round 0 and K rounds after it (on a
    CSR generator, which steps the state once per round, K = 1 and round 0 is alone).  K keeps
    the powers within POWERS_BYTES, 32 K sum(a^2) bytes for M's and 8 K sum(a^2) c for those
    of [T; t], c = sum(a^2) + 1, and balances them, which cost about K - 1 rounds, against the
    N / K blocks' calls: K sum(a^3) multiply-adds against BLOCK_CALL_MACS per group and block,
    or K c^3 against BATH_CALL_MACS.  The bytes: H's entries, each bond at most d per row and
    each field one; the sector blocks and eigenvectors, sum(n^2), with the tables kept per
    layout; per support sector of a states its rows of V and R, padded to the widest sector w
    of that size, at most w populated columns and their positions; M, its powers and a block
    of K + 1 rounds; N rows of populations.  A bath run holds the larger of that and its own
    peak: listing its generator, GENERATOR_ENTRY_BYTES per bounded entry
    (`_generator_entries`), and on a dense one the scaling-and-squaring arrays, the columns of
    S it slices and [T; t] with K powers.  A bath run's cost units are its coordinates times c
    round-map columns on a dense generator, and N rounds of the CSR generator's entries.
    """
    d, L, N = config.layout.d, config.layout.L, config.n_measurements
    sums, entries = _sector_sums(d, L, config.rank), _generator_entries(config)
    full, squares, columns = sums.full, sums.squares, sums.squares + 1
    # N is capped where the balance is far past any fit, so that the ratio stays a finite
    # float: a larger N (over 1e308 overflows it) is for the memory gate to refuse
    rounds = min(N, 2 ** 62)
    if config.bath is None:
        path, width, units, limit = "closed", sums.widest, 0, 0.0
        fit = POWERS_BYTES // (32 * squares)
        balance = rounds * BLOCK_CALL_MACS * sums.sizes / sums.cubes
    elif stored_dense(full):
        path, width, units, limit = "dense", squares, full * columns, EXPM_COST_LIMIT
        fit = POWERS_BYTES // (8 * squares * columns)
        balance = rounds * BATH_CALL_MACS / columns ** 3
    else:
        path, width, units, limit = "csr", squares, N * entries, ACTION_COST_LIMIT
        fit = balance = 1
    K = max(0, min(N - 1, max(1, min(fit, math.ceil(math.sqrt(balance))))))
    # the record in group order and the einsum that fills it, the site marginals
    need = (ENTRY_BYTES * (L * d + L + 1) * d ** (L + 1) + 8 * (EIGH_COPIES * full + sums.padded)
            + 32 * (K + 1) * squares + 8 * N * (2 * sums.states + 4 * L * d))
    if path != "closed":    # the listing; a dense generator's exponential, S's columns, [T; t]
        need = max(need, GENERATOR_ENTRY_BYTES * entries + (path == "dense") * 8 * (
            SQUARING_COPIES * full * full + full * (d ** (L + 1) + columns)
            + (K + 1) * columns ** 2))
    return _Plan(path, K, width, need, units, limit)


# the OpenBLAS builds numpy and scipy load, by their thread-count getters and setters
_BLAS_THREAD_CALLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads"))


@lru_cache(maxsize=1)
def _blas_thread_calls() -> tuple:
    """The (get, set) thread-count calls of each OpenBLAS in this process.

    The libraries are found by name in the process's memory map, at the first
    call, and called through their own symbols; none where the map cannot be read.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    calls = []
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _BLAS_THREAD_CALLS:
            getter, setter = getattr(lib, get, None), getattr(lib, set_, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                calls.append((getter, setter))
                break
    return tuple(calls)


@contextmanager
def _blas_threads(width: int):
    """Run OpenBLAS on one thread if a run's round map is narrower than BLAS_ONE_THREAD_WIDTH
    (`_plan`'s width), and restore each library's count after it, also on a raise; wider maps
    keep the count they find."""
    calls = _blas_thread_calls() if width < BLAS_ONE_THREAD_WIDTH else ()
    found = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, found):
            set_(count)


def run_bytes(config: ProtocolConfig, retain_state: bool = False) -> int:
    """Estimated peak memory of one run, in Python integers: its plan's, and with a retained
    state the D x D `final_state` and its checks."""
    return _plan(config).bytes + retain_state * 16 * STATE_COPIES * config.layout.d ** (
        2 * config.layout.n_sites)


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
    return DensityMatrix(np.diag(_preparation(config).w), config.layout.dims)


def _sector_labels(layout: SystemLayout) -> np.ndarray:
    """The sector of every basis state, in the flat index order of rho: its digit sum.

    Digit i is the level m = s - i, so total Sz is n s minus the label, and
    states of equal total Sz have equal integer labels.
    """
    digits = np.arange(layout.d)
    return reduce(np.add.outer, [digits] * layout.n_sites).ravel()


class _Sectors(NamedTuple):
    """A layout's total-Sz sectors, and where their blocks sit in one flat buffer: the blocks
    of one size follow each other by ascending label, the sizes ascend, and a last element
    stays zero.  Their eigenvalues sit in a buffer of D + 1 in the same order."""

    label: np.ndarray       # (D,) every state's sector label
    slot: np.ndarray        # (D,) its row in its sector's block, by ascending flat index
    row: np.ndarray         # (D,) where that row starts in the buffer
    block: np.ndarray       # per label, where its n x n block starts in the buffer
    first: np.ndarray       # per label, where its n eigenvalues start
    elements: int           # sum n^2: the buffer's zero element
    sizes: tuple            # per block size n: (n, its labels, their first buffer element and
                            # first eigenvalue)


# one entry: every cache below it is per layout or narrower
@lru_cache(maxsize=1)
def _sectors(layout: SystemLayout) -> _Sectors:
    label = _sector_labels(layout)
    n = np.bincount(label)
    slot = np.empty_like(label)
    slot[np.argsort(label, kind="stable")] = np.arange(len(label)) - np.repeat(np.cumsum(n) - n, n)
    by_size = np.argsort(n, kind="stable")
    block, first = np.empty_like(n), np.empty_like(n)
    block[by_size] = np.cumsum(n[by_size] ** 2) - n[by_size] ** 2
    first[by_size] = np.cumsum(n[by_size]) - n[by_size]
    sizes = []
    for size in sorted(set(n.tolist())):    # np.unique would import numpy.ma
        labels = np.flatnonzero(n == size)
        sizes.append((size, labels, int(block[labels[0]]), int(first[labels[0]])))
    return _Sectors(label, slot, block[label] + slot * n[label], block, first,
                    int(np.sum(n * n)), tuple(sizes))


def _entries(layout: SystemLayout, spec: HamiltonianSpec):
    """H's entries (rows, cols, values) as `spec.entries` lists them, and which of them lie
    inside a sector, checked to conserve total Sz.

    The entries of one element sum to H's element in the order listed (`spec.build`).  An
    entry outside the sectors fails the check unless its element's sum is below
    SZ_CONSERVATION_TOL, so only those are summed.
    """
    rows, cols, values = spec.entries(layout)
    label = _sectors(layout).label
    inside = label[rows] == label[cols]
    if not inside.all():
        # [H, Sz_tot]_ij = H_ij (Sz_j - Sz_i) = H_ij (label_i - label_j)
        r, c, v = summed_entries(rows[~inside], cols[~inside], values[~inside], len(label))
        leak = float(np.max(np.abs(v * (label[r] - label[c])), initial=0.0))
        if not leak <= SZ_CONSERVATION_TOL:
            raise ValueError(f"{spec.model} Hamiltonian does not conserve total Sz: "
                             f"max |[H, Sz_tot]| = {leak:.3e} > {SZ_CONSERVATION_TOL:g}")
    return (rows, cols, values), inside


def _hamiltonian(layout: SystemLayout, spec: HamiltonianSpec):
    """H's nonzero elements (rows, cols, values) in row-major order, checked to conserve
    total Sz: bit for bit the elements of `spec.build`."""
    (rows, cols, values), _ = _entries(layout, spec)
    return summed_entries(rows, cols, values, layout.d ** layout.n_sites)


class _SectorEigh(NamedTuple):
    """H's sector eigendecomposition, in the buffers of `_Sectors`: each sector's eigenvalues
    and its block of eigenvectors, row-major."""

    lam: np.ndarray         # (D + 1,)
    V: np.ndarray           # (sum n^2 + 1,)


# one entry: the memory gate counts one set of sector eigenvectors, sum(n^2) floats, and
# sweeps enumerate Jtau innermost, so consecutive points of one (d, k, theta) share it
@lru_cache(maxsize=1)
def _sector_eigh(layout: SystemLayout, spec: HamiltonianSpec) -> _SectorEigh:
    """H's sector blocks, scattered from its entries, with one float64 eigh per block size;
    each size's eigenvectors overwrite its blocks."""
    (rows, cols, values), inside = _entries(layout, spec)
    sectors = _sectors(layout)
    if np.any(values.imag):     # entries of one element may cancel: H's own elements decide
        imag = summed_entries(rows, cols, values.imag, len(sectors.label))[2]
        if len(imag):
            raise ValueError(f"{spec.model} Hamiltonian has complex entries (max |Im H| = "
                             f"{np.abs(imag).max():.3e}): a closed run needs a real H")
    if not inside.all():
        rows, cols, values = rows[inside], cols[inside], values[inside]
    # an element's entries add up in the order listed, as `summed_entries` sums them
    V = np.bincount(sectors.row[rows] + sectors.slot[cols], weights=values.real,
                    minlength=sectors.elements + 1)
    lam = np.zeros(len(sectors.label) + 1)
    for n, labels, start, first in sectors.sizes:
        end = start + len(labels) * n * n
        vals, vectors = np.linalg.eigh(V[start:end].reshape(-1, n, n))
        lam[first:first + vals.size], V[start:end] = vals.ravel(), vectors.ravel()
    return _SectorEigh(lam, V)


class _Group(NamedTuple):
    """The support's sectors of one support size a and one column count of X.

    Their arrays are zero-padded to the group's widest sector n and most populated one c:
    a zero column adds nothing to R or M.  A `_Preparation` holds lam, rows and cols as the
    positions that `_support_blocks` gathers from a `_SectorEigh` (the zero element at the
    padding), and root as the sqrt(w) that scales cols.
    """

    sectors: np.ndarray     # (m,) their labels, ascending
    a: int                  # support states per sector
    start: int              # the group's first column in a closed run's group-ordered record
    lam: np.ndarray         # (m, n) eigenvalues of their blocks
    rows: np.ndarray        # (m, a, n) V's support rows
    cols: np.ndarray        # (m, n, c) V^T at rho(0)'s populated states, times sqrt(w)
    root: np.ndarray        # (m, 1, c) sqrt(w) at those states, 0 at the padding


class _Preparation(NamedTuple):
    """What every run of one layout, rank and rho(0) shares, whatever its Hamiltonian."""

    support: np.ndarray     # (s,) the projector support: ascending flat indices whose
                            # regulator digit is one of the k lowest levels
    w: np.ndarray           # (D,) the diagonal of rho(0), which is diagonal
    initial: np.ndarray     # (L,) every target's fidelity in rho(0)
    marginals: np.ndarray   # (L p, s) 1 where support state i's target j is on level l of
                            # the regulator preparation's p (row j p + l), else 0
    groups: tuple           # the `_Group`s of the sectors that meet the support
    order: np.ndarray       # (s,) each support state's column in group order
    grouped: np.ndarray     # marginals in group order


def _preparation(config: ProtocolConfig) -> _Preparation:
    return _prepared(config.layout, config.rank, config.prep_rank, config.betas,
                     config.hamiltonian.h)


# one entry: a sweep's points share it along every axis but d and k (and along k at rank 1
# with a wider preparation); a thermal target's weights depend on beta h, so h is a key
@lru_cache(maxsize=1)
def _prepared(layout: SystemLayout, rank: int, prep: int, betas: tuple, h: float) -> _Preparation:
    """The support, rho(0) from its float weights, the site marginals of the support and the
    support groups' positions in the sector buffers.

    The support states and rho(0)'s populated states are sorted by sector once; each group's
    zero-padded positions are then laid out for all its member sectors at once.
    """
    d, L = layout.d, layout.L
    sectors = _sectors(layout)
    label, slot, n = sectors.label, sectors.slot, np.bincount(sectors.label)
    order = energy_order(d, h)
    support = (np.sort(order[:rank])[:, None] * d ** L + np.arange(d ** L)).ravel()
    weights = [_low_lying_weights(d, prep, h)] + [_thermal_weights(d, h, beta) for beta in betas]
    w = reduce(np.multiply.outer, weights).ravel()
    # in index order, so the rounding of the fidelities' sums does not depend on the sign of h
    levels = np.sort(order[:prep])
    # rho(0) is a product state: each target's marginal is its own weights
    initial = _fidelities(np.stack(weights[1:])[:, levels])
    digits = support[:, None] // d ** np.arange(L - 1, -1, -1) % d
    marginals = (digits.T[:, None, :] == levels[:, None]).reshape(-1, len(support)).astype(float)

    # rho(0)'s states in sectors without support states never reach the support
    populated = np.flatnonzero(w > 0)
    populated = populated[np.argsort(label[populated], kind="stable")]
    placed = np.argsort(label[support], kind="stable")    # support positions by sector
    size = np.bincount(label[support], minlength=len(n))
    count = np.bincount(label[populated], minlength=len(n))
    b = np.minimum(size, count)             # X's columns after a wider preparation's QR
    # sector q's support positions from ours[q] on in placed, its populated states from
    # theirs[q] on in populated
    cols_of, root = slot[populated], np.sqrt(w[populated])
    ours, theirs = np.cumsum(size) - size, np.cumsum(count) - count
    members = {}
    for q in np.flatnonzero(size).tolist():
        members.setdefault((int(size[q]), int(b[q])), []).append(q)
    groups, picked, start = [], [], 0
    for (a, _), labels in sorted(members.items()):
        q = np.array(labels)
        k, c, block = n[q, None], count[q, None], sectors.block[q, None]
        state, column = np.arange(k.max()), np.arange(c.max())
        real, filled = state < k, column < c    # a state of the sector, a populated one
        mine = placed[ours[q, None] + np.arange(a)]             # (m, a) support positions
        theirs_at = np.minimum(theirs[q, None] + column, len(cols_of) - 1)
        lam = np.where(real, sectors.first[q, None] + state, len(label))
        rows = np.where(real[:, None], (block + slot[support[mine]] * k)[:, :, None] + state,
                        sectors.elements)
        cols = np.where(real[:, :, None] & filled[:, None],
                        (block + cols_of[theirs_at] * k)[:, None] + state[:, None],
                        sectors.elements)
        scale = np.where(filled, root[theirs_at], 0.0)[:, None]
        groups.append(_Group(q, a, start, lam, rows, cols, scale))
        picked.append(mine.ravel())
        start += len(q) * a
    picked = np.concatenate(picked)
    return _Preparation(support, w, initial, marginals, tuple(groups), np.argsort(picked),
                        marginals[:, picked])


# one entry, like `_sector_eigh`: consecutive points of a Jtau line share it
@lru_cache(maxsize=1)
def _support_blocks(layout: SystemLayout, spec: HamiltonianSpec, rank: int, prep: int,
                    betas: tuple) -> tuple:
    """What a closed run needs of the sector eigenvectors, for every tau: the `_Group`s of
    the sectors that meet the support S, gathered from `_sector_eigh`."""
    eig = _sector_eigh(layout, spec)
    return tuple(g._replace(lam=eig.lam[g.lam], rows=eig.V[g.rows], cols=eig.V[g.cols] * g.root)
                 for g in _prepared(layout, rank, prep, betas, spec.h).groups)


def _pair(x: np.ndarray) -> np.ndarray:
    """The complex array whose real and imaginary parts are x[0] and x[1]."""
    out = np.empty(x.shape[1:], dtype=complex)
    out.real, out.imag = x
    return out


def _round_map(config: ProtocolConfig):
    """The support groups and order, and per group U's support rows R and M = U[S, S]: R is
    V_S e^{-i lam tau} as its real and imaginary parts, (2, m, a, n), so a product with the
    real V is one call of two real matmuls."""
    groups = _support_blocks(config.layout, config.hamiltonian, config.rank, config.prep_rank,
                             config.betas)
    maps = []
    for g in groups:
        phase = g.lam * config.tau
        R = g.rows * np.stack([np.cos(phase), -np.sin(phase)])[:, :, None, :]
        maps.append((R, _pair(R @ g.rows.transpose(0, 2, 1))))
    return groups, _preparation(config).order, maps


def _fidelities(q: np.ndarray) -> np.ndarray:
    """(..., L) Uhlmann fidelities of every target against the regulator preparation, from
    its populations q (..., L, p) on the preparation's p levels: the reduced states are
    diagonal, so against the equal mixture of those levels the fidelity is
    (sum_i sqrt(q_i))^2 / p, with the zero cutoff of uhlmann_fidelity."""
    q = _zeroed(q)
    return np.minimum(np.sqrt(q).sum(axis=-1) ** 2 / q.shape[-1], 1.0)


def zeno_run(config: ProtocolConfig, *, retain_state: bool = False) -> TrajectoryRecord:
    """Alternate evolution and post-selected rank-k measurement N times.

    Records per-round conditional probabilities, their running log-sum, and
    the Uhlmann fidelity of every target site against the regulator
    preparation.  Raises ExtinctionError (carrying the completed prefix) if
    a round's outcome probability drops below EXTINCTION_THRESHOLD.  Only with
    retain_state does it also return the D x D final state, after checking
    first that the run and that state fit in physical memory.
    """
    if retain_state and (need := run_bytes(config, retain_state)) > physical_memory():
        raise ValueError(f"retain_state=True keeps the D x D state: about {need:,} bytes with "
                         f"the run, more than the {physical_memory():,} bytes of physical memory")
    prep = _preparation(config)
    if config.n_measurements == 0:
        return TrajectoryRecord(
            steps=np.arange(0), fidelities=np.zeros((0, config.layout.L)),
            step_probabilities=np.zeros(0), log_cumulative=np.zeros(0),
            initial_fidelities=prep.initial.copy(),
            final_state=initial_state(config) if retain_state else None)

    plan = _plan(config)
    with _blas_threads(plan.width):
        set_up = _closed_set_up if plan.path == "closed" else _open_set_up
        *rounds, assemble, marginals = set_up(config, plan, prep)
        pops, probs, drift, last = _drive(plan, config.n_measurements, len(prep.support), *rounds)
    n, L = len(pops), config.layout.L
    final = None
    if retain_state and last is not None:
        block = assemble(last)
        final = np.zeros((len(prep.w), len(prep.w)), dtype=complex)
        final[np.ix_(prep.support, prep.support)] = (block + block.conj().T) / 2
        final = DensityMatrix(final, config.layout.dims)
    record = TrajectoryRecord(
        steps=np.arange(1, n + 1),
        # (L p, n), so that the sums over the p levels run along the rounds
        fidelities=_fidelities(
            (marginals @ pops.T).reshape(L, config.prep_rank, n).transpose(2, 0, 1)),
        step_probabilities=probs[:n], log_cumulative=np.cumsum(np.log(probs[:n])),
        initial_fidelities=prep.initial.copy(), final_state=final, max_trace_drift=drift)
    if len(probs) > n:
        raise ExtinctionError(step=n + 1, probability=float(probs[n]), partial=record)
    return record


def _trace_floor() -> float:
    """A block ends after its first round whose trace is below this: the round after a
    trace at or above it, with p >= EXTINCTION_THRESHOLD, has a trace that is a normal
    float."""
    return np.finfo(float).tiny / EXTINCTION_THRESHOLD


def _block_probabilities(pops: np.ndarray, probs: np.ndarray, n: int, k: int):
    """Rounds n..n+k-1 of a block that starts from a unit-trace state: each round's p is the
    ratio of its populations' trace to the round before's, and its populations are
    normalised, in place.  The block keeps its rounds up to the first whose p is below
    EXTINCTION_THRESHOLD or whose trace is below `_trace_floor()`, so every p that passes
    the threshold is a ratio of normal floats; the next block starts from the last kept
    round.  p is a ratio of traces, at most 1 but for rounding, and is clamped at 1.
    Returns the kept rounds' traces and the round that died, or None."""
    trace = pops[n:n + k].sum(axis=1)
    p = trace / np.concatenate(([1.0], trace[:-1]))
    stop = np.flatnonzero((p < EXTINCTION_THRESHOLD) | (trace < _trace_floor()))
    k = int(stop[0]) + 1 if len(stop) else k
    trace, p = trace[:k], p[:k]
    probs[n:n + k] = np.minimum(p, 1.0)
    pops[n:n + k] /= trace[:, None]
    return trace, n + k - 1 if p[-1] < EXTINCTION_THRESHOLD else None


def _powers(A: np.ndarray, K: int) -> np.ndarray:
    """A S^j, j = 0..K-1, stacked as rows, for A (..., r, c) whose first c rows are the square S.

    For A = M that is M^1..M^K, rows j a..(j + 1) a - 1 holding M^(j+1); for the bath's
    A = [T; t] it is [T^(j+1); t T^j].  Built by squaring: blocks t..2t-1 are blocks 0..t-1
    times S^t, the first c rows of block t - 1, so ceil(log2 K) batched products replace K - 1.
    K <= 1 (no later block, or blocks of one round) returns A itself.
    """
    if K <= 1:
        return A
    r, c = A.shape[-2:]
    P = np.empty((*A.shape[:-2], K * r, c), dtype=A.dtype)
    P[..., :r, :] = A
    t = 1
    while t < K:
        u = min(t, K - t)
        P[..., t * r:(t + u) * r, :] = P[..., :u * r, :] @ P[..., (t - 1) * r:(t - 1) * r + c, :]
        t += u
    return P


def _drive(plan: _Plan, N: int, s: int, block, k: int, populations, follow):
    """A run's rounds, a block at a time from its first block of k rounds: the normalised
    support populations (n, s), every round's p, the largest trace drift, and the last round's
    normalised state, or None once the branch has died.  `populations(block, out)` writes a
    block's populations into out and returns their traces before the projection, whose ratios
    to the traces after the rounds before are the drifts, or None (a closed run, drift 0).
    `follow(block, k, trace, rounds)` returns round k - 1 of the block over its trace and the
    block of that many rounds after it, or None for none.
    """
    pops, probs, drift, n = np.zeros((N, s)), np.zeros(N), 0.0, 0
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 past an extinction
        while True:
            before = populations(block, pops[n:n + k])
            trace, dead = _block_probabilities(pops, probs, n, k)
            k = len(trace)
            if before is not None:
                drifts = before[:k] / np.concatenate(([1.0], trace[:-1]))
                drift = max(drift, float(np.abs(drifts - 1.0).max()))
            if dead is not None:
                return pops[:dead], probs[:dead + 1], drift, None
            n, rounds = n + k, min(plan.K, N - n - k)
            state, block = follow(block, k, trace[-1], rounds)
            if not rounds:
                return pops, probs, drift, state
            k = rounds


def _closed_set_up(config: ProtocolConfig, plan: _Plan, prep: _Preparation):
    """A closed run's first block, its round count, `_drive`'s calls, the assembly of the last
    round's support block of rho, and the site map in the group order of its populations.

    rho = X X^+ on the support S, one block per total-Sz sector: round 0 is X = U[S, c]
    sqrt(w[c]) over the entries w[c] > 0 of rho(0) = diag(w), each later round X <- M X,
    M = U[S, S].  X lives in groups of m sectors with a support states and b columns each
    (b = 0 where rho(0) leaves a sector empty), and a block of k <= K rounds is one
    (m, k a, a) @ (m, a, b) matmul per group, of the first k powers and the block's
    unit-trace start, and its populations one einsum.
    """
    groups, _, maps = _round_map(config)
    powers, Zs = [_powers(M, plan.K) for _, M in maps], []
    for g, (R, _), P in zip(groups, maps, powers):
        X = _pair(R @ g.cols)       # no columns in sectors that rho(0) leaves empty
        if X.shape[2] > g.a:        # a wider preparation: a columns with the same X X^+
            X = np.linalg.qr(X.conj().transpose(0, 2, 1), mode="r").conj().transpose(0, 2, 1)
        Z = np.empty((len(g.sectors), (plan.K + 1) * g.a, X.shape[2]), dtype=complex)
        Z[:, :g.a] = X
        np.matmul(P[:, :plan.K * g.a], X, out=Z[:, g.a:])
        Zs.append(Z)
    del maps                # the rounds need only the powers

    def populations(Zs, out):
        for g, Z in zip(groups, Zs):
            # |x|^2 summed over real and imaginary parts, per (sector, round, state); an
            # einsum in Z's own order, then one strided copy, runs 1.1-1.5x faster than
            # writing the record's (round, sector, state) order straight from the einsum
            m, k, b = len(g.sectors), len(out), Z.shape[2]
            re_im = Z.view(np.float64).reshape(m, k, g.a, 2 * b)
            out[:, g.start:g.start + m * g.a].reshape(k, m, g.a)[...] = np.einsum(
                "mkai,mkai->mka", re_im, re_im).transpose(1, 0, 2)

    def follow(Zs, k, trace, rounds):
        Xs = [Z[:, (k - 1) * g.a:k * g.a] / np.sqrt(trace) for g, Z in zip(groups, Zs)]
        # m products of (k a) x a by a x b per group ran 1.5-3.6x faster than k m of
        # a x a by a x b (a = 6-17, m = 21, k = 21, one thread)
        return Xs, [P[:, :rounds * g.a] @ X for g, P, X in zip(groups, powers, Xs)] \
            if rounds else None

    def assemble(Xs):       # X X^+ is block-diagonal over the sectors: its support block
        in_order = np.argsort(prep.order)
        block = np.zeros((len(in_order),) * 2, dtype=complex)
        for g, X in zip(groups, Xs):
            at = in_order[g.start:g.start + len(g.sectors) * g.a].reshape(-1, g.a)
            block[at[:, :, None], at[:, None, :]] = X @ X.conj().transpose(0, 2, 1)
        return block

    return Zs, plan.K + 1, populations, follow, assemble, prep.grouped


# one entry, like `_sector_eigh`: the points of a bath's Jtau line share L and scale it by tau
@lru_cache(maxsize=1)
def _open_generator(layout: SystemLayout, spec: HamiltonianSpec, bath: BathSpec):
    """The sector labels, the sector-diagonal entries of rho, and L restricted to them, from
    H's elements."""
    label = _sectors(layout).label
    kept = np.flatnonzero(label[:, None] == label[None, :])
    return label, kept, LindbladPropagator(_hamiltonian(layout, spec), bath, layout.dims,
                                           subspace=kept)


def _open_set_up(config: ProtocolConfig, plan: _Plan, prep: _Preparation):
    """A bath run's set-up, LME evolution between measurements, as `_closed_set_up`'s returns.

    H conserves total Sz and A = S^-/2 lowers bra and ket together, so L keeps the entries
    (i, j) of rho with Sz_tot(i) = Sz_tot(j), where it is a real map of rho's Hermitian
    coordinates (`evolution.hermitian_coordinates`), and rho(0) lies among them.  A round reads
    an evolved state's support coordinates, the entries (i, j) of one sector with i and j in
    the support, and its trace, the sum of its diagonal coordinates.  On a dense generator the
    support rows and columns of S = exp(L tau) are the real round map T, its diagonal rows'
    sums over them the trace row t, and its diagonal columns times w rho(0)'s image, round 0;
    a block of k <= K rounds is one matvec of [T^j; t T^(j-1)], j = 1..k, so t T^(j-1) is round
    j's trace before the projection.  On a CSR generator each round puts the support
    coordinates into a zero state and applies the Taylor action once.
    """
    w, support, D, s = prep.w, prep.support, len(prep.w), len(prep.support)
    label, kept, prop = _open_generator(config.layout, config.hamiltonian, config.bath)
    inner = np.flatnonzero(label[support][:, None] == label[support][None, :])
    i, j = np.divmod(inner, s)
    diag = np.flatnonzero(i == j)
    coordinates = np.searchsorted(kept, support[i] * D + support[j])
    diagonal = kept // D == kept % D
    read = lambda v: np.concatenate([v[coordinates], v[diagonal].sum(axis=0, keepdims=True)])
    K, tau, width = plan.K, config.tau, len(inner) + 1
    if plan.path == "csr":
        def evolve(at, values):
            state = np.zeros(len(kept))
            state[at] = values
            return read(prop.apply(state, tau))[None]

        Z, step = evolve(diagonal, w), lambda x, k: evolve(coordinates, x)
    else:
        S = prop.exponential(tau)
        Z, powers = read(S[:, diagonal] @ w)[None], _powers(read(S[:, coordinates]), K)
        del S               # the rounds need only [T; t] and its powers
        step = lambda x, k: (powers[:k * width] @ x).reshape(k, width)
        Z = np.concatenate([Z, step(Z[0, :-1], K)])

    def populations(Z, out):
        out[...] = Z[:, diag]
        return Z[:, -1]

    def follow(Z, k, trace, rounds):
        x = Z[k - 1, :-1] / trace
        return x, step(x, rounds) if rounds else None

    def assemble(x):
        rho = np.zeros((s, s), dtype=complex)
        rho.flat[inner] = hermitian_entries(x, inner, s)
        return rho

    return Z, len(Z), populations, follow, assemble, prep.marginals


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
    groups, _, maps = _round_map(config)
    found = {}              # label: its eigenvalues and right eigenvectors, its R and row
    for g, (R, M) in zip(groups, maps):
        vals, right = np.linalg.eig(M)
        found.update((q, (vals[i], right[i], R, i)) for i, q in enumerate(g.sectors))
    sectors = sorted(found)
    vals = np.concatenate([found[q][0] for q in sectors])
    owner = np.repeat(sectors, [len(found[q][0]) for q in sectors])
    modulus = np.abs(vals)
    tied = modulus >= modulus.max() - 1e-9
    order = np.lexsort((np.where(tied, np.angle(vals), 0.0), np.where(tied, owner, 0),
                        np.where(tied, 0.0, -modulus), ~tied))
    vals = vals[order]
    simple = bool(np.count_nonzero(tied) == 1)
    if not simple:
        warnings.warn("dominant eigenspace of the round map is not simple "
                      f"(|a0|={abs(vals[0]):.12f}, |a1|={abs(vals[1]):.12f})",
                      RuntimeWarning, stacklevel=2)
    q = owner[order[0]]
    _, right, R, i = found[q]
    j = order[0] - np.searchsorted(owner, q)
    try:
        left_rows = np.linalg.inv(right)
    except np.linalg.LinAlgError:
        left_rows = np.linalg.pinv(right)
    sectors = _sectors(config.layout)
    label = sectors.label
    support, D = _preparation(config).support, len(label)
    norm = np.linalg.norm(right[:, j])
    r = np.zeros(D, dtype=complex)
    r[support[label[support] == q]] = right[:, j] / norm
    n = np.count_nonzero(label == q)
    start = sectors.block[q]
    V = _sector_eigh(config.layout, config.hamiltonian).V[start:start + n * n].reshape(n, n)
    top = _pair(R[:, i, :, :len(V)] @ V.T)       # U[S_q, q's states]
    l = np.zeros(D, dtype=complex)
    l[label == q] = ((left_rows[j, :] * norm) @ top / vals[0]).conj()
    vals = np.concatenate([vals, np.zeros(D - len(support), dtype=complex)])
    return ZenoSpectrum(eigenvalues=vals, dominant_right=r, dominant_left=l,
                        dominant_is_simple=simple)
