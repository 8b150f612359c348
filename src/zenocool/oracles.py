"""The dense reference routines that the engine is checked against; no sweep runs them.

The engine modules (`qudit`, `hamiltonians`, `evolution`, `protocol`, `sweeps`, `presets`)
import nothing from here.  This module holds the closed-form fidelities, the generic D x D
tools (`embed_operator`, `partial_trace`, `uhlmann_fidelity`, the superoperator `liouvillian`
and its `dissipator`, `real_coordinates`, `unitary`, `target_state`), `literal_run`, the
round map applied literally on the full space, and `oracle_check` (`zenocool oracle-check`).

Each closed form is an exact consequence of the two-site rank-1 protocol:
the regulator is prepared in the local ground state, the target at infinite
temperature, and each total-magnetization sector contributes one branch
whose per-round survival amplitude is a trigonometric polynomial in J*tau.
The d=2 argument is Jtau/2 in this operator normalization (Sz eigenvalues
+-1/2); conventions match the engine's spin matrices for every d.  Powers
are evaluated as [cos(x)]^(2N) etc.; the d=5 and bilinear-biquadratic branch
weights are folded into the base of the power so large N cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .evolution import BathSpec, _jump_entries, hermitian_coordinates
from .hamiltonians import BBHSpec, SystemLayout, XXZSpec
from .protocol import ProtocolConfig, initial_state, zeno_run
from .qudit import PSD_TOL, DensityMatrix, _zeroed, low_lying_mixture, operator_entries

_SQ13 = np.sqrt(13.0)
_SQ22 = np.sqrt(22.0)
_SQ33 = np.sqrt(33.0)


def fidelity_xx_rank1(d: int, N: int, Jtau):
    """Exact XX-model rank-1 fidelity of the single target for d in {2,3,4,5}.

    Accepts scalar or array Jtau; N >= 0 measurements.
    """
    if N < 0:
        raise ValueError("number of measurements must be >= 0")
    x = np.asarray(Jtau, dtype=float)
    cos, sin = np.cos, np.sin
    if d == 2:
        total = 1.0 + cos(x / 2) ** (2 * N)
    elif d == 3:
        total = 1.0 + cos(x) ** (2 * N) + cos(x / np.sqrt(2)) ** (4 * N)
    elif d == 4:
        amp = cos(x) * cos(_SQ13 * x / 2) + (2 / _SQ13) * sin(x) * sin(_SQ13 * x / 2)
        total = (1.0 + cos(1.5 * x) ** (2 * N) + cos(np.sqrt(1.5) * x) ** (4 * N)
                 + amp ** (2 * N))
    elif d == 5:
        q1 = (9 + 11 * cos(2 * x) + 2 * cos(_SQ22 * x)) / 22
        q2 = ((11 + _SQ33) * cos((3 - _SQ33) * x / 2)
              + (11 - _SQ33) * cos((3 + _SQ33) * x / 2)) / 22
        total = (1.0 + cos(2 * x) ** (2 * N) + cos(np.sqrt(3) * x) ** (4 * N)
                 + q1 ** (2 * N) + q2 ** (2 * N))
    else:
        raise ValueError(f"no closed form for d={d}; supported d: 2, 3, 4, 5")
    out = 1.0 / total
    return float(out) if np.isscalar(Jtau) else out


def fidelity_bbh_rank1_d3(N: int, theta: float, Jtau):
    """Exact d=3 bilinear-biquadratic rank-1 fidelity of the single target.

    The branch frequencies are set by a_mn = m*cos(theta) - n*sin(theta):
    the two-state sector oscillates at a_10*Jtau and the three-state sector
    survives each round with probability
    (7 + 3cos(2 a_10 x) + 6cos(a_13 x) + 2cos(3 a_11 x)) / 18.
    """
    if N < 0:
        raise ValueError("number of measurements must be >= 0")
    x = np.asarray(Jtau, dtype=float)
    a10 = np.cos(theta)
    a13m = np.cos(theta) - 3 * np.sin(theta)
    a11m = np.cos(theta) - np.sin(theta)
    q = (7 + 3 * np.cos(2 * a10 * x) + 6 * np.cos(a13m * x) + 2 * np.cos(3 * a11m * x)) / 18
    out = 1.0 / (1.0 + np.cos(a10 * x) ** (2 * N) + q ** N)
    return float(out) if np.isscalar(Jtau) else out


def _dense(entries, size: int) -> np.ndarray:
    """The size x size complex scatter of entries (rows, cols, values) into zeros; entries of
    one element are summed."""
    rows, cols, values = entries
    out = np.zeros((size, size), dtype=complex)
    np.add.at(out, (rows, cols), values)
    return out


def embed_operator(op, sites, dims: Sequence[int]) -> np.ndarray:
    """`op` on `sites` as a dense array, summed over the places of a list: the scatter of
    `operator_entries(op, sites, dims)`."""
    return _dense(operator_entries(op, sites, dims), math.prod(dims))


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


def dissipator(rho: DensityMatrix, bath: BathSpec) -> np.ndarray:
    """gamma[(1+n)(A rho A+ - {A+A,rho}/2) + n(A+ rho A - {AA+,rho}/2)], A = S^-/2 (checks liouvillian)."""
    A = _dense(_jump_entries(bath, rho.dims), rho.dim)
    n, r = bath.occupancy(), rho.data
    out = np.zeros_like(r)
    for rate, B in ((bath.gamma * (1 + n), A), (bath.gamma * n, A.conj().T)):
        BdB = B.conj().T @ B
        out += rate * (B @ r @ B.conj().T - 0.5 * (BdB @ r + r @ BdB))
    return out


def liouvillian(H, bath: BathSpec, dims: Sequence[int]):
    """Sparse (CSR) superoperator on row-stacked rho: vec(A rho B) = (A kron B^T) vec(rho).

    The oracle for `evolution.LindbladPropagator`'s entries, built from Kronecker products
    over the whole D^2 space.
    """
    from scipy import sparse

    H = sparse.csr_matrix(H, dtype=complex)
    eye = sparse.identity(H.shape[0], dtype=complex, format="csr")
    lk = lambda X, Y: sparse.kron(X, Y.T, format="csr")
    L = -1j * (lk(H, eye) - lk(eye, H))
    if bath.gamma > 0:
        A = sparse.csr_matrix(_dense(_jump_entries(bath, dims), H.shape[0]))
        n = bath.occupancy()
        for rate, B in ((bath.gamma * (1 + n), A), (bath.gamma * n, A.conj().T)):
            Bd = B.conj().T
            BdB = Bd @ B
            L += rate * (lk(B, Bd) - 0.5 * (lk(BdB, eye) + lk(eye, BdB)))
    return L.tocsr()


def real_coordinates(vectors: np.ndarray, subspace: np.ndarray, D: int) -> np.ndarray:
    """The real Hermitian coordinates of Hermitian vec(rho) entries on `subspace` (first axis)."""
    partner, lower = hermitian_coordinates(subspace, D)
    vectors = np.asarray(vectors)
    out = vectors.real.copy()
    out[lower] = vectors[partner[lower]].imag
    return out


def unitary(config: ProtocolConfig) -> np.ndarray:
    """U(tau) on the whole space, from one dense eigh of `spec.build`."""
    lam, V = np.linalg.eigh(config.hamiltonian.build(config.layout))
    return (V * np.exp(-1j * lam * config.tau)) @ V.conj().T


def target_state(config: ProtocolConfig) -> DensityMatrix:
    """The state each target is driven toward (the regulator preparation)."""
    return low_lying_mixture(config.layout.d, config.prep_rank, config.hamiltonian.h)


def literal_run(config: ProtocolConfig):
    """The round map rho -> P E(rho) P / p on the full D x D space, N times from rho(0): each
    round's p, shape (N,), each target's `uhlmann_fidelity` against `target_state`, shape
    (N, L), and the final rho.  E is scipy's dense expm: U rho U^+ with U = expm(-i H tau),
    or with a bath expm of `liouvillian` times tau on row-stacked rho.  p = 0 leaves NaN."""
    from scipy.linalg import expm

    dims, N, H = config.layout.dims, config.n_measurements, config.hamiltonian.build(config.layout)
    if config.bath is None:
        U = expm(-1j * H * config.tau)
        evolve = lambda rho: U @ rho @ U.conj().T
    else:
        E = expm(liouvillian(H, config.bath, dims).toarray() * config.tau)
        evolve = lambda rho: (E @ rho.reshape(-1)).reshape(rho.shape)
    low = low_lying_mixture(config.layout.d, config.rank, config.hamiltonian.h).data != 0
    P = embed_operator(low, config.layout.regulator_site, dims)
    sigma, rho = target_state(config), initial_state(config).data
    probs, fidelities = np.zeros(N), np.zeros((N, config.layout.L))
    for n in range(N):
        rho = P @ evolve(rho) @ P
        probs[n] = np.trace(rho).real
        rho = (rho + rho.conj().T) / (2 * probs[n])
        state = DensityMatrix(rho, dims)
        fidelities[n] = [uhlmann_fidelity(partial_trace(state, {j}), sigma)
                         for j in config.layout.target_sites]
    return probs, fidelities, rho


# ---------------------------------------------------------------------------
# Oracle agreement report
# ---------------------------------------------------------------------------

@dataclass
class OracleCheckEntry:
    label: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tolerance


@dataclass
class OracleReport:
    entries: list[OracleCheckEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def lines(self) -> list[str]:
        return [f"{'PASS' if e.passed else 'FAIL'}  {e.label}: "
                f"max |deviation| = {e.max_deviation:.3e} (tolerance {e.tolerance:g})"
                for e in self.entries]


XX_ORACLE_GRID = tuple(round(0.1 * i, 10) for i in range(63))   # 0.0 .. 6.2
BBH_ORACLE_THETAS = (-5 * math.pi / 8, -math.pi / 8, math.pi / 2, 3 * math.pi / 4)
BATH_ORACLE_JTAU = (0.5, 1.2, math.pi, 2 * math.pi)


def _rank1_fidelities(spec, d: int, jtau: float, n_max: int) -> np.ndarray:
    """The engine's single-target fidelities of a rank-1 chain of one target, rounds 1..n_max."""
    config = ProtocolConfig(layout=SystemLayout("chain", 1, d), hamiltonian=spec, tau=jtau,
                            n_measurements=n_max, rank=1)
    return zeno_run(config).fidelities[:, 0]


def xx_oracle_deviation(d: int, grid=XX_ORACLE_GRID, n_max: int = 50) -> float:
    worst = 0.0
    for jt in grid:
        sim = _rank1_fidelities(XXZSpec(J=1.0, Delta=0.0, h=1.0), d, jt, n_max)
        exact = np.array([fidelity_xx_rank1(d, n, jt) for n in range(1, n_max + 1)])
        worst = max(worst, float(np.max(np.abs(sim - exact))))
    return worst


def bbh_oracle_deviation(thetas=BBH_ORACLE_THETAS, jtau: float = 1.0, n_max: int = 100) -> float:
    worst = 0.0
    for theta in thetas:
        sim = _rank1_fidelities(BBHSpec(J=1.0, theta=theta, h=1.0), 3, jtau, n_max)
        exact = np.array([fidelity_bbh_rank1_d3(n, theta, jtau) for n in range(1, n_max + 1)])
        worst = max(worst, float(np.max(np.abs(sim - exact))))
    return worst


def bath_oracle_deviation(jtaus=BATH_ORACLE_JTAU, n_max: int = 50) -> float:
    """fig8's bath run (rank-2 XXZ Delta=1, L=1, d=3, T=1, gamma=1e-3) against `literal_run`:
    the largest deviation of a fidelity or a step probability."""
    worst = 0.0
    for jt in jtaus:
        config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                                hamiltonian=XXZSpec(J=1.0, Delta=1.0, h=1.0), tau=jt,
                                n_measurements=n_max, rank=2,
                                bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0))
        record = zeno_run(config)
        probs, fidelities, _ = literal_run(config)
        worst = max(worst, np.abs(probs - record.step_probabilities).max(),
                    np.abs(fidelities - record.fidelities).max())
    return worst


def oracle_check() -> OracleReport:
    """Engine-vs-closed-form agreement over the full validation grids, and the bath run
    against its literal dense round map."""
    entries = [
        OracleCheckEntry(f"XX rank-1 d={d} (63 Jtau x 50 N)", xx_oracle_deviation(d), 1e-8)
        for d in (2, 3, 4, 5)
    ]
    entries.append(OracleCheckEntry(
        "BBH rank-1 d=3 (4 theta x 100 N, Jtau=1)", bbh_oracle_deviation(), 1e-8))
    asym = abs(_rank1_fidelities(XXZSpec(J=1.0, Delta=0.0, h=1.0), 3, math.pi, 200)[-1] - 0.5)
    entries.append(OracleCheckEntry("XX d=3 asymptote (Jtau=pi, N=200) vs 0.5", asym, 1e-3))
    entries.append(OracleCheckEntry(
        f"fig8 bath rank-2 XXZ d=3 vs dense expm round map ({len(BATH_ORACLE_JTAU)} Jtau x 50 N)",
        bath_oracle_deviation(), 1e-8))
    return OracleReport(entries)
