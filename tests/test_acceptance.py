"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 6 is a strict
expected-failure: the exact dynamics violates both of its clauses on the
pinned grids (see the test docstring); everything else passes.  The heavy
grids (criteria 5-8) dominate the runtime; the whole module finishes in a
few minutes on a desktop CPU.
"""
import csv
import math

import numpy as np
import pytest
from scipy.linalg import expm

from zenocool import (
    BathSpec,
    BBHSpec,
    DensityMatrix,
    ProtocolConfig,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
    classify_regions,
    low_lying_mixture,
    spin_operators,
    zeno_run,
    zeno_spectrum,
)
from zenocool.oracles import (
    bbh_oracle_deviation,
    embed_operator,
    literal_run,
    partial_trace,
    uhlmann_fidelity,
    unitary,
    xx_oracle_deviation,
)
from zenocool.presets import JTAU_CONTOUR, THETA_CONTOUR
from zenocool.sweeps import COLUMNS, SweepSpec, run_sweep

from conftest import random_density


def report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)


def chain_config(d, jtau, N, k, Delta=0.0, L=1, bath=None):
    return ProtocolConfig(layout=SystemLayout("chain", L, d),
                          hamiltonian=XXZSpec(J=1.0, Delta=Delta),
                          tau=jtau, n_measurements=N, rank=k, bath=bath)


def test_criterion_1_xx_oracle_equivalence():
    """d in {2,3,4,5}, Jtau in {0,0.1,...,6.2} x N in 1..50: |engine - oracle| < 1e-8."""
    worst = {d: xx_oracle_deviation(d) for d in (2, 3, 4, 5)}
    ok = all(v < 1e-8 for v in worst.values())
    report("criterion 1 (XX rank-1 oracle equivalence)", ok,
           "max deviation per d: " + ", ".join(f"d={d}: {v:.2e}" for d, v in worst.items()))
    assert ok


def test_criterion_2_bbh_oracle_equivalence():
    """theta in 4 phase values, Jtau=1, N in 1..100: |engine - closed form| < 1e-8."""
    worst = bbh_oracle_deviation()
    report("criterion 2 (BBH rank-1 d=3 oracle equivalence)", worst < 1e-8,
           f"max deviation {worst:.2e}")
    assert worst < 1e-8


def test_criterion_3_asymptotic_pin():
    """d=3, XX, rank-1, Jtau=pi, N=200: fidelity = 0.5 +- 1e-3."""
    record = zeno_run(chain_config(3, math.pi, 200, 1))
    f = record.fidelities[-1, 0]
    report("criterion 3 (half-fidelity asymptote)", abs(f - 0.5) < 1e-3,
           f"F = {f:.6f}")
    assert abs(f - 0.5) < 1e-3


def _rank2_grid_rows(d):
    base = ProtocolConfig(layout=SystemLayout("chain", 1, d),
                          hamiltonian=XXZSpec(J=1.0, Delta=1.0),
                          tau=1.0, n_measurements=200, rank=2)
    spec = SweepSpec(base=base, preset_id="fig4", jtau_axis=JTAU_CONTOUR)
    return list(csv.DictReader(run_sweep(spec), fieldnames=COLUMNS))


def test_criterion_4_rank2_cooling_and_imperfect_regions():
    """Rank-2 cooling exists for d=3 and classify_regions flags the stuck couplings."""
    rows3 = _rank2_grid_rows(3)
    rows4 = _rank2_grid_rows(4)
    cooled = max(float(r["fidelity"]) for r in rows3
                 if float(r["J"]) * float(r["tau"]) > 0.5)
    (sum3,) = classify_regions(rows3, threshold=0.96)
    (sum4,) = classify_regions(rows4, threshold=0.96)
    near3 = [j for j in sum3.imperfect if abs(j - 3.0) <= 0.25]
    near4 = [j for j in sum4.imperfect if abs(j - 2.0) <= 0.25]
    ok = cooled > 0.96 and bool(near3) and bool(near4)
    report("criterion 4 (rank-2 cooling + imperfect regions)", ok,
           f"best F(Jtau>0.5) = {cooled:.4f}; imperfect near 3.0 (d=3): "
           f"{[round(j, 3) for j in near3]}; near 2.0 (d=4): {[round(j, 3) for j in near4]}")
    assert ok


def test_criterion_5_rank_monotonicity():
    """d=31, XXZ Delta=1, Jtau=3, N in {20,50}: p strictly increasing in rank;
    fidelity strictly decreasing to the plateau, plateau variation < 5% on k in [7,15]."""
    ks = range(1, 16)
    p = {20: [], 50: []}
    f = {20: [], 50: []}
    for k in ks:
        record = zeno_run(chain_config(31, 3.0, 50, k, Delta=1.0))
        cum = record.cumulative_probabilities
        for n in (20, 50):
            p[n].append(float(cum[n - 1]))
            f[n].append(float(record.fidelities[n - 1, 0]))
    ok = True
    details = []
    for n in (20, 50):
        inc = all(p[n][i] < p[n][i + 1] for i in range(14))
        head = all(f[n][i] > f[n][i + 1] for i in range(5))  # k = 1..6 strictly decreasing
        plateau = f[n][6:15]
        relvar = (max(plateau) - min(plateau)) / max(plateau)
        below = all(f[n][i] < f[n][0] for i in range(1, 15))
        ok = ok and inc and head and relvar < 0.05 and below
        details.append(f"N={n}: p inc {inc}, F head dec {head}, plateau var {relvar:.3%}")
    report("criterion 5 (rank monotonicity at d=31)", ok, "; ".join(details))
    assert ok


def _chain_l4_stats(configs):
    worst_gap = np.inf
    max_b4 = 0.0
    for config in configs:
        record = zeno_run(config)
        b1 = record.fidelities[:, 0]
        b4 = record.fidelities[:, 3]
        worst_gap = min(worst_gap, float(np.min(b1 - b4)))
        max_b4 = max(max_b4, float(np.max(b4)))
    return worst_gap, max_b4


@pytest.mark.xfail(
    strict=True,
    reason="exact dynamics violates the stated bounds: the step ordering "
    "F_B1 >= F_B4 fails in transients, and near the biquadratic symmetric "
    "points theta = +-pi/4 (mod pi) the farthest qudit cools completely, "
    "exceeding the 0.92 cap (see notes/decisions ledger)")
def test_criterion_6_chain_degradation():
    """L=4, d=3, rank-2 grids: F_B1 >= F_B4 at every recorded step and max F_B4 <= 0.92.

    Asserted exactly as stated; known to fail on both clauses.  The XXZ panel
    reaches F_B4 = 0.924 and the BBH panel 0.993 (F_B4 -> 1 at theta = pi/4
    exactly, an enhanced-symmetry point where the chain becomes transparent).
    """
    layout = SystemLayout("chain", 4, 3)
    gap_xxz, max_xxz = _chain_l4_stats(
        ProtocolConfig(layout=layout, hamiltonian=XXZSpec(J=1.0, Delta=1.0),
                       tau=tau, n_measurements=200, rank=2)
        for tau in JTAU_CONTOUR)
    gap_bbh, max_bbh = _chain_l4_stats(
        ProtocolConfig(layout=layout, hamiltonian=BBHSpec(J=1.0, theta=theta),
                       tau=1.0, n_measurements=200, rank=2)
        for theta in THETA_CONTOUR)
    ordering_ok = gap_xxz >= -1e-9 and gap_bbh >= -1e-9
    bound_ok = max_xxz <= 0.92 and max_bbh <= 0.92
    report("criterion 6 (chain degradation)", ordering_ok and bound_ok,
           f"min(F_B1-F_B4): xxz {gap_xxz:+.4f}, bbh {gap_bbh:+.4f}; "
           f"max F_B4: xxz {max_xxz:.4f}, bbh {max_bbh:.4f} (bound 0.92)")
    assert ordering_ok, "step ordering F_B1 >= F_B4 violated"
    assert bound_ok, "max F_B4 exceeds 0.9 + 0.02 slack"


def test_criterion_7_star_obstruction():
    """Star L=4 rank-2: ring fidelities identical to 1e-10; max F < 0.99 on the grid."""
    max_f = 0.0
    max_spread = 0.0
    for tau in JTAU_CONTOUR:
        config = ProtocolConfig(layout=SystemLayout("star", 4, 3),
                                hamiltonian=SpinStarSpec(J=1.0), tau=tau,
                                n_measurements=200, rank=2)
        record = zeno_run(config)
        max_f = max(max_f, float(np.max(record.fidelities)))
        max_spread = max(max_spread, float(np.max(np.ptp(record.fidelities, axis=1))))
    ok = max_spread < 1e-10 and max_f < 0.99
    report("criterion 7 (star obstruction)", ok,
           f"max ring-site spread {max_spread:.2e}; max F {max_f:.4f}")
    assert ok


def test_criterion_8_open_system_robustness():
    """Open-system grids at T=1, gamma=1e-3, Delta=1: trace drift < 1e-8, the
    gamma -> 0 limit matches the closed run to 1e-6, and d=3 cools above 0.9
    while d=4 stays strictly below d=3."""
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    best = {}
    worst_drift = 0.0
    for d in (3, 4):
        top = 0.0
        for tau in JTAU_CONTOUR:
            record = zeno_run(chain_config(d, tau, 200, 2, Delta=1.0, bath=bath))
            worst_drift = max(worst_drift, record.max_trace_drift)
            top = max(top, float(np.max(record.fidelities)))
        best[d] = top
    closed = zeno_run(chain_config(3, 1.2, 50, 2, Delta=1.0))
    opened = zeno_run(chain_config(3, 1.2, 50, 2, Delta=1.0,
                                   bath=BathSpec(temperature=1.0, gamma=0.0, omega=1.0)))
    gamma0_gap = float(np.max(np.abs(closed.fidelities - opened.fidelities)))
    ok = (worst_drift < 1e-8 and gamma0_gap < 1e-6
          and best[3] >= 0.9 and best[4] < best[3])
    report("criterion 8 (open-system robustness)", ok,
           f"trace drift {worst_drift:.2e}; gamma->0 gap {gamma0_gap:.2e}; "
           f"max F d=3 {best[3]:.4f}, d=4 {best[4]:.4f}")
    assert ok


def test_criterion_9_property_suites():
    """Compact pass over the always-on property checks (full versions live in
    the per-module test files)."""
    # operator algebra
    for d in (2, 3, 5, 17):
        ops = spin_operators(d)
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx - 1j * ops.sz
        casimir = (ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
                   - ops.s * (ops.s + 1) * np.eye(d))
        assert np.max(np.abs(comm)) < 1e-12 and np.max(np.abs(casimir)) < 1e-12
    # Hamiltonian symmetries
    layout = SystemLayout("chain", 2, 3)
    sz_tot = sum(embed_operator(spin_operators(3).sz, i, layout.dims) for i in range(3))
    for H in (XXZSpec(0.9, 0.4, 1.2).build(layout), BBHSpec(0.9, 0.7, 1.2).build(layout)):
        assert np.max(np.abs(H - H.conj().T)) < 1e-12
        assert np.max(np.abs(H @ sz_tot - sz_tot @ H)) < 1e-12
    # U(tau) unitarity + group law, and agreement with scipy's expm
    U1, U2, U12 = (unitary(chain_config(3, t, 1, 1, Delta=0.4, L=2)) for t in (0.7, 1.1, 1.8))
    H = XXZSpec(1.0, 0.4, 1.0).build(layout)
    assert np.max(np.abs(U1 @ U1.conj().T - np.eye(27))) < 1e-10
    assert np.max(np.abs(U1 @ U2 - U12)) < 1e-9
    assert np.max(np.abs(U1 - expm(-1j * H * 0.7))) < 1e-10
    # fidelity bounds / symmetry / pure-state reduction
    rho, sigma = random_density(4, 1), random_density(4, 2)
    f = uhlmann_fidelity(rho, sigma)
    assert 0 <= f <= 1
    assert abs(f - uhlmann_fidelity(sigma, rho)) < 1e-10
    v = np.zeros(4)
    v[2] = 1.0
    pure = DensityMatrix(np.outer(v, v), (4,))
    assert abs(uhlmann_fidelity(pure, sigma) - sigma.data[2, 2].real) < 1e-10
    # partial-trace recovery
    joint = DensityMatrix(np.kron(rho.data, sigma.data), (4, 4))
    assert np.allclose(partial_trace(joint, {0}).data, rho.data)
    # direct-trace equivalence for N <= 5
    for n in (1, 3, 5):
        config = chain_config(3, 0.9, n, 2, Delta=1.0)
        record = zeno_run(config)
        assert abs(record.cumulative_probability - np.prod(literal_run(config)[0])) < 1e-10
    # spectrum modulus bound + dominant-eigenvector consistency
    config = chain_config(3, 1.2, 1, 1)
    spec = zeno_spectrum(config)
    assert np.all(np.abs(spec.eigenvalues) <= 1 + 1e-10)
    r = spec.dominant_right
    red = partial_trace(DensityMatrix(np.outer(r, r.conj()), (3, 3)), {1})
    assert uhlmann_fidelity(red, low_lying_mixture(3, 1)) > 0.99
    report("criterion 9 (property suites)", True,
           "algebra, symmetries, unitarity, fidelity, partial trace, "
           "direct-trace equivalence, spectrum consistency")


def test_criterion_10_scope_note():
    """The contour figures are qualitative; the quantitative gate is criteria
    1-3 plus the property suites, all at desk scale."""
    report("criterion 10 (scope note)", True,
           "quantitative gate = oracle grids + pinned asymptote + property suites")
