import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from conftest import clear_caches
from zenocool import (
    BathSpec,
    BBHSpec,
    DensityMatrix,
    ExtinctionError,
    ProtocolConfig,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
    fidelity_xx_rank1,
    low_lying_mixture,
    spin_operators,
    thermal_state,
    zeno_run,
    zeno_spectrum,
)
from zenocool.hamiltonians import _BondsAndFields
from zenocool.oracles import (
    embed_operator,
    literal_run,
    partial_trace,
    target_state,
    uhlmann_fidelity,
)
import zenocool.evolution as evolution
import zenocool.protocol as protocol
from zenocool.protocol import initial_state
from zenocool.qudit import operator_entries


def xx_config(d=3, jtau=1.2, N=10, k=1, L=1, Delta=0.0, **kw):
    return ProtocolConfig(layout=SystemLayout("chain", L, d),
                          hamiltonian=XXZSpec(J=1.0, Delta=Delta),
                          tau=jtau, n_measurements=N, rank=k, **kw)


# the block tests force K down to BLOCK rounds per matmul, through POWERS_BYTES
BLOCK = 5


def force_blocks(monkeypatch, config, K=BLOCK):
    """Patch POWERS_BYTES to fit exactly K rounds of the config's stacked powers (32 sum(a^2)
    bytes a round when closed, 8 sum(a^2) (sum(a^2) + 1) on a dense bath generator), and
    return the K that the run then takes."""
    squares = protocol._sector_sums(config.layout.d, config.layout.L, config.rank).squares
    per_round = 32 * squares if config.bath is None else 8 * squares * (squares + 1)
    monkeypatch.setattr(protocol, "POWERS_BYTES", K * per_round)
    return protocol._rounds_per_call(config)


# ---- zeno_run --------------------------------------------------------------

@pytest.mark.parametrize("d, L, k, prep, betas, h", [
    (3, 1, 2, None, None, 1.0), (4, 3, 1, 3, (0.0, 1.3, math.inf), 1.0),
    (5, 2, 2, 4, (0.7, math.inf), -0.8), (31, 1, 15, None, (2.0,), 1.0),
])
def test_initial_populations_are_the_diagonal_of_the_density_matrices(d, L, k, prep, betas, h):
    """rho(0)'s diagonal, formed from float weights, is bit for bit the tensor product of the
    diagonals of `target_state` and each target's `thermal_state`."""
    config = ProtocolConfig(layout=SystemLayout("chain", L, d),
                            hamiltonian=XXZSpec(J=1.0, Delta=0.5, h=h), tau=1.0,
                            n_measurements=1, rank=k, regulator_prep=prep, target_betas=betas)
    states = [target_state(config)] + [thermal_state(d, h, beta) for beta in config.betas]
    ref = states[0].data.diagonal().real
    for state in states[1:]:
        ref = np.multiply.outer(ref, state.data.diagonal().real).ravel()
    got = protocol._preparation(config).w
    assert got.dtype == np.float64 and np.array_equal(got, ref)
    assert np.array_equal(np.diag(initial_state(config).data).real, ref)


def test_frozen_dynamics_at_zero_coupling():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZSpec(J=0.0, Delta=0.0), tau=1.7,
                            n_measurements=12, rank=1)
    record = zeno_run(config)
    assert np.allclose(record.fidelities, 1 / 3)
    assert np.allclose(record.step_probabilities, 1.0)


def test_single_round_perfect_cooling_d2():
    # cos(Jtau/2) vanishes at Jtau = pi: one round fully cools the qubit
    record = zeno_run(xx_config(d=2, jtau=math.pi, N=1))
    assert record.fidelities[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_matches_xx_oracle_d3():
    record = zeno_run(xx_config(d=3, jtau=1.2, N=30))
    for n in range(1, 31):
        assert record.fidelities[n - 1, 0] == pytest.approx(
            fidelity_xx_rank1(3, n, 1.2), abs=1e-8)


def test_half_fidelity_asymptote():
    record = zeno_run(xx_config(d=3, jtau=math.pi, N=200))
    assert record.fidelities[-1, 0] == pytest.approx(0.5, abs=1e-3)


def test_zero_rounds_returns_initial_fidelities():
    record = zeno_run(xx_config(d=4, N=0, k=2))
    assert len(record.steps) == 0
    assert record.cumulative_probability == 1.0
    expect = uhlmann_fidelity(thermal_state(4, 1.0, 0.0), low_lying_mixture(4, 2))
    assert record.initial_fidelities[0] == pytest.approx(expect, abs=1e-12)


@given(d=st.integers(2, 4), k=st.integers(1, 2), n=st.integers(1, 5),
       jtau=st.floats(0.1, 6.0))
@settings(max_examples=20)
def test_cumulative_probability_equals_direct_trace(d, k, n, jtau):
    config = xx_config(d=d, jtau=jtau, N=n, k=min(k, d), Delta=1.0)
    record = zeno_run(config)
    direct = np.prod(literal_run(config)[0])
    assert record.cumulative_probability == pytest.approx(direct, abs=1e-10)
    assert np.prod(record.step_probabilities) == pytest.approx(direct, abs=1e-10)


@given(jtau=st.floats(0.1, 6.2), n=st.integers(1, 15))
@settings(max_examples=20)
def test_trajectory_states_and_fidelities_valid(jtau, n):
    record = zeno_run(xx_config(d=3, jtau=jtau, N=n, k=2), retain_state=True)
    assert np.all(record.fidelities >= 0.0) and np.all(record.fidelities <= 1.0)
    record.final_state.validate()
    assert abs(np.trace(record.final_state.data).real - 1.0) < 1e-10


@pytest.mark.parametrize("config", [
    xx_config(d=3, jtau=0.9, N=8, k=2, Delta=1.0),
    xx_config(d=3, jtau=0.9, N=8, k=2, Delta=1.0, L=2),
    ProtocolConfig(layout=SystemLayout("star", 2, 3), hamiltonian=SpinStarSpec(J=1.0),
                   tau=0.9, n_measurements=8, rank=2),
    xx_config(d=3, jtau=0.9, N=8, k=2, Delta=1.0,
              bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0)),
    xx_config(d=3, jtau=0.9, N=8, k=2, Delta=1.0, L=2,
              bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0)),
    ProtocolConfig(layout=SystemLayout("star", 2, 3), hamiltonian=SpinStarSpec(J=1.0),
                   tau=0.9, n_measurements=8, rank=2,
                   bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0, site=0)),
    xx_config(d=3, jtau=0.9, N=8, k=1, Delta=1.0, L=2, regulator_prep=3),
    # support sectors of 1, 3 and 5 states, each group run across eight full blocks of rounds
    xx_config(d=3, jtau=0.9, N=9 * BLOCK, k=2, Delta=1.0, L=2, regulator_prep=3),
    # a ground-state first target leaves support sectors without any populated state
    xx_config(d=3, jtau=0.9, N=9 * BLOCK, k=2, L=2, target_betas=(math.inf, 0.0)),
    # bath rounds across eight full blocks of powers of the real round map T
    xx_config(d=3, jtau=0.9, N=9 * BLOCK, k=2, Delta=1.0,
              bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0)),
    xx_config(d=3, jtau=0.9, N=9 * BLOCK, k=2, Delta=1.0, L=2,
              bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0)),
    ProtocolConfig(layout=SystemLayout("star", 2, 3), hamiltonian=SpinStarSpec(J=1.0),
                   tau=0.9, n_measurements=9 * BLOCK, rank=2,
                   bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0, site=0)),
], ids=["chain-L1", "chain-L2", "star-L2", "chain-L1-bath", "chain-L2-bath", "star-L2-bath",
        "chain-L2-prep3-rank1", "chain-L2-prep3-rank2", "chain-L2-ground-target",
        "chain-L1-bath-blocks", "chain-L2-bath-blocks", "star-L2-hub-bath-blocks"])
def test_round_loop_matches_dense_oracle(monkeypatch, config):
    if config.n_measurements == 9 * BLOCK:      # round 0 and BLOCK rounds, 7 blocks, then 4
        assert force_blocks(monkeypatch, config) == BLOCK
    record = assert_matches_literal_round_map(config)
    if config.n_measurements == 9 * BLOCK and config.bath is not None:
        assert record.max_trace_drift <= 1e-12


@given(model=st.sampled_from(["xxz", "bbh", "star"]), L=st.integers(1, 2), d=st.integers(2, 4),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_sector_engine_matches_literal_round_map(model, L, d, data):
    """Random model, size, rank, wider preparation, target temperatures, tau and a number of
    rounds that ends in the first, second or third block of BLOCK rounds."""
    k = data.draw(st.integers(1, d), label="k")
    h = data.draw(st.sampled_from([1.0, -0.7]), label="h")
    ham = {"xxz": XXZSpec(J=1.0, Delta=data.draw(st.floats(-1.5, 1.5), label="Delta"), h=h),
           "bbh": BBHSpec(J=1.0, theta=data.draw(st.floats(-3.0, 3.0), label="theta"), h=h),
           "star": SpinStarSpec(J=1.0, h=h)}[model]
    config = ProtocolConfig(
        layout=SystemLayout("star" if model == "star" else "chain", L, d), hamiltonian=ham,
        tau=data.draw(st.floats(0.1, 3.0), label="tau"), rank=k,
        n_measurements=data.draw(st.integers(1, 3 * BLOCK + 2), label="N"),
        regulator_prep=data.draw(st.integers(k, d), label="prep"),
        target_betas=tuple(data.draw(st.lists(st.floats(0.1, 2.0), min_size=L, max_size=L),
                                     label="betas")))
    with pytest.MonkeyPatch.context() as patch:
        assert force_blocks(patch, config) == min(BLOCK, config.n_measurements - 1)
        assert_matches_literal_round_map(config)


def assert_matches_literal_round_map(config):
    """`oracles.literal_run`, the round map rho -> P E(rho) P / p on the full space with
    fidelities from partial_trace + uhlmann_fidelity: every p, fidelity and the final state
    at 1e-12."""
    record = zeno_run(config, retain_state=True)
    probs, fidelities, rho = literal_run(config)
    assert np.max(np.abs(record.step_probabilities - probs)) <= 1e-12
    assert np.max(np.abs(record.fidelities - fidelities)) <= 1e-12
    assert np.max(np.abs(record.final_state.data - rho)) < 1e-12
    return record


@dataclass(frozen=True)
class XXZPlusSxSpec:
    """XXZ chain plus a transverse field on the first target: breaks total Sz."""

    J: float
    Delta: float
    h: float = 1.0

    model = "xxz_sx"
    topology = "chain"

    def entries(self, layout):
        xxz = XXZSpec(J=self.J, Delta=self.Delta, h=self.h).entries(layout)
        sx = operator_entries(0.3 * spin_operators(layout.d).sx, 1, layout.dims)
        return tuple(np.concatenate(column) for column in zip(xxz, sx))

    def norm(self, layout):
        sx = np.abs(0.3 * spin_operators(layout.d).sx).sum(axis=0).max()
        return XXZSpec(J=self.J, Delta=self.Delta, h=self.h).norm(layout) + sx


@pytest.mark.parametrize("bath", [None, BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)],
                         ids=["closed", "bath"])
def test_sz_breaking_hamiltonian_raises_at_setup(bath):
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZPlusSxSpec(J=1.0, Delta=0.0), tau=1.0,
                            n_measurements=3, rank=1, bath=bath)
    with pytest.raises(ValueError, match="xxz_sx Hamiltonian does not conserve total Sz"):
        zeno_run(config)


@dataclass(frozen=True)
class DMSpec(_BondsAndFields):
    """A Dzyaloshinskii-Moriya chain, J (Sx Sy - Sy Sx) on every bond: it conserves total Sz,
    and its entries are purely imaginary."""

    J: float
    h: float = 1.0

    model = "dm"
    topology = "chain"

    def bond(self, ops):
        return [(self.J, (ops.sx, ops.sy)), (-self.J, (ops.sy, ops.sx))]


def test_complex_hamiltonian_raises_at_closed_setup():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3), hamiltonian=DMSpec(J=1.0),
                            tau=1.0, n_measurements=3, rank=1)
    with pytest.raises(ValueError, match="dm Hamiltonian has complex entries"):
        zeno_run(config)


@pytest.mark.filterwarnings("ignore:dominant eigenspace of the round map is not simple")
@pytest.mark.parametrize("ham", [XXZSpec(J=0.8, Delta=0.3), SpinStarSpec(J=0.8)],
                         ids=["chain", "star"])
def test_engine_never_builds_a_dense_hamiltonian(ham, monkeypatch):
    """Closed and bath runs and the spectrum read H's entries, never the dense `build`."""
    def refuse(self, layout):
        raise AssertionError(f"dense H built for {self.model}")

    for spec in (XXZSpec, BBHSpec, SpinStarSpec):
        monkeypatch.setattr(spec, "build", refuse)
    protocol._sector_eigh.cache_clear()
    protocol._support_blocks.cache_clear()
    config = ProtocolConfig(layout=SystemLayout(ham.topology, 2, 3), hamiltonian=ham, tau=0.9,
                            n_measurements=3, rank=2)
    bath = BathSpec(temperature=1.0, gamma=0.05, omega=1.0)
    assert len(zeno_run(config).steps) == 3
    assert len(zeno_run(dataclasses.replace(config, bath=bath)).steps) == 3
    assert len(zeno_spectrum(config).eigenvalues) == 27


SMALL_RUNS = """
import sys
from zenocool import BathSpec, ProtocolConfig, SystemLayout, XXZSpec, zeno_run
from zenocool.sweeps import parse_config, run_sweep
for L, d in ((1, 3), (1, 4), (2, 3)):
    config = ProtocolConfig(layout=SystemLayout("chain", L, d),
                            hamiltonian=XXZSpec(J=1.0, Delta=1.0), tau=1.3, n_measurements=20,
                            rank=2)
    zeno_run(config)
    zeno_run(ProtocolConfig(**{**vars(config), "bath": BathSpec(temperature=1.0, gamma=1e-3)}))
run_sweep(parse_config({"base": {"model": "xxz", "d": 3, "N": 5, "k": 2},
                        "axes": {"d": [2, 3], "Jtau": [0.5, 1.0]}}))
print(" ".join(name for name in ("scipy", "numpy.ma") if name in sys.modules))
"""


def test_small_closed_and_bath_runs_import_neither_scipy_nor_numpy_ma():
    """A fresh process that runs closed and bath points at L <= 2 (generators of K <= 141,
    stored dense) and writes a closed sweep's rows loads neither scipy (about 0.3 s) nor
    numpy.ma (15-22 ms)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", SMALL_RUNS], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


PEAK_POINTS = [(5, 0, 2), (5, 2, 2), (5, 40, 2), (5, 40, 3), (6, 2, 2)]
PEAK_IDS = ["0", "2", "40", "40-rank3", "L6-2"]
PEAK_HAMS = [XXZSpec(J=1.0, Delta=1.0), SpinStarSpec(J=1.0)]
PEAK_CASES = pytest.mark.parametrize("L, N, k", PEAK_POINTS, ids=PEAK_IDS)
PEAK_MODELS = pytest.mark.parametrize("ham", PEAK_HAMS, ids=["chain", "star"])


def traced_peak(config, retain_state):
    """The traced peak of a run that finds every cache holding another layout's: an L=1,
    d=2 run of the same model leaves them, and they count on top of the run."""
    clear_caches()
    other = dataclasses.replace(config, layout=SystemLayout(config.layout.topology, 1, 2),
                                n_measurements=3, rank=1, regulator_prep=None,
                                target_betas=None)
    tracemalloc.start()
    try:
        zeno_run(other)
        tracemalloc.reset_peak()
        zeno_run(config, retain_state=retain_state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ham, L, d, N, k", [
    *[(ham, L, 3, N, k) for ham in PEAK_HAMS for L, N, k in PEAK_POINTS],
    (XXZSpec(J=1.0, Delta=0.0), 1, 31, 50, 15), (BBHSpec(J=1.0, theta=0.7), 6, 3, 2, 2),
], ids=[*[f"{m}-{c}" for m in ("chain", "star") for c in PEAK_IDS], "fig7-d31-rank15",
        "bbh-L6-2"])
def test_run_peak_memory_stays_below_its_estimate(ham, L, d, N, k):
    """The memory gate counts the set-up, the round map's groups and the round blocks' powers
    of M (N = 40 runs several blocks at L=5; rank 3 is the whole space; fig7's largest point
    lists its whole H from one bond)."""
    config = ProtocolConfig(layout=SystemLayout(ham.topology, L, d), hamiltonian=ham, tau=0.9,
                            n_measurements=N, rank=k)
    assert traced_peak(config, retain_state=False) <= protocol.run_bytes(config)


@PEAK_CASES
@PEAK_MODELS
def test_retained_state_peak_memory_stays_below_its_estimate(ham, L, N, k):
    """A retained run also returns its D x D state (rho(0) when N = 0), which the gate counts
    on top of the run."""
    config = ProtocolConfig(layout=SystemLayout(ham.topology, L, 3), hamiltonian=ham, tau=0.9,
                            n_measurements=N, rank=k)
    assert traced_peak(config, retain_state=True) <= protocol.run_bytes(config, retain_state=True)


@pytest.mark.parametrize("ham, L, d, tau", [(XXZSpec(J=1.0, Delta=1.0), 2, 3, 0.9),
                                             (SpinStarSpec(J=1.0), 2, 4, 0.9),
                                             (XXZSpec(J=1.0, Delta=1.0), 3, 3, 0.9),
                                             (XXZSpec(J=1.0, Delta=1.0), 1, 8, 6.0),
                                             (XXZSpec(J=1.0, Delta=1.0), 4, 3, 0.9),
                                             (BBHSpec(J=1.0, theta=0.7), 2, 5, 0.9)],
                         ids=["chain-L2-d3", "star-L2-d4", "chain-L3-d3-csr",
                              "chain-L1-d8-squaring", "chain-L4-d3-csr", "bbh-L2-d5-csr"])
def test_bath_run_peak_memory_stays_below_its_estimate(ham, L, d, tau):
    """The gate counts the listing of a bath run's generator (a CSR run's peak; BBH has the
    most entries per row), then a dense generator's K x K scaling-and-squaring arrays (K = 344
    at L=1, d=8 and 580 at L=2, d=4, where they are most of the peak), the columns of S it
    slices and the round map with its powers (21 of them at L=2, d=3).  scipy.sparse is
    imported first: its import, once per process, is not the run's."""
    from scipy import sparse  # noqa: F401

    config = ProtocolConfig(layout=SystemLayout(ham.topology, L, d), hamiltonian=ham, tau=tau,
                            n_measurements=50, rank=2,
                            bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0))
    assert traced_peak(config, retain_state=False) <= protocol.run_bytes(config)


@pytest.mark.parametrize("spec", [XXZSpec(J=1.0, Delta=1.0), BBHSpec(J=1.0, theta=0.7),
                                  SpinStarSpec(J=1.0)], ids=["xxz", "bbh", "star"])
@pytest.mark.parametrize("L, d", [(1, 3), (1, 8), (2, 3), (2, 5), (3, 3)])
def test_generator_entries_bound_the_stored_generator(spec, L, d):
    """The gates' `_generator_entries` is at least the stored real generator's entries."""
    layout = SystemLayout(spec.topology, L, d)
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    config = ProtocolConfig(layout=layout, hamiltonian=spec, tau=1.0, n_measurements=1, rank=2,
                            bath=bath)
    protocol._open_generator.cache_clear()
    G = protocol._open_generator(layout, spec, bath)[2]._generator
    stored = np.count_nonzero(G) if isinstance(G, np.ndarray) else G.nnz
    assert stored <= protocol._generator_entries(config)


def test_an_l8_chain_passes_the_gate_and_refuses_to_retain_its_state(monkeypatch):
    """On a 7 GB host the L=8, d=3 engine fits; its 6.2 GB D x D state, four times over, does not."""
    monkeypatch.setattr(protocol, "physical_memory", lambda: 7 * 10 ** 9)
    config = xx_config(d=3, jtau=1.0, N=10, k=2, L=8, Delta=1.0)
    assert protocol.run_bytes(config) <= 7 * 10 ** 9
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="retain_state=True keeps the D x D state"):
            zeno_run(config, retain_state=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 19683       # nothing D x D, nor even a row of it, was allocated


def test_a_plain_run_neither_keeps_nor_gates_the_dense_state(monkeypatch):
    """retain_state defaults to False: with physical memory between the run's estimate and the
    estimate with the D x D state, a plain call runs and returns no state, and only
    retain_state=True refuses."""
    config = xx_config(d=3, jtau=1.0, N=3, k=2, L=2, Delta=1.0)
    run, retained = protocol.run_bytes(config), protocol.run_bytes(config, retain_state=True)
    assert run < retained
    monkeypatch.setattr(protocol, "physical_memory", lambda: (run + retained) // 2)
    assert zeno_run(config).final_state is None
    with pytest.raises(ValueError, match="retain_state=True keeps the D x D state"):
        zeno_run(config, retain_state=True)


@pytest.mark.parametrize("L, dense", [(2, True), (3, False)], ids=["dense", "csr"])
def test_a_plain_bath_run_never_assembles_its_final_block(monkeypatch, L, dense):
    """A bath run builds its retained support block only for retain_state=True: a plain run
    never calls `hermitian_entries`, and a retained one still matches `oracles.literal_run`."""
    config = xx_config(d=3, jtau=1.0, N=4, k=2, L=L, Delta=1.0,
                       bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0))
    _, kept, _ = protocol._open_generator(config.layout, config.hamiltonian, config.bath)
    assert evolution.stored_dense(len(kept)) == dense
    calls = []
    monkeypatch.setattr(protocol, "hermitian_entries",
                        lambda *args: calls.append(args) or evolution.hermitian_entries(*args))
    assert zeno_run(config).final_state is None
    assert calls == []
    if dense:       # literal_run exponentiates the D^2 x D^2 Liouvillian: L = 2 at most
        assert_matches_literal_round_map(config)
        assert len(calls) == 1


@pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf])
def test_a_nan_or_negative_target_beta_is_rejected_naming_its_index(beta):
    with pytest.raises(ValueError, match=r"target_betas\[1\] must be a non-negative number"):
        xx_config(d=3, L=2, target_betas=(0.5, beta))


def test_a_target_beta_whose_weights_overflow_runs_as_beta_inf():
    """beta h = 1e400 overflows: rho(0) is then the beta = inf state, so the run is the inf
    run bit for bit, with no warning and no extinction."""
    configs = [ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                              hamiltonian=XXZSpec(J=1.0, h=1e200), tau=1e-200,
                              n_measurements=3, rank=1, target_betas=(beta,))
               for beta in (1e200, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ref = (zeno_run(config) for config in configs)
    for name in ("initial_fidelities", "fidelities", "step_probabilities"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))
    assert np.all(np.isfinite(got.fidelities))


@pytest.mark.parametrize("L, d, k, N, K", [
    (1, 2, 1, 200, 199), (1, 8, 2, 200, 199), (2, 3, 2, 45, 44),  # the D <= 64 grids
    (2, 3, 2, 10, 9), (2, 3, 2, 1, 0),                          # capped at N - 1
    (1, 5, 1, 5000, 3355), (3, 3, 2, 200, 39),                  # the powers against the blocks
    (4, 3, 2, 200, 10), (1, 31, 15, 50, 11),
    (1, 2, 1, 10 ** 6, 65536),                                  # sized by the bytes
    (5, 3, 2, 200, 3), (5, 3, 2, 50, 2), (6, 3, 2, 50, 1),      # sized by the sectors
])
def test_rounds_per_call_fits_the_powers_in_their_bytes(L, d, k, N, K):
    """K keeps the stacked powers within POWERS_BYTES, and their K sum(a^3) multiply-adds
    balanced against the N / K blocks' calls."""
    config = xx_config(d=d, jtau=0.9, N=N, k=k, L=L, Delta=1.0)
    assert protocol._rounds_per_call(config) == K
    _, support = protocol._sector_sizes(d, L, k)
    assert K <= 1 or 32 * K * sum(a * a for a in support) <= protocol.POWERS_BYTES
    balance = N * protocol.BLOCK_CALL_MACS * len(set(support)) / sum(a ** 3 for a in support)
    assert K <= 1 or (K - 1) ** 2 < balance


def test_a_round_count_past_the_float_range_is_refused_by_the_memory_gate():
    """N = 10^400 rounds, which overflows a float, is refused for its record's bytes."""
    with pytest.raises(ValueError, match="needs about"):
        xx_config(N=10 ** 400)


@pytest.mark.parametrize("L, d, k, N, K", [
    (1, 3, 2, 200, 174), (1, 4, 2, 200, 109), (2, 3, 2, 200, 11),  # fig8 and open_bath
    (1, 3, 2, 10, 9), (1, 3, 2, 1, 0),                          # capped at N - 1
    (2, 3, 2, 10, 3), (2, 4, 2, 200, 3),                        # the powers against the blocks
    (2, 4, 2, 10 ** 4, 18),                                     # sized by T = sum(a^2)^2
    (3, 3, 2, 200, 1), (4, 3, 2, 20, 1),                        # CSR: a round at a time
])
def test_bath_rounds_per_call_fits_the_powers_of_t_in_their_bytes(L, d, k, N, K):
    """A dense bath run's powers [T^j; t T^(j-1)] are (sum(a^2) + 1) x sum(a^2) floats each,
    and their K (sum(a^2) + 1)^3 multiply-adds are balanced against the N / K blocks' calls;
    a CSR run steps its state once per round."""
    config = xx_config(d=d, jtau=0.9, N=N, k=k, L=L, Delta=1.0,
                       bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0))
    assert protocol._rounds_per_call(config) == K
    _, support = protocol._sector_sizes(d, L, k)
    squares = sum(a * a for a in support)
    assert K <= 1 or 8 * K * squares * (squares + 1) <= protocol.POWERS_BYTES
    assert K <= 1 or (K - 1) ** 2 < N * protocol.BATH_CALL_MACS / (squares + 1) ** 3


@pytest.mark.parametrize("K", [1, 2, 3, 7, 21])
@pytest.mark.parametrize("shape", ["closed", "bath"])
def test_powers_by_squaring_match_sequential_products(shape, K):
    """Block j of the stacked powers is A S^j: M^(j+1) for a closed group's (m, a, a) stack of
    complex M, [T^(j+1); t T^j] for the bath's real (c + 1, c) map [T; t]."""
    rng = np.random.default_rng(K)
    if shape == "closed":
        A = (rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))) / 4
    else:
        A = rng.standard_normal((8, 7)) / 3
    r, c = A.shape[-2:]
    P = protocol._powers(A, K)
    assert P.shape == (*A.shape[:-2], K * r, c)
    block = A
    for j in range(K):
        np.testing.assert_allclose(P[..., j * r:(j + 1) * r, :], block, rtol=0, atol=1e-13)
        block = block @ A[..., :c, :]


@pytest.mark.parametrize("layout, spec, rank, prep, betas", [
    (SystemLayout("chain", 1, 31), XXZSpec(J=1.0), rank, None, None) for rank in (1, 2, 8, 15)
] + [
    (SystemLayout("chain", 4, 3), XXZSpec(J=1.0, Delta=1.0), 2, None, None),
    (SystemLayout("chain", 4, 3), BBHSpec(J=1.0, theta=0.7), 1, 3, None),
    (SystemLayout("star", 4, 3), SpinStarSpec(J=1.0), 2, None, None),
    (SystemLayout("chain", 2, 4), XXZSpec(J=1.0, Delta=0.4, h=-0.7), 2, 3, (math.inf, 0.5)),
], ids=["d31-rank1", "d31-rank2", "d31-rank8", "d31-rank15", "L4-chain", "L4-bbh-prep3",
        "L4-star", "L2-d4-h-negative-ground-target"])
def test_support_groups_match_a_pass_per_sector(layout, spec, rank, prep, betas):
    """Each member sector q of every `_Group` against the dense H and rho(0): its rows
    rebuild H[S_q, S_q], its rows times its columns are sqrt(w) where a support state is a
    populated one, its padding is exactly zero, and `order` puts the members' support states
    back in ascending order."""
    config = ProtocolConfig(layout=layout, hamiltonian=spec, tau=0.0, n_measurements=0,
                            rank=rank, regulator_prep=prep, target_betas=betas)
    protocol._support_blocks.cache_clear()
    groups = protocol._support_blocks(layout, spec, rank, config.prep_rank, config.betas)
    H = spec.build(layout)
    label = protocol._sector_labels(layout)
    prepared = protocol._preparation(config)
    support, w, order = prepared.support, prepared.w, prepared.order
    members, start = [], 0
    for g in groups:
        assert g.start == start and g.rows.shape[:2] == (len(g.sectors), g.a)
        for i, q in enumerate(g.sectors):
            n = np.count_nonzero(label == q)
            ours = support[label[support] == q]
            populated = np.flatnonzero((w > 0) & (label == q))
            assert len(ours) == g.a
            rows, lam, cols = g.rows[i, :, :n], g.lam[i, :n], g.cols[i, :n, :len(populated)]
            np.testing.assert_allclose((rows * lam) @ rows.T, H[np.ix_(ours, ours)].real,
                                       rtol=0, atol=1e-12 * np.abs(H).max())
            want = np.where(ours[:, None] == populated[None, :], np.sqrt(w[populated]), 0.0)
            assert np.max(np.abs(rows @ cols - want), initial=0.0) <= 1e-12
            pads = g.lam[i, n:], g.rows[i, :, n:], g.cols[i, n:], g.cols[i, :, len(populated):]
            assert not any(np.any(pad) for pad in pads)
            members.append(ours)
        start += len(g.sectors) * g.a
    assert np.array_equal(np.concatenate(members)[order], support)


class FakeBlas:
    """One OpenBLAS as its (get, set) thread-count calls, with every count it was set to."""

    def __init__(self, threads):
        self.threads, self.history = threads, []

    def calls(self):
        def set_(n):
            self.threads = n
            self.history.append(n)
        return ((lambda: self.threads, set_),)


@pytest.mark.parametrize("bath", [None, BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)],
                         ids=["closed", "bath"])
def test_narrow_round_maps_take_one_blas_thread_and_restore_the_count(monkeypatch, bath):
    """Below the width cut a run forms and applies its powers on one thread and restores the
    count it found, also when the branch dies mid-run; at the cut it leaves the count alone.
    The width is the widest support sector of a closed run, sum(a^2) for a bath run's T."""
    config = xx_config(d=3, jtau=0.9, N=30, k=2, L=2, Delta=1.0, bath=bath)
    sums = protocol._sector_sums(3, 2, 2)
    width = sums.widest if bath is None else sums.squares
    fake = FakeBlas(threads=3)
    monkeypatch.setattr(protocol, "_blas_thread_calls", fake.calls)
    seen, powers = [], protocol._powers
    monkeypatch.setattr(protocol, "_powers",
                        lambda *args: seen.append(fake.threads) or powers(*args))
    monkeypatch.setattr(protocol, "BLAS_ONE_THREAD_WIDTH", width + 1)
    zeno_run(config)
    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", 2.0)    # every p is below it
    with pytest.raises(ExtinctionError):
        zeno_run(config)
    assert set(seen) == {1} and fake.history == [1, 3, 1, 3] and fake.threads == 3
    seen.clear()
    monkeypatch.setattr(protocol, "BLAS_ONE_THREAD_WIDTH", width)
    with pytest.raises(ExtinctionError):
        zeno_run(config)
    assert set(seen) == {3} and fake.history == [1, 3, 1, 3]


def test_a_run_leaves_the_processs_openblas_thread_count_as_it_found_it(monkeypatch):
    """The same with the OpenBLAS that numpy loaded, where its thread-count calls exist."""
    calls = protocol._blas_thread_calls()
    if not calls:
        pytest.skip("no OpenBLAS thread-count calls in this process")
    found = [get() for get, _ in calls]
    config = xx_config(d=3, jtau=0.9, N=30, k=2, L=2, Delta=1.0)
    width = protocol._sector_sums(3, 2, 2).widest
    monkeypatch.setattr(protocol, "BLAS_ONE_THREAD_WIDTH", width + 1)
    for _, set_ in calls:
        set_(2)
    try:
        zeno_run(config)
        assert [get() for get, _ in calls] == [2] * len(calls)
        monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", 2.0)
        with pytest.raises(ExtinctionError):
            zeno_run(config)
        assert [get() for get, _ in calls] == [2] * len(calls)
    finally:
        for (_, set_), count in zip(calls, found):
            set_(count)


@pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e4])
@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("far", [False, True], ids=["site0", "farthest"])
@pytest.mark.parametrize("spec", [XXZSpec(J=1.0, Delta=1.0), BBHSpec(J=1.0, theta=0.7),
                                  SpinStarSpec(J=1.0)], ids=["xxz", "bbh", "star"])
def test_bath_cost_norm_bounds_the_propagators_exact_norm(spec, far, d, gamma):
    """2 |H| + the dissipator's bound, the gate's cost per unit of tau, is at least the exact
    |L - mu I|_1 that sets the Taylor action's work."""
    layout = SystemLayout(spec.topology, 2, d)
    bath = BathSpec(temperature=1.0, gamma=gamma, omega=1.0, site=layout.L if far else 0)
    exact = protocol._open_generator(layout, spec, bath)[2]._norm
    assert exact <= 2 * spec.norm(layout) + bath.norm(d)


@pytest.mark.parametrize("L, jtau", [(3, 1.0), (4, 2 * math.pi), (5, 1.0)],
                         ids=["L3-ci", "L4-2pi", "L5-1"])
def test_bath_cost_limit_admits_the_longer_chains(L, jtau):
    """N = 200 bath chains up to L=5, d=3 (K = 73,789 coordinates, CSR) pass the memory and
    cost gates, with a memory estimate under 500 MB."""
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    config = xx_config(d=3, jtau=jtau, N=200, k=2, L=L, Delta=1.0, bath=bath)   # gates it
    assert protocol.run_bytes(config) < 500 * 10 ** 6


def test_bath_cost_limit_charges_a_csr_run_per_round():
    """A CSR run is charged N rounds of its generator's entries: the L=4 chain that passes at
    N = 200 is rejected at N = 20,000, naming tau, J and bath.gamma."""
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    xx_config(d=3, jtau=1.0, N=200, k=2, L=4, Delta=1.0, bath=bath)
    with pytest.raises(ValueError, match=r"20000 rounds of its CSR generator's \d+ entries .*"
                                         r"tau = 1\.0, J = 1\.0 or bath\.gamma = 0\.001"):
        xx_config(d=3, jtau=1.0, N=20000, k=2, L=4, Delta=1.0, bath=bath)


def test_bath_check_rejects_an_overflowing_bound_without_a_warning():
    """gamma (2n + 1) overflows the floats: the check reports inf, and nothing warns first."""
    bath = BathSpec(temperature=1e10, gamma=1e300, omega=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"gamma \* \(2n \+ 1\)\) = inf"):
            xx_config(d=3, jtau=1.0, N=3, bath=bath)


def test_star_ring_fidelities_identical():
    config = ProtocolConfig(layout=SystemLayout("star", 3, 3),
                            hamiltonian=SpinStarSpec(J=1.0), tau=1.1,
                            n_measurements=15, rank=2)
    record = zeno_run(config)
    spread = np.ptp(record.fidelities, axis=1)
    assert np.max(spread) < 1e-10


def test_extinction_reports_step_and_prefix(request, monkeypatch):
    """A first round below the threshold ends the run at step 1 with an empty prefix and no
    state: closed, on a dense bath generator (both start their first block from rho(0)) and
    on a CSR one."""
    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", 0.9)   # first round p ~ 0.44
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    for config in (xx_config(d=3, jtau=1.2, N=10), xx_config(d=3, jtau=1.2, N=10, bath=bath),
                   None):
        if config is None:      # the bath run again, on a CSR generator
            request.getfixturevalue("csr_generators")
            config = xx_config(d=3, jtau=1.2, N=10, bath=bath)
        with pytest.raises(ExtinctionError) as err:
            zeno_run(config, retain_state=True)
        assert err.value.step == 1
        assert err.value.partial is not None
        assert err.value.partial.final_state is None
        assert len(err.value.partial.steps) == 0


@pytest.mark.parametrize("bath, csr", [(None, False),
                                       (BathSpec(temperature=1.0, gamma=0.05, omega=1.0), False),
                                       (BathSpec(temperature=1.0, gamma=0.05, omega=1.0), True)],
                         ids=["closed", "bath", "bath-csr"])
def test_mid_run_extinction_keeps_the_completed_prefix(request, monkeypatch, bath, csr):
    if csr:
        request.getfixturevalue("csr_generators")
    config = xx_config(d=3, jtau=3.0, N=8, k=2, bath=bath)
    full = zeno_run(config)
    p1, p2 = full.step_probabilities[:2]
    assert p2 < p1         # the branch may die at round 2 after surviving round 1
    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", (p1 + p2) / 2)
    with pytest.raises(ExtinctionError) as err:
        zeno_run(config, retain_state=True)     # a dead branch has no state to keep
    assert err.value.step == 2
    assert err.value.probability == pytest.approx(p2, abs=1e-12)
    partial = err.value.partial
    assert partial.final_state is None
    np.testing.assert_array_equal(partial.steps, [1])
    for name in ("fidelities", "step_probabilities", "log_cumulative"):
        np.testing.assert_array_equal(getattr(partial, name), getattr(full, name)[:1])
    assert partial.max_trace_drift <= 1e-8


def test_extinction_inside_a_later_block_keeps_the_prefix_bit_for_bit(monkeypatch):
    """The far target's excitation reaches the regulator late, so p sets a new low mid-block."""
    assert_extinction_inside_the_second_block_keeps_the_prefix(monkeypatch, None)


def test_bath_extinction_inside_a_later_block_keeps_the_prefix_bit_for_bit(monkeypatch):
    """The same on the bath path, whose blocks are matvecs of the powers of T."""
    bath = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)
    assert_extinction_inside_the_second_block_keeps_the_prefix(monkeypatch, bath)


@pytest.fixture
def csr_generators(monkeypatch):
    """Every bath generator stored CSR, so that bath runs step the state once per round."""
    monkeypatch.setattr(evolution, "DENSE_BYTES", 0)
    protocol._open_generator.cache_clear()
    yield
    protocol._open_generator.cache_clear()


@pytest.mark.parametrize("config", [
    xx_config(d=3, jtau=1.0, N=200, k=2, L=2, Delta=1.0,
              bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)),
    xx_config(d=3, jtau=6.0, N=200, k=2, L=2, Delta=1.0,
              bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)),
    xx_config(d=4, jtau=1.0, N=200, k=2, L=1, Delta=1.0,
              bath=BathSpec(temperature=1.0, gamma=0.05, omega=1.0)),
], ids=["L2-Jtau1", "L2-Jtau6", "L1-d4"])
def test_csr_rounds_match_the_dense_slice(request, monkeypatch, config):
    """The same run on a dense generator, whose rounds are the powers of T sliced out of
    exp(L tau), in blocks of its own K and of BLOCK, and on a CSR one, which applies the
    Taylor action once per round: p and F agree to 1e-13 relative and the trace drift, itself
    relative, to 1e-13.  The final states agree to 5e-13 of their largest entry: at Jtau = 6
    the dense one is 8.2e-14 from the literal round map's and the CSR one 3.1e-14 (2.3e-13
    apart, of 0.255)."""
    K = protocol._rounds_per_call(config)
    assert 1 < K < config.n_measurements - 1     # two or more blocks
    dense = [zeno_run(config, retain_state=True)]
    assert force_blocks(monkeypatch, config) == BLOCK
    dense.append(zeno_run(config, retain_state=True))
    request.getfixturevalue("csr_generators")
    assert protocol._rounds_per_call(config) == 1
    csr = zeno_run(config, retain_state=True)
    assert isinstance(protocol._open_generator(config.layout, config.hamiltonian,
                                               config.bath)[2]._generator, sparse.csr_matrix)
    for run in dense:
        for name in ("step_probabilities", "fidelities"):
            np.testing.assert_allclose(getattr(csr, name), getattr(run, name), rtol=1e-13,
                                       atol=0)
        assert abs(csr.max_trace_drift - run.max_trace_drift) <= 1e-13
        scale = np.max(np.abs(run.final_state.data))
        assert np.max(np.abs(csr.final_state.data - run.final_state.data)) <= 5e-13 * scale


def assert_extinction_inside_the_second_block_keeps_the_prefix(monkeypatch, bath):
    config = xx_config(d=3, jtau=0.05, N=13 * BLOCK, k=2, L=2, target_betas=(math.inf, 0.0),
                       bath=bath)
    K = force_blocks(monkeypatch, config)
    full = zeno_run(config)
    p = full.step_probabilities
    # p[0..K] form the first block, round 0 and K rounds; n - 1 = 0 mod K starts a block
    n = next(n for n in range(K + 1, len(p)) if p[n] < p[:n].min() and (n - 1) % K)
    assert K == BLOCK and (n - 1) // K == 1     # inside the second block
    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", (p[n] + p[:n].min()) / 2)
    with pytest.raises(ExtinctionError) as err:
        zeno_run(config, retain_state=True)
    assert err.value.step == n + 1
    assert err.value.probability == p[n]
    partial = err.value.partial
    assert partial.final_state is None
    for name in ("steps", "fidelities", "step_probabilities", "log_cumulative"):
        np.testing.assert_array_equal(getattr(partial, name), getattr(full, name)[:n])
    assert partial.max_trace_drift <= full.max_trace_drift


def spy_blocks(monkeypatch):
    """Every block's (first round, rounds asked for, rounds kept), as it is run."""
    blocks, inner = [], protocol._block_probabilities

    def spy(pops, probs, n, k):
        trace, dead = inner(pops, probs, n, k)
        blocks.append((n, k, len(trace)))
        return trace, dead

    monkeypatch.setattr(protocol, "_block_probabilities", spy)
    return blocks


@pytest.mark.parametrize("bath", [None, BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)],
                         ids=["closed", "bath"])
def test_blocks_restart_below_the_trace_floor_without_changing_the_run(monkeypatch, bath):
    """A trace floor patched up to 0.99 ends a block after its first round whose trace falls
    below it, and the next block starts from that round's normalised state: p, F, log cum and
    the retained state stay within 1e-12 of the run with the true floor."""
    config = xx_config(d=3, jtau=1.0, N=200, k=2, L=2, Delta=1.0, bath=bath)
    ref = zeno_run(config, retain_state=True)
    blocks = spy_blocks(monkeypatch)
    monkeypatch.setattr(protocol, "_trace_floor", lambda: 0.99)
    got = zeno_run(config, retain_state=True)
    assert sum(kept < k for _, k, kept in blocks) >= 5
    for name in ("step_probabilities", "fidelities", "log_cumulative"):
        assert np.max(np.abs(getattr(got, name) - getattr(ref, name))) <= 1e-12
    assert np.max(np.abs(got.final_state.data - ref.final_state.data)) <= 1e-12


@pytest.mark.parametrize("bath", [None, BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)],
                         ids=["closed", "bath"])
def test_extinction_inside_a_restarted_block_keeps_the_prefix_bit_for_bit(monkeypatch, bath):
    """With the floor patched up to 0.999, a p that sets a new low past the first round of a
    block that started at a floor restart ends the run there, with the prefix of the run
    that survives it."""
    config = xx_config(d=3, jtau=0.05, N=13 * BLOCK, k=2, L=2, target_betas=(math.inf, 0.0),
                       bath=bath)
    blocks = spy_blocks(monkeypatch)
    monkeypatch.setattr(protocol, "_trace_floor", lambda: 0.999)
    full = zeno_run(config)
    p = full.step_probabilities
    restarted = [(n, kept) for (n, k, kept), (_, asked, ended) in zip(blocks[1:], blocks)
                 if ended < asked]
    n = next(m for start, kept in restarted for m in range(start + 1, start + kept)
             if p[m] < p[:m].min())
    monkeypatch.setattr(protocol, "EXTINCTION_THRESHOLD", (p[n] + p[:n].min()) / 2)
    with pytest.raises(ExtinctionError) as err:
        zeno_run(config, retain_state=True)
    assert err.value.step == n + 1
    assert err.value.probability == p[n]
    partial = err.value.partial
    for name in ("steps", "fidelities", "step_probabilities", "log_cumulative"):
        np.testing.assert_array_equal(getattr(partial, name), getattr(full, name)[:n])


@pytest.mark.parametrize("jtau", [0.7, 1.2, 2.5, 4.5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_long_blocks_match_the_xx_oracle(d, jtau):
    """N = 5,000 rank-1 XX rounds run in blocks of 3,355 to 4,999 rounds: every round's
    fidelity is within 1e-12 of the closed form, and no p exceeds 1."""
    config = xx_config(d=d, jtau=jtau, N=5000)
    assert protocol._rounds_per_call(config) >= 3355
    record = zeno_run(config)
    want = [fidelity_xx_rank1(d, n, jtau) for n in range(1, 5001)]
    assert np.max(np.abs(record.fidelities[:, 0] - want)) <= 1e-12
    assert np.all(record.step_probabilities <= 1.0)


def test_closed_rounds_do_not_warn_past_an_extinction(monkeypatch):
    """A zero round map empties the branch at round 2; the rest of its block divides 0 by 0."""
    def zero_map(config):
        groups, order, maps = round_map(config)
        return groups, order, [(R, np.zeros_like(M)) for R, M in maps]

    round_map = protocol._round_map
    monkeypatch.setattr(protocol, "_round_map", zero_map)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExtinctionError) as err:
            zeno_run(xx_config(d=3, N=10, k=2), retain_state=True)
    assert err.value.step == 2
    assert err.value.probability == 0.0
    assert len(err.value.partial.steps) == 1
    assert err.value.partial.final_state is None


def test_long_run_log_probability_consistent():
    record = zeno_run(xx_config(d=2, jtau=2.2, N=800))
    # the oscillating branch empties, the frozen branch (initial weight 1/2)
    # survives: conditional p -> 1 and cumulative p -> 1/2
    assert record.step_probabilities[-1] == pytest.approx(1.0, abs=1e-12)
    assert record.cumulative_probabilities[-1] == pytest.approx(0.5, abs=1e-10)
    assert np.all(np.diff(record.log_cumulative) <= 1e-15)
    assert np.allclose(np.exp(record.log_cumulative),
                       record.cumulative_probabilities, rtol=1e-9)


# ---- zeno_spectrum ---------------------------------------------------------

def test_spectrum_zero_coupling_dominant_modulus_one():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZSpec(J=0.0, Delta=0.0), tau=1.0,
                            n_measurements=1, rank=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # degenerate moduli at J=0
        spec = zeno_spectrum(config)
    assert abs(spec.eigenvalues[0]) == pytest.approx(1.0, abs=1e-12)


@given(jtau=st.floats(0.05, 6.2), d=st.integers(2, 4), k=st.integers(1, 2))
@settings(max_examples=25)
def test_spectrum_moduli_bounded(jtau, d, k):
    config = xx_config(d=d, jtau=jtau, N=1, k=min(k, d), Delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        spec = zeno_spectrum(config)
    assert np.all(np.abs(spec.eigenvalues) <= 1 + 1e-10)


def test_spectrum_dominant_eigenvector_is_cooling_fixed_point():
    config = xx_config(d=3, jtau=1.2, N=1)
    spec = zeno_spectrum(config)
    r = spec.dominant_right
    rho = DensityMatrix(np.outer(r, r.conj()) / np.vdot(r, r).real, (3, 3))
    red = partial_trace(rho, {1})
    assert uhlmann_fidelity(red, low_lying_mixture(3, 1)) > 0.99


def test_spectrum_left_right_biorthogonal():
    config = xx_config(d=3, jtau=0.8, N=1, k=2, Delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rank-2 keeps several frozen states
        spec = zeno_spectrum(config)
    assert spec.dominant_is_simple is False
    assert np.vdot(spec.dominant_left, spec.dominant_right) == pytest.approx(1.0, abs=1e-8)


def test_large_n_run_converges_to_dominant_eigenvector():
    config = xx_config(d=3, jtau=1.2, N=500)
    spec = zeno_spectrum(config)
    record = zeno_run(config, retain_state=True)
    r = spec.dominant_right
    rho = DensityMatrix(np.outer(r, r.conj()) / np.vdot(r, r).real, (3, 3))
    red_eig = partial_trace(rho, {1})
    red_run = partial_trace(record.final_state, {1})
    assert uhlmann_fidelity(red_eig, red_run) > 1 - 1e-6


@pytest.mark.parametrize("config", [
    xx_config(d=3, jtau=1.3, N=1, k=2, Delta=0.6),
    xx_config(d=3, jtau=0.9, N=1, k=1, L=2, Delta=1.0),
    ProtocolConfig(layout=SystemLayout("star", 2, 3), hamiltonian=SpinStarSpec(J=0.8, h=-1.0),
                   tau=1.7, n_measurements=1, rank=2),
    ProtocolConfig(layout=SystemLayout("chain", 1, 4), hamiltonian=BBHSpec(J=1.0, theta=0.7),
                   tau=2.3, n_measurements=1, rank=2),
], ids=["chain-L1", "chain-L2", "star-L2", "bbh-d4"])
def test_spectrum_matches_dense_round_map(config):
    """Eigenvalues and dominant pair against a literal eig of P expm(-i H tau)."""
    low = low_lying_mixture(config.layout.d, config.rank, config.hamiltonian.h).data != 0
    P = embed_operator(low, 0, config.layout.dims)
    M = P @ expm(-1j * config.hamiltonian.build(config.layout) * config.tau)
    dense = np.linalg.eigvals(M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # rank 2 keeps frozen states
        spec = zeno_spectrum(config)
    nonzero = spec.eigenvalues[np.abs(spec.eigenvalues) > 0]
    assert len(nonzero) == np.count_nonzero(P.diagonal())
    assert np.all(spec.eigenvalues[len(nonzero):] == 0)
    # match every eigenvalue to its nearest dense partner, one to one
    dense = dense[np.argsort(-np.abs(dense), kind="stable")][:len(nonzero)]
    rows, cols = linear_sum_assignment(np.abs(nonzero[:, None] - dense[None, :]))
    assert np.max(np.abs(nonzero[rows] - dense[cols])) < 1e-12
    a, r, l = spec.eigenvalues[0], spec.dominant_right, spec.dominant_left
    assert np.max(np.abs(M @ r - a * r)) < 1e-10
    assert np.max(np.abs(l.conj() @ M - a * l.conj())) < 1e-10
    assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(l, r) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_orders_tied_dominant_eigenvalues_by_sector_then_phase():
    """Modulus 1 is shared by sector 5 (states 11 and 14, a unitary 2 x 2 block) and
    sector 6 (state 15): sector 5 comes first, its two eigenvalues by phase."""
    config = xx_config(d=4, jtau=0.7, N=1, k=2, Delta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        spec, again = zeno_spectrum(config), zeno_spectrum(config)
    assert spec.dominant_is_simple is False
    for name in ("eigenvalues", "dominant_right", "dominant_left"):
        assert getattr(spec, name).tobytes() == getattr(again, name).tobytes()
    top = spec.eigenvalues[:4]
    assert np.max(np.abs(np.abs(top[:3]) - 1)) < 1e-12 and abs(top[3]) < 1 - 1e-3
    assert np.angle(top[0]) < np.angle(top[1])
    assert set(np.flatnonzero(np.abs(spec.dominant_right) > 1e-12)) <= {11, 14}
    low = low_lying_mixture(4, 2).data != 0
    M = embed_operator(low, 0, (4, 4)) @ expm(-1j * config.hamiltonian.build(config.layout) * 0.7)
    a, r, l = spec.eigenvalues[0], spec.dominant_right, spec.dominant_left
    assert np.max(np.abs(M @ r - a * r)) < 1e-10
    assert np.max(np.abs(l.conj() @ M - a * l.conj())) < 1e-10
    assert np.vdot(l, r) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_rejects_open_system():
    config = xx_config(d=3, jtau=1.0, N=1,
                       bath=BathSpec(temperature=1.0, gamma=1e-3, omega=1.0))
    with pytest.raises(ValueError):
        zeno_spectrum(config)


# ---- rank differences -------------------------------------------------------

def rank_difference(config, k, matched_preparation=True):
    """p_1^(k)(N) - p_1^(k-1)(N), the cumulative probabilities of two runs at ranks k and k - 1,
    each preparing the regulator as its own rank's mixture, or both as config does."""
    prep = None if matched_preparation else config.prep_rank
    p = [zeno_run(dataclasses.replace(config, rank=rank, regulator_prep=prep))
         .cumulative_probability for rank in (k, k - 1)]
    return p[0] - p[1]


def test_delta_p_zero_coupling():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZSpec(J=0.0, Delta=1.0), tau=1.0,
                            n_measurements=10, rank=2)
    assert abs(rank_difference(config, 2)) < 1e-12


def test_delta_p_single_round_direct_trace():
    config = xx_config(d=3, jtau=1.0, N=1, k=2)
    got = rank_difference(config, 2)
    expect = 0.0
    for rank, sign in ((2, 1.0), (1, -1.0)):
        variant = xx_config(d=3, jtau=1.0, N=1, k=rank)
        expect += sign * np.prod(literal_run(variant)[0])
    assert got == pytest.approx(expect, abs=1e-12)


def test_delta_p_regression_pin():
    # frozen after the first verified run of this build
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 4),
                            hamiltonian=XXZSpec(J=1.0, Delta=1.0), tau=1.0,
                            n_measurements=50, rank=2)
    assert rank_difference(config, 2) == pytest.approx(0.12500000003914663, abs=1e-9)


def test_delta_p_fixed_preparation_flag():
    config = xx_config(d=4, jtau=1.0, N=5, k=2, Delta=1.0)
    matched = rank_difference(config, 2, matched_preparation=True)
    fixed = rank_difference(config, 2, matched_preparation=False)
    assert matched != pytest.approx(fixed, abs=1e-12)  # genuinely different protocols


# ---- config validation -----------------------------------------------------

def test_config_validation():
    layout = SystemLayout("chain", 1, 3)
    with pytest.raises(ValueError):
        ProtocolConfig(layout=layout, hamiltonian=XXZSpec(J=1.0, Delta=0.0),
                       tau=1.0, n_measurements=1, rank=4)
    with pytest.raises(ValueError):
        ProtocolConfig(layout=layout, hamiltonian=XXZSpec(J=1.0, Delta=0.0),
                       tau=1.0, n_measurements=-1, rank=1)
    with pytest.raises(ValueError):
        ProtocolConfig(layout=layout, hamiltonian=SpinStarSpec(J=1.0),
                       tau=1.0, n_measurements=1, rank=1)
    with pytest.raises(ValueError):
        ProtocolConfig(layout=layout, hamiltonian=XXZSpec(J=1.0, Delta=0.0),
                       tau=1.0, n_measurements=1, rank=1, target_betas=(0.0, 0.0))


def test_finite_beta_targets_supported():
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 3),
                            hamiltonian=XXZSpec(J=1.0, Delta=0.0), tau=1.0,
                            n_measurements=3, rank=1, target_betas=(0.7,))
    record = zeno_run(config)
    assert np.all(record.fidelities > 0)
