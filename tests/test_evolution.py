import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import random_density, random_hermitian
from zenocool import (
    BathSpec,
    BBHSpec,
    DensityMatrix,
    LindbladPropagator,
    ProtocolConfig,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
    spin_operators,
    thermal_state,
)
from zenocool.evolution import DENSE_BYTES, generator_entries, hermitian_entries, stored_dense
from zenocool.oracles import dissipator, liouvillian, real_coordinates, unitary
from zenocool.protocol import _hamiltonian, _sector_labels


def propagate(prop: LindbladPropagator, vectors: np.ndarray, tau: float, subspace: np.ndarray,
              D: int) -> np.ndarray:
    """exp(L tau) on Hermitian vec(rho) entries over `subspace` (first axis), through the
    propagator's real Hermitian coordinates."""
    coordinates = prop.apply(real_coordinates(vectors, subspace, D), tau)
    return hermitian_entries(coordinates, subspace, D)


def lindblad_evolve(rho: DensityMatrix, H: np.ndarray, bath: BathSpec,
                    tau: float) -> DensityMatrix:
    """exp(L tau) rho through the propagator; the trace must hold to 1e-8."""
    D = rho.data.shape[0]
    out = propagate(LindbladPropagator(H, bath, rho.dims), rho.data.reshape(-1), tau,
                    np.arange(D * D), D).reshape(D, D)
    tr = np.trace(out).real
    assert abs(tr - 1.0) <= 1e-8, f"trace drift {abs(tr - 1.0):.3e} over tau={tau}"
    return DensityMatrix(out / tr, rho.dims)


def model_config(seed: int, tau: float) -> ProtocolConfig:
    """A d=3 XXZ chain, BBH chain or spin star (by seed) with couplings drawn from seed."""
    rng = np.random.default_rng(seed)
    J, x, h = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.5, 2)
    layout, ham = (
        (SystemLayout("chain", 2, 3), XXZSpec(J=J, Delta=x, h=h)),
        (SystemLayout("chain", 2, 3), BBHSpec(J=J, theta=x, h=h)),
        (SystemLayout("star", 2, 3), SpinStarSpec(J=J, h=h)),
    )[seed % 3]
    return ProtocolConfig(layout=layout, hamiltonian=ham, tau=tau, n_measurements=1, rank=1)


def test_propagator_tau_zero_is_identity():
    for seed in range(3):
        assert np.allclose(unitary(model_config(seed, 0.0)), np.eye(27))


def test_propagator_single_spin_diagonal():
    # zero coupling leaves the field h (Sz_0 + Sz_1): U is diagonal in the Sz basis
    tau = 0.7
    config = ProtocolConfig(layout=SystemLayout("chain", 1, 2),
                            hamiltonian=XXZSpec(J=0.0, Delta=0.0), tau=tau,
                            n_measurements=1, rank=1)
    m_tot = np.array([1.0, 0.0, 0.0, -1.0])
    assert np.allclose(unitary(config), np.diag(np.exp(-1j * tau * m_tot)))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_propagator_matches_power_series(seed):
    config = model_config(seed, 0.1)
    U = unitary(config)
    A = -1j * config.hamiltonian.build(config.layout) * config.tau
    series = np.zeros_like(A)
    term = np.eye(len(A), dtype=complex)
    for n in range(31):
        series += term
        term = term @ A / (n + 1)
    assert np.max(np.abs(U - series)) < 1e-10
    assert np.max(np.abs(U - expm(A))) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), t1=st.floats(-3, 3), t2=st.floats(-3, 3))
@settings(max_examples=20)
def test_propagator_unitary_and_group_law(seed, t1, t2):
    config = model_config(seed, t1)
    U1 = unitary(config)
    U2 = unitary(model_config(seed, t2))
    U12 = unitary(model_config(seed, t1 + t2))
    assert np.max(np.abs(U1 @ U1.conj().T - np.eye(27))) < 1e-10
    assert np.max(np.abs(U1 @ U2 - U12)) < 1e-9
    assert np.max(np.abs(U1 - expm(-1j * config.hamiltonian.build(config.layout) * t1))) < 1e-9


def test_dissipator_gamma_zero():
    bath = BathSpec(temperature=1.0, gamma=0.0, omega=1.0, site=0)
    out = dissipator(random_density(3, 0), bath)
    assert np.array_equal(out, np.zeros((3, 3)))


@given(seed=st.integers(0, 2**32 - 1))
def test_dissipator_traceless(seed):
    bath = BathSpec(temperature=0.8, gamma=0.3, omega=1.0, site=1)
    rho = random_density(9, seed, dims=(3, 3))
    out = dissipator(rho, bath)
    assert abs(np.trace(out)) < 1e-12


def test_two_level_decay_rate():
    # zero-temperature limit: n -> 0, excited population decays at gamma/4
    gamma = 0.2
    bath = BathSpec(temperature=1e-6, gamma=gamma, omega=1.0, site=0)
    sz = spin_operators(2).sz
    excited = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    t = 3.0
    out = lindblad_evolve(excited, 1.0 * sz, bath, t)
    assert abs(out.data[0, 0].real - math.exp(-gamma * t / 4)) < 1e-6


def test_occupancy_guards():
    with pytest.raises(ValueError):
        BathSpec(temperature=-1.0, gamma=0.1, omega=1.0).occupancy()
    with pytest.raises(ValueError):
        BathSpec(temperature=1.0, gamma=0.1, omega=0.0).occupancy()
    with pytest.raises(ValueError):
        BathSpec(temperature=1.0, gamma=-0.1, omega=1.0)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_lindblad_gamma_zero_equals_unitary(seed):
    rho = random_density(9, seed, dims=(3, 3))
    H = random_hermitian(9, seed ^ 0xABCD)
    bath = BathSpec(temperature=1.0, gamma=0.0, omega=1.0, site=1)
    out = lindblad_evolve(rho, H, bath, 0.9)
    U = expm(-1j * H * 0.9)
    expect = U @ rho.data @ U.conj().T
    assert np.max(np.abs(out.data - expect)) < 1e-10


def test_lindblad_reaches_gibbs_state():
    d, h, T = 4, 1.0, 1.0
    bath = BathSpec(temperature=T, gamma=0.1, omega=h, site=0)
    H = h * spin_operators(d).sz
    rho = lindblad_evolve(thermal_state(d, h, 0.0), H, bath, 800.0)
    assert np.max(np.abs(rho.data - thermal_state(d, h, 1.0 / T).data)) < 1e-8


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_lindblad_preserves_trace(seed):
    rho = random_density(4, seed, dims=(2, 2))
    H = random_hermitian(4, seed ^ 0x1234)
    bath = BathSpec(temperature=1.0, gamma=0.05, omega=1.0, site=1)
    out = lindblad_evolve(rho, H, bath, 2.0)
    assert abs(np.trace(out.data).real - 1.0) < 1e-8


def test_lindblad_gamma_continuity():
    rho = random_density(9, 11, dims=(3, 3))
    H = random_hermitian(9, 12)
    tau = 1.0
    U = expm(-1j * H * tau)
    unitary = U @ rho.data @ U.conj().T
    diffs = {}
    for gamma in (1e-6, 1e-5):
        bath = BathSpec(temperature=1.0, gamma=gamma, omega=1.0, site=1)
        out = lindblad_evolve(rho, H, bath, tau)
        diffs[gamma] = np.max(np.abs(out.data - unitary))
        assert diffs[gamma] <= 100 * gamma
    ratio = diffs[1e-5] / diffs[1e-6]
    assert 5 < ratio < 20


def test_lindblad_propagator_matches_dense_expm():
    for dims, seed in (((3, 3), 21), ((4, 4), 23)):
        D = math.prod(dims)
        rho = random_density(D, seed, dims=dims)
        H = random_hermitian(D, seed + 1)
        bath = BathSpec(temperature=1.0, gamma=0.2, omega=1.0, site=1)
        for tau in (0.8, 2 * math.pi):
            ref = expm(liouvillian(H, bath, dims).toarray() * tau) @ rho.data.reshape(-1)
            got = propagate(LindbladPropagator(H, bath, dims), rho.data.reshape(-1), tau,
                            np.arange(D * D), D)
            assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("site", [0, None], ids=["regulator", "farthest"])
@pytest.mark.parametrize("layout, ham", [
    (SystemLayout("chain", 2, 3), XXZSpec(J=0.7, Delta=-1.3, h=1.1)),
    (SystemLayout("chain", 2, 3), BBHSpec(J=0.7, theta=0.9, h=1.1)),
    (SystemLayout("star", 2, 3), SpinStarSpec(J=0.7, h=1.1)),
], ids=["xxz", "bbh", "star"])
def test_liouvillian_keeps_sector_diagonal_subspace(layout, ham, site):
    """Entries (i, j) with Sz_tot(i) = Sz_tot(j) map only into such entries: exactly."""
    label = _sector_labels(layout)
    kept = (label[:, None] == label[None, :]).ravel()
    bath = BathSpec(temperature=0.8, gamma=0.3, omega=1.1, site=site)
    L = liouvillian(ham.build(layout), bath, layout.dims).toarray()
    assert np.count_nonzero(L[np.ix_(~kept, kept)]) == 0
    assert np.count_nonzero(L[np.ix_(kept, kept)]) > 0


def test_liouvillian_matches_direct_dissipator():
    rho = random_density(9, 31, dims=(3, 3))
    H = random_hermitian(9, 32)
    bath = BathSpec(temperature=1.0, gamma=0.4, omega=1.0, site=0)
    L = liouvillian(H, bath, (3, 3))
    lhs = (L @ rho.data.reshape(-1)).reshape(9, 9)
    rhs = -1j * (H @ rho.data - rho.data @ H) + dissipator(rho, bath)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def sector_generator(layout, ham, site, bath=None):
    """The engine's sector-diagonal subspace, its propagator, and L restricted to it."""
    label = _sector_labels(layout)
    kept = np.flatnonzero(label[:, None] == label[None, :])
    if bath is None:
        bath = BathSpec(temperature=0.8, gamma=0.3, omega=1.1, site=site)
    entries = _hamiltonian(layout, ham)
    prop = LindbladPropagator(entries, bath, layout.dims, subspace=kept)
    L = liouvillian(ham.build(layout), bath, layout.dims)[kept][:, kept].toarray()
    return kept, entries, bath, prop, L


MODELS = {"xxz": XXZSpec(J=0.7, Delta=-1.3, h=1.1), "bbh": BBHSpec(J=0.7, theta=0.9, h=1.1),
          "star": SpinStarSpec(J=0.7, h=1.1)}


# the engine's two generator formats: K = 141 at L=2, d=3 is stored dense, K = 1107 at L=3,
# d=3 in CSR
FORMATS = pytest.mark.parametrize("L", [2, 3], ids=["dense", "csr"])


@pytest.mark.parametrize("site", [0, None], ids=["regulator", "farthest"])
@FORMATS
@pytest.mark.parametrize("model", ["xxz", "bbh", "star"])
def test_generator_entries_match_the_restricted_liouvillian(model, L, site):
    """L's entries on the sector-diagonal subspace, listed from H's and A's entries, are
    `liouvillian(...)[kept][:, kept]`, on a dense and on a CSR generator."""
    ham = MODELS[model]
    layout = SystemLayout(ham.topology, L, 3)
    kept, entries, bath, prop, L_kept = sector_generator(layout, ham, site)
    rows, cols, values = generator_entries(entries, bath, layout.dims, kept)
    got = np.zeros_like(L_kept)
    got[rows, cols] = values
    assert np.max(np.abs(got - L_kept)) <= 1e-15
    assert isinstance(prop._generator, np.ndarray) == stored_dense(len(kept)) == (L == 2)


@pytest.mark.parametrize("site", [0, None], ids=["regulator", "farthest"])
@FORMATS
@pytest.mark.parametrize("model", ["xxz", "bbh", "star"])
def test_stored_generator_is_the_liouvillian_in_hermitian_coordinates(model, L, site):
    """The stored generator plus mu I is `liouvillian(...)[kept][:, kept]` written in real
    Hermitian coordinates: column h is the coordinates of L's image of the Hermitian state
    whose coordinates are the unit vector e_h."""
    ham = MODELS[model]
    layout = SystemLayout(ham.topology, L, 3)
    kept, _, _, prop, L_kept = sector_generator(layout, ham, site)
    D, K = layout.d ** layout.n_sites, len(kept)
    ref = real_coordinates(L_kept @ hermitian_entries(np.eye(K), kept, D), kept, D)
    stored = prop._generator if L == 2 else prop._generator.toarray()
    assert stored.dtype == np.float64
    assert np.max(np.abs(stored + prop._mu * np.eye(K) - ref)) <= 1e-15


def test_hermitian_coordinates_round_trip():
    """Coordinates and entries invert each other on Hermitian states, and the coordinates are
    rho_aa, Re rho_ab (a < b) at (a, b) and Im rho_ab at (b, a)."""
    D = 4
    rho = random_density(D, 3).data
    subspace = np.arange(D * D)
    r = real_coordinates(rho.reshape(-1), subspace, D).reshape(D, D)
    assert np.array_equal(np.triu(r), np.triu(rho.real))
    assert np.array_equal(np.tril(r, -1), np.tril(rho.conj().imag, -1))
    assert np.array_equal(hermitian_entries(r.reshape(-1), subspace, D), rho.reshape(-1))
    with pytest.raises(ValueError, match="real Hermitian coordinates"):
        LindbladPropagator(rho, BathSpec(temperature=1.0, gamma=0.1), (D,)).apply(
            rho.reshape(-1), 1.0)


def test_dense_rule_counts_float64_entries():
    """A generator is dense up to 8 K^2 bytes: K = 580 (L=2, d=4), over 16 K^2 <= DENSE_BYTES's
    K <= 512, is stored dense and still matches the restricted Liouvillian."""
    layout = SystemLayout("chain", 2, 4)
    kept, _, _, prop, L = sector_generator(layout, XXZSpec(J=0.7, Delta=-1.3, h=1.1), None)
    assert len(kept) == 580 and 16 * 580 ** 2 > DENSE_BYTES
    assert isinstance(prop._generator, np.ndarray)
    D = layout.d ** layout.n_sites
    ref = real_coordinates(L @ hermitian_entries(np.eye(len(kept)), kept, D), kept, D)
    assert np.max(np.abs(prop._generator + prop._mu * np.eye(len(kept)) - ref)) <= 1e-15


@pytest.mark.parametrize("tau", [0.3, 2.0, 2 * math.pi])
def test_apply_matches_dense_expm_above_the_dense_size(tau):
    """On the CSR side (K = 1107 at L=3, d=3, over 724) the Taylor action agrees with exp(L tau)
    of the dense restricted L on a block of Hermitian states."""
    layout = SystemLayout("chain", 3, 3)
    kept, _, _, prop, L = sector_generator(layout, BBHSpec(J=0.7, theta=0.9, h=1.1), None)
    assert not stored_dense(len(kept))
    D = layout.d ** layout.n_sites
    X = hermitian_entries(np.random.default_rng(5).normal(size=(len(kept), 4)), kept, D)
    ref = expm(L * tau) @ X
    assert np.max(np.abs(propagate(prop, X, tau, kept, D) - ref)) <= 1e-12 * np.max(np.abs(ref))


def real_generator(layout, ham, bath):
    """The propagator on the sector-diagonal subspace and its unshifted real generator G,
    read from the restricted Liouvillian: column h is the coordinates of L's image of the
    Hermitian state whose coordinates are e_h."""
    kept, _, _, prop, L = sector_generator(layout, ham, None, bath)
    D, K = layout.d ** layout.n_sites, len(kept)
    return prop, real_coordinates(L @ hermitian_entries(np.eye(K), kept, D), kept, D)


XXZ_1 = XXZSpec(J=1.0, Delta=1.0, h=1.0)
COLD = BathSpec(temperature=1.0, gamma=1e-3, omega=1.0)


@pytest.mark.parametrize("L, d, ham, bath, tau, x", [
    (1, 3, XXZ_1, BathSpec(temperature=1.0, gamma=1e4, omega=1.0), 1.0, 1.4e4),
    (1, 3, XXZ_1, BathSpec(temperature=1.0, gamma=1e4, omega=1.0), 6.0, 8.5e4),
    (1, 3, XXZSpec(J=30.0, Delta=1.0, h=1.0), COLD, 1.0, 120),
    (1, 4, XXZ_1, BathSpec(temperature=5.0, gamma=1e3, omega=1.0), 1.0, 1.1e4),
    (1, 5, XXZSpec(J=30.0, Delta=1.0, h=1.0), COLD, 1.0, 360),
    (2, 3, XXZ_1, COLD, 0.05, 0.4),
    (2, 3, XXZ_1, COLD, 6.0, 48),
    (1, 8, XXZ_1, COLD, 1.0, 31),
], ids=["d3-gamma1e4", "d3-gamma1e4-tau6", "d3-J30", "d4-gamma1e3-T5", "d5-J30", "L2-Jtau0.05",
        "L2-Jtau6", "d8"])
def test_dense_apply_on_the_identity_matches_expm(L, d, ham, bath, tau, x):
    """A dense generator's exp(G tau) agrees with scipy's expm of the unshifted real generator
    from x = |(L - mu I) tau|_1 = 0.4 (no squaring) to 8.5e4 (17 squarings, where a shift
    folded in after them overflows): 1e-12 of its largest entry up to x = 400, 1e-10 above."""
    layout = SystemLayout("chain", L, d)
    prop, G = real_generator(layout, ham, bath)
    assert isinstance(prop._generator, np.ndarray)
    assert tau * prop._norm == pytest.approx(x, rel=0.05)
    ref = expm(G * tau)
    got = prop.exponential(tau)
    bound = 1e-12 if x <= 400 else 1e-10
    assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref))


@pytest.mark.parametrize("tau", [1.0, 6.0])
def test_squaring_a_block_matches_its_columns_one_at_a_time(tau):
    """On the L=2, d=3 generator (K = 141) the exponential times a block of 71 columns, as wide
    as a bath run's round map, agrees with the Taylor action on each column alone to 1e-12 of
    the block's largest entry."""
    layout = SystemLayout("chain", 2, 3)
    kept, _, _, prop, _ = sector_generator(layout, XXZ_1, None, COLD)
    D = layout.d ** layout.n_sites
    rho = random_density(D, 7).data.reshape(-1)[kept]
    block = real_coordinates(rho[:, None] * np.random.default_rng(3).uniform(size=71), kept, D)
    got = prop.exponential(tau) @ block
    columns = np.column_stack([prop.apply(column, tau) for column in block.T])
    assert np.max(np.abs(got - columns)) <= 1e-12 * np.max(np.abs(columns))
