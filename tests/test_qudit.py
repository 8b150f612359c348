import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_density
from zenocool import DensityMatrix, energy_order, low_lying_mixture, spin_operators, thermal_state
from zenocool.oracles import embed_operator, partial_trace, uhlmann_fidelity
from zenocool.qudit import operator_entries


def commutator(a, b):
    return a @ b - b @ a


def test_spin_half_matrices_exact():
    ops = spin_operators(2)
    assert np.allclose(ops.sz, np.diag([0.5, -0.5]))
    assert np.allclose(ops.sx, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(ops.splus, np.array([[0, 1], [0, 0]]))


def test_spin_one_matrices_exact():
    ops = spin_operators(3)
    assert np.allclose(ops.sz, np.diag([1.0, 0.0, -1.0]))
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2)
    assert np.allclose(ops.sx, sx)


@pytest.mark.parametrize("d", range(2, 33))
def test_spin_algebra_identities(d):
    ops = spin_operators(d)
    s = ops.s
    eye = np.eye(d)
    assert np.max(np.abs(commutator(ops.sx, ops.sy) - 1j * ops.sz)) < 1e-12
    assert np.max(np.abs(commutator(ops.sy, ops.sz) - 1j * ops.sx)) < 1e-12
    assert np.max(np.abs(commutator(ops.sz, ops.sx) - 1j * ops.sy)) < 1e-12
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.max(np.abs(casimir - s * (s + 1) * eye)) < 1e-12
    for m in (ops.sx, ops.sy, ops.sz):
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.max(np.abs(ops.splus - (ops.sx + 1j * ops.sy))) < 1e-12
    assert np.max(np.abs(ops.splus - ops.sminus.conj().T)) < 1e-12
    assert np.allclose(np.diag(ops.sz), s - np.arange(d))


def test_spin_d5_casimir_value():
    ops = spin_operators(5)
    casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
    assert np.allclose(casimir, 6.0 * np.eye(5))


def test_spin_operators_rejects_bad_dimension():
    with pytest.raises(ValueError):
        spin_operators(1)
    with pytest.raises(ValueError):
        spin_operators(0)


def test_local_basis_ordering():
    # ground state is m=-1, i.e. the last computational vector
    assert energy_order(3, 1.0).tolist() == [2, 1, 0]
    assert energy_order(3, -1.0).tolist() == [0, 1, 2]
    assert energy_order(2, 1.0)[0] == 1  # ground = m=-1/2
    with pytest.raises(ValueError):
        energy_order(3, 0.0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_thermal_beta_zero_is_exactly_maximally_mixed(d):
    rho = thermal_state(d, 1.0, 0.0)
    assert np.array_equal(rho.data, np.eye(d) / d)


def test_thermal_beta_infinite_is_ground_projector():
    rho = thermal_state(3, 1.0, math.inf)
    expect = np.zeros((3, 3))
    expect[2, 2] = 1.0
    assert np.allclose(rho.data, expect)


def test_thermal_gibbs_weights_d2():
    # direct Gibbs evaluation: weights exp(-beta*h*m)/Z for m = +-1/2,
    # i.e. (e^{1/2}, e^{-1/2}) / (e^{1/2} + e^{-1/2}) in energy-ascending order
    beta, h = 1.0, 1.0
    w = np.exp(-beta * h * np.array([0.5, -0.5]))
    w /= w.sum()
    rho = thermal_state(2, h, beta)
    assert np.allclose(np.diag(rho.data).real, w)
    assert abs(w[1] - 0.7311) < 1e-4 and abs(w[0] - 0.2689) < 1e-4


@pytest.mark.parametrize("d, h, beta", [(3, 1e200, 1e200), (3, 1.0, 1e308), (4, -1e200, 1e200),
                                         (31, 1.0, 1e307)])
def test_thermal_weights_past_overflow_are_the_beta_inf_state(d, h, beta):
    """Where beta * h * m overflows (NaN before, or an overflow warning), the weights are
    beta = inf's, bit for bit, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = thermal_state(d, h, beta)
    assert np.array_equal(rho.data, thermal_state(d, h, math.inf).data)


@pytest.mark.parametrize("d, h, beta", [(2, 1.0, 1.0), (3, -0.8, 40.0), (5, 1.0, 1e6)])
def test_finite_thermal_weights_are_the_gibbs_formula_bit_for_bit(d, h, beta):
    m = (d - 1) / 2 - np.arange(d)
    w = np.exp(-beta * h * m - np.max(-beta * h * m))
    w /= w.sum()
    assert np.array_equal(np.diag(thermal_state(d, h, beta).data).real, w)


@given(beta=st.floats(0.0, 20.0), d=st.integers(2, 6))
def test_thermal_commutes_with_sz(beta, d):
    rho = thermal_state(d, 1.0, beta)
    sz = spin_operators(d).sz
    assert np.max(np.abs(rho.data @ sz - sz @ rho.data)) < 1e-12


def test_low_lying_mixture_cases():
    assert np.allclose(low_lying_mixture(3, 1).data, np.diag([0, 0, 1.0]))
    assert np.array_equal(low_lying_mixture(4, 4).data, np.eye(4) / 4)
    assert np.allclose(low_lying_mixture(3, 2).data, np.diag([0, 0.5, 0.5]))
    # full-rank mixture equals the infinite-temperature state exactly
    assert np.array_equal(low_lying_mixture(5, 5).data, thermal_state(5, 1.0, 0.0).data)
    with pytest.raises(ValueError):
        low_lying_mixture(3, 0)
    with pytest.raises(ValueError):
        low_lying_mixture(3, 4)


def test_embed_operator_eigenvalue():
    sz = spin_operators(3).sz
    big = embed_operator(sz, 0, [3, 3])
    state = np.zeros(9)
    state[0 * 3 + 1] = 1.0  # |m=1> x |m=0>
    assert np.allclose(big @ state, 1.0 * state)


def test_embed_identity_and_errors():
    assert np.allclose(embed_operator(np.eye(3), 1, [2, 3]), np.eye(6))
    with pytest.raises(ValueError):
        embed_operator(np.eye(2), 2, [2, 3])
    with pytest.raises(ValueError):
        embed_operator(np.eye(2), 1, [2, 3])
    for sites in ((1, 1), (0, 3), (-1, 0)):         # repeated, out of range, negative
        with pytest.raises(ValueError):
            embed_operator(np.eye(4), sites, [2, 2, 2])
    with pytest.raises(ValueError):
        embed_operator(np.eye(4), (0, 1), [2, 3, 2])


def swap_to_system_order(order, dims):
    """Permutation matrix taking kron over slots `order` to kron over slots 0..n-1."""
    D = math.prod(dims)
    perm = np.zeros((D, D))
    for idx in range(D):
        digits = np.unravel_index(idx, [dims[i] for i in order])
        system = [0] * len(dims)
        for slot, digit in zip(order, digits):
            system[slot] = digit
        perm[np.ravel_multi_index(system, dims), idx] = 1.0
    return perm


@pytest.mark.parametrize("sites, dims", [
    ((0, 1), (2, 3, 2)), ((1, 2), (2, 3, 2)), ((1, 0), (2, 3, 2)), ((2, 1), (2, 3, 2)),
    ((0, 2), (2, 3, 2)), ((2, 0), (2, 3, 2)), ((0, 3), (3, 3, 3, 3)), ((3, 1), (2, 3, 2, 3)),
], ids=["adjacent", "adjacent-right", "reversed", "reversed-right", "non-adjacent",
        "non-adjacent-reversed", "hub-to-ring", "mixed-reversed"])
def test_embed_operator_on_a_site_pair_matches_kron_and_swap(sites, dims):
    rng = np.random.default_rng(sum(sites) + len(dims))
    one_site = lambda n: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    products = [(rng.normal(), (one_site(dims[sites[0]]), one_site(dims[sites[1]])))
                for _ in range(3)]
    op = sum(c * np.kron(a, b) for c, (a, b) in products)
    rest = [i for i in range(len(dims)) if i not in sites]
    perm = swap_to_system_order(list(sites) + rest, dims)
    expect = perm @ np.kron(op, np.eye(math.prod(dims[i] for i in rest))) @ perm.T
    got = embed_operator(products, sites, dims)
    assert np.max(np.abs(got - expect)) < 1e-14
    if sites[1] == sites[0] + 1:        # adjacent and in order: a literal kron
        eye = lambda ds: np.eye(math.prod(ds))
        literal = np.kron(np.kron(eye(dims[:sites[0]]), op), eye(dims[sites[1] + 1:]))
        assert np.array_equal(got, literal)


def test_embed_operator_of_a_product_places_each_factor():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3))
    dims = (3, 2, 2)
    pair = embed_operator([(1.0, (a, b))], (2, 0), dims)
    assert np.allclose(pair, embed_operator(a, 2, dims) @ embed_operator(b, 0, dims))
    with pytest.raises(ValueError, match="not a dense matrix"):
        embed_operator(np.kron(a, b), (2, 0), dims)


@pytest.mark.parametrize("places", [
    [0, 1, 2, 3], [(1,), (2,), (3,)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)],
], ids=["chain-one-site", "star-one-site", "chain-two-site", "star-two-site"])
def test_entries_at_several_places_are_the_concatenation_bit_for_bit(places):
    """One call at several places lists, bit for bit and in the same order, the entries of
    one call per place; the last two products cancel, and the elements only they meet are
    dropped."""
    width = len(np.atleast_1d(places[0]))
    rng = np.random.default_rng(7 + width)
    dims = (3, 3, 3, 3)
    one_site = lambda: rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.6) + 1j * np.eye(3)
    factors = [tuple(one_site() for _ in range(width)) for _ in range(4)]
    op = [(rng.normal(), f) for f in factors[:3]] + [(0.5, factors[3]), (-0.5, factors[3])]
    for form in ([op, op[0][1][0]] if width == 1 else [op]):     # a one-site matrix too
        expect = [operator_entries(form, place, dims) for place in places]
        got = operator_entries(form, places, dims)
        for column, want in zip(got, map(np.concatenate, zip(*expect))):
            assert column.dtype == want.dtype and np.array_equal(column, want)
        assert len(got[0]) == len(places) * len(expect[0][0]) > 0
        assert np.array_equal(embed_operator(form, places, dims),
                              sum(embed_operator(form, place, dims) for place in places))


@pytest.mark.parametrize("places, dims, bad", [
    ([(0, 1), (2,)], (2, 2, 2), "(2,)"),                # unequal width
    ([(0, 1), (2, 2)], (2, 2, 2), "(2, 2)"),            # a duplicate slot
    ([(0, 1), (1, 3)], (2, 2, 2), "(1, 3)"),            # out of range
    ([(0, 1), (-1, 0)], (2, 2, 2), "(-1, 0)"),          # negative
    ([(0, 1), (1, 2)], (2, 2, 3), "(1, 2)"),            # equal width, other dims
], ids=["unequal-width", "duplicate", "out-of-range", "negative", "other-dims"])
def test_entries_at_bad_places_raise_naming_the_place(places, dims, bad):
    a = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match=re.escape(f"sites {bad}")):
        operator_entries([(1.0, (a, a))], places, dims)


@given(seed=st.integers(0, 2**32 - 1))
def test_embedded_disjoint_supports_commute(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ea = embed_operator(a, 0, [2, 3])
    eb = embed_operator(b, 1, [2, 3])
    assert np.max(np.abs(ea @ eb - eb @ ea)) < 1e-12


@given(s1=st.integers(0, 2**32 - 1), s2=st.integers(0, 2**32 - 1))
def test_partial_trace_recovers_product_factors(s1, s2):
    a = random_density(3, s1)
    b = random_density(2, s2)
    joint = DensityMatrix(np.kron(a.data, b.data), (3, 2))
    assert np.allclose(partial_trace(joint, {0}).data, a.data)
    assert np.allclose(partial_trace(joint, [1]).data, b.data)


def test_partial_trace_maximally_entangled():
    psi = np.zeros(9)
    for i in range(3):
        psi[i * 3 + i] = 1 / np.sqrt(3)
    rho = DensityMatrix(np.outer(psi, psi.conj()), (3, 3))
    assert np.allclose(partial_trace(rho, {0}).data, np.eye(3) / 3)


def test_partial_trace_preserves_order_and_trace():
    factors = [random_density(2, 1).data, random_density(3, 2).data, random_density(2, 3).data]
    rho = DensityMatrix(np.kron(np.kron(*factors[:2]), factors[2]), (2, 3, 2))
    red = partial_trace(rho, {2, 0})
    assert red.dims == (2, 2)  # system order, not request order
    assert np.isclose(np.trace(red.data).real, 1.0)
    with pytest.raises(ValueError):
        partial_trace(rho, set())


def test_fidelity_identity_and_pure_vs_mixed():
    rho = random_density(4, 7)
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-10
    pure = DensityMatrix(np.diag([1.0, 0, 0]), (3,))
    mixed = thermal_state(3, 1.0, 0.0)
    assert abs(uhlmann_fidelity(pure, mixed) - 1 / 3) < 1e-12


@given(s1=st.integers(0, 2**32 - 1), s2=st.integers(0, 2**32 - 1))
def test_fidelity_symmetric(s1, s2):
    rho = random_density(4, s1)
    sigma = random_density(4, s2)
    assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_fidelity_pure_state_reduction(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    pure = DensityMatrix(np.outer(v, v.conj()), (4,))
    sigma = random_density(4, seed ^ 0xDEADBEEF)
    expect = float(np.real(v.conj() @ sigma.data @ v))
    assert abs(uhlmann_fidelity(pure, sigma) - expect) < 1e-10


def test_fidelity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        uhlmann_fidelity(random_density(3, 0), random_density(4, 0))
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        uhlmann_fidelity(DensityMatrix(bad, (3,)), random_density(3, 1))


def test_density_matrix_invariants_enforced():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]), (2,))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2,))  # dims mismatch
    rho = DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))
    with pytest.raises(ValueError):
        rho.validate()
