import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenocool import (
    BBHSpec,
    ProtocolConfig,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
    spin_operators,
)
from conftest import clear_caches
from zenocool.oracles import embed_operator
from zenocool.qudit import operator_entries

finite = st.floats(-3.0, 3.0, allow_nan=False)


def total_sz(d, n_sites):
    sz = spin_operators(d).sz
    dims = [d] * n_sites
    return sum(embed_operator(sz, i, dims) for i in range(n_sites))


def test_xxz_zero_coupling_is_diagonal_field():
    layout = SystemLayout("chain", 2, 3)
    H = XXZSpec(J=0.0, Delta=1.0, h=0.7).build(layout)
    assert np.allclose(H, 0.7 * total_sz(3, 3))


def test_xx_bond_spectrum_d2():
    # lone XX bond: singlet/triplet splitting gives {-J/2, 0, 0, +J/2}
    layout = SystemLayout("chain", 1, 2)
    H = XXZSpec(J=1.3, Delta=0.0, h=0.0).build(layout)
    assert np.allclose(np.linalg.eigvalsh(H), [-0.65, 0.0, 0.0, 0.65])


@given(J=finite, Delta=finite, h=finite)
def test_xxz_conserves_total_sz(J, Delta, h):
    layout = SystemLayout("chain", 2, 3)
    H = XXZSpec(J, Delta, h).build(layout)
    S = total_sz(3, 3)
    assert np.max(np.abs(H @ S - S @ H)) < 1e-12


def test_xxz_delta_zero_equals_xx_matrix():
    layout = SystemLayout("chain", 2, 3)
    ops = spin_operators(3)
    xx_bond = np.kron(ops.sx, ops.sx) + np.kron(ops.sy, ops.sy)
    dims = layout.dims
    eye = lambda n: np.eye(n, dtype=complex)
    expect = (np.kron(1.1 * xx_bond, eye(3)) + np.kron(eye(3), 1.1 * xx_bond)
              + 0.9 * total_sz(3, 3))
    assert np.allclose(XXZSpec(1.1, 0.0, 0.9).build(layout), expect)


def test_xxz_rejects_star_layout():
    cases = ((XXZSpec(1.0, 0.0, 1.0), "star"), (BBHSpec(1.0, 0.0, 1.0), "star"),
             (SpinStarSpec(1.0, 1.0), "chain"))
    for ham, topology in cases:
        with pytest.raises(ValueError, match=f"requires the {ham.topology} layout"):
            ProtocolConfig(layout=SystemLayout(topology, 2, 3), hamiltonian=ham, tau=1.0,
                           n_measurements=1, rank=1)


def test_bbh_theta_zero_is_bilinear():
    layout = SystemLayout("chain", 1, 3)
    ops = spin_operators(3)
    ss = sum(np.kron(m, m) for m in (ops.sx, ops.sy, ops.sz))
    expect = 1.4 * ss + 0.8 * total_sz(3, 2)
    assert np.allclose(BBHSpec(J=1.4, theta=0.0, h=0.8).build(layout), expect)


@given(J=finite, theta=st.floats(-np.pi, np.pi), h=finite)
def test_bbh_conserves_total_sz(J, theta, h):
    layout = SystemLayout("chain", 1, 3)
    H = BBHSpec(J, theta, h).build(layout)
    S = total_sz(3, 2)
    assert np.max(np.abs(H @ S - S @ H)) < 1e-12


def test_bbh_pure_biquadratic_spectrum():
    layout = SystemLayout("chain", 1, 3)
    H = BBHSpec(J=1.0, theta=np.pi / 2, h=0.0).build(layout)
    ops = spin_operators(3)
    ss = sum(np.kron(m, m) for m in (ops.sx, ops.sy, ops.sz))
    assert np.allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(ss @ ss))


def test_star_zero_coupling_is_hub_field():
    H = SpinStarSpec(J=0.0, h=1.3).build(SystemLayout("star", 2, 2))
    sz = spin_operators(2).sz
    assert np.allclose(H, 1.3 * embed_operator(sz, 0, [2, 2, 2]))


def test_star_ring_permutation_symmetry():
    d, L = 2, 3
    H = SpinStarSpec(J=0.9, h=1.1).build(SystemLayout("star", L, d))
    # swap ring sites 1 and 2 (hub is site 0)
    dims = [d] * (L + 1)
    D = d ** (L + 1)
    perm = np.zeros((D, D))
    for idx in range(D):
        digits = np.unravel_index(idx, dims)
        swapped = (digits[0], digits[2], digits[1], digits[3])
        perm[np.ravel_multi_index(swapped, dims), idx] = 1.0
    assert np.max(np.abs(perm @ H @ perm.T - H)) < 1e-12


def test_star_spectrum_direct_8x8():
    H = SpinStarSpec(J=1.0, h=1.0).build(SystemLayout("star", 2, 2))
    ops = spin_operators(2)
    dims = [2, 2, 2]
    direct = embed_operator(ops.sz, 0, dims).astype(complex)
    for i in (1, 2):
        direct += (embed_operator(ops.sx, 0, dims) @ embed_operator(ops.sx, i, dims)
                   + embed_operator(ops.sy, 0, dims) @ embed_operator(ops.sy, i, dims))
    assert np.allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(direct))


@given(J=finite, Delta=finite, h=finite, theta=st.floats(-np.pi, np.pi))
def test_builders_hermitian(J, Delta, h, theta):
    chain = SystemLayout("chain", 1, 3)
    for H in (XXZSpec(J, Delta, h).build(chain), BBHSpec(J, theta, h).build(chain),
              SpinStarSpec(J, h).build(SystemLayout("star", 2, 2))):
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


@pytest.mark.parametrize("L, d, J, h", [(1, 2, 0.7, 1.1), (3, 3, -1.3, -0.4), (2, 4, 2.1, 0.9)])
def test_star_matches_hub_ring_products(L, d, J, h):
    """The star's bond terms, against products of single-site embeddings on the hub and ring."""
    ops = spin_operators(d)
    dims = [d] * (L + 1)
    expect = h * embed_operator(ops.sz, 0, dims)
    sx0 = embed_operator(ops.sx, 0, dims)
    sy0 = embed_operator(ops.sy, 0, dims)
    for i in range(1, L + 1):
        expect += J * (sx0 @ embed_operator(ops.sx, i, dims) + sy0 @ embed_operator(ops.sy, i, dims))
    assert np.array_equal(SpinStarSpec(J, h).build(SystemLayout("star", L, d)), expect)


def embedded_sum(spec, layout):
    """H as a literal sum of dense `embed_operator` terms: each bond, then each field."""
    ops = spin_operators(layout.d)
    chain = layout.topology == "chain"
    H = np.zeros((layout.d ** layout.n_sites,) * 2, dtype=complex)
    for j in range(layout.L):
        H += embed_operator(spec.bond(ops), (j, j + 1) if chain else (0, j + 1), layout.dims)
    for site in range(layout.n_sites if chain else 1):
        H += embed_operator(spec.h * ops.sz, site, layout.dims)
    return H


# the chain models with exactly zero coefficients: Delta = 0 or theta = 0 zeroes a term, and
# its local entries drop out of the listing
MODELS = {"xxz": lambda h: XXZSpec(J=1.1, Delta=0.6, h=h),
          "bbh": lambda h: BBHSpec(J=0.9, theta=0.7, h=h),
          "star": lambda h: SpinStarSpec(J=1.2, h=h),
          "xxz-Delta0": lambda h: XXZSpec(J=1.1, Delta=0.0, h=h),
          "bbh-theta0": lambda h: BBHSpec(J=0.9, theta=0.0, h=h)}


@pytest.mark.parametrize("h", [0.8, -1.3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("model", list(MODELS))
def test_build_is_the_scatter_of_the_embedded_terms(model, L, d, h):
    """`build` scatters the entries into zeros in the order of the embedded sum, bit for bit,
    from whatever listing the caches hold and after clearing every cache."""
    spec = MODELS[model](h)
    layout = SystemLayout(spec.topology, L, d)
    expect = embedded_sum(spec, layout)
    assert np.array_equal(spec.build(layout), expect)
    clear_caches()
    assert np.array_equal(spec.build(layout), expect)


@pytest.mark.parametrize("spec", [XXZSpec(J=1.0, Delta=1.0), BBHSpec(J=1.0, theta=0.7),
                                  SpinStarSpec(J=1.0)], ids=["xxz", "bbh", "star"])
def test_entries_of_a_d31_bond_need_no_dense_bond(spec):
    """At L=1 the bond is the whole H, 961 x 961: its entries come from its factors, so
    listing them traces far less than one dense d^2 x d^2 complex bond (14.8 MB)."""
    layout = SystemLayout(spec.topology, 1, 31)
    tracemalloc.start()
    try:
        rows, _, _ = spec.entries(layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(rows) and peak < 2 * 2 ** 20


# listed in turn on one layout: models and parameters alternate, and the star's bonds go from
# site 0 to every other site of the same sites
ALTERNATING = (XXZSpec(J=0.7, Delta=0.3), BBHSpec(J=1.0, theta=0.7),
               XXZSpec(J=1.1, Delta=0.0, h=-0.8), SpinStarSpec(J=0.7, h=-1.2),
               BBHSpec(J=0.9, theta=0.0, h=-1.3), XXZSpec(J=0.7, Delta=0.3))


@pytest.mark.parametrize("specs, layout", [
    ((BBHSpec(J=1.0, theta=0.7),), SystemLayout("chain", 4, 3)),
    ((XXZSpec(J=0.7, Delta=0.3),), SystemLayout("chain", 3, 4)),     # J Delta is rounded
    ((SpinStarSpec(J=0.7, h=-1.2),), SystemLayout("star", 3, 3)),
    *[(ALTERNATING, SystemLayout("chain", L, d)) for L in (1, 2, 3) for d in (2, 3, 4, 5)],
], ids=["bbh-L4", "xxz-inexact-JDelta", "star",
        *[f"alternating-L{L}-d{d}" for L in (1, 2, 3) for d in (2, 3, 4, 5)]])
def test_entries_expand_each_bond_once_bit_for_bit(specs, layout):
    """The bond and the field, expanded once and placed at every position, list the same
    entries as placing each term with `operator_entries`, in the same order; each spec's
    listing, from the caches the spec before it left, is the one built after clearing every
    cache."""
    clear_caches()
    for spec in specs:
        ops = spin_operators(layout.d)
        chain = spec.topology == "chain"
        terms = [(spec.bond(ops), (j, j + 1) if chain else (0, j + 1)) for j in range(layout.L)]
        terms += [(spec.h * ops.sz, site) for site in range(layout.n_sites if chain else 1)]
        parts = [operator_entries(op, sites, layout.dims) for op, sites in terms]
        expect = tuple(map(np.concatenate, zip(*parts)))
        got = spec.entries(layout)
        clear_caches()
        for listing in (got, spec.entries(layout)):
            for column, want in zip(listing, expect):
                assert column.dtype == want.dtype and np.array_equal(column, want)


@pytest.mark.parametrize("L, d", [(1, 2), (1, 3), (4, 3), (1, 31), (2, 5), (1, 8)])
@pytest.mark.parametrize("spec", [
    XXZSpec(J=1.0, Delta=1.0), XXZSpec(J=0.7, Delta=-1.3), BBHSpec(J=1.0, theta=0.7),
    BBHSpec(J=1.0, theta=-5 * math.pi / 8), BBHSpec(J=1.0, theta=math.pi / 4),
    BBHSpec(J=1.0, theta=-math.pi / 2), SpinStarSpec(J=1.0),
], ids=["xxz", "xxz-J0.7-D-1.3", "bbh-0.7", "bbh--5pi/8", "bbh-pi/4", "bbh--pi/2", "star"])
def test_norm_bounds_the_exact_column_sum_norm_within_2_1(spec, L, d):
    layout = SystemLayout(spec.topology, L, d)
    exact = np.abs(spec.build(layout)).sum(axis=0).max()
    # up to the rounding of the two sums
    assert exact * (1 - 1e-12) <= spec.norm(layout) <= 2.1 * exact
