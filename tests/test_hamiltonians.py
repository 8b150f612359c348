import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenocool import (
    SystemLayout,
    build_bbh,
    build_spin_star,
    build_xxz,
    embed_operator,
    spin_operators,
)

finite = st.floats(-3.0, 3.0, allow_nan=False)


def total_sz(d, n_sites):
    sz = spin_operators(d).sz
    dims = [d] * n_sites
    return sum(embed_operator(sz, i, dims) for i in range(n_sites))


def test_xxz_zero_coupling_is_diagonal_field():
    layout = SystemLayout("chain", 2, 3)
    H = build_xxz(layout, J=0.0, Delta=1.0, h=0.7)
    assert np.allclose(H, 0.7 * total_sz(3, 3))


def test_xx_bond_spectrum_d2():
    # lone XX bond: singlet/triplet splitting gives {-J/2, 0, 0, +J/2}
    layout = SystemLayout("chain", 1, 2)
    H = build_xxz(layout, J=1.3, Delta=0.0, h=0.0)
    assert np.allclose(np.linalg.eigvalsh(H), [-0.65, 0.0, 0.0, 0.65])


@given(J=finite, Delta=finite, h=finite)
def test_xxz_conserves_total_sz(J, Delta, h):
    layout = SystemLayout("chain", 2, 3)
    H = build_xxz(layout, J, Delta, h)
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
    assert np.allclose(build_xxz(layout, 1.1, 0.0, 0.9), expect)


def test_xxz_rejects_star_layout():
    with pytest.raises(ValueError):
        build_xxz(SystemLayout("star", 2, 3), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_bbh(SystemLayout("star", 2, 3), 1.0, 0.0, 1.0)


def test_bbh_theta_zero_is_bilinear():
    layout = SystemLayout("chain", 1, 3)
    ops = spin_operators(3)
    ss = sum(np.kron(m, m) for m in (ops.sx, ops.sy, ops.sz))
    expect = 1.4 * ss + 0.8 * total_sz(3, 2)
    assert np.allclose(build_bbh(layout, J=1.4, theta=0.0, h=0.8), expect)


@given(J=finite, theta=st.floats(-np.pi, np.pi), h=finite)
def test_bbh_conserves_total_sz(J, theta, h):
    layout = SystemLayout("chain", 1, 3)
    H = build_bbh(layout, J, theta, h)
    S = total_sz(3, 2)
    assert np.max(np.abs(H @ S - S @ H)) < 1e-12


def test_bbh_pure_biquadratic_spectrum():
    layout = SystemLayout("chain", 1, 3)
    H = build_bbh(layout, J=1.0, theta=np.pi / 2, h=0.0)
    ops = spin_operators(3)
    ss = sum(np.kron(m, m) for m in (ops.sx, ops.sy, ops.sz))
    assert np.allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(ss @ ss))


def test_star_zero_coupling_is_hub_field():
    H = build_spin_star(L=2, d=2, J=0.0, h=1.3)
    sz = spin_operators(2).sz
    assert np.allclose(H, 1.3 * embed_operator(sz, 0, [2, 2, 2]))


def test_star_ring_permutation_symmetry():
    d, L = 2, 3
    H = build_spin_star(L=L, d=d, J=0.9, h=1.1)
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
    H = build_spin_star(L=2, d=2, J=1.0, h=1.0)
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
    for H in (build_xxz(chain, J, Delta, h), build_bbh(chain, J, theta, h),
              build_spin_star(2, 2, J, h)):
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
    assert np.array_equal(build_spin_star(L, d, J, h), expect)
