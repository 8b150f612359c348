"""Open-system (local master equation) evolution.

The dissipative channel is a single lowering operator A = S^-/2 on one site
at frequency omega (the uniform Sz ladder gap), with thermal occupancy
n = 1/(exp(omega/T) - 1).  rho is vectorized by row stacking.
`generator_entries` lists the Liouvillian's entries on a subspace of
vec(rho) straight from H's entries and A's, without forming the D^2 x D^2
superoperator.  L preserves Hermiticity, so on a subspace that holds each
entry's transpose it is a real linear map of rho's Hermitian coordinates
(`hermitian_coordinates`: rho_aa, and Re and Im of rho_ab, a < b, at (a, b)
and (b, a)).  `LindbladPropagator` folds L's complex entries into that real
generator once.  A generator of at most DENSE_BYTES is a dense float64 array,
and `exponential` forms exp(L tau) from it by scaling and squaring
(Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)): the K x K
degree-18 Taylor approximant of exp(L tau / 2^j) by Paterson-Stockmeyer,
squared j times.  A larger one is a real scipy CSR matrix, and only then is
scipy imported; `apply` runs the truncated Taylor action (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011), Alg. 3.2) of exp(L tau) on a vector,
or a block of them: s steps of at most m terms.  The full sparse complex
superoperator, `oracles.liouvillian`, is the tests' reference for these
entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .qudit import operator_entries, spin_operators, summed_entries

# the largest generator stored dense, 8 K^2 bytes of float64 (K <= 724, so L=2, d=4 at
# K = 580 is dense and L=3, d=3 at K = 1107 is CSR).  Warm N = 200 XXZ bath points on 2
# vCPUs, the dense exponential against per-round CSR actions, at Jtau = 0.5 / 1 / 6: L=2,
# d=4 0.08 / 0.08 / 0.10 s against 0.13 / 0.21 / 0.88 s; L=3, d=3 0.37 / 0.37 / 0.48 s
# against 0.16 / 0.30 / 1.06 s
DENSE_BYTES = 4 * 2 ** 20
# theta_m, the largest |A tau| / s for which m Taylor terms meet a 2^-53 tolerance, from
# Higham, Functions of Matrices, table A.3 (m <= 30) and Al-Mohy & Higham's table 3.1
THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
         7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
         13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
         19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64,
         27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}
TOLERANCE = 2.0 ** -53
# the Taylor degree of a scaled exponential before its squarings.  Max error against scipy's
# expm, relative to its largest entry, at D=9, gamma = 1e4, tau = 6 (|A tau|_1 = 8.5e4), by
# the series: degree 6 (24 squarings) 1.4e-9, 8 (21) 1.5e-10, 12 (19) 1.2e-10, 18 (17)
# 2.3e-11; at tau = 1 degree 6 3.4e-10, 18 2.8e-12.  Degree 18 by Paterson-Stockmeyer
# loses 1.9e-11 and 2.7e-12.  More terms never save more squarings than they cost:
# theta_(18 + i) < 2^i theta_18
SQUARING_DEGREE = 18


@dataclass(frozen=True)
class BathSpec:
    """Thermal-bath dissipation on one site: rate gamma, temperature, channel frequency.

    `site=None` is the last (farthest) site of the system.
    """

    temperature: float
    gamma: float
    omega: float = 1.0
    site: Optional[int] = None

    def __post_init__(self):
        # chained comparisons are False for NaN, so NaN fails each check too
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"bath.temperature must be positive and finite, got {self.temperature}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"bath.omega (channel frequency) must be positive and finite, "
                             f"got {self.omega}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"bath.gamma must be non-negative and finite, got {self.gamma}")

    def occupancy(self) -> float:
        ratio = self.omega / self.temperature
        return 0.0 if ratio > 700 else 1.0 / np.expm1(ratio)

    def norm(self, d: int) -> float:
        """2 max|A|^2 gamma (2n + 1) on a site of dimension d, in Python floats: a bound on the
        dissipator's 1-norm, since A and A^+ have one entry per row and column, so each rate r
        adds at most r max|A|^2 to a column of L by B rho B^+ and as much by {B^+B, rho}/2."""
        with np.errstate(over="ignore"):
            n = float(self.occupancy())
        return 2 * _jump_peak(d) * self.gamma * (2 * n + 1)


def _jump(d: int) -> np.ndarray:
    """A = S^-/2 on one site of dimension d."""
    return 0.5 * spin_operators(d).sminus


# per d: every config of a bath sweep is gated with it
@lru_cache(maxsize=64)
def _jump_peak(d: int) -> float:
    """max |A_ij|^2."""
    return float(np.abs(_jump(d)).max()) ** 2


def _jump_entries(bath: BathSpec, dims: Sequence[int]):
    """The entries (rows, cols, values) of A on the bath's site, the last one for site=None."""
    site = bath.site if bath.site is not None else len(dims) - 1
    return operator_entries(_jump(dims[site]), site, dims)


def _matches(keys: np.ndarray, index: np.ndarray, size: int):
    """Every pair (t, e) with index[e] == keys[t], by ascending t, then e: a join of two
    lists of entries on one index in 0..size-1."""
    counts = np.bincount(index, minlength=size)
    n = counts[keys]
    t = np.repeat(np.arange(len(keys)), n)
    at = np.repeat(np.cumsum(counts)[keys] - np.cumsum(n), n) + np.arange(len(t))
    return t, np.argsort(index, kind="stable")[at]


def generator_entries(H, bath: BathSpec, dims: Sequence[int], subspace: np.ndarray):
    """The entries (rows, cols, values) of L[subspace][:, subspace], for the superoperator
    L = `oracles.liouvillian(H, bath, dims)`.

    H is a dense array or its entries (rows, cols, values).  With vec(rho)[(i, j)] =
    rho[i, j], each entry of the subspace, as the column (b, e), meets
      -i H rho:       row (a, e), -i H[a, b]
      +i rho H:       row (b, c), +i H[e, c]
      B rho B^+:      row (a, c), rate B[a, b] conj(B[c, e]), for B = A at rate gamma (1 + n)
                      and B = A^+ at rate gamma n
      -{B^+B, rho}/2: the diagonal, -(g[b] + g[e]) / 2, g = sum over B of rate diag(B^+B)
    Rows outside the subspace are dropped.  A and A^+ have at most one entry per row and per
    column, so B^+B is diagonal.  Entries of one element are summed in the order listed.
    """
    D = math.prod(dims)
    if isinstance(H, tuple):
        h_rows, h_cols, h_values = H
    else:
        h_rows, h_cols = np.nonzero(H)
        h_values = H[h_rows, h_cols]
    K = len(subspace)
    place = np.full(D * D, -1)
    place[subspace] = np.arange(K)
    b, e = np.divmod(subspace, D)
    t, x = _matches(b, h_cols, D)
    u, y = _matches(e, h_rows, D)
    parts = [(h_rows[x] * D + e[t], t, -1j * h_values[x]),
             (b[u] * D + h_cols[y], u, 1j * h_values[y])]
    g = np.zeros(D)
    if bath.gamma > 0:
        n = bath.occupancy()
        rows, cols, values = _jump_entries(bath, dims)
        for rate, (r, c, v) in ((bath.gamma * (1 + n), (rows, cols, values)),
                                (bath.gamma * n, (cols, rows, values.conj()))):
            t, x = _matches(b, c, D)
            u, y = _matches(e[t], c, D)
            t, x = t[u], x[u]
            parts.append((r[x] * D + r[y], t, rate * v[x] * v[y].conj()))
            g += rate * np.bincount(c, np.abs(v) ** 2, minlength=D)
    parts.append((subspace, np.arange(K), -0.5 * (g[b] + g[e])))
    rows, cols, values = map(np.concatenate, zip(*parts))
    rows = place[rows]
    inside = rows >= 0
    return summed_entries(rows[inside], cols[inside], values[inside], K)


def hermitian_coordinates(subspace: np.ndarray, D: int):
    """(partner, lower) of a sorted subspace of row-stacked D x D entries that holds the
    transpose (b, a) of each of its entries (a, b): partner is the position of (b, a), and
    lower marks a > b.  A Hermitian rho is real on it as r_e = rho_aa on a diagonal entry,
    Re rho_ab at e = (a, b) with a < b, and Im rho_ab at its partner (b, a)."""
    a, b = np.divmod(subspace, D)
    return np.searchsorted(subspace, b * D + a), a > b


def hermitian_entries(coordinates: np.ndarray, subspace: np.ndarray, D: int) -> np.ndarray:
    """The vec(rho) entries on `subspace` of real Hermitian coordinates (first axis)."""
    partner, lower = hermitian_coordinates(subspace, D)
    r = np.asarray(coordinates, dtype=float)
    upper = partner > np.arange(len(partner))
    out = r.astype(complex)
    out[upper] += 1j * r[partner[upper]]
    out[lower] = r[partner[lower]] - 1j * r[lower]
    return out


def _shifted(rows, cols, values, mu, K: int):
    """The entries of A - mu I from those of A, with every diagonal element listed once."""
    diagonal = rows == cols
    shifted = np.full(K, -mu, dtype=values.dtype)
    shifted[rows[diagonal]] += values[diagonal]
    return tuple(np.concatenate([v[~diagonal], w]) for v, w in
                 ((rows, np.arange(K)), (cols, np.arange(K)), (values, shifted)))


def stored_dense(K: int) -> bool:
    """Whether a generator on K coordinates is stored as a float64 array, 8 K^2 <= DENSE_BYTES,
    and so has an `exponential`; a larger one is CSR and takes only the action (`apply`)."""
    return 8 * K * K <= DENSE_BYTES


class LindbladPropagator:
    """exp(L tau) on Hermitian states, by Al-Mohy & Higham's truncated Taylor series, in real
    Hermitian coordinates (`hermitian_coordinates`).

    L preserves Hermiticity, so on a subspace of row-stacked rho that L maps into itself and
    that holds each entry's transpose (flat indices, sorted; the whole D^2 space by default)
    it is a real linear map G of those coordinates.  G is folded once from L's complex
    entries (`generator_entries`) and stored shifted, A = G - mu I with mu = tr(G) / K, as a
    float64 array (`stored_dense`) or a real CSR matrix.  Both evaluators read the exact
    1-norm x = |tau| |L - mu I|_1 of the complex generator, which bounds A tau in the norm
    |vec rho|_1 of the states it acts on.  `apply` takes (m, s) = argmin m ceil(x / theta_m)
    and runs s steps of at most m Taylor terms each on a vector or a block of column vectors
    of real coordinates, stopping a step's series once two terms add less than 2^-53 of the
    sum.  `exponential`, on a dense generator, forms the K x K matrix exp(G tau) as S =
    e^(mu h) T_q(A h), h = tau / 2^j, the same series cut at q = SQUARING_DEGREE terms with the
    fewest j that keep x / 2^j <= theta_q, squared j times.
    H is a dense array or its entries (rows, cols, values).
    """

    method = "taylor"

    def __init__(self, H, bath: BathSpec, dims: Sequence[int],
                 subspace: Optional[np.ndarray] = None):
        D = math.prod(dims)
        subspace = np.arange(D * D) if subspace is None else np.asarray(subspace)
        rows, cols, values = generator_entries(H, bath, dims, subspace)
        K = len(subspace)
        partner, lower = hermitian_coordinates(subspace, D)
        # column h of L meets rho_h = r[re] + i s r[im]: re is h's own coordinate and im its
        # partner's (s = 1) when h is upper, the reverse (s = -1) when h is lower.  Row g keeps
        # Re w of an upper or diagonal image w, and Re(i w) = -Im w, its partner's Im, of a lower
        image = np.where(lower[rows], 1j, 1.0) * values
        off = partner[cols] != cols
        re = np.where(lower[cols], partner[cols], cols)
        im = np.where(lower[cols], cols, partner[cols])[off]
        factor = np.where(lower[cols], -1j, 1j)[off]
        real_rows, real_cols, real_values = summed_entries(
            np.concatenate([rows, rows[off]]), np.concatenate([re, im]),
            np.concatenate([image.real, (factor * image[off]).real]), K)
        real_values = real_values.real
        self._mu = float(real_values[real_rows == real_cols].sum()) / K
        _, at, shifted = _shifted(rows, cols, values, self._mu, K)
        self._norm = float(np.bincount(at, np.abs(shifted), minlength=K).max(initial=0.0))
        rows, cols, values = _shifted(real_rows, real_cols, real_values, self._mu, K)
        if stored_dense(K):
            self._generator = np.zeros((K, K))
            self._generator[rows, cols] = values
        else:
            from scipy import sparse     # ~0.3 s to import: loaded only for large generators

            self._generator = sparse.csr_matrix((values, (rows, cols)), shape=(K, K))

    def apply(self, vectors: np.ndarray, tau: float) -> np.ndarray:
        """exp(L tau) on real Hermitian coordinates: a vector or a block of column vectors."""
        if np.iscomplexobj(vectors):
            raise ValueError("LindbladPropagator.apply takes real Hermitian coordinates, "
                             "not complex entries (see oracles.real_coordinates)")
        tau = float(tau)
        x = abs(tau) * self._norm
        m, s = 0, 1
        if x > 0:
            _, m, s = min((m * math.ceil(x / theta), m, math.ceil(x / theta))
                          for m, theta in THETA.items())
        inf_norm = lambda v: np.linalg.norm(v, np.inf)     # a block's largest row sum
        eta = np.exp(self._mu * tau / s)
        F = np.array(vectors, dtype=float)
        for _ in range(s):
            B, c1 = F, inf_norm(F)
            bound = c1          # |F|_inf <= bound: |F| is read only when the test may pass
            for j in range(1, m + 1):
                B = self._generator @ B
                B *= tau / (s * j)
                c2 = inf_norm(B)
                F += B
                bound += c2
                if c1 + c2 <= TOLERANCE * bound and c1 + c2 <= TOLERANCE * inf_norm(F):
                    break
                c1 = c2
            F *= eta
        return F

    def exponential(self, tau: float) -> np.ndarray:
        """exp(G tau) of a dense generator as a K x K array: S = e^(mu h) T_q(A h), q =
        SQUARING_DEGREE and h = tau / 2^j, squared j times.  The shift is folded into S before
        the squarings: unshifted, S^(2^j) grows as e^(-mu tau), which overflows to inf from
        gamma ~ 1e3 on, and inf times e^(mu tau) = 0 is NaN."""
        j = _squarings(abs(tau) * self._norm)
        h = tau / 2 ** j
        S = _taylor_polynomial(self._generator * h)
        S *= np.exp(self._mu * h)
        for _ in range(j):
            S = S @ S
        return S


def _taylor_polynomial(X: np.ndarray) -> np.ndarray:
    """T_18(X), the sum of X^i / i! for i = 0..SQUARING_DEGREE, by Paterson-Stockmeyer: X^2,
    X^3 and X^4, then Horner's rule in X^4 over blocks of four terms, 7 products in place
    of 18.  It holds at most six K x K arrays: X..X^4, the sum and a product or a term."""
    powers = [X, X @ X]
    powers.append(powers[1] @ X)
    top = powers[1] @ powers[1]
    S = np.zeros_like(X)
    for k in (16, 12, 8, 4, 0):
        if k < 16:
            S = S @ top
        S.flat[::len(S) + 1] += 1 / math.factorial(k)
        for i, P in enumerate(powers, 1):
            if k + i <= SQUARING_DEGREE:
                S += P / math.factorial(k + i)
    return S


def _squarings(x: float) -> int:
    """j, the fewest squarings of T_q(A tau / 2^j), q = SQUARING_DEGREE, that meet 2^-53 at
    |A tau|_1 = x: x / 2^j <= theta_q."""
    return max(0, math.ceil(math.log2(x / THETA[SQUARING_DEGREE]))) if x > 0 else 0
