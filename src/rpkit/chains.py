"""Majorana chain states used by the transfer-operator pipeline (d = 2 only).

finite_chain_hamiltonian builds the open uniform nearest-neighbor chain
H = -sum_j kappa_j i c_j c_{j+1}; its Gibbs functional is reflection positive
but, on a finite chain, not shift-invariant.

uniform_chain_state returns the reduced Gibbs state of the infinite uniform
chain on a window of m generators.  Translation invariance makes the window
covariance Toeplitz, <c_a c_b> = delta_ab + g(a - b), with g(x) the Fourier
coefficient of the chain's symbol tanh(beta kappa sin k) (iA acts on e^{ikj}
as 2 kappa sin k).  g is the trapezoid sum over the RING points
k_n = 2 pi n / RING, which is exactly the window of the uniform ring of RING
sites: the state is shift-invariant at every beta, so no bath length has to
grow with beta.  The sum aliases g(x) with g(x + j RING); the symbol is
analytic for |Im k| < asinh(pi / (2 beta |kappa|)), so the ring matches the
infinite chain within about exp(-RING asinh(pi / (2 beta |kappa|))), at or
below 1e-16 for beta |kappa| <= MAX_BETA_COUPLING = pi / (2 sinh(ln(1e16) /
RING)), about 174.6.  Past it the window drifts from the infinite chain (by
1.1e-7 at beta |kappa| = 1000, against a 2^22-point ring), so
uniform_chain_state refuses it.  The symbol is odd, so g = i h with h real and
odd, and the window built from h is exactly Toeplitz and hermitian.

The state is quasi-free: every value is fixed by the window covariance G
through Wick's rule.  For a word c_i1 ... c_iL of distinct generators in
increasing order (every word c^K at d = 2), omega vanishes at odd L, and at
even L it is the Pfaffian of the pair table Gamma_jl = omega(c_ij c_il) =
G[i_j, i_l] = i h[i_j, i_l] (j < l), h = Im G restricted to the word's
support.  Pf(i A) = i^(L/2) Pf(A) for L x L A, so

    omega(c^K) = i^(L/2) Pf(h[idx, idx]),      idx = the support of K.

pfaffians evaluates a stack of them in one Parlett-Reid elimination with
partial pivoting, so the state needs no density and no dim x dim matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraConfig, AlgebraElement
from .errors import ConfigMismatch, InvalidArgument

RING = 4096     # symbol grid: the sum is the window of a uniform ring of RING sites
# beta |kappa| at which the aliasing bound (module docstring) reaches 1e-16
MAX_BETA_COUPLING = np.pi / (2 * np.sinh(np.log(1e16) / RING))


def finite_chain_hamiltonian(algebra: Algebra, hopping: float,
                             field: float | None = None) -> AlgebraElement:
    """H = -sum_j kappa_j i c_j c_{j+1}, kappa alternating (field, hopping)."""
    cfg = algebra.cfg
    if cfg.d != 2:
        raise InvalidArgument("Majorana chains require degree d = 2")
    field = hopping if field is None else field
    H = algebra.zero()
    for j in range(1, cfg.m):
        kappa = field if j % 2 == 1 else hopping
        k = [0] * cfg.m
        k[j - 1] = 1
        k[j] = 1
        H = H + (-1j * kappa) * algebra.monomial(k)
    return H


@functools.cache
def _ring_sines(m: int) -> tuple:
    """sin(x k) for x < m and sin(k) on the RING points k.
    Built once per m and read-only: the matvec only reads them."""
    k = 2 * np.pi * np.arange(RING) / RING
    table, sin_k = np.sin(np.outer(np.arange(m), k)), np.sin(k)
    table.flags.writeable = sin_k.flags.writeable = False
    return table, sin_k


def _window_covariance(m: int, coupling: float, beta: float) -> np.ndarray:
    """<c_a c_b> = delta_ab + i h(a - b) on m generators of the RING-site uniform ring."""
    table, sin_k = _ring_sines(m)
    h = table @ np.tanh(beta * coupling * sin_k) / RING
    x = np.subtract.outer(np.arange(m), np.arange(m))
    return np.eye(m) + 1j * np.sign(x) * h[np.abs(x)]


def pfaffians(A: np.ndarray) -> np.ndarray:
    """Pf of each real antisymmetric L x L matrix of an N x L x L stack, L even.

    Parlett-Reid with partial pivoting, two rows and columns at a time: the
    largest |A[p, 0]|, p > 0, is swapped into row and column 1 (a swap
    negates Pf), Pf gains the factor A[0, 1], and the trailing block minus
    rows and columns 0 and 1 takes the rank-2 update tau a^T - a tau^T,
    a = A[:, 1], tau = A[0, :] / A[0, 1].  The swap is not made: the trailing
    block is gathered from rows and columns 2 .. L - 1 with 1 in place of p.
    A zero pivot means a zero column, so that Pf is exactly 0.  The update is
    exactly antisymmetric, and the elimination is backward stable like LU
    with partial pivoting.
    """
    A = np.asarray(A, dtype=float)
    N, L = A.shape[:2]
    pf = np.ones(N)
    r = np.arange(N)[:, None]
    for n in range(L, 0, -2):
        p = 1 + np.abs(A[:, 1:, 0]).argmax(1)
        piv = A[r[:, 0], 0, p]
        pf *= np.where(p == 1, piv, -piv)
        if n == 2:
            break
        rest = np.arange(2, n)
        rest = np.where(rest == p[:, None], 1, rest)
        tau = A[r, 0, rest] / np.where(piv == 0, 1.0, piv)[:, None]
        u = tau[:, :, None] * A[r, rest, p[:, None]][:, None, :]
        A = A[r[:, :, None], rest[:, :, None], rest[:, None, :]] + (u - u.transpose(0, 2, 1))
    return pf


@dataclass(frozen=True, eq=False)
class QuasiFreeState:
    """The quasi-free state of m Majorana generators (d = 2) with window
    covariance G[a, b] = omega(c_a c_b): its values are Pfaffians of Im G
    (module docstring)."""

    covariance: np.ndarray

    def word_values(self, cfg: AlgebraConfig, supports: tuple) -> np.ndarray:
        """omega(c^K) of the words whose supports word_supports gives, one
        pfaffians pass per word length."""
        m = len(self.covariance)
        if (cfg.d, cfg.m) != (2, m):
            raise ConfigMismatch(f"state built for d=2, m={m} evaluated on d={cfg.d}, m={cfg.m}")
        h = self.covariance.imag
        base, parts = supports
        out = base.copy()
        for rows, idx in parts:
            out[rows] = 1j ** (idx.shape[1] // 2) * pfaffians(h[idx[:, :, None], idx[:, None, :]])
        return out


def word_supports(words: np.ndarray) -> tuple:
    """The state-free half of QuasiFreeState.word_values over the rows K of
    words, exponents 0 or 1: omega(c^K) is 1 for the empty word and 0 at odd
    length, and the words of each even length L > 0 are read as Pfaffians on
    their supports.  Returns that start (read-only) and, per L in ascending
    order, the rows of those words and their supports, an N x L index array."""
    length = np.count_nonzero(words, axis=1)
    base = np.where(length == 0, 1.0 + 0j, 0j)
    parts = []
    for L in range(2, words.shape[1] + 1, 2):
        rows = np.flatnonzero(length == L)
        if rows.size:
            idx = np.nonzero(words[rows])[1].reshape(-1, L)
            rows.flags.writeable = idx.flags.writeable = False
            parts.append((rows, idx))
    base.flags.writeable = False
    return base, tuple(parts)


def uniform_chain_state(algebra: Algebra, coupling: float = 1.0,
                        beta: float = 1.0) -> QuasiFreeState:
    """Reduced Gibbs state of the infinite uniform Majorana chain on m generators."""
    cfg = algebra.cfg
    if cfg.d != 2:
        raise InvalidArgument("Majorana chains require degree d = 2")
    if not (np.isfinite(coupling) and np.isfinite(beta)):
        raise InvalidArgument(f"chain coupling and beta must be finite: {coupling}, {beta}")
    if not np.isfinite(beta * coupling):
        # the symbol tanh(beta kappa sin k) would read inf * sin(0) = nan
        raise InvalidArgument(f"chain beta x coupling overflows: {beta} x {coupling}")
    if beta < 0:
        raise InvalidArgument(f"chain beta must be >= 0 for a Gibbs state: {beta}")
    if beta * abs(coupling) > MAX_BETA_COUPLING:
        raise InvalidArgument(f"chain beta x |coupling| = {beta * abs(coupling):.6g} exceeds "
                              f"{MAX_BETA_COUPLING:.1f}: the {RING}-site ring window would "
                              f"miss the infinite chain by more than 1e-16")
    return QuasiFreeState(_window_covariance(cfg.m, coupling, beta))
