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
infinite chain within about exp(-RING asinh(pi / (2 beta |kappa|))), below
1e-16 for beta |kappa| <= 170.  The symbol is odd, so g = i h with h real and
odd, and the window built from h is exactly Toeplitz and hermitian.

The reduced state of a quadratic chain is again Gibbs of a quadratic
(entanglement) Hamiltonian, recovered from the window covariance through
arctanh, so the result is an ordinary StateFunctional.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, AlgebraElement, StateFunctional
from .errors import InvalidArgument

RING = 4096     # symbol grid: the sum is the window of a uniform ring of RING sites


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


def _window_covariance(m: int, coupling: float, beta: float) -> np.ndarray:
    """<c_a c_b> = delta_ab + i h(a - b) on m generators of the RING-site uniform ring."""
    k = 2 * np.pi * np.arange(RING) / RING
    h = np.sin(np.outer(np.arange(m), k)) @ np.tanh(beta * coupling * np.sin(k)) / RING
    x = np.subtract.outer(np.arange(m), np.arange(m))
    return np.eye(m) + 1j * np.sign(x) * h[np.abs(x)]


def uniform_chain_state(algebra: Algebra, coupling: float = 1.0,
                        beta: float = 1.0) -> StateFunctional:
    """Reduced Gibbs state of the infinite uniform Majorana chain on m generators."""
    cfg = algebra.cfg
    if cfg.d != 2:
        raise InvalidArgument("Majorana chains require degree d = 2")
    if not (np.isfinite(coupling) and np.isfinite(beta)):
        raise InvalidArgument(f"chain coupling and beta must be finite: {coupling}, {beta}")
    if beta < 0:
        raise InvalidArgument(f"chain beta must be >= 0 for a Gibbs state: {beta}")
    Gw = _window_covariance(cfg.m, coupling, beta)
    T = Gw - np.eye(cfg.m)
    T = (T + T.conj().T) / 2
    w, V = np.linalg.eigh(T)
    w = np.clip(w, -1 + 1e-14, 1 - 1e-14)
    iAeff = (V * (2.0 * np.arctanh(w))) @ V.conj().T
    coeffs = {}
    for a in range(cfg.m):
        for b in range(cfg.m):
            if a != b and abs(iAeff[a, b]) > 1e-14:
                k = [0] * cfg.m
                k[a] = 1
                k[b] = 1
                key = tuple(k)
                sign = 1.0 if a < b else -1.0   # c_b c_a = -c_a c_b at d = 2
                coeffs[key] = coeffs.get(key, 0.0) + 0.25 * sign * iAeff[a, b]
    H_eff = algebra.element(coeffs)
    return StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H_eff)
