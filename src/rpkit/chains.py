"""Majorana chain states used by the transfer-operator pipeline (d = 2 only).

finite_chain_hamiltonian builds the open uniform nearest-neighbor chain
H = -sum_j kappa_j i c_j c_{j+1}; its Gibbs functional is reflection positive
but, on a finite chain, not shift-invariant.

uniform_chain_state embeds the window of m generators in a long uniform chain
and returns the reduced Gibbs state, which is translation invariant on the
window to machine precision.  The reduced state of a quadratic chain is again
Gibbs of a quadratic (entanglement) Hamiltonian, recovered from the window
covariance through arctanh, so the result is an ordinary StateFunctional.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, AlgebraElement, StateFunctional
from .errors import InvalidArgument


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


def _window_covariance(m: int, coupling: float, beta: float, length: int) -> np.ndarray:
    """<c_a c_b> on an m-generator window centered in a length-L uniform chain."""
    A = np.zeros((length, length))
    for j in range(length - 1):
        A[j, j + 1] = -coupling
        A[j + 1, j] = +coupling
    w, V = np.linalg.eigh(1j * A)
    Gamma = np.eye(length) + (V * np.tanh(beta * w / 2)) @ V.conj().T
    off = (length - m) // 2
    off -= off % 2
    return Gamma[off:off + m, off:off + m]


def uniform_chain_state(algebra: Algebra, coupling: float = 1.0, beta: float = 1.0,
                        length: int = 240) -> StateFunctional:
    """Reduced Gibbs state of the infinite uniform Majorana chain on m generators."""
    cfg = algebra.cfg
    if cfg.d != 2:
        raise InvalidArgument("Majorana chains require degree d = 2")
    if length < 4 * cfg.m:
        raise InvalidArgument("bath length must be well beyond the window")
    if not (np.isfinite(coupling) and np.isfinite(beta)):
        raise InvalidArgument(f"chain coupling and beta must be finite: {coupling}, {beta}")
    Gw = _window_covariance(cfg.m, coupling, beta, length)
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
