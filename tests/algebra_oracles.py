"""Dense algebra helpers that only the tests use.

The generators as Kronecker products of clock and shift matrices, monomial
reps as products of their matrix powers, and the RP Gram form as one matrix
product over dense one-sided reps.  These are the dense paths that the
(perm, phase) reps of rpkit.algebra and the gather in
rpkit.verifier.form_matrix replace.
"""

import numpy as np

from rpkit.algebra import clock_shift, theta


def _kron(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def dense_generators(cfg) -> list:
    """c_1 ... c_m as dim x dim matrices: U x ... x U x V (or eta VU) x 1 x ... x 1."""
    d, m = cfg.d, cfg.m
    U, V = clock_shift(d)
    eta = np.exp(1j * np.pi * (d - 1) / d)
    eye = np.eye(d)
    gens = []
    for s in range(m // 2):
        left = [U] * s
        right = [eye] * (m // 2 - s - 1)
        gens.append(_kron(left + [V] + right))
        gens.append(eta * _kron(left + [V @ U] + right))
    return gens


def dense_monomial_rep(gens, k) -> np.ndarray:
    """c_1^{k_1} ... c_m^{k_m} as a product of matrix powers, left to right."""
    mat = np.eye(gens[0].shape[0], dtype=complex)
    for i, e in enumerate(k):
        if e:
            mat = mat @ np.linalg.matrix_power(gens[i], e)
    return mat


def dense_rep(gens, E) -> np.ndarray:
    """The matrix of an element from its coefficient table and dense monomials."""
    out = np.zeros_like(gens[0])
    for k, v in E.coeffs.items():
        out += v * dense_monomial_rep(gens, k)
    return out


def gemm_form_matrix(omega, algebra, family, block=None) -> np.ndarray:
    """M_ab = xi^(g_a g_b) tr(rho L_a R_b) as one product over dense one-sided reps.

    L_a = theta(B_a).rep and R_b = B_b.rep come from the Kronecker generators;
    tr(X_a R_b) with X_a = rho L_a is the dot product of X_a and R_b^T
    flattened.  A given `block` replaces the leading entries.
    """
    gens = dense_generators(algebra.cfg)
    n, dim = len(family), algebra.cfg.dim
    elems = [algebra.monomial(k) for k in family]
    L = np.empty((n, dim, dim), dtype=complex)
    Rt = np.empty((n, dim, dim), dtype=complex)
    for a, E in enumerate(elems):
        L[a] = dense_rep(gens, theta(E))
        Rt[a] = dense_rep(gens, E).T
    X = omega.density(algebra) @ L
    M = X.reshape(n, dim * dim) @ Rt.reshape(n, dim * dim).T
    g = np.array([E.grade for E in elems], dtype=int)
    M *= algebra.cfg.twist(g[:, None], g[None, :])
    if block is not None:
        r = block.shape[0]
        M[:r, :r] = block
    return M
