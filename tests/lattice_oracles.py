"""Lattice helpers that only the tests use.

Explicit site geometry, the 0/1 reflection matrix, the dense Green operator
C = inv(A) and its reflected slice (the oracle of the mode form), the stack
of 1-D time stencils with the per-mode solve and eigh that the closed-form
time axis replaced, the whole-lattice cut form (one solve with the dense half operator A_+, and the
spectrum from a complete QR of K), the half-space Green operators from
adjusted stencils (the independent cross-check of the image charge identity
C_N - C_D = 2 C[r(half), half]), a hand-built covariance that breaks RP, and
Gaussian moments by Wick pairing.
"""

import numpy as np

from rpkit.errors import InvalidArgument
from rpkit.lattice import GreenSet, _cut, lattice_operator, transverse_modes


def site_index(model) -> dict:
    return {s: i for i, s in enumerate(model.sites)}


def reflect(model, s) -> tuple:
    return (model.dims[0] - 1 - s[0],) + tuple(s[1:])


def reflection_matrix(model) -> np.ndarray:
    r = model.reflection_indices()
    R = np.zeros((r.size, r.size))
    R[np.arange(r.size), r] = 1.0
    return R


def dense_green(model) -> np.ndarray:
    """C = A^{-1}, the dense Green operator."""
    return np.linalg.inv(lattice_operator(model))


def dense_block(model, C=None) -> np.ndarray:
    """The reflected block C[r(half), half] sliced from a dense covariance
    (by default the dense Green operator)."""
    C = dense_green(model) if C is None else C
    half = model.half_indices()
    return C[np.ix_(model.reflection_indices()[half], half)]


def time_operators(mass: np.ndarray, rows: int, wrap: bool = False) -> np.ndarray:
    """The stack of 1-D operators -laplacian_t + mass[k] on `rows` time rows.

    2 + mass[k] on the diagonal and -1 between neighbours; wrap adds the
    torus bond between the last row and the first (on two rows it doubles
    the one bond, as lattice_operator does).  The half operators A_+ are the
    unwrapped stencil on the h half rows.
    """
    T = np.zeros((mass.size, rows, rows))
    i = np.arange(rows)
    T[:, i, i] = 2.0 + mass[:, None]
    T[:, i[:-1], i[1:]] = T[:, i[1:], i[:-1]] = -1.0
    if wrap:
        T[:, 0, -1] -= 1.0
        T[:, -1, 0] -= 1.0
    return T


def solved_cut_columns(model) -> np.ndarray:
    """K = A_+^{-1} P per mode (S x h x cut) by one batched solve with the
    stencils of the half operators."""
    mass = model.mass2 + transverse_modes(model).lam
    h = model.dims[0] // 2
    cut = _cut(model)[0]
    return np.linalg.solve(time_operators(mass, h),
                           np.broadcast_to(np.eye(h)[:, cut], (mass.size, h, cut.size)))


def eigh_scan_blocks(model, t: float) -> np.ndarray:
    """The reflected h x h blocks of the mode covariances C_t (S x h x h),
    from a batched eigh of the S time stencils T_k (Nt x Nt)."""
    mass = model.mass2 + transverse_modes(model).lam
    Nt = model.dims[0]
    h = Nt // 2
    w, V = np.linalg.eigh(time_operators(mass, Nt, model.bc == "torus"))
    g = (1.0 - np.exp(-2.0 * t * w)) / w
    return (V[:, h - 1::-1] * g[:, None, :]) @ V[:, h:].transpose(0, 2, 1)


def covariance_green_set(model, C) -> GreenSet:
    """The GreenSet of any dense covariance: one mode with K = 1 and W its
    reflected block.

    Such a covariance has no cut structure, so its block is the whole form.
    """
    half = model.half_indices()
    return GreenSet(model=model, half=half, K=np.eye(len(half))[None],
                    W=dense_block(model, C)[None])


def whole_cut_form(model) -> tuple:
    """(K, W) of the whole lattice: K = A_+^{-1} P with A_+ = A[half, half]
    sliced from the dense operator, and W = (E^{-1} - Y E Y)^{-1}, Y = K[cut].

    The cut and E are read off A[r(half), half], whose only nonzero entries
    are the bonds between a half site and its own mirror.
    """
    A = lattice_operator(model)
    half = model.half_indices()
    e = -A[model.reflection_indices()[half], half]
    cut = np.flatnonzero(e)
    e = e[cut]
    K = np.linalg.solve(A[np.ix_(half, half)], np.eye(len(half))[:, cut])
    Y = K[cut]
    W = np.linalg.solve(np.diag(1.0 / e) - (Y * e) @ Y, np.eye(cut.size))
    return K, W


def cut_spectrum(K, W) -> tuple:
    """Ascending eigenpairs of K W K^T from the complete QR K = Q R: the
    eigenvalues of R W R^T with eigenvectors Q U, and n/2 - cut exact zeros
    with the kernel columns of Q."""
    c = K.shape[1]
    Q, R = np.linalg.qr(K, mode="complete")
    S = R[:c] @ W @ R[:c].T
    lam, U = np.linalg.eigh((S + S.T) / 2)
    ev = np.concatenate([lam, np.zeros(K.shape[0] - c)])
    vec = np.hstack([Q[:, :c] @ U, Q[:, c:]])
    order = np.argsort(ev, kind="stable")
    return ev[order], vec[:, order]


def _half_operator(model, sign: float) -> np.ndarray:
    """Truncated stencil with the cut-bond rows adjusted by +-1 per cut bond."""
    half = model.half_indices()
    Ah = lattice_operator(model)[np.ix_(half, half)]
    cuts = np.zeros((model.dims[0] // 2,) + model.dims[1:], dtype=int)
    cuts[0] += 1                # bonds across the plane
    if model.bc == "torus":
        cuts[-1] += 1           # the wrap-around bond
    k = np.flatnonzero(cuts)
    Ah[k, k] += sign * cuts.ravel()[k]
    return np.linalg.inv(Ah)


def dirichlet_half_green(model) -> np.ndarray:
    """Half-space Green operator with the phantom row pinned to minus the mirror."""
    return _half_operator(model, +1.0)


def neumann_half_green(model) -> np.ndarray:
    """Half-space Green operator with the phantom row equal to the mirror."""
    return _half_operator(model, -1.0)


def counterexample_covariance(model, strength: float = 1.0, rng=None) -> np.ndarray:
    """Symmetric bump on the dense Green operator that keeps the reflected Gram
    hermitian but breaks RP.

    Adds strength * w w^T with w antisymmetric under the reflection, which
    shifts the reflected Gram by -strength * (w w^T)|half.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    C = dense_green(model)
    x = rng.normal(size=C.shape[0])
    w = (x - x[model.reflection_indices()]) / 2
    w /= np.linalg.norm(w)
    return C + strength * np.outer(w, w)


def schwinger_moment(C: np.ndarray, points) -> float:
    """Gaussian 2k-point moment: sum over perfect pairings of C entries."""
    pts = list(points)
    if len(pts) % 2:
        raise InvalidArgument("schwinger_moment needs an even number of points")
    if not pts:
        return 1.0

    def pairings(rest):
        if not rest:
            yield 1.0
            return
        a = rest[0]
        for i in range(1, len(rest)):
            b = rest[i]
            sub = rest[1:i] + rest[i + 1:]
            for val in pairings(sub):
                yield C[a, b] * val

    return float(sum(pairings(pts)))
