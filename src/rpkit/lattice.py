"""Lattice free-field side of reflection positivity.

A = -laplacian + mass2 on a box (Dirichlet outside) or torus, time axis first
with even length so the reflection plane sits between lattice rows.  The
Green operator C = A^{-1} yields the half-space Dirichlet and Neumann Green
operators by image charges,

    C_D = (C - C_r)|half,    C_N = (C + C_r)|half,    C_r(x, y) = C(x, r y),

and RP for the Gaussian field is equivalent to C_D <= C_N.  Both half
operators are re-derivable from adjusted half-space stencils (phantom row
equal to minus/plus the mirror value), which green-set consumers use as an
independent cross-check.

Sites are numbered in C order over dims (the order of itertools.product), so
the time reflection r is an index permutation and R its 0/1 matrix.  The
covariance Gram <theta f_i, C f_j> = (R f_i)^T C f_j on the delta basis of the
half is the slice C[r(half), half]: R e_i = e_r(i), and every other term of
the product is an exact zero, so the slice equals the product bit for bit.
For the same reason C_r = C R is the column permutation C[:, r].

Stochastic quantization relaxes from zero initial data with dphi = -A phi ds
+ sqrt(2) dW, so the time-s law has covariance C_t = A^{-1}(1 - exp(-2 t A));
the scan tracks the minimal reflected-Gram eigenvalue along a t-grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidGeometry, SizeLimit, WrongHalf
from .verifier import NEGATIVE, POSITIVE, GramReport, gram_report_from_matrix

DEFAULT_TOL = 1e-10
SITE_CAP = 4096
VIOLATION_TOL = 1e-8    # default gate: a scan row is violated when min eigenvalue < -tol
CHAIN_TOL = 1e-12       # null tolerance of the chain transfer quotient


@dataclass(frozen=True)
class LatticeModel:
    """Geometry (time axis first, even), mass term, and boundary condition."""

    dims: tuple
    mass2: float
    bc: str = "box"
    cap: int = SITE_CAP

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if not self.dims or any(n < 2 for n in self.dims):
            raise InvalidConfig(f"dims must be nonempty with every axis >= 2: {self.dims}")
        if self.bc not in ("box", "torus"):
            raise InvalidConfig(f"bc must be 'box' or 'torus', got {self.bc!r}")
        if self.dims[0] % 2:
            raise InvalidGeometry("time axis must have even length for mid-bond reflection")
        if not np.isfinite(self.mass2) or self.mass2 <= 0:
            raise InvalidConfig(f"mass2 must be finite and > 0 (torus would be singular): "
                                f"{self.mass2}")
        if int(np.prod(self.dims)) > self.cap:
            raise SizeLimit(f"lattice volume {int(np.prod(self.dims))} exceeds cap {self.cap}")

    @property
    def sites(self) -> list:
        return list(itertools.product(*[range(n) for n in self.dims]))

    def site_index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}

    def reflect(self, s) -> tuple:
        return (self.dims[0] - 1 - s[0],) + tuple(s[1:])

    def _grid(self) -> np.ndarray:
        """Site indices laid out on the lattice (C order, the order of `sites`)."""
        return np.arange(int(np.prod(self.dims))).reshape(self.dims)

    def reflection_indices(self) -> np.ndarray:
        """r[i] = index of the mirror image of site i."""
        return self._grid()[::-1].ravel()

    def half_indices(self) -> list:
        """Positive-time sites: t >= dims[0] / 2."""
        return self._grid()[self.dims[0] // 2:].ravel().tolist()


def lattice_operator(model: LatticeModel) -> np.ndarray:
    """A = -laplacian + mass2 with the chosen boundary condition."""
    grid = model._grid()
    n = grid.size
    A = np.zeros((n, n))
    A[np.diag_indices(n)] = 2 * len(model.dims) + model.mass2
    for ax, L in enumerate(model.dims):
        i, j = grid, np.roll(grid, -1, axis=ax)     # bonds to the +1 neighbour
        if model.bc == "box":
            i, j = i.take(range(L - 1), axis=ax), j.take(range(L - 1), axis=ax)
        # fancy-index -= applies once per distinct (row, col); within one
        # statement the pairs are distinct, so every bond subtracts once
        A[i.ravel(), j.ravel()] -= 1.0
        A[j.ravel(), i.ravel()] -= 1.0
    return A


def reflection_matrix(model: LatticeModel) -> np.ndarray:
    r = model.reflection_indices()
    R = np.zeros((r.size, r.size))
    R[np.arange(r.size), r] = 1.0
    return R


def _reflected_block(model: LatticeModel, half, C: np.ndarray) -> np.ndarray:
    """(R C)[half, half], taken as the slice C[r(half), half]."""
    return C[np.ix_(model.reflection_indices()[half], half)]


@dataclass
class GreenSet:
    """Full and half-space Green operators for one lattice model."""

    model: LatticeModel
    C: np.ndarray
    C_r: np.ndarray
    C_D: np.ndarray
    C_N: np.ndarray
    half: list
    reflection: np.ndarray


def green_set(model: LatticeModel) -> GreenSet:
    A = lattice_operator(model)
    C = np.linalg.inv(A)
    C_r = C[:, model.reflection_indices()]
    half = model.half_indices()
    sel = np.ix_(half, half)
    C_h, C_rh = C[sel], C_r[sel]
    return GreenSet(model=model, C=C, C_r=C_r, C_D=C_h - C_rh, C_N=C_h + C_rh,
                    half=half, reflection=reflection_matrix(model))


def _half_operator(model: LatticeModel, sign: float) -> np.ndarray:
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


def dirichlet_half_green(model: LatticeModel) -> np.ndarray:
    """Half-space Green operator with the phantom row pinned to minus the mirror."""
    return _half_operator(model, +1.0)


def neumann_half_green(model: LatticeModel) -> np.ndarray:
    """Half-space Green operator with the phantom row equal to the mirror."""
    return _half_operator(model, -1.0)


@dataclass
class MonotonicityVerdict:
    verdict: str
    min_eig: float
    witness: np.ndarray
    tol: float


def monotonicity_verdict(gs: GreenSet, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """PSD test of C_N - C_D (the operator monotonicity form of RP)."""
    D = gs.C_N - gs.C_D
    D = (D + D.T) / 2
    ev, vec = np.linalg.eigh(D)
    verdict = POSITIVE if ev[0] >= -tol else NEGATIVE
    return MonotonicityVerdict(verdict=verdict, min_eig=float(ev[0]),
                               witness=vec[:, 0], tol=tol)


def covariance_rp(gs: GreenSet, testfns=None, tol: float = DEFAULT_TOL,
                  C: np.ndarray | None = None) -> GramReport:
    """Gram G_ij = (r f_i)^T C f_j for test functions supported on the half.

    Defaults to the full half-space delta basis, where G is the slice
    C[r(half), half].  Passing C overrides the model Green operator (used for
    hand-built counterexamples).  Non-finite test functions are refused.
    """
    C = gs.C if C is None else C
    n = C.shape[0]
    if testfns is None:
        sites = gs.model.sites
        labels = [sites[i] for i in gs.half]
        G = _reflected_block(gs.model, gs.half, C)
    else:
        fns = [np.asarray(f, dtype=float) for f in testfns]
        labels = list(range(len(fns)))
        if any(f.shape != (n,) for f in fns):
            raise InvalidArgument("test functions must be full-lattice vectors")
        F = np.array(fns).reshape(len(fns), n)
        if not np.all(np.isfinite(F)):
            # abs(nan) > 0 is False: the support check below would pass NaN
            raise InvalidArgument("test functions must be finite")
        off = np.ones(n, dtype=bool)
        off[gs.half] = False
        if np.any(np.abs(F[:, off]) > 0):
            raise WrongHalf("test functions must be supported on positive-time sites")
        # rows of F R^T are the reflected test functions
        G = F[:, gs.model.reflection_indices()] @ C @ F.T
    return gram_report_from_matrix(G.astype(complex), labels, tol)


def counterexample_covariance(gs: GreenSet, strength: float = 1.0,
                              rng: np.random.Generator | None = None) -> np.ndarray:
    """Symmetric bump that keeps the reflected Gram hermitian but breaks RP.

    Adds strength * w w^T with w antisymmetric under the reflection, which
    shifts the reflected Gram by -strength * (w w^T)|half.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    n = gs.C.shape[0]
    x = rng.normal(size=n)
    w = (x - gs.reflection @ x) / 2
    w /= np.linalg.norm(w)
    return gs.C + strength * np.outer(w, w)


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


def stochastic_covariance(model: LatticeModel, t: float) -> np.ndarray:
    """C_t = A^{-1}(1 - exp(-2 t A)), the time-t law of the OU relaxation."""
    return _relaxed_covariance(*np.linalg.eigh(lattice_operator(model)), t)


def _relaxed_covariance(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """C_t from the eigenpairs (w, V) of A."""
    if t < 0:
        raise InvalidArgument("stochastic time must be >= 0")
    f = (1.0 - np.exp(-2.0 * t * w)) / w
    return (V * f) @ V.T


@dataclass
class StochasticScan:
    """Curve of the minimal reflected-Gram eigenvalue against stochastic time."""

    rows: list          # (t, min_eig, violated)
    witness_t: float | None
    witness: np.ndarray | None


def stochastic_rp_scan(model: LatticeModel, ts, tol: float = VIOLATION_TOL) -> StochasticScan:
    """A row is violated when its minimal eigenvalue is below -tol.

    Each row is the delta-basis covariance Gram of C_t (see covariance_rp).
    """
    half = model.half_indices()
    w, V = np.linalg.eigh(lattice_operator(model))
    rows = []
    wit_t, wit = None, None
    for t in ts:
        G = _reflected_block(model, half, _relaxed_covariance(w, V, float(t)))
        rep = gram_report_from_matrix(G.astype(complex), half)
        violated = rep.min_eig < -tol
        rows.append((float(t), rep.min_eig, violated))
        if violated and wit_t is None:
            wit_t, wit = float(t), rep.witness
    return StochasticScan(rows=rows, witness_t=wit_t, witness=wit)


def chain_transfer(model: LatticeModel):
    """OS transfer data for the Gaussian two-point sector plus the vacuum.

    Basis: the constant (vacuum) plus delta functions on positive-time sites;
    the shift moves deltas one step in time away from the plane.  Returns
    the ShiftCompression of that shift.
    """
    from .reconstruction import compress_shift

    gs = green_set(model)
    n = len(gs.half)
    M = np.zeros((n + 1, n + 1))
    M[0, 0] = 1.0
    M[1:, 1:] = _reflected_block(model, gs.half, gs.C)
    # the half is C-ordered with time first: one step in time is `row` positions
    row = n // (model.dims[0] // 2)

    def shift_of(j):
        if j == 0:
            return 0
        return j + row if j + row <= n else None

    return compress_shift(M.astype(complex), range(n + 1), shift_of, CHAIN_TOL)


def chain_gap(model: LatticeModel):
    """Spectral gap of the reconstructed Hamiltonian for the Gaussian chain."""
    comp = chain_transfer(model)
    lam = np.linalg.eigvalsh(comp.transfer)
    lam = lam[lam > 1e-13]
    E = np.sort(-np.log(lam))
    gap = float(E[1] - E[0]) if len(E) >= 2 else 0.0
    return gap, {"asymmetry": comp.asymmetry, "null_defect": comp.null_defect}
