"""Lattice free-field side of reflection positivity, as a cut problem.

A = -laplacian + mass2 on a box (Dirichlet outside) or torus, time axis first
with even length so the reflection plane sits between lattice rows.  Sites
are numbered in C order over dims (the order of itertools.product), so the
time reflection r is an index permutation.  With C = A^{-1}, the half-space
Dirichlet and Neumann Green operators are C_D = (C - C_r)|half and
C_N = (C + C_r)|half, C_r(x, y) = C(x, r y), so that

    C_N - C_D = 2 C[r(half), half]      (C commutes with r),

and RP for the Gaussian field, C_D <= C_N, is positivity of that one
reflected block B.  On the delta basis of the half, the covariance Gram
<theta f_i, C f_j> is B itself, and the monotonicity report is the covariance
report doubled: doubling is exact, and eigh(2B) is 2 eigh(B) bit for bit,
so one eigendecomposition serves both verdicts.

The cut identity.  Order the negative half as r(half).  By the reflection
symmetry, A[r(half), r(half)] = A[half, half] =: A_+, the operator of the
half with zero data outside it.  The only bonds between the halves join a
half site to its own mirror: across the plane (first half row) and, on a torus,
around the wrap (last half row).  So in the basis (r(half), half)

    A = [[A_+, -P E P^T], [-P E P^T, A_+]],

with P the inclusion of the cut sites (the half sites with such a bond) and
E the diagonal of their bond counts.  E = 1, except on an Nt = 2 torus: its
one half row is both the first and the last, the plane bond and the wrap
bond join the same pair of sites, and lattice_operator counts both, so
E = 2.  The cut has prod(dims[1:]) sites on a box and on an Nt = 2 torus,
and twice that on a torus with Nt >= 4.  The even and odd parts under the
swap of the two blocks give the Schur complements C_N = (A_+ - P E P^T)^{-1}
and C_D = (A_+ + P E P^T)^{-1}, so B = (C_N - C_D) / 2.  Woodbury, with
K = A_+^{-1} P and Y = P^T K = K[cut], gives
(A_+ -+ P E P^T)^{-1} = A_+^{-1} +- K (E^{-1} -+ Y)^{-1} K^T, hence

    B = K W K^T,   W = ((E^{-1} - Y)^{-1} + (E^{-1} + Y)^{-1}) / 2
                     = (E^{-1} - Y E Y)^{-1} = E (1 - Y E Y E)^{-1}.

This is the Markov property: the halves see each other only through the
cut.  K has full column rank, so B has rank |cut|, its kernel is the
orthogonal complement of the range of K, and B >= 0 exactly when W >= 0.
(E^{-1} - Y > 0 is the cut form of the Neumann operator A_+ - P E P^T >=
mass2 > 0, and E^{-1} + Y > 0, so W is a sum of two positive matrices: RP
holds at every mass2 > 0.)  A GreenSet therefore holds K and W: green_set
solves A_+ once, on the cut columns, and never inverts A, and covariance_rp
reads the spectrum of B from a QR of K and one cut x cut eigh.  The tests
keep the dense C = inv(A) as the oracle, and rebuild C_D and C_N from
adjusted half-space stencils (phantom row equal to minus/plus the mirror
value) as an independent cross-check of the identity.

SITE_CAP still bounds the dense A, which lattice_operator builds and
green_set slices A_+ from, and the stochastic scan's eigh of A.

Stochastic quantization relaxes from zero initial data with dphi = -A phi ds
+ sqrt(2) dW, so the time-s law has covariance C_t = A^{-1}(1 - exp(-2 t A));
the scan tracks the minimal reflected-Gram eigenvalue along a t-grid.  C_t is
not the inverse of a nearest-neighbour operator and has no cut structure:
the scan slices the dense C_t[r(half), half].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidGeometry, SizeLimit, WrongHalf
from .reconstruction import compress_shift, energies, quantize
from .verifier import GramReport, gram_report_from_matrix, scaled_report

DEFAULT_TOL = 1e-10
SITE_CAP = 4096
VIOLATION_TOL = 1e-8    # default gate: a scan row is violated when min eigenvalue < -tol


@dataclass(frozen=True)
class LatticeModel:
    """Geometry (time axis first, even), mass term, and boundary condition."""

    dims: tuple
    mass2: float
    bc: str = "box"

    def __post_init__(self):
        try:
            dims = tuple(int(n) for n in self.dims)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"dims must be integers: {self.dims}") from exc
        if dims != tuple(self.dims):
            raise InvalidConfig(f"dims must be integers: {self.dims}")
        object.__setattr__(self, "dims", dims)
        if not self.dims or any(n < 2 for n in self.dims):
            raise InvalidConfig(f"dims must be nonempty with every axis >= 2: {self.dims}")
        if self.bc not in ("box", "torus"):
            raise InvalidConfig(f"bc must be 'box' or 'torus', got {self.bc!r}")
        if self.dims[0] % 2:
            raise InvalidGeometry("time axis must have even length for mid-bond reflection")
        if not np.isfinite(self.mass2) or self.mass2 <= 0:
            raise InvalidConfig(f"mass2 must be finite and > 0 (torus would be singular): "
                                f"{self.mass2}")
        if int(np.prod(self.dims)) > SITE_CAP:
            raise SizeLimit(f"lattice volume {int(np.prod(self.dims))} exceeds cap {SITE_CAP}")
        if self.bc == "torus" and self.mass2 < self.torus_floor():
            raise InvalidConfig(f"torus mass2 {self.mass2:.3e} is below the round-off floor "
                                f"{self.torus_floor():.3e}: the operator is numerically singular")

    def torus_floor(self) -> float:
        """n eps ||A||, the smallest mass2 a torus accepts, with n the site count.

        On a torus the constant mode of A = -laplacian + mass2 has eigenvalue
        mass2, and ||A|| <= 4 len(dims) + mass2, which is 4 len(dims) for any
        mass2 near the floor.  A solve with A in floating point
        solves a problem perturbed by about n eps ||A||, so a smaller mass2 is
        within round-off of the singular Laplacian.  The dense inverse raised
        there (dims [16] at mass2 1e-17) or returned a C of no accuracy
        (dims [4, 4] at 1e-17 gave monotonicity_min_eig -0.457).  The cut form
        carries the constant mode in W = (E^{-1} - Y E Y)^{-1}: at 1e-17 its
        largest entry is 4.5e15 on dims [16], and the block's hermiticity
        defect is 0.5.  A box operator is >= mass2 plus the Dirichlet gap, so
        boxes have no floor.
        """
        n = int(np.prod(self.dims))
        return n * np.finfo(float).eps * 4 * len(self.dims)

    @property
    def sites(self) -> list:
        return list(itertools.product(*[range(n) for n in self.dims]))

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


def _reflected_block(model: LatticeModel, half, C: np.ndarray) -> np.ndarray:
    """(R C)[half, half], taken as the slice C[r(half), half]."""
    return C[np.ix_(model.reflection_indices()[half], half)]


@dataclass
class GreenSet:
    """The reflected block K W K^T of one lattice model and its positive-time half.

    K is n/2 x cut and W is cut x cut (module docstring).  Any block B takes
    this form as K = 1, W = B, with no cut structure: the tests build the
    counterexample covariances that way.
    """

    model: LatticeModel
    half: list
    K: np.ndarray
    W: np.ndarray

    @cached_property
    def block(self) -> np.ndarray:
        """C[r(half), half] = K W K^T, n/2 x n/2."""
        return self.K @ self.W @ self.K.T

    @property
    def cut_size(self) -> int:
        return self.K.shape[1]


def green_set(model: LatticeModel) -> GreenSet:
    """The cut factors K = A_+^{-1} P and W = (E^{-1} - Y E Y)^{-1}, Y = K[cut].

    One solve with A_+ = A[half, half] on the cut columns and one cut x cut
    solve; A is never inverted.  Factors that are not finite, or a block
    K W K^T that is identically zero, are refused with InvalidConfig.
    Exactly, C is entrywise positive on a connected lattice, so the block is
    not zero.  A zero block is underflow (mass2 = 1e308 puts K at 1e-308 on
    the cut and below the smallest double off it): both RP forms then
    vanish, and their "positive" verdict would rest on no entry at all.
    """
    A = lattice_operator(model)
    half = model.half_indices()
    # each half site's bond count to its own mirror; A[r(half), half] has no
    # other nonzero entry
    e = -A[model.reflection_indices()[half], half]
    cut = np.flatnonzero(e)
    e = e[cut]
    K = np.linalg.solve(A[np.ix_(half, half)], np.eye(len(half))[:, cut])
    Y = K[cut]
    W = np.linalg.solve(np.diag(1.0 / e) - (Y * e) @ Y, np.eye(cut.size))
    gs = GreenSet(model=model, half=half, K=K, W=W)
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(W))):
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} is not finite")
    if not gs.block.any():
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} underflows: "
                            f"its reflected block is zero")
    return gs


def monotonicity_verdict(gs: GreenSet, tol: float = DEFAULT_TOL) -> GramReport:
    """PSD test of C_N - C_D = 2 C[r(half), half] (the operator monotonicity form of RP)."""
    return monotonicity_of(covariance_rp(gs, tol=tol))


def monotonicity_of(cov: GramReport) -> GramReport:
    """The monotonicity report read off the delta-basis covariance report, with no solve."""
    return scaled_report(cov, 2.0)


def covariance_rp(gs: GreenSet, testfns=None, tol: float = DEFAULT_TOL) -> GramReport:
    """Gram G_ij = (r f_i)^T C f_j for test functions supported on the half.

    Defaults to the full half-space delta basis, where G is the block
    K W K^T.  Its spectrum comes from the cut form: with the complete QR
    K = Q R, the nonzero eigenvalues are those of the cut x cut R W R^T, with
    eigenvectors Q U; the other n/2 - cut eigenvalues are exact zeros, with
    the kernel columns of Q as eigenvectors.  So min_eig is the true minimum
    of the block, an exact 0.0 whenever n/2 > cut (the block is PSD exactly
    when W is), and the witness is then a unit kernel vector.  Explicit test
    functions F give (F_h K) W (F_h K)^T, F_h the half columns of F;
    non-finite test functions are refused.
    """
    half = gs.half
    if testfns is None:
        sites = gs.model.sites
        c = gs.cut_size
        Q, R = np.linalg.qr(gs.K, mode="complete")
        S = R[:c] @ gs.W @ R[:c].T
        lam, U = np.linalg.eigh((S + S.T) / 2)
        ev = np.concatenate([lam, np.zeros(len(half) - c)])
        vec = np.hstack([Q[:, :c] @ U, Q[:, c:]])
        order = np.argsort(ev, kind="stable")
        return gram_report_from_matrix(gs.block, [sites[i] for i in half], tol,
                                       spectrum=(ev[order], vec[:, order]))
    n = int(np.prod(gs.model.dims))
    fns = [np.asarray(f, dtype=float) for f in testfns]
    if any(f.shape != (n,) for f in fns):
        raise InvalidArgument("test functions must be full-lattice vectors")
    F = np.array(fns).reshape(len(fns), n)
    if not np.all(np.isfinite(F)):
        # abs(nan) > 0 is False: the support check below would pass NaN
        raise InvalidArgument("test functions must be finite")
    off = np.ones(n, dtype=bool)
    off[half] = False
    if np.any(np.abs(F[:, off]) > 0):
        raise WrongHalf("test functions must be supported on positive-time sites")
    FK = F[:, half] @ gs.K
    return gram_report_from_matrix(FK @ gs.W @ FK.T, range(len(fns)), tol)


def stochastic_covariance(model: LatticeModel, t: float) -> np.ndarray:
    """C_t = A^{-1}(1 - exp(-2 t A)), the time-t law of the OU relaxation."""
    return _relaxed_covariance(*np.linalg.eigh(lattice_operator(model)), t)


def _relaxed_covariance(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """C_t from the eigenpairs (w, V) of A."""
    if not (np.isfinite(t) and t >= 0):
        raise InvalidArgument(f"stochastic time must be finite and >= 0, got {t}")
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
        rep = gram_report_from_matrix(G, half)
        violated = rep.min_eig < -tol
        rows.append((float(t), rep.min_eig, violated))
        if violated and wit_t is None:
            wit_t, wit = float(t), rep.witness
    return StochasticScan(rows=rows, witness_t=wit_t, witness=wit)


def chain_transfer(gs: GreenSet, tol: float = DEFAULT_TOL):
    """OS transfer data for the Gaussian two-point sector plus the vacuum.

    Basis: the constant (vacuum) plus delta functions on positive-time sites;
    the shift moves deltas one step in time away from the plane.  Returns
    the ShiftCompression of that shift onto the quotient of the Gram at
    null tolerance tol, the tolerance of the covariance verdict on the same
    reflected block; a Gram that is not PSD raises
    PreconditionViolation.  A torus raises InvalidGeometry: its positive half
    meets the negative half at both ends, and the compressed shift is not a
    transfer operator (on 1-D tori the null defect is 0.15 to 1.0, and at 4
    sites the compression has negative eigenvalues).
    """
    if gs.model.bc == "torus":
        raise InvalidGeometry("the chain transfer needs a box; a torus has no OS transfer here")
    if gs.model.dims[0] == 2:
        raise InvalidGeometry("the chain transfer needs a half of two or more time rows; "
                              "the shift moves a single row off the chain")
    n = len(gs.half)
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0, 0] = 1.0
    M[1:, 1:] = gs.block
    # the half is C-ordered with time first: one step in time is `row` positions
    row = n // (gs.model.dims[0] // 2)
    shifted = [0] + [j + row if j + row <= n else None for j in range(1, n + 1)]
    quotient = quantize(gram_report_from_matrix(M, range(n + 1), tol))
    return compress_shift(M, shifted, quotient)


def chain_gap(gs: GreenSet, tol: float = DEFAULT_TOL):
    """Spectral gap of the reconstructed Hamiltonian for the Gaussian chain."""
    comp = chain_transfer(gs, tol)
    E = energies(np.linalg.eigvalsh(comp.transfer), 1.0)
    gap = float(E[1] - E[0]) if len(E) >= 2 else 0.0
    return gap, {"asymmetry": comp.asymmetry, "null_defect": comp.null_defect}
