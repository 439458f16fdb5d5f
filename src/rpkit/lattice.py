"""Lattice free-field side of reflection positivity.

A = -laplacian + mass2 on a box (Dirichlet outside) or torus, time axis first
with even length so the reflection plane sits between lattice rows.  The
Green operator C = A^{-1} yields the half-space Dirichlet and Neumann Green
operators by image charges, C_D = (C - C_r)|half and C_N = (C + C_r)|half with
C_r(x, y) = C(x, r y), so that

    C_N - C_D = 2 C[r(half), half]      (C commutes with r),

and RP for the Gaussian field, C_D <= C_N, is positivity of that one
reflected block.  A GreenSet therefore holds only C and the half; C_D and C_N
are never formed.  The monotonicity report is the delta-basis covariance
report (below) doubled: doubling is exact, and eigh(2B) is 2 eigh(B) bit for
bit, so one eigendecomposition serves both verdicts.  The tests rebuild both
half operators from adjusted half-space stencils (phantom row equal to
minus/plus the mirror value) as an independent cross-check of the identity.

Sites are numbered in C order over dims (the order of itertools.product), so
the time reflection r is an index permutation.  The covariance Gram
<theta f_i, C f_j> = (R f_i)^T C f_j on the delta basis of the half, with R
the 0/1 matrix of r, is the same slice C[r(half), half]: R e_i = e_r(i), and
every other term of the product is an exact zero, so the slice equals the
product bit for bit.

Stochastic quantization relaxes from zero initial data with dphi = -A phi ds
+ sqrt(2) dW, so the time-s law has covariance C_t = A^{-1}(1 - exp(-2 t A));
the scan tracks the minimal reflected-Gram eigenvalue along a t-grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidGeometry, SizeLimit, WrongHalf
from .reconstruction import compress_shift, energies, quantize
from .verifier import GramReport, gram_report_from_matrix, scaled_report

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
    """Green operator C = A^{-1} of one lattice model and its positive-time half."""

    model: LatticeModel
    C: np.ndarray
    half: list


def green_set(model: LatticeModel) -> GreenSet:
    """C = A^{-1} and the half; a C that is not finite, or whose reflected block
    is identically zero, is refused with InvalidConfig.

    Exactly, C is entrywise positive on a connected lattice, so the block is
    not zero.  A zero block is underflow (mass2 = 1e308 puts C at 1e-308 on
    the diagonal and below the smallest double off it): both RP forms then
    vanish, and their "positive" verdict would rest on no entry at all.
    """
    C = np.linalg.inv(lattice_operator(model))
    half = model.half_indices()
    if not np.all(np.isfinite(C)):
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} is not finite")
    if not _reflected_block(model, half, C).any():
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} underflows: "
                            f"its reflected block is zero")
    return GreenSet(model=model, C=C, half=half)


def monotonicity_verdict(gs: GreenSet, tol: float = DEFAULT_TOL) -> GramReport:
    """PSD test of C_N - C_D = 2 C[r(half), half] (the operator monotonicity form of RP)."""
    return monotonicity_of(covariance_rp(gs, tol=tol))


def monotonicity_of(cov: GramReport) -> GramReport:
    """The monotonicity report read off the delta-basis covariance report, with no solve."""
    return scaled_report(cov, 2.0)


def covariance_rp(gs: GreenSet, testfns=None, tol: float = DEFAULT_TOL) -> GramReport:
    """Gram G_ij = (r f_i)^T C f_j for test functions supported on the half.

    Defaults to the full half-space delta basis, where G is the slice
    C[r(half), half].  Non-finite test functions are refused.
    """
    n = gs.C.shape[0]
    if testfns is None:
        sites = gs.model.sites
        labels = [sites[i] for i in gs.half]
        G = _reflected_block(gs.model, gs.half, gs.C)
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
        G = F[:, gs.model.reflection_indices()] @ gs.C @ F.T
    return gram_report_from_matrix(G, labels, tol)


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


def chain_transfer(gs: GreenSet):
    """OS transfer data for the Gaussian two-point sector plus the vacuum.

    Basis: the constant (vacuum) plus delta functions on positive-time sites;
    the shift moves deltas one step in time away from the plane.  Returns
    the ShiftCompression of that shift onto the quotient of the Gram at
    null tolerance CHAIN_TOL; a Gram that is not PSD raises
    PreconditionViolation.  A torus raises InvalidGeometry: its positive half
    meets the negative half at both ends, and the compressed shift is not a
    transfer operator (on 1-D tori the null defect is 0.15 to 1.0, and at 4
    sites the compression has negative eigenvalues).
    """
    if gs.model.bc == "torus":
        raise InvalidGeometry("the chain transfer needs a box; a torus has no OS transfer here")
    n = len(gs.half)
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[0, 0] = 1.0
    M[1:, 1:] = _reflected_block(gs.model, gs.half, gs.C)
    # the half is C-ordered with time first: one step in time is `row` positions
    row = n // (gs.model.dims[0] // 2)

    def shift_of(j):
        if j == 0:
            return 0
        return j + row if j + row <= n else None

    quotient = quantize(gram_report_from_matrix(M, range(n + 1), CHAIN_TOL))
    return compress_shift(M, range(n + 1), shift_of, quotient)


def chain_gap(gs: GreenSet):
    """Spectral gap of the reconstructed Hamiltonian for the Gaussian chain."""
    comp = chain_transfer(gs)
    E = energies(np.linalg.eigvalsh(comp.transfer), 1.0)
    gap = float(E[1] - E[0]) if len(E) >= 2 else 0.0
    return gap, {"asymmetry": comp.asymmetry, "null_defect": comp.null_defect}
