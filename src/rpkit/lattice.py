"""Lattice free-field side of reflection positivity, one transverse mode at a time.

A = -laplacian + mass2 on a box (Dirichlet outside) or torus, time axis first
with even length Nt so the reflection plane sits between lattice rows.  Sites
are numbered in C order over dims, so site (t, x) is t S + x, with x the C
order index over the transverse axes dims[1:] and S = prod(dims[1:]); the
time reflection r(t, x) = (Nt - 1 - t, x) is an index permutation.  With
C = A^{-1}, the half-space Dirichlet and Neumann Green operators are
C_D = (C - C_r)|half and C_N = (C + C_r)|half, C_r(x, y) = C(x, r y), so that

    C_N - C_D = 2 C[r(half), half]      (C commutes with r),

and RP for the Gaussian field, C_D <= C_N, is positivity of that one
reflected block B.  On the delta basis of the half, the covariance Gram
<theta f_i, C f_j> is B itself, and the monotonicity report is the covariance
report doubled: doubling is exact, so one spectrum serves both verdicts.

The transverse reduction.  The lattice Laplacian is a sum over axes, so

    A = T (x) 1 + 1 (x) (-laplacian_perp) + mass2,

with T the 1-D time Laplacian: 2 on the diagonal, -1 between neighbours and,
on a torus, -1 for the bond from the last row to the first (on an Nt = 2
torus that bond and the plane bond join the same pair, and lattice_operator
counts both: -2).  The 1-D -laplacian on L sites is diagonal in a
closed-form orthonormal basis (_axis_vectors, _axis_eigenvalues):

    box:   sqrt(2/(L+1)) sin(pi j (x+1)/(L+1)),  j = 1..L,  eigenvalue 4 sin^2(pi j / (2(L+1)));
    torus: the real Fourier vectors, constant, then cos and sin of 2 pi f x / L
           for 0 < f < L/2, then (-1)^x for even L;        eigenvalue 4 sin^2(pi f / L),

columns in ascending order of eigenvalue.  The torus form covers L = 2 with
its doubled bond: the constant at 0 and (-1)^x at 4.  The transverse basis
is the product of the axis bases over dims[1:], and lambda_k is the sum of
the axis eigenvalues of mode k (modes in C order over the axes).  In the
basis (time) (x) (mode), A is block diagonal with one 1-D time operator
T_k = T + m_k, m_k = mass2 + lambda_k, per mode; so are C and C_t =
A^{-1}(1 - exp(-2tA)), which are functions of A, and, because r acts on
time only, so is the reflected block: B = sum_k B_k (x) u_k u_k^T, with B_k
the reflected block of the 1-D problem at mass m_k.  The spectrum of B is
the union of the mode spectra, and an eigenvector tau of B_k is the site
vector tau (x) u_k of B.  This is the transverse reduction of Glimm-Jaffe
(Quantum Physics, ch. 6-10).  The time axis takes the same closed form: one
basis V of the Nt rows (or of the h half rows) serves every mode, and only
the eigenvalues mu_j + m_k change with k, so no time operator is formed.

The cut of one mode.  Order the mode's time rows as (r(half), half), h = Nt/2
rows each.  By the reflection symmetry both diagonal blocks of T_k are
A_+ = T_k[half, half], the 1-D box stencil on h rows at mass m_k.  The only
bonds between the halves join a row to its own mirror: across the plane
(the first half row) and, on a torus, around the lattice (the last half
row).  So

    T_k = [[A_+, -P E P^T], [-P E P^T, A_+]],

with P the inclusion of the cut rows and E the diagonal of their bond counts:
on a box the cut is the first half row, with E = 1; on a torus with Nt >= 4
the first and the last, E = 1 each; on an Nt = 2 torus the one half row is
both, so it is the cut with E = 2.  The cut of the lattice, cut_size, is S
times the mode cut.  The even and odd parts under the swap of the two blocks
give the Schur complements C_N = (A_+ - P E P^T)^{-1} and C_D = (A_+ +
P E P^T)^{-1}, so B_k = (C_N - C_D) / 2.  Woodbury, with K = A_+^{-1} P and
Y = P^T K = K[cut], gives (A_+ -+ P E P^T)^{-1} = A_+^{-1} +- K (E^{-1} -+ Y)^{-1} K^T,
hence

    B_k = K W K^T,   W = ((E^{-1} - Y)^{-1} + (E^{-1} + Y)^{-1}) / 2
                       = (E^{-1} - Y E Y)^{-1} = E (1 - Y E Y E)^{-1}.

This is the Markov property: the halves see each other only through the
cut.  K has full column rank, so B_k has the rank of the cut, its kernel is
the orthogonal complement of the range of K, and B_k >= 0 exactly when
W >= 0.  (E^{-1} - Y > 0 is the cut form of the Neumann operator
A_+ - P E P^T >= mass2 > 0, and E^{-1} + Y > 0, so W is a sum of two
positive matrices: RP holds at every mass2 > 0.)  With the thin QR
K = Q R, the nonzero eigenvalues of B_k are those of R W R^T, with
eigenvectors Q U, and the other h - cut are exact zeros.

K in the sine basis.  A_+ = V diag(mu_j + m_k) V^T with V the box basis of
the h half rows, so

    K = A_+^{-1} P = V diag(g_k) V[cut]^T,   g_kj = 1 / (mu_j + m_k),

which green_set contracts as V (g (*) V[cut]^T): the g-weighted cut rows of
V, S x h x cut, then one product with V, so nothing S x h x h is formed.  A
GreenSet holds the per-mode stacks K (S x h x cut) and W (S x cut x cut);
the one solve is the batched cut x cut system for W, and covariance_rp reads
the spectrum from a batched thin QR and one batched eigvalsh of the cut
forms.  The report carries the sorted spectrum (n/2 numbers), the worst mode
and one witness, the worst mode's time vector (x) its transverse vector.
GreenSet.block forms the whole n/2 x n/2 block for the tests and for the
1-D chain transfer.  Any block B takes the GreenSet form as one mode with
K = 1 and W = B; the tests build counterexample covariances that way.  The
tests keep the dense C = inv(A), the whole-lattice cut form and its complete
QR, and the per-mode solve with the time stencils, as oracles.

The scan.  Stochastic quantization relaxes from zero initial data with
dphi = -A phi ds + sqrt(2) dW, so the time-s law has covariance
C_t = A^{-1}(1 - exp(-2 t A)).  C_t is a function of A and splits by mode:
with V the basis of the Nt time rows and w_kj = mu_j + m_k, mode k's
covariance is V diag(g_t(w_kj)) V^T, g_t(w) = (1 - exp(-2 t w)) / w, and its
reflected h x h block is V[r(half)] diag(g_t(w_k)) V[half]^T.
stochastic_rp_scan takes, per t, the eigenvalues of the S reflected blocks;
no eigh of a time operator is needed.  C_t is not the inverse of a
nearest-neighbour operator, so at finite t those blocks have no cut
structure, and RP fails there (Jaffe, arXiv:1411.2964).

Work budget.  LatticeModel checks S Nt^2 + n against MODE_ENTRIES on the
dims, with Python integers, before anything is allocated; each term counts
up to the constant factor of its temporaries.  S Nt^2 bounds the scan, whose
per-t stacks are the weighted half columns (S x Nt x h) and the blocks
(S x h x h).  green holds S h cut + S cut^2 entries for K and W.  On a box
that is all: W - W^T is 1 x 1 per mode, zero, and no more is formed.  On a
torus with Nt >= 4 the batched solve leaves W - W^T nonzero, so the
hermiticity defect of covariance_rp forms the S x h x h stack
K (W - W^T) K^T, as the scan does (about 2.1e9 entries at 2048 x 2048).
So the term bounds green on a torus and is more than it takes on a box;
the budget does not yet tell them apart.  n bounds the spectrum and the
witness, n/2 entries each; the half, whose site indices label the report
(covariance_rp), is a range.  The worst mode's transverse vector is built from
the closed form, L entries per axis.  The dense L x L axis bases are built
only by explicit test functions (TransverseModes.to_modes) and the block
view: TransverseModes.bases holds sum L^2 to MODE_ENTRIES where they are
built, so a long thin lattice such as [2, 100000] passes green and the
scan, and only those calls refuse it.  The
dense lattice_operator, which only stochastic_covariance and the tests call,
checks n^2 against the same budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidGeometry, SizeLimit, WrongHalf
from .reconstruction import compress_shift, energies, quantize
from .verifier import DEFAULT_TOL, GramReport, gram_report_from_matrix

MODE_ENTRIES = 2**25    # work budget: S Nt^2 + n per lattice, sum L^2 per set of axis bases
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
        if not math.isfinite(self.mass2) or self.mass2 <= 0:
            raise InvalidConfig(f"mass2 must be finite and > 0 (torus would be singular): "
                                f"{self.mass2}")
        n = math.prod(self.dims)
        work = n * self.dims[0] + n         # S Nt^2 + n (module docstring)
        if work > MODE_ENTRIES:
            raise SizeLimit(f"lattice {list(self.dims)}: the mode path takes "
                            f"S Nt^2 + n = {work} entries, over the budget of {MODE_ENTRIES}")
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
        n = math.prod(self.dims)
        return n * np.finfo(float).eps * 4 * len(self.dims)

    @property
    def sites(self) -> list:
        return list(itertools.product(*[range(n) for n in self.dims]))

    def _grid(self) -> np.ndarray:
        """Site indices laid out on the lattice (C order, the order of `sites`)."""
        return np.arange(math.prod(self.dims)).reshape(self.dims)

    def reflection_indices(self) -> np.ndarray:
        """r[i] = index of the mirror image of site i."""
        return self._grid()[::-1].ravel()

    def half_indices(self) -> range:
        """Positive-time sites: t >= dims[0] / 2."""
        n = math.prod(self.dims)
        return range(n // 2, n)             # C order with time first: the last n/2


def _axis_eigenvalues(L: int, bc: str) -> np.ndarray:
    """Eigenvalues of the 1-D -laplacian on L sites, in the column order of
    _axis_vectors (ascending; module docstring)."""
    if bc == "box":
        return 4 * np.sin(np.pi * np.arange(1, L + 1) / (2 * (L + 1)))**2
    return 4 * np.sin(np.pi * ((np.arange(L) + 1) // 2) / L)**2


def _axis_vectors(L: int, bc: str, j: np.ndarray) -> np.ndarray:
    """Columns j of the orthonormal eigenbasis of the 1-D -laplacian on L
    sites (module docstring), L x len(j), from the closed form alone."""
    x = np.arange(L)[:, None]
    if bc == "box":
        return np.sqrt(2 / (L + 1)) * np.sin(np.pi * ((x + 1) * (j + 1)) / (L + 1))
    freq = (j + 1) // 2                     # 0, 1, 1, 2, 2, ...
    phase = 2 * np.pi * (x * freq) / L
    U = np.where(j % 2, np.cos(phase), np.sin(phase)) * np.sqrt(2 / L)
    U[:, j == 0] = 1 / np.sqrt(L)
    if L % 2 == 0:
        U[:, j == L - 1] = (-1.0)**x / np.sqrt(L)
    return U


@dataclass(frozen=True)
class TransverseModes:
    """The eigenmodes of -laplacian on the transverse axes (module docstring).

    lengths are the transverse axis lengths and lam the eigenvalue lambda_k of
    each mode, in C order over the axes.  No basis is stored: vector builds
    one mode's columns from the closed form (L entries per axis), and only
    to_modes and matrix build the whole L x L basis of each axis.  With no
    axes there is one mode with the trivial basis (1): a 1-D lattice, or a
    block with no transverse structure.
    """

    lengths: tuple = ()
    bc: str = "box"
    lam: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def size(self) -> int:
        return self.lam.size

    def index(self, k: int) -> tuple:
        """The per-axis column indices of mode k."""
        return tuple(int(j) for j in np.unravel_index(k, self.lengths))

    def vector(self, k: int) -> np.ndarray:
        """u_k, the transverse site vector of mode k (C order over the axes)."""
        u = np.ones(1)
        for L, j in zip(self.lengths, self.index(k)):
            u = np.outer(u, _axis_vectors(L, self.bc, np.array([j]))).ravel()
        return u

    def bases(self) -> list:
        """The L x L eigenbasis (columns) of each transverse axis; sum L^2 is
        held to MODE_ENTRIES before any is built."""
        work = sum(L * L for L in self.lengths)
        if work > MODE_ENTRIES:
            raise SizeLimit(f"transverse axes {list(self.lengths)}: their bases take "
                            f"sum L^2 = {work} entries, over the budget of {MODE_ENTRIES}")
        return [_axis_vectors(L, self.bc, np.arange(L)) for L in self.lengths]

    def to_modes(self, x: np.ndarray) -> np.ndarray:
        """Mode coefficients of site vectors: x is (..., S) in site order."""
        lead = x.shape[:-1]
        y = x.reshape(lead + tuple(self.lengths))
        for i, U in enumerate(self.bases()):
            y = np.moveaxis(np.tensordot(y, U, axes=([len(lead) + i], [0])), -1, len(lead) + i)
        return y.reshape(lead + (self.size,))

    def matrix(self) -> np.ndarray:
        """The S x S transverse basis, u_k in column k (for the block view)."""
        M = np.ones((1, 1))
        for U in self.bases():
            M = np.kron(M, U)
        return M


def transverse_modes(model: LatticeModel) -> TransverseModes:
    """The closed-form transverse decomposition of a lattice model: the
    eigenvalues only, O(sum L) before the S mode sums."""
    lam = np.zeros(1)
    for L in model.dims[1:]:
        lam = np.add.outer(lam, _axis_eigenvalues(L, model.bc)).ravel()
    return TransverseModes(lengths=model.dims[1:], bc=model.bc, lam=lam)


def lattice_operator(model: LatticeModel) -> np.ndarray:
    """A = -laplacian + mass2 with the chosen boundary condition, dense n x n.

    Only stochastic_covariance and the tests use it; n^2 is held to the
    MODE_ENTRIES budget.
    """
    n = math.prod(model.dims)
    if n * n > MODE_ENTRIES:
        raise SizeLimit(f"the dense operator of {n} sites takes n^2 = {n * n} entries, "
                        f"over the budget of {MODE_ENTRIES}")
    grid = model._grid()
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


@dataclass
class GreenSet:
    """The reflected block of one lattice model, mode by mode, and its half.

    K is S x h x cut and W is S x cut x cut: mode k's block is
    K[k] W[k] K[k]^T over its h time rows (module docstring).  Any block B
    takes this form as one mode with K = 1, W = B and the trivial modes.
    """

    model: LatticeModel
    half: range
    K: np.ndarray
    W: np.ndarray
    modes: TransverseModes = field(default_factory=TransverseModes)

    @property
    def cut_size(self) -> int:
        return self.K.shape[0] * self.K.shape[2]

    @cached_property
    def cut_form(self) -> tuple:
        """(Q, F): the thin QR K = Q R per mode and the cut forms F = R W R^T,
        symmetrized, whose eigenvalues are the nonzero spectrum of each mode."""
        Q, R = np.linalg.qr(self.K)
        F = R @ self.W @ R.transpose(0, 2, 1)
        return Q, (F + F.transpose(0, 2, 1)) / 2

    @cached_property
    def block(self) -> np.ndarray:
        """C[r(half), half] = sum_k B_k (x) u_k u_k^T in site order, n/2 x n/2.

        The tests' view of the form and the 1-D chain transfer's Gram; the
        verdicts never form it.
        """
        Bk = self.K @ self.W @ self.K.transpose(0, 2, 1)
        U = self.modes.matrix()
        n = Bk.shape[1] * U.shape[0]
        return np.einsum("xk,kts,yk->txsy", U, Bk, U).reshape(n, n)


def _cut(model: LatticeModel) -> tuple:
    """The half rows bonded to their mirror, and their bond counts E."""
    h = model.dims[0] // 2
    if model.bc == "box":
        return np.array([0]), np.array([1.0])
    if h == 1:
        return np.array([0]), np.array([2.0])
    return np.array([0, h - 1]), np.array([1.0, 1.0])


def green_set(model: LatticeModel) -> GreenSet:
    """The cut factors K = A_+^{-1} P and W = (E^{-1} - Y E Y)^{-1}, Y = K[cut], per mode.

    K is read in the closed-form sine basis of the h half rows (module
    docstring), contracted without forming anything S x h x h; the one solve
    is the batched cut x cut system for W.  Factors that are not finite, or
    cut forms whose largest entry is below the smallest normal double
    (finfo.tiny), are refused with InvalidConfig.  Exactly, C is entrywise
    positive on a connected lattice, so the block is not zero: a smaller one
    is underflow.  At mass2 = 1e308 the block is zero, at 1e160 subnormal,
    with fewer than 53 significant bits, and a "positive" would rest on that.
    """
    modes = transverse_modes(model)
    h = model.dims[0] // 2
    cut, e = _cut(model)
    S, c = modes.size, cut.size
    V = _axis_vectors(h, "box", np.arange(h))
    g = 1.0 / (_axis_eigenvalues(h, "box") + (model.mass2 + modes.lam)[:, None])
    K = V @ (g[:, :, None] * V[cut].T)
    Y = K[:, cut]
    W = np.linalg.solve(np.diag(1.0 / e) - (Y * e) @ Y, np.broadcast_to(np.eye(c), (S, c, c)))
    if not (np.all(np.isfinite(K)) and np.all(np.isfinite(W))):
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} is not finite")
    gs = GreenSet(model=model, half=model.half_indices(), K=K, W=W, modes=modes)
    if np.abs(gs.cut_form[1]).max() < np.finfo(float).tiny:
        raise InvalidConfig(f"the Green operator at mass2 = {model.mass2} underflows: "
                            f"its reflected block is below the smallest normal double")
    return gs


def monotonicity_verdict(gs: GreenSet, tol: float = DEFAULT_TOL) -> GramReport:
    """PSD test of C_N - C_D = 2 C[r(half), half] (the operator monotonicity form of RP)."""
    return monotonicity_of(covariance_rp(gs, tol=tol))


def monotonicity_of(cov: GramReport) -> GramReport:
    """The monotonicity report read off the delta-basis covariance report, with
    no solve: doubling is exact, so 2 cov.eigenvalues and 2 cov.herm_defect are
    those of 2 B bit for bit, judged with the same tol, witness and mode."""
    return GramReport(cov.basis, None, 2 * cov.eigenvalues, None, cov.witness, cov.tol,
                      2 * cov.herm_defect, cov.reflection_defect, cov.block)


def covariance_rp(gs: GreenSet, testfns=None, tol: float = DEFAULT_TOL) -> GramReport:
    """Gram G_ij = (r f_i)^T C f_j for test functions supported on the half.

    Defaults to the full half-space delta basis gs.half, where G is the
    block.  Its spectrum is read mode by mode (module docstring): the
    eigenvalues of the cut forms R W R^T, one batched eigvalsh, and h - cut
    exact zeros per mode.  So min_eig is the true minimum of the block, an
    exact 0.0 whenever h > cut and every cut form is PSD.  The worst mode,
    the report's block (TransverseModes.index), is the one with the
    smallest cut eigenvalue; the witness is its time vector (x) its
    transverse vector: a unit kernel vector (the first column past the cut of
    the complete Q of that mode's K) when the minimum is the exact zero, else
    the bottom eigenvector of its cut form.  The hermiticity defect is the
    largest entry of K (W - W^T) K^T over the modes, the block's asymmetry in
    the mode basis.  Explicit test functions F give, per mode,
    (F_k K) W (F_k K)^T summed over the modes, F_k the mode-k coefficients of
    the half columns of F (one block); non-finite test functions are refused.
    """
    half = gs.half
    S, h, c = gs.K.shape
    if testfns is None:
        Q, F = gs.cut_form
        lam = np.linalg.eigvalsh(F)
        k = int(np.argmin(lam[:, 0]))
        ev = np.sort(np.concatenate([lam.ravel(), np.zeros(S * (h - c))]))
        if h > c and lam[k, 0] > 0:
            tau = np.linalg.qr(gs.K[k], mode="complete")[0][:, c]
        else:
            tau = Q[k] @ np.linalg.eigh(F[k])[1][:, 0]
        skew = gs.W - gs.W.transpose(0, 2, 1)
        herm = float(np.abs(gs.K @ skew @ gs.K.transpose(0, 2, 1)).max()) if skew.any() else 0.0
        witness = np.outer(tau, gs.modes.vector(k)).ravel()
        return GramReport(half, None, ev, None, witness, tol, herm, 0.0, gs.modes.index(k))
    n = math.prod(gs.model.dims)
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
    Fm = gs.modes.to_modes(F[:, half].reshape(len(fns), h, S))
    FK = np.einsum("ftk,ktc->kfc", Fm, gs.K)
    G = (FK @ gs.W @ FK.transpose(0, 2, 1)).sum(axis=0)
    return gram_report_from_matrix(G, range(len(fns)), tol)


def stochastic_covariance(model: LatticeModel, t: float) -> np.ndarray:
    """C_t = A^{-1}(1 - exp(-2 t A)), the time-t law of the OU relaxation (dense)."""
    _check_time(t)
    w, V = np.linalg.eigh(lattice_operator(model))
    return (V * _relaxation(w, t)) @ V.T


def _check_time(t: float) -> None:
    if not (np.isfinite(t) and t >= 0):
        raise InvalidArgument(f"stochastic time must be finite and >= 0, got {t}")


def _relaxation(w: np.ndarray, t: float) -> np.ndarray:
    """(1 - exp(-2 t w)) / w: C_t on an eigenvalue w of A."""
    return (1.0 - np.exp(-2.0 * t * w)) / w


@dataclass
class StochasticScan:
    """Curve of the minimal reflected-Gram eigenvalue against stochastic time."""

    rows: list          # (t, min_eig, violated)
    witness_t: float | None
    witness: np.ndarray | None


def stochastic_rp_scan(model: LatticeModel, ts, tol: float = VIOLATION_TOL) -> StochasticScan:
    """A row is violated when its minimal eigenvalue is below -tol.

    Each row is the spectrum of the delta-basis covariance Gram of C_t, read
    mode by mode in the closed-form eigenbasis V of the time axis (module
    docstring): per t, one batched eigvalsh of the S reflected h x h blocks
    G_k = V[r(half)] diag(g(w_k)) V[half]^T.  V[r(half)] V[half]^T = 0, the
    off-diagonal block of V V^T = 1, so subtracting a constant c_k from mode
    k's relaxations g(w_k) leaves G_k unchanged in exact arithmetic; with
    c_k the midrange of g(w_k), relaxations that are all equal, as under
    underflow, give an exact zero block rather than round-off.  The witness
    of the first violated row is the worst mode's bottom eigenvector (x) its
    transverse vector.  A row at t > 0 whose blocks are all zero is
    underflow and is refused with InvalidConfig, as green_set refuses a zero
    block: exactly, C_t = int_0^{2t} exp(-sA) ds is entrywise positive on a
    connected lattice.
    """
    ts = [float(t) for t in ts]
    for t in ts:
        _check_time(t)
    modes = transverse_modes(model)
    Nt = model.dims[0]
    h = Nt // 2
    V = _axis_vectors(Nt, model.bc, np.arange(Nt))
    w = _axis_eigenvalues(Nt, model.bc) + (model.mass2 + modes.lam)[:, None]
    Vh, Vr = V[h:].T, V[h - 1::-1]          # half rows (as columns), their mirror rows
    rows = []
    wit_t, wit = None, None
    for t in ts:
        g = _relaxation(w, t)
        g -= (g.max(axis=1, keepdims=True) + g.min(axis=1, keepdims=True)) / 2
        G = Vr @ (g[:, :, None] * Vh)
        if t > 0 and not G.any():
            raise InvalidConfig(f"the relaxed covariance at mass2 = {model.mass2}, t = {t} "
                                f"underflows: its reflected block is zero")
        G = (G + G.transpose(0, 2, 1)) / 2
        lam = np.linalg.eigvalsh(G)
        k = int(np.argmin(lam[:, 0]))
        min_eig = float(lam[k, 0])
        violated = min_eig < -tol
        rows.append((t, min_eig, violated))
        if violated and wit_t is None:
            tau = np.linalg.eigh(G[k])[1][:, 0]
            wit_t, wit = t, np.outer(tau, modes.vector(k)).ravel()
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
