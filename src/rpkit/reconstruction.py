"""Osterwalder-Schrader quantization: quotient space, transfer operator, spectrum.

One construction serves the algebra and the lattice side.  Take the RP form
omega(theta(A) o B) on an extended family (a window basis followed by the
shifts of its members that stay on the chain), quotient the window by the
null space of the form, and compress the time shift onto the quotient
(compress_shift).  Shifts falling off the chain map to the zero class.
quantize() gives the quotient of a Gram report on its own.

Null rule, shared by quantize, null_basis and compress_shift through
verifier.split_gram: a window Gram eigenvalue is null iff it is <= tol.  The
cut is absolute: algebra forms are normalized (omega(1) = 1, unitary
monomials), while the eigenvalues of m = 12 chain-window Grams fill every
decade from 1e-15 to 1e-6, so a cut scaled by the largest eigenvalue would
move the quotient rank with that eigenvalue.  Lattice chain Grams have no
eigenvalue between 1e-14 and 1e-6; either rule gives them the same rank.

The compression is a self-adjoint contraction exactly when the functional is
invariant under the shift on its support; the stated precondition is checked
and a PreconditionViolation raised otherwise, since the raw compression of a
shift-variant functional is not a transfer operator in any useful sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, StateFunctional
from .errors import InvalidArgument, PreconditionViolation, ReconstructionFailure
from .verifier import (GramReport, _check_plus, form_matrix, gram_report_from_matrix,
                       split_gram)

DEFAULT_TOL = 1e-10
SHIFT_TOL = 1e-10   # shift-invariance gate, times max(1, max |M|)
MAX_STEPS = 3       # the extended family holds shifts by up to MAX_STEPS x steps


@dataclass
class QuotientSpace:
    """Rank, isometry into basis-coefficient space, and the PSD square root."""

    rank: int
    isometry: np.ndarray
    gram_sqrt: np.ndarray
    null_vectors: np.ndarray
    tol: float
    matrix: np.ndarray      # the Gram form that was quotiented


def quantize(report: GramReport, tol: float | None = None) -> QuotientSpace:
    """Quotient the basis span by the null space of the Gram form."""
    if not report.psd:
        raise PreconditionViolation("quantize requires a PSD Gram report")
    tol = report.tol if tol is None else tol
    ev, vec, keep = split_gram(report.matrix, tol)
    iso = vec[:, keep] / np.sqrt(ev[keep])
    sqrt = (vec * np.sqrt(np.clip(ev, 0.0, None))) @ vec.conj().T
    return QuotientSpace(rank=int(keep.sum()), isometry=iso, gram_sqrt=sqrt,
                         null_vectors=vec[:, ~keep], tol=tol, matrix=report.matrix)


def time_shift(k, steps: int, cfg) -> tuple | None:
    """Shift a plus-half monomial away from the plane by `steps` generators.

    Returns the shifted exponent tuple, or None when support would leave the
    chain.  steps = 0 is the identity.
    """
    if steps < 0:
        raise InvalidArgument("time_shift requires steps >= 0")
    k = tuple(int(x) % cfg.d for x in k)
    if steps == 0:
        return k
    w = cfg.m // 2
    plus = list(k[w:])
    if steps >= w:
        return k if not any(plus) else None
    if any(plus[w - steps:]):
        return None
    return tuple([0] * w + [0] * steps + plus[:w - steps])


@dataclass
class TransferData:
    """Quantized one-step time translation and its Hamiltonian."""

    transfer: np.ndarray
    hamiltonian: np.ndarray
    dt: float = 1.0
    kernel_dim: int = 0
    asymmetry: float = 0.0
    normalization: float = 1.0
    shift_defect: float = 0.0
    excluded: list = field(default_factory=list)


def transfer_operator(omega: StateFunctional, algebra: Algebra, basis,
                      qspace: QuotientSpace | None = None, steps: int = 1) -> TransferData:
    """Compress the `steps`-generator shift onto the OS quotient of `basis`.

    The form is evaluated on the basis and its shifts by up to MAX_STEPS x
    `steps` generators; a given quotient supplies the basis block.  dt equals
    `steps` in lattice units and H = -(1/dt) log T on the strictly positive
    spectral part of T; kernel directions are reported as infinite-energy and
    excluded, never capped.
    """
    _check_plus(algebra, basis)
    if steps < 0:
        raise InvalidArgument("transfer_operator needs steps >= 0")
    cfg = algebra.cfg
    n = len(basis)
    family = list(basis)
    index = {k: i for i, k in enumerate(family)}
    for j in range(1, MAX_STEPS + 1):
        for k in basis:
            sk = time_shift(k, j * steps, cfg)
            if sk is not None and sk not in index:
                index[sk] = len(family)
                family.append(sk)
    M = form_matrix(omega, algebra, family, None if qspace is None else qspace.matrix)
    M = (M + M.conj().T) / 2
    scale = max(1.0, float(np.abs(M).max()))

    # precondition: omega invariant under the shift automorphism on its support.
    # Moving the shift across the reflection plane gives the operational form
    # omega(theta(alpha A) o B) = omega(theta(A) o alpha B), i.e.
    # M[shift a, b] = M[a, shift b]; this is exactly what makes the compressed
    # transfer self-adjoint.
    shifted = [index.get(time_shift(k, steps, cfg)) for k in basis]
    live = [(a, sa) for a, sa in enumerate(shifted) if sa is not None]
    defect = 0.0
    for a, sa in live:
        for b, sb in live:
            defect = max(defect, float(abs(M[sa, b] - M[a, sb])))
    if defect > SHIFT_TOL * scale:
        raise PreconditionViolation(
            f"functional not shift-invariant on the basis support "
            f"(defect {defect:.3e}, gate {SHIFT_TOL:.1e} x {scale:.3g})")

    if qspace is None:
        rep = gram_report_from_matrix(M[:n, :n], basis)
        if not rep.psd:
            raise PreconditionViolation("basis Gram is not PSD; run gram() first")
        qspace = quantize(rep)
    if steps == 0:
        # identity automorphism: T = 1 on the quotient, H = 0
        r = qspace.rank
        return TransferData(transfer=np.eye(r), hamiltonian=np.zeros((r, r)), dt=1.0)

    comp = compress_shift(M, range(n), shifted.__getitem__, qspace.tol)
    if comp.null_defect > 1e-8 * scale:
        raise ReconstructionFailure(
            f"null vector maps to a class of norm {comp.null_defect:.3e}",
            witness=comp.null_witness)
    T = comp.transfer
    ev = np.linalg.eigvalsh(T)
    norm = 1.0
    if ev.size and ev[-1] > 1.0 + DEFAULT_TOL:
        norm = float(ev[-1])
        T = T / norm
        ev = ev / norm
    # TransferData invariant: T self-adjoint PSD.  A genuinely negative part
    # means the quantized shift is not a transfer operator for this state.
    w, vec = np.linalg.eigh(T)
    if ev.size and ev[0] < -1e-9 * max(1.0, abs(ev[-1])):
        raise ReconstructionFailure(
            f"quantized shift is not positive (min eigenvalue {ev[0]:.3e})",
            witness=vec[:, 0])

    pos = w > 1e-12
    excluded = [float(x) for x in w[~pos]]
    V = vec[:, pos]
    H = (V * (-np.log(w[pos]) / steps)) @ V.conj().T
    return TransferData(transfer=T, hamiltonian=(H + H.conj().T) / 2, dt=float(steps),
                        kernel_dim=int((~pos).sum()), asymmetry=comp.asymmetry,
                        normalization=norm, shift_defect=defect, excluded=excluded)


@dataclass
class ShiftCompression:
    """A shift compressed onto the quotient of a window of an extended family."""

    transfer: np.ndarray            # hermitian part of V^H M S V
    asymmetry: float                # max |T - T^H| before symmetrizing
    null_defect: float              # largest norm of a shifted null vector
    null_witness: np.ndarray | None


def compress_shift(M_full: np.ndarray, basis_idx, shift_of,
                   tol: float = DEFAULT_TOL) -> ShiftCompression:
    """The shift compression shared by the algebra and lattice pipelines.

    M_full is the Gram of an extended family; basis_idx selects the window;
    shift_of maps window positions to family indices (None = falls off).  V
    is the isometry onto the range of the window Gram (eigenvalues > tol) and
    S the shift as a family-by-window 0/1 matrix.
    """
    sel = list(basis_idx)
    Mb = M_full[np.ix_(sel, sel)]
    ev, vec, keep = split_gram((Mb + Mb.conj().T) / 2, tol)
    iso = vec[:, keep] / np.sqrt(ev[keep])
    cols = np.zeros((M_full.shape[0], len(sel)), dtype=complex)
    for j in range(len(sel)):
        tgt = shift_of(j)
        if tgt is not None:
            cols[tgt, j] = 1.0
    null_defect, witness = 0.0, None
    for v in vec[:, ~keep].T:
        sv = cols @ v
        nrm = float(np.sqrt(abs(np.real(sv.conj() @ M_full @ sv))))
        if nrm > null_defect:
            null_defect, witness = nrm, v
    T = iso.conj().T @ (M_full[sel, :] @ cols) @ iso
    asym = float(np.abs(T - T.conj().T).max()) if T.size else 0.0
    return ShiftCompression(transfer=(T + T.conj().T) / 2, asymmetry=asym,
                            null_defect=null_defect, null_witness=witness)


@dataclass
class SpectrumReport:
    """Ascending eigenvalues of the reconstructed Hamiltonian and the gap."""

    eigenvalues: np.ndarray
    gap: float


def spectrum_report(td: TransferData) -> SpectrumReport:
    ev = np.sort(np.linalg.eigvalsh(td.hamiltonian))
    gap = float(ev[1] - ev[0]) if len(ev) >= 2 else 0.0
    return SpectrumReport(eigenvalues=ev, gap=gap)
