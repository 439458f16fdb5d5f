"""Osterwalder-Schrader quantization: quotient space, transfer operator, spectrum.

One construction serves the algebra and the lattice side.  Take the RP form
omega(theta(A) o B) on a window basis followed by the new shift images of
its members (shift_family), quotient the window by the null space of the
form (quantize), and compress the shift, T[B] = [alpha B], onto the quotient
(compress_shift).  Shifts falling off the chain map to the zero class.  The
form is evaluated once: the window Gram that quantize reads is its leading
block (gram_report_from_matrix), and transfer_operator reads the same form.

Null rule, in quantize only: a window Gram eigenvalue is null iff it is
<= tol.  quantize reads the eigenpairs and tol of the GramReport, so the
window Gram is diagonalized once, in gram_report_from_matrix.  The cut is
absolute: algebra forms are normalized (omega(1) = 1, unitary monomials),
while the eigenvalues of m = 12 chain-window Grams fill every decade from
1e-15 to 1e-6, so a cut scaled by the largest eigenvalue would move the
quotient rank with that eigenvalue.  Lattice chain Grams have no eigenvalue
between 1e-14 and 1e-6; either rule gives them the same rank.

The compression is a self-adjoint contraction exactly when the functional is
invariant under the shift on its support; the stated precondition is checked
and a PreconditionViolation raised otherwise, since the raw compression of a
shift-variant functional is not a transfer operator in any useful sense.

The transfer T is diagonalized once, in transfer_operator.  H = -(1/dt) log T
lives on (ker T)^perp only: energies() takes -log(w)/dt over the eigenvalues
w > KERNEL_TOL, and kernel directions have no finite energy, so they are
counted (kernel_dim) but never listed as energies.  lattice.chain_gap uses the
same energies() and KERNEL_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, PreconditionViolation, ReconstructionFailure
from .verifier import DEFAULT_TOL, GramReport

SHIFT_TOL = 1e-10   # shift-invariance gate, times max(1, max |M|)
KERNEL_TOL = 1e-12  # transfer eigenvalues at or below this are ker T


@dataclass
class QuotientSpace:
    """Rank, isometry into basis-coefficient space, and the null vectors."""

    rank: int
    isometry: np.ndarray
    null_vectors: np.ndarray


def quantize(report: GramReport) -> QuotientSpace:
    """Quotient the basis span by the null space of the Gram form: eigenvalues
    of the report at or below report.tol are null."""
    if not report.psd:
        raise PreconditionViolation("quantize requires a PSD Gram report")
    ev, vec = report.eigenvalues, report.eigenvectors
    keep = ev > report.tol
    iso = vec[:, keep] / np.sqrt(ev[keep])
    return QuotientSpace(rank=int(keep.sum()), isometry=iso, null_vectors=vec[:, ~keep])


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


def shift_family(basis, steps: int, cfg) -> tuple:
    """The basis followed by the new shift images of its members by `steps`
    generators, and shifted[j], the family index of the shift of member j
    (None when it falls off the chain)."""
    family = list(basis)
    index = {k: i for i, k in enumerate(family)}
    shifted = []
    for k in basis:
        sk = time_shift(k, steps, cfg)
        if sk is not None and sk not in index:
            index[sk] = len(family)
            family.append(sk)
        shifted.append(None if sk is None else index[sk])
    return family, shifted


def energies(w: np.ndarray, dt: float) -> np.ndarray:
    """Ascending -log(w)/dt over the transfer eigenvalues w > KERNEL_TOL."""
    # + 0.0 turns -log(1) = -0.0 into 0.0
    return np.sort(-np.log(w[w > KERNEL_TOL]) / dt) + 0.0


@dataclass
class TransferData:
    """Quantized time translation T, its spectrum, and the energies of H = -log(T)/dt."""

    transfer: np.ndarray
    eigenvalues: np.ndarray     # ascending spectrum of T
    energies: np.ndarray        # energies(eigenvalues, dt); none for eigenvalues[:kernel_dim]
    dt: float = 1.0
    kernel_dim: int = 0
    asymmetry: float = 0.0
    normalization: float = 1.0
    shift_defect: float = 0.0


def transfer_operator(M: np.ndarray, shifted, qspace: QuotientSpace,
                      steps: int = 1) -> TransferData:
    """Compress the `steps`-generator shift onto the OS quotient `qspace`.

    M is the form (verifier.form_matrix) on a family whose leading
    len(shifted) members are the window and whose further members are the
    new shift images (shift_family); shifted[j] is the family index of the
    shift of window member j, or None.  qspace quotients the leading block of
    this same form, so the form is evaluated once per reconstruction.  dt
    equals `steps` in lattice units.  T is diagonalized once: its eigenvalues
    feed the normalization and positivity gates and energies().
    """
    if steps < 0:
        raise InvalidArgument("transfer_operator needs steps >= 0")
    M = (M + M.conj().T) / 2
    scale = max(1.0, float(np.abs(M).max()))

    # precondition: omega invariant under the shift automorphism on its support.
    # Moving the shift across the reflection plane gives the operational form
    # omega(theta(alpha A) o B) = omega(theta(A) o alpha B), i.e.
    # M[shift a, b] = M[a, shift b]; this is exactly what makes the compressed
    # transfer self-adjoint.
    defect = shift_defect(M, shifted)
    if defect > SHIFT_TOL * scale:
        raise PreconditionViolation(
            f"functional not shift-invariant on the basis support "
            f"(defect {defect:.3e}, gate {SHIFT_TOL:.1e} x {scale:.3g})")

    if steps == 0:
        # identity automorphism: T = 1 on the quotient, H = 0
        w = np.ones(qspace.rank)
        return TransferData(transfer=np.eye(qspace.rank), eigenvalues=w, energies=energies(w, 1.0))

    comp = compress_shift(M, shifted, qspace)
    if comp.null_defect > 1e-8 * scale:
        raise ReconstructionFailure(
            f"null vector maps to a class of norm {comp.null_defect:.3e}",
            witness=comp.null_witness)
    T = comp.transfer
    w, vec = np.linalg.eigh(T)
    norm = 1.0
    if w.size and w[-1] > 1.0 + DEFAULT_TOL:
        norm = float(w[-1])
        T = T / norm
        w = w / norm
    # TransferData invariant: T self-adjoint PSD.  A genuinely negative part
    # means the quantized shift is not a transfer operator for this state.
    if w.size and w[0] < -1e-9 * max(1.0, abs(w[-1])):
        raise ReconstructionFailure(
            f"quantized shift is not positive (min eigenvalue {w[0]:.3e})",
            witness=vec[:, 0])
    return TransferData(transfer=T, eigenvalues=w, energies=energies(w, steps), dt=float(steps),
                        kernel_dim=int((w <= KERNEL_TOL).sum()), asymmetry=comp.asymmetry,
                        normalization=norm, shift_defect=defect)


def shift_defect(M: np.ndarray, shifted) -> float:
    """max |M[sa, b] - M[a, sb]| over the window positions a, b whose shifts sa, sb
    stay in the family (shifted[a] is None when a falls off); 0.0 when none do.

    The modulus is hypot(re, im), as Python's abs(complex) takes it; numpy's
    complex abs can differ from it in the last bit.
    """
    live = [a for a, sa in enumerate(shifted) if sa is not None]
    if not live:
        return 0.0
    s = [shifted[a] for a in live]
    diff = M[np.ix_(s, live)] - M[np.ix_(live, s)]
    return float(np.hypot(diff.real, diff.imag).max())


@dataclass
class ShiftCompression:
    """A shift compressed onto the quotient of a window of an extended family."""

    transfer: np.ndarray            # hermitian part of V^H M S V
    asymmetry: float                # max |T - T^H| before symmetrizing
    null_defect: float              # largest norm of a shifted null vector
    null_witness: np.ndarray | None


def compress_shift(M: np.ndarray, shifted, quotient: QuotientSpace) -> ShiftCompression:
    """The shift compression shared by the algebra and lattice pipelines.

    M is the form on a family whose leading len(shifted) members are the
    window; shifted[j] is the family index of the shift of window member j,
    or None when it falls off.  The quotient of the window form supplies the
    isometry V onto its range and its null vectors; S v adds v onto the
    members shifted[j], M[window] S gathers their columns, T = V^H M[window] S V.
    """
    n = len(shifted)
    iso, nulls = quotient.isometry, quotient.null_vectors
    live = [j for j, tgt in enumerate(shifted) if tgt is not None]
    tgts = [shifted[j] for j in live]
    null_defect, witness = 0.0, None
    for v in nulls.T:
        sv = np.zeros(M.shape[0], dtype=complex)
        np.add.at(sv, tgts, v[live])     # two members may share a shift
        nrm = float(np.sqrt(abs(np.real(sv.conj() @ M @ sv))))
        if nrm > null_defect:
            null_defect, witness = nrm, v
    MS = np.zeros((n, n), dtype=complex)
    MS[:, live] = M[:n, tgts]
    T = iso.conj().T @ MS @ iso
    asym = float(np.abs(T - T.conj().T).max()) if T.size else 0.0
    return ShiftCompression(transfer=(T + T.conj().T) / 2, asymmetry=asym,
                            null_defect=null_defect, null_witness=witness)


@dataclass
class SpectrumReport:
    """Ascending eigenvalues of the reconstructed Hamiltonian and the gap."""

    eigenvalues: np.ndarray
    gap: float


def spectrum_report(td: TransferData) -> SpectrumReport:
    ev = td.energies
    gap = float(ev[1] - ev[0]) if len(ev) >= 2 else 0.0
    return SpectrumReport(eigenvalues=ev, gap=gap)
