"""RP Gram forms and the hermitian-expansion / SFT positivity criteria.

The central object is the Gram matrix M_ab = omega(theta(B_a) o B_b) over a
monomial basis of the right-half algebra.  omega is reflection positive on
that span iff M is positive semidefinite.

A star- and theta-invariant Hamiltonian decomposes into one-sided parts, a
diagonal cross-cut part sum_k lambda_k E_k, E_k = theta(B_k) o B_k, and a
residual.  The sufficient positivity criterion implemented here ("positive
SFT"): residual and non-neutral one-sided terms vanish, and the couplings
J_k = -lambda_k are all real and >= 0.  Gibbs functionals of such
Hamiltonians produce PSD Grams at every beta; the acceptance suite checks
this, and that generic Hamiltonians violating it give indefinite Grams.

J_k needs no orientation phase: with the twist xi = zeta^(d-1), zeta =
exp(i pi/d) (Jaffe-Pedrocchi, arXiv:1406.1384), theta(E_k) = E_k and E_k* =
E_kbar, kbar = -k mod d.  With e(k, l) = -sum_{i>j} k_i l_j (the ordering
exponent of algebra._swap_phase), |k| = sum k, g = |k| mod d and the
palindrome K = rev k + k, E_k = zeta^a c^K, a = (d-1) g^2 + 2 e(k, k), as
rev k sits wholly left of k.  e(K, K) = 2 e(k, k) - |k|^2, so theta(E_k) and
E_k* are zeta^(2 e(K, K) - 2a) times E_k and E_kbar, and that exponent is
-2|k|^2 - 2(d-1) g^2 = -2d g^2 = 0 mod 2d, as |k|^2 = g^2 mod d.  Alike,
theta(theta(B_k) o B_l) = theta(B_l) o B_k for any pair: the phase between
them is zeta^(-2(d-1) g_k g_l - 2|k||l|) = 1.  The adjoint phase of an
off-diagonal pair, against theta(B_kbar) o B_lbar, is not 1 in general.

For couplings living on a single Z_d ladder and depending only on the ladder
difference, the criterion reduces to a Bochner test: the coupling block
reshuffles into a circulant whose eigenvalues are the DFT of the sequence
(see sft_positivity_sequence and the boxes module).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# evaluate is not called here, but perfbench/selftest.py patches it as
# rpkit.verifier.evaluate
from .algebra import (Algebra, AlgebraConfig, AlgebraElement, StateFunctional, check_dim,
                      digit_table, evaluate, root_table, theta, twisted_product, weyl_symbol)
from .boxes import dft_zd
from .chains import QuasiFreeState
from .errors import InvalidArgument, InvalidConfig, SizeLimit, WrongHalf

DEFAULT_TOL = 1e-10
# Work budget of one form, n^2 dim over the n members of the family as given,
# kept as it was set for the per-pair gather that the Omega table replaced.  The table's real work is u k (dim + d^(2 (w//2)))
# <= u dim (d^(w//2) + d^(w - w//2)) multiply-adds plus n^2 w integer steps, for
# u <= min(n^2, dim) distinct shifts and k <= d^(w - w//2) low frequencies
# (form_matrix).  Lifting the gate needs its own bound on the eigh (n^3) and on
# the report size (n^2 matrix entries).
GATHER_ENTRIES = 2**25
# Shifts per chunk of the Omega table (_weyl_form).  A chunk keeps each BLAS
# call under OMEGA_MACS multiply-adds, which OpenBLAS runs on one thread: it
# threads a zgemm from 2^16, and a threaded call waited 4-8 ms on a 2-vCPU
# host, where the whole (4, 6) form takes 0.5 ms.  A shift that alone needs
# more is a chunk of its own.
OMEGA_MACS = 2**15

POSITIVE = "positive"
NEGATIVE = "negative"
NOT_APPLICABLE = "not-applicable"


def plus_basis(cfg: AlgebraConfig, max_grade: int | None = None) -> list:
    """Monomial exponent tuples spanning the right-half algebra.

    Ordered so that lower generator indices vary first: 1, c_{m/2+1},
    c_{m/2+2}, ..., matching the documented report layout.
    """
    w = cfg.m // 2
    check_dim(cfg)
    keys = sorted(itertools.product(range(cfg.d), repeat=w),
                  key=lambda t: tuple(reversed(t)))
    out = []
    for k in keys:
        if max_grade is not None and sum(k) > max_grade:
            continue
        out.append(tuple([0] * w + list(k)))
    return out


@dataclass
class GramReport:
    """Hermitian Gram form with PSD verdict and violation witness.

    A form read off its spectrum without being formed (lattice.covariance_rp)
    has no matrix and no eigenvectors, only the ascending eigenvalues and
    the witness; mode names the transverse mode that holds the witness.
    """

    basis: list
    matrix: np.ndarray | None
    min_eig: float
    psd: bool
    witness: np.ndarray
    tol: float
    verdict: str
    herm_defect: float = 0.0
    reflection_defect: float = 0.0
    marginal: bool = False
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None  # columns pair with `eigenvalues`
    not_applicable_reason: str = ""     # the gate that tripped: reflection or hermiticity
    mode: tuple = ()


def gram_report_from_matrix(M: np.ndarray, basis, tol: float = DEFAULT_TOL,
                            reflection_defect: float = 0.0) -> GramReport:
    """PSD verdict machinery shared by the algebra and lattice Gram forms."""
    herm = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
    Ms = (M + M.conj().T) / 2
    ev, vec = np.linalg.eigh(Ms) if M.size else (np.zeros(0), np.zeros((0, 0)))
    witness = vec[:, 0] if ev.size else np.zeros(0)
    return _judged(list(basis), Ms, ev, vec, witness, tol, herm, reflection_defect)


def spectral_report(basis, ev: np.ndarray, witness: np.ndarray, tol: float, herm: float,
                    mode: tuple = ()) -> GramReport:
    """The report of a form known by its ascending spectrum and one witness.

    No matrix and no eigenvectors: lattice.covariance_rp reads the spectrum
    mode by mode and never forms the block.
    """
    return _judged(list(basis), None, ev, None, witness, tol, herm, 0.0, mode)


def scaled_report(rep: GramReport, factor: float) -> GramReport:
    """The report of factor * rep.matrix, from rep's spectrum and without a solve.

    For a power of two the scaling is exact, and eigh(factor M) is
    factor * eigh(M) bit for bit, eigenvectors included; the verdict is taken
    again on the scaled eigenvalues against the same tol, with the same witness.
    """
    M = None if rep.matrix is None else factor * rep.matrix
    return _judged(rep.basis, M, factor * rep.eigenvalues, rep.eigenvectors, rep.witness,
                   rep.tol, factor * rep.herm_defect, rep.reflection_defect, rep.mode)


def _judged(basis, Ms, ev, vec, witness, tol, herm, reflection_defect, mode=()) -> GramReport:
    """The one verdict rule: the gates, then PSD against -tol."""
    min_eig = float(ev[0]) if ev.size else 0.0
    psd = min_eig >= -tol
    reason = "reflection" if reflection_defect > 1e-10 else "hermiticity" if herm > 1e-8 else ""
    verdict = NOT_APPLICABLE if reason else POSITIVE if psd else NEGATIVE
    return GramReport(
        basis=basis, matrix=Ms, min_eig=min_eig, psd=psd, witness=witness,
        tol=tol, verdict=verdict, herm_defect=herm, reflection_defect=reflection_defect,
        marginal=psd and min_eig < 0, eigenvalues=ev, eigenvectors=vec,
        not_applicable_reason=reason, mode=mode)


def _family_exponents(algebra: Algebra, family) -> np.ndarray:
    """The family as an n x m array of exponents mod d, after the work budget.

    A family whose form would cost more than GATHER_ENTRIES = n^2 dim is
    refused with SizeLimit before any table is built, and a member off the
    plus half with WrongHalf.
    """
    cfg = algebra.cfg
    n, dim, w = len(family), cfg.dim, cfg.m // 2
    if n * n * dim > GATHER_ENTRIES:
        raise SizeLimit(f"Gram form over {n} monomials at dimension {dim} gathers "
                        f"{n * n * dim} entries, over the budget of {GATHER_ENTRIES}")
    try:
        K = np.array(family, dtype=np.int64).reshape(n, -1) if n else np.zeros((0, cfg.m), int)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"family members must be exponent tuples: {exc}") from exc
    if K.shape[1] != cfg.m:
        raise InvalidConfig(f"exponent tuple length {K.shape[1]} != m = {cfg.m}")
    K %= cfg.d
    off = np.flatnonzero(K[:, :w].any(1))
    if off.size:
        raise WrongHalf(f"basis monomial {tuple(family[off[0]])} not supported on the plus half")
    return K


def _theta_exponent(K: np.ndarray) -> np.ndarray:
    """e(k, k) = -sum_{i>j} k_i k_j of each row k: theta(c^k) = q^e(k, k) c^(k reversed)."""
    return -(K * (np.cumsum(K, axis=1) - K)).sum(1)


def _weyl_words(cfg: AlgebraConfig, K: np.ndarray) -> tuple:
    """The shift index S, frequency index F and phase exponent P of every
    theta(B_a) o B_b, so that M_ab = zeta^P Omega[S, F] (form_matrix).

    K holds the plus-half exponents of the family.  The symbols of theta(B_a)'s
    word c^(k_a reversed) and of B_b come from algebra.weyl_symbol; each index
    of a pair is one side's digits plus the other's, reduced digit by digit.
    """
    d, w, n = cfg.d, cfg.m // 2, len(K)
    h = w // 2                          # digits with both generators left of the cut
    place = d ** np.arange(w - 1, -1, -1)
    steps, freq, phase = weyl_symbol(d, np.concatenate([K[:, ::-1], K]))
    shift = steps @ place
    S = shift[:n, None] + shift[None, n:]
    if w % 2:                           # digit h straddles the cut: carry once
        S -= (steps[:n, h, None] + steps[None, n:, h] >= d) * (d * place[h])
    g = K.sum(1) % d
    # left of digit h every frequency digit of B_b is its grade g_b
    left = ((freq[:n, None, :h] + np.arange(d)[:, None]) % d) @ place[:h]
    F = left[:, g] + (freq[n:, h:] @ place[h:])[None, :]
    theta_a = phase[:n] + 2 * _theta_exponent(K)
    P = (theta_a[:, None] + phase[None, n:] + (d + 1) * np.outer(g, g)) % (2 * d)
    return S, F, P


def _members(x: np.ndarray, size: int) -> tuple:
    """The distinct values of x in range(size), sorted, and the position of
    each entry of x among them."""
    mask = np.zeros(size, dtype=bool)
    mask[x] = True
    return np.flatnonzero(mask), (np.cumsum(mask) - 1)[x]


def _weyl_form(rho: np.ndarray, cfg: AlgebraConfig, words) -> np.ndarray:
    """M = zeta^P Omega[S, F] (form_matrix).

    The digits split into a high block of D1 = d^(w//2) states and a low
    block of D2 = d^(w - w//2).  Omega is built for the shifts in S and the
    low frequency digits in F only, a chunk of shifts at a time (OMEGA_MACS).
    """
    S, F, P = words
    d, w, dim = cfg.d, cfg.m // 2, cfg.dim
    hi, lo = digit_table(d, w // 2), digit_table(d, w - w // 2)
    D1, D2 = len(hi), len(lo)
    zeta = root_table(d)                        # q^j = zeta^(2j)

    def plus(x, s):
        """Index of each state x + s, digit by digit, for each s."""
        return (x[None] + x[s][:, None]) % d @ (d ** np.arange(x.shape[1] - 1, -1, -1))

    shifts, slot = _members(S.ravel(), dim)
    f_hi, f_lo = np.divmod(F.ravel(), D2)
    cols, col = _members(f_lo, D2)
    F1 = zeta[2 * (hi @ hi.T) % (2 * d)]        # D1 x D1 DFT q^(f.i), high digits
    F2 = zeta[2 * (lo @ lo[cols].T) % (2 * d)]  # D2 x k, the low frequencies in use
    i = np.arange(dim).reshape(D1, 1, D2)
    flat = rho.ravel()
    vals = np.empty(S.size, dtype=complex)
    step = max(1, OMEGA_MACS // (dim * len(cols)))
    # the pairs ordered by slot once, by a stable radix sort (slot < dim <=
    # DEFAULT_CAP < 2^16): the pairs of shifts first .. first + u - 1 are
    # order[start[first]:start[first + u]]
    order = np.argsort(slot.astype(np.uint16), kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(slot, minlength=len(shifts)))])
    for first in range(0, len(shifts), step):
        s_hi, s_lo = np.divmod(shifts[first:first + step], D2)
        u = len(s_hi)
        # V[i_hi, s, i_lo] = rho[i + s, i], then the low and the high DFT block:
        # Om[f_hi, s, col]
        V = flat[(plus(hi, s_hi).T[:, :, None] * D2 + plus(lo, s_lo)[None]) * dim + i]
        Om = (F1 @ (V.reshape(-1, D2) @ F2).reshape(D1, -1)).ravel()
        sel = order[start[first]:start[first + u]]
        vals[sel] = Om[(f_hi[sel] * u + slot[sel] - first) * len(cols) + col[sel]]
    return zeta[P] * vals.reshape(S.shape)


def _form(omega: StateFunctional | QuasiFreeState, algebra: Algebra,
          K: np.ndarray) -> np.ndarray:
    """M_ab = omega(theta(B_a) o B_b) over the exponent rows K (form_matrix):
    a quasi-free state gives its word values, any other state the Omega table
    of its density."""
    cfg = algebra.cfg
    if not isinstance(omega, QuasiFreeState):
        return _weyl_form(omega.density(algebra), cfg, _weyl_words(cfg, K))
    n, g = len(K), K.sum(1) % cfg.d
    P = (2 * _theta_exponent(K)[:, None] + (cfg.d - 1) * np.outer(g, g)) % (2 * cfg.d)
    words = (K[:, None, ::-1] + K[None]).reshape(n * n, cfg.m)
    return root_table(cfg.d)[P] * omega.word_values(cfg, words).reshape(n, n)


def form_matrix(omega: StateFunctional | QuasiFreeState, algebra: Algebra,
                family) -> np.ndarray:
    """M_ab = omega(theta(B_a) o B_b) over a plus-half monomial family, unsymmetrized.

    theta(B_a) = q^e(k_a, k_a) c^(k_a reversed) lives left of the cut and B_b
    right of it.  Every generator of rev k_a precedes every one of k_b, so
    e(rev k_a, k_b) = 0 and theta(B_a) B_b = q^e(k_a, k_a) c^K, K = rev k_a +
    k_b, with no reordering; the twist adds xi^(g_a g_b), with the grades
    g = |k| mod d (|k| = sum k).  With q = zeta^2 and xi = eta = zeta^(d-1),
    for any state

        M_ab = zeta^(2 e(k_a, k_a) + (d-1) g_a g_b) omega(c^K).

    A quasi-free state (chains.QuasiFreeState) gives omega(c^K) of the n^2
    words directly, as Pfaffians of its covariance (Wick's rule), with no
    density; each carries the round-off of one pivoted elimination.

    Every other state reads each entry, one clock-shift (Weyl) word, off one
    table: by the word rule of the algebra docstring, c^K[i, i + n] =
    eta^E q^(f.i + Q), so omega(c^K) = tr(rho c^K) = eta^E q^Q Omega[n, f],
    Omega[n, f] = sum_i rho[i + n, i] q^(f.i).  n, f and E are linear in K
    and split into one part per side.  Q is quadratic, and its cross terms
    add up to |k_a| |k_b|: all of rev k_a sits before all of k_b except at
    odd w, where digit h = w//2 holds c_w-1 of the left word and c_w of the
    right one; there n_h sum_{t<h} n_t misses their product and K_2h K_2h+1
    adds it back.  So

        M_ab = zeta^P Omega[n, f],   P = (d-1)(E + g_a g_b) + 2(Q + e(k_a, k_a)),

    P mod 2d = P(rev k_a) + P(k_b) + 2 e(k_a, k_a) + (d+1) g_a g_b, and zeta^P
    comes from the 2d-entry root_table.  Only digit h mixes the sides of n,
    so the shift index is the sum of one index per side less one carry.  The
    frequency digits of the left word vanish from h on, and those of the
    right word before h are |k_b|, so F[a, b] = left[a, g_b] + right[b] from
    an n x d table.  The indices cost n^2 w integer work (_weyl_words).

    Omega is built only for the u <= min(n^2, dim) distinct shifts and the
    k <= d^(w - w//2) low frequency digits in use.  The q^(f.i) sum of each
    shift is two dense DFT blocks, over the w - w//2 low digits and then the
    w//2 high ones: u k (dim + d^(2 (w//2))) <= 2 u dim k multiply-adds, in
    chunks of shifts sized by OMEGA_MACS.  By Cauchy-Schwarz
    sum_i |rho[i + n, i]| <= tr rho = 1, so each entry is within about
    (d^(w//2) + d^(w - w//2)) eps <= (dim + 1) eps of the exact form.

    reconstruct evaluates one form, over the window followed by its shift
    images, and reads the window Gram off its leading block (leading_report).
    That block is the window's own form (gram) bit for bit for a quasi-free
    state, whose word values are elementwise eliminations, and up to the
    round-off above otherwise: BLAS may sum in another order for another
    family.
    """
    return _form(omega, algebra, _family_exponents(algebra, family))


def gram(omega: StateFunctional | QuasiFreeState, algebra: Algebra, basis,
         tol: float = DEFAULT_TOL) -> GramReport:
    """M_ab = omega(theta(B_a) o B_b) over plus-half monomials, with verdict.

    The form is form_matrix's, under its GATHER_ENTRIES budget.  The
    reflection defect max_a |omega(theta(B_a)) - conj(omega(B_a))| reads the
    one-point values off the same form: theta(1) = 1 and the twist of a
    grade-0 factor is 1, so omega(theta(B_a)) is the identity column and
    omega(B_a) the identity row.  A basis without the identity gets it as an
    extra last member.  The budget gate counts the caller's n only, as it
    did for the gather, so that extra member can take the table to
    (n + 1)^2 dim > GATHER_ENTRIES, by 2n + 1 words; bases built by
    plus_basis hold the identity.  No dense rep is built.
    """
    K = _family_exponents(algebra, basis)
    n = len(K)
    one = np.flatnonzero(~K.any(1))
    if one.size == 0:
        K = np.vstack([K, np.zeros((1, algebra.cfg.m), dtype=K.dtype)])
    return leading_report(_form(omega, algebra, K), basis, one[0] if one.size else n, tol)


def leading_report(M: np.ndarray, basis, one: int, tol: float = DEFAULT_TOL) -> GramReport:
    """The GramReport of the leading len(basis) block of a family form M
    (form_matrix), with the reflection defect read as gram reads it: member
    `one` of the family is the identity, so its column holds omega(theta(B_a))
    and its row omega(B_a)."""
    n = len(basis)
    refl = float(np.abs(M[:n, one] - M[one, :n].conj()).max(initial=0.0))
    return gram_report_from_matrix(M[:n, :n], basis, tol, reflection_defect=refl)


# ---------------------------------------------------------------------------
# canonical cross elements
# ---------------------------------------------------------------------------

def _bar(cfg: AlgebraConfig, k) -> tuple:
    w = cfg.m // 2
    return tuple([0] * w + [(-e) % cfg.d for e in k[w:]])


def _single(E: AlgebraElement):
    (k, v), = E.coeffs.items()
    return k, v


def cross_element(algebra: Algebra, k) -> AlgebraElement:
    """E_k = theta(B_k) o B_k for the plus monomial with exponents k."""
    B = algebra.monomial(k)
    return twisted_product(theta(B), B)


def coupling_element(algebra: Algebra, k, J: float) -> AlgebraElement:
    """Star- and theta-invariant summand -J (E_k + E_kbar), J real >= 0 in the
    theorem class (module docstring).  A self-paired ladder (k == kbar)
    contributes -J E_k alone."""
    kk = algebra._canon(k)
    kb = _bar(algebra.cfg, kk)
    term = -J * cross_element(algebra, kk)
    return term if kb == kk else term + -J * cross_element(algebra, kb)


@dataclass
class CouplingDecomposition:
    """H = h_minus + h_plus + sum_k lambda_k theta(B_k) o B_k + residual."""

    h_plus: AlgebraElement
    h_minus: AlgebraElement
    cross: list  # [(lambda_k, plus-monomial exponent tuple), ...]
    residual: AlgebraElement

    def reassemble(self) -> AlgebraElement:
        alg = self.h_plus.algebra
        out = self.h_minus + self.h_plus + self.residual
        for lam, k in self.cross:
            out = out + lam * cross_element(alg, k)
        return out


def coupling_decomposition(H: AlgebraElement) -> CouplingDecomposition:
    """Split a star-invariant H along the reflection cut.

    Monomials supported on one half go to h_plus/h_minus (the identity counts
    as h_plus).  A cross-cut monomial factors as (minus part)(plus part); it
    is diagonal-matched when the minus part mirrors the plus part, i.e. the
    monomial of theta(B_k) o B_k for B_k the plus part.  Everything else
    lands in the residual.
    """
    alg = H.algebra
    m = H.cfg.m
    half = m // 2
    h_plus = alg.zero()
    h_minus = alg.zero()
    residual = alg.zero()
    cross = []
    for k, v in sorted(H.coeffs.items(), key=lambda kv: tuple(reversed(kv[0]))):
        term = alg.element({k: v})
        minus_supp = any(k[:half])
        plus_supp = any(k[half:])
        if not minus_supp:
            h_plus = h_plus + term
        elif not plus_supp:
            h_minus = h_minus + term
        else:
            kp = tuple([0] * half + list(k[half:]))
            E = cross_element(alg, kp)
            mono, tau = _single(E)
            if mono == k:
                cross.append((v / tau, kp))
            else:
                residual = residual + term
    return CouplingDecomposition(h_plus=h_plus, h_minus=h_minus, cross=cross,
                                 residual=residual)


@dataclass
class SftVerdict:
    """Outcome of the SFT-positivity check."""

    verdict: str
    couplings: dict = field(default_factory=dict)
    eigenvalues: np.ndarray | None = None
    reason: str = ""


def sft_positivity(dec: CouplingDecomposition, tol: float = DEFAULT_TOL) -> SftVerdict:
    """Sufficient RP criterion for a zero-residual hermitian expansion.

    The cross-coupling block K is diagonal over the matched monomials with
    entries J_k = -lambda_k, with no phase: E_k is theta-invariant (module
    docstring).  The verdict is positive iff K is PSD (all J_k real >= -tol)
    and the one-sided parts are charge neutral.
    """
    if dec.residual.norm_max() > 1e-10:
        return SftVerdict(NOT_APPLICABLE,
                          reason=f"residual norm {dec.residual.norm_max():.3e} exceeds 1e-10")
    scale = max([1.0] + [abs(l) for l, _ in dec.cross])
    couplings = {k: -lam for lam, k in dec.cross}
    # theta-invariance of the reassembled H (reflection-invariant omega needs it)
    H = dec.reassemble()
    tdef = (theta(H) - H).norm_max()
    if tdef > 1e-8 * max(1.0, H.norm_max()):
        return SftVerdict(NOT_APPLICABLE, couplings,
                          reason=f"H not reflection invariant (defect {tdef:.3e})")
    # one-sided parts must be charge neutral (grade 0) for the verified cone
    for part in (dec.h_plus, dec.h_minus):
        for g, P in part.grade_parts().items():
            if g != 0 and P.norm_max() > tol * scale:
                return SftVerdict(NEGATIVE, couplings,
                                  reason=f"non-neutral one-sided term of grade {g}")
    J = np.array(sorted(couplings.values(), key=lambda z: (z.real, z.imag))) \
        if couplings else np.zeros(0)
    worst_imag = float(np.abs(J.imag).max(initial=0.0))
    if worst_imag > tol * scale:
        return SftVerdict(NEGATIVE, couplings, J,
                          reason=f"coupling block not hermitian (imag {worst_imag:.3e})")
    if J.size and J[0].real < -tol * scale:
        return SftVerdict(NEGATIVE, couplings, J, reason=f"negative coupling {J[0].real:.3e}")
    return SftVerdict(POSITIVE, couplings, J)


def sft_positivity_sequence(seq, d: int | None = None, tol: float = DEFAULT_TOL) -> SftVerdict:
    """Bochner check for ladder couplings depending on the Z_d difference.

    The sequence reshuffles into the circulant block K_{kl} = J_{(k-l) mod d};
    its eigenvalues are the DFT of the sequence, so the verdict is positive
    iff K is hermitian, J_k = conj(J_{-k mod d}), and the DFT is entrywise
    real >= -tol (scaled).  K itself is never formed.  A non-finite or
    wrong-length sequence is refused with InvalidArgument, and so is one so
    large that its DFT, modulus or hermiticity defect overflows.
    """
    J = np.asarray(seq, dtype=complex)
    d = len(J) if d is None else d
    if len(J) != d:
        raise InvalidArgument(f"sequence length {len(J)} != d = {d}")
    if not np.all(np.isfinite(J)):
        raise InvalidArgument(f"sequence must be finite: {seq}")
    with np.errstate(over="ignore", invalid="ignore"):
        spec = dft_zd(J)
        scale = max(1.0, float(np.abs(J).max()))
        # K - K^H holds J[k] - conj(J[-k mod d]) at every (a, b) with a - b = k
        herm = float(np.abs(J - J[-np.arange(d) % d].conj()).max())
    if not (np.all(np.isfinite(spec)) and np.isfinite(scale) and np.isfinite(herm)):
        raise InvalidArgument("sequence overflows: its DFT or hermiticity defect is not finite")
    if herm > tol * scale:
        return SftVerdict(NEGATIVE, {i: J[i] for i in range(d)}, spec,
                          reason=f"coupling block not hermitian (defect {herm:.3e})")
    mn = float(spec.real.min())
    verdict = POSITIVE if mn >= -tol * scale else NEGATIVE
    return SftVerdict(verdict, {i: J[i] for i in range(d)}, spec,
                      reason="" if verdict == POSITIVE else f"DFT min {mn:.3e}")


# ---------------------------------------------------------------------------
# seeded Hamiltonian families used by the randomized suites
# ---------------------------------------------------------------------------

def draw_theorem_hamiltonian(algebra: Algebra, rng: np.random.Generator,
                             max_couplings: int = 3) -> AlgebraElement:
    """Zero-residual hermitian expansion with positive SFT: neutral one-sided
    part plus ferromagnetic diagonal couplings."""
    cfg = algebra.cfg
    basis = plus_basis(cfg)
    H = algebra.zero()
    for _ in range(int(rng.integers(1, max_couplings + 1))):
        k = basis[int(rng.integers(1, len(basis)))]
        H = H + coupling_element(algebra, k, float(rng.uniform(0.0, 2.0)))
    g = algebra.zero()
    for k in basis[1:]:
        if sum(k) % cfg.d == 0 and rng.random() < 0.7:
            g = g + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    g = g + g.star()
    return H + g + theta(g)


def draw_generic_hamiltonian(algebra: Algebra, rng: np.random.Generator,
                             terms: int = 4) -> AlgebraElement:
    """Generic star-invariant H; almost surely fails the SFT criterion."""
    cfg = algebra.cfg
    H = algebra.zero()
    for _ in range(terms):
        k = tuple(int(x) for x in rng.integers(0, cfg.d, cfg.m))
        H = H + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    return H + H.star()
