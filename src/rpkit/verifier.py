"""RP Gram forms and the hermitian-expansion / SFT positivity criteria.

The central object is the Gram matrix M_ab = omega(theta(B_a) o B_b) over a
monomial basis of the right-half algebra.  omega is reflection positive on
that span iff M is positive semidefinite.

A star- and theta-invariant Hamiltonian decomposes into one-sided parts, a
diagonal cross-cut part sum_k lambda_k theta(B_k) o B_k, and a residual.  The
sufficient positivity criterion implemented here ("positive SFT"): residual
and non-neutral one-sided terms vanish, and the normalized couplings
J_k = -lambda_k / gamma_k are all real and >= 0, where gamma_k is the phase
that makes gamma_k * theta(B_k) o B_k hermitian-oriented.  Gibbs functionals
of such Hamiltonians produce PSD Grams at every beta; the acceptance suite
checks this over seeded families and checks that generic Hamiltonians
violating the criterion do produce indefinite Grams.

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
from .algebra import (DEFAULT_CAP, Algebra, AlgebraConfig, AlgebraElement, StateFunctional,
                      _swap_phase, evaluate, theta, twisted_product)
from .boxes import dft_zd
from .errors import InvalidArgument, SizeLimit, WrongHalf

DEFAULT_TOL = 1e-10
GATHER_ENTRIES = 2**25  # work budget of one form: n^2 dim gathered entries (form_matrix)

POSITIVE = "positive"
NEGATIVE = "negative"
NOT_APPLICABLE = "not-applicable"


def plus_basis(cfg: AlgebraConfig, max_grade: int | None = None) -> list:
    """Monomial exponent tuples spanning the right-half algebra.

    Ordered so that lower generator indices vary first: 1, c_{m/2+1},
    c_{m/2+2}, ..., matching the documented report layout.
    """
    w = cfg.m // 2
    if cfg.d**w > DEFAULT_CAP:
        raise SizeLimit(f"plus basis size {cfg.d ** w} exceeds cap {DEFAULT_CAP}")
    keys = sorted(itertools.product(range(cfg.d), repeat=w),
                  key=lambda t: tuple(reversed(t)))
    out = []
    for k in keys:
        if max_grade is not None and sum(k) > max_grade:
            continue
        out.append(tuple([0] * w + list(k)))
    return out


def _check_plus(algebra: Algebra, tuples):
    half = algebra.cfg.m // 2
    for k in tuples:
        if any(e and i < half for i, e in enumerate(k)):
            raise WrongHalf(f"basis monomial {k} not supported on the plus half")


@dataclass
class GramReport:
    """Hermitian Gram form with PSD verdict and violation witness."""

    basis: list
    matrix: np.ndarray
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


def gram_report_from_matrix(M: np.ndarray, basis, tol: float = DEFAULT_TOL,
                            reflection_defect: float = 0.0) -> GramReport:
    """PSD verdict machinery shared by the algebra and lattice Gram forms."""
    herm = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
    Ms = (M + M.conj().T) / 2
    ev, vec = np.linalg.eigh(Ms) if M.size else (np.zeros(0), np.zeros((0, 0)))
    return _judged(list(basis), Ms, ev, vec, tol, herm, reflection_defect)


def scaled_report(rep: GramReport, factor: float) -> GramReport:
    """The report of factor * rep.matrix, from rep's eigenpairs and without a solve.

    For a power of two the scaling is exact, and eigh(factor M) is
    factor * eigh(M) bit for bit, eigenvectors included; the verdict is taken
    again on the scaled eigenvalues against the same tol.
    """
    return _judged(rep.basis, factor * rep.matrix, factor * rep.eigenvalues, rep.eigenvectors,
                   rep.tol, factor * rep.herm_defect, rep.reflection_defect)


def _judged(basis, Ms, ev, vec, tol, herm, reflection_defect) -> GramReport:
    """The one verdict rule: the gates, then PSD against -tol."""
    min_eig = float(ev[0]) if ev.size else 0.0
    witness = vec[:, 0] if ev.size else np.zeros(0)
    psd = min_eig >= -tol
    reason = "reflection" if reflection_defect > 1e-10 else "hermiticity" if herm > 1e-8 else ""
    verdict = NOT_APPLICABLE if reason else POSITIVE if psd else NEGATIVE
    return GramReport(
        basis=basis, matrix=Ms, min_eig=min_eig, psd=psd, witness=witness,
        tol=tol, verdict=verdict, herm_defect=herm, reflection_defect=reflection_defect,
        marginal=psd and min_eig < 0, eigenvalues=ev, eigenvectors=vec,
        not_applicable_reason=reason)


def _pair_tables(algebra: Algebra, family) -> tuple:
    """The (perm, phase) tables of a monomial family, after the work budget.

    Row a holds the pair (PR, HR) of B_a = c^k and the pair (PL, HL) of
    theta(B_a) = q^e(k, k) c^(k reversed), theta's coefficient folded into the
    phase (the algebra docstring derives it); g[a] = sum(k) mod d is the grade
    of B_a.  A family whose form would gather more than GATHER_ENTRIES =
    n^2 dim entries is refused with SizeLimit before any table is built.
    """
    n, dim = len(family), algebra.cfg.dim
    if n * n * dim > GATHER_ENTRIES:
        raise SizeLimit(f"Gram form over {n} monomials at dimension {dim} gathers "
                        f"{n * n * dim} entries, over the budget of {GATHER_ENTRIES}")
    PL = np.empty((n, dim), dtype=np.intp)
    PR = np.empty((n, dim), dtype=np.intp)
    HL = np.empty((n, dim), dtype=complex)
    HR = np.empty((n, dim), dtype=complex)
    g = np.empty(n, dtype=int)
    d, q = algebra.cfg.d, algebra.cfg.q
    for a, k in enumerate(family):
        k = algebra._canon(k)
        PR[a], HR[a] = algebra.monomial_perm(k)
        PL[a], hL = algebra.monomial_perm(k[::-1])
        HL[a] = q**_swap_phase(k, k, d) * hL
        g[a] = sum(k) % d
    return PL, HL, PR, HR, g


def _gathered_form(rho: np.ndarray, cfg: AlgebraConfig, tables) -> np.ndarray:
    """The form of form_matrix from the density and the pair tables."""
    PL, HL, PR, HR, g = tables
    n, dim = PL.shape
    rho = rho.ravel()
    cols = np.arange(dim)
    M = np.empty((n, n), dtype=complex)
    for a in range(n):
        pl = PL[a]
        M[a] = (rho[PR[:, pl] * dim + cols] * HR[:, pl]) @ HL[a]
    M *= cfg.twist(g[:, None], g[None, :])
    return M


def _one_point(rho: np.ndarray, perms: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """omega(B) = sum_i rho[perm(i), i] phase(i) for each pair row (perm, phase)."""
    dim = rho.shape[0]
    return (rho.ravel()[perms * dim + np.arange(dim)] * phases).sum(1)


def form_matrix(omega: StateFunctional, algebra: Algebra, family) -> np.ndarray:
    """M_ab = omega(theta(B_a) o B_b) over a monomial family, unsymmetrized.

    B_a and theta(B_a) are single homogeneous monomials of the same grade
    g_a = sum(k_a) mod d, so the twisted product is the operator product times
    one phase, theta(B_a) o B_b = xi^(g_a g_b) theta(B_a) B_b.  Each monomial
    is a pair (perm, phase) with rep[i, perm[i]] = phase[i]
    (Algebra.monomial_perm).  With (pL_a, hL_a) the pair of theta(B_a), its
    coefficient folded into the phase, and (pR_b, hR_b) that of B_b, the
    product theta(B_a) B_b has row i equal to hL_a(i) hR_b(pL_a(i)) at
    column pR_b(pL_a(i)), hence

        M_ab = xi^(g_a g_b) sum_i rho[pR_b(pL_a(i)), i] hL_a(i) hR_b(pL_a(i)),

    one gather over the family per row a: n^2 dim gathered entries in all,
    and no dense rep.  It holds the four n x dim pair tables, one n x dim
    gather at a time and the n x n result.  The gather costs about 30 ns an
    entry on a 2-vCPU host (d = 2: 2^24 entries at m = 16 take 0.6 s, 2^27 at
    m = 18 take 3.9 s), so GATHER_ENTRIES = 2^25 allows about a second of it
    and refuses a larger family with SizeLimit before any table is built.

    The leading block of a family's form is the form of its leading members
    up to round-off: BLAS may sum in another order for another family size.
    By Cauchy-Schwarz sum_i |rho[p(i), i]| <= tr rho = 1 for a permutation
    p, so that round-off is about dim x eps at most.
    """
    return _gathered_form(omega.density(algebra), algebra.cfg, _pair_tables(algebra, family))


def gram(omega: StateFunctional, algebra: Algebra, basis, tol: float = DEFAULT_TOL) -> GramReport:
    """M_ab = omega(theta(B_a) o B_b) over plus-half monomials, with verdict.

    The form is form_matrix's gather, under its GATHER_ENTRIES budget.  The
    reflection defect max_a |omega(theta(B_a)) - conj(omega(B_a))| reads the
    one-point values from the same pair tables: omega(B) is
    sum_i rho[perm(i), i] phase(i), one n x dim gather for each side.  No
    dense rep is built.
    """
    _check_plus(algebra, basis)
    tables = _pair_tables(algebra, basis)
    rho = omega.density(algebra)
    M = _gathered_form(rho, algebra.cfg, tables)
    PL, HL, PR, HR, _ = tables
    diff = _one_point(rho, PL, HL) - np.conj(_one_point(rho, PR, HR))
    refl = float(np.abs(diff).max(initial=0.0))
    return gram_report_from_matrix(M, basis, tol, reflection_defect=refl)


# ---------------------------------------------------------------------------
# canonical cross elements and their hermitian orientation
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


def cross_phase(algebra: Algebra, k):
    """Canonical phase gamma_k with F_k = gamma_k E_k hermitian-oriented.

    theta fixes E_k up to a phase t_k; the orientation gamma_k = sqrt(t_k)
    (principal branch, seeded at the smaller of {k, kbar} in basis order)
    makes F_k + F_kbar-partner combinations star- and theta-invariant with
    real couplings.  Returns (gamma_k, kbar, s_k) where E_k^* = s_k E_kbar.
    """
    cfg = algebra.cfg
    kk = algebra._canon(k)
    kb = _bar(cfg, kk)
    E = cross_element(algebra, kk)
    mono, v = _single(E)
    _, vt = _single(theta(E))
    t_k = vt / v
    _, vs = _single(E.star())
    _, vb = _single(cross_element(algebra, kb))
    s_k = vs / vb
    if tuple(reversed(kk)) <= tuple(reversed(kb)):
        gamma = np.exp(1j * np.angle(t_k) / 2)
    else:
        gb, _, sb = cross_phase(algebra, kb)
        gamma = np.conj(gb) * sb
    return gamma, kb, s_k


def coupling_element(algebra: Algebra, k, J: float) -> AlgebraElement:
    """Star- and theta-invariant summand -J * (F_k + partner), J real >= 0 in
    the theorem class.  Self-paired ladders (k == kbar) contribute one term."""
    gamma, kb, s_k = cross_phase(algebra, k)
    E = cross_element(algebra, k)
    term = (-J * gamma) * E
    if kb != algebra._canon(k):
        Eb = cross_element(algebra, kb)
        term = term + (-J * np.conj(gamma) * s_k) * Eb
    return term


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
    entries J_k = -lambda_k / gamma_k; the verdict is positive iff K is PSD
    (all J_k real >= -tol) and the one-sided parts are charge neutral.
    """
    if dec.residual.norm_max() > 1e-10:
        return SftVerdict(NOT_APPLICABLE,
                          reason=f"residual norm {dec.residual.norm_max():.3e} exceeds 1e-10")
    alg = dec.h_plus.algebra
    scale = max([1.0] + [abs(l) for l, _ in dec.cross])
    couplings = {}
    for lam, k in dec.cross:
        gamma, _, _ = cross_phase(alg, k)
        couplings[k] = -lam / gamma
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
    if couplings:
        worst_imag = max(abs(v.imag) for v in couplings.values())
        worst_real = min(v.real for v in couplings.values())
        if worst_imag > tol * scale:
            return SftVerdict(NEGATIVE, couplings, J,
                              reason=f"coupling block not hermitian (imag {worst_imag:.3e})")
        if worst_real < -tol * scale:
            return SftVerdict(NEGATIVE, couplings, J,
                              reason=f"negative coupling {worst_real:.3e}")
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
