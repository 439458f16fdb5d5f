"""Dense and step-by-step algebra helpers that only the tests use.

The generators as Kronecker products of clock and shift matrices, monomial
reps as products of their matrix powers, the generators' (perm, phase) pairs
with their phases multiplied in Kronecker order and each monomial's pair
composed from them factor by factor, the RP Gram form as one matrix product
over dense one-sided reps, and the same form as one gather over the composed
pairs.  These are the dense and step-by-step paths that the closed-form word
rule of rpkit.algebra (weyl_symbol) and the Weyl-symbol table of
rpkit.verifier.form_matrix replace, built with no use of that rule.  The
normal order of a word by bubble sort, one adjacent swap at a time, is the
exact reference of the closed-form ordering rule (rpkit.algebra._swap_phase)
behind *, star and theta.  The OS step over the basis and its shifts by up
to three multiples of `steps`, with gram's window form pasted back in, is
the reference of rpkit.reconstruction.transfer_operator, which reads one
form over the shift images only.  The chain window's density, built from an entanglement
Hamiltonian of its covariance, is the reference of the Pfaffian word values
of rpkit.chains.QuasiFreeState; the oracles that read a density read it.
The Omega table with each chunk's pairs picked by a mask, planned once and
applied to each density, is the bit-for-bit reference of the pair order of
rpkit.verifier._omega_plan and _omega_values.  The Omega table
over all n^2 pairs as one block is the reference of the grade-sector form
of rpkit.verifier._form, which evaluates the pairs within a sector only.
The values of a report on a family form's leading block, computed step by
step, with its verdict by the rule a GramReport once stored it with, are
the reference of rpkit.verifier.gram_report_from_matrix and GramReport.
The split of a Hamiltonian term by term, one element per word added into its
part and cross_element read for every cross-cut word, with the SFT verdict
that tests theta-invariance on H rebuilt from the parts, is the reference of
rpkit.verifier.coupling_decomposition and sft_positivity; the theorem draw
with its one-sided part added word by word is the reference of
draw_theorem_hamiltonian's rng order.
The Gibbs density as one dense eigh of (H + H*)/2 is the reference of the
coset blocks of rpkit.algebra.StateFunctional.density, and the connected
components of the states under the words' permutations, found by walking
them, are the reference of rpkit.algebra.shift_cosets.
"""

import numpy as np

from rpkit.algebra import (StateFunctional, _swap_phase, clock_shift, digit_table, root_table,
                           theta)
from rpkit.chains import QuasiFreeState
from rpkit.errors import PreconditionViolation, ReconstructionFailure
from rpkit.reconstruction import (DEFAULT_TOL, KERNEL_TOL, SHIFT_TOL, TransferData,
                                  compress_shift, energies, shift_defect, time_shift)
from rpkit import verifier
from rpkit.verifier import (DRAW_COUPLINGS, CouplingDecomposition, _members, coupling_element,
                            cross_element, form_matrix, gram, plus_basis, sft_positivity)


def dense_state(omega, algebra) -> StateFunctional:
    """omega itself, or for a quasi-free state the Gibbs state of
    H_eff = (i/4) sum_ab A_ab c_a c_b with its window covariance G =
    <c_a c_b> on the m generators of `algebra`.

    The reduced state of a quadratic chain is Gibbs of a quadratic
    (entanglement) Hamiltonian: with T = G - 1 = V w V^H, iA =
    V 2 arctanh(w) V^H.  w is clipped at 1 - 1e-14 and coefficients below
    1e-14 are cut.
    """
    if not isinstance(omega, QuasiFreeState):
        return omega
    m = algebra.cfg.m
    T = omega.covariance - np.eye(m)
    T = (T + T.conj().T) / 2
    w, V = np.linalg.eigh(T)
    w = np.clip(w, -1 + 1e-14, 1 - 1e-14)
    iAeff = (V * (2.0 * np.arctanh(w))) @ V.conj().T
    coeffs = {}
    for a in range(m):
        for b in range(m):
            if a != b and abs(iAeff[a, b]) > 1e-14:
                k = [0] * m
                k[a] = 1
                k[b] = 1
                key = tuple(k)
                sign = 1.0 if a < b else -1.0   # c_b c_a = -c_a c_b at d = 2
                coeffs[key] = coeffs.get(key, 0.0) + 0.25 * sign * iAeff[a, b]
    return StateFunctional(kind="gibbs", beta=1.0, hamiltonian=algebra.element(coeffs))


def roots(d) -> np.ndarray:
    """exp(i pi j / d) for j < 2d, one scalar np.exp each (the array exp can
    differ in the last bit), with the cosine or sine that vanishes at a
    quarter turn set to 0.0: the exactly rounded roots, computed apart from
    rpkit's root_table."""
    z = np.array([np.exp(1j * np.pi * j / d) for j in range(2 * d)])
    return np.where(np.abs(z.real) < 1e-12, 0.0, z.real) + \
        1j * np.where(np.abs(z.imag) < 1e-12, 0.0, z.imag)


def _kron(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def dense_generators(cfg) -> list:
    """c_1 ... c_m as dim x dim matrices: U x ... x U x V (or eta VU) x 1 x ... x 1."""
    d, m = cfg.d, cfg.m
    U, V = clock_shift(d)
    eta = roots(d)[d - 1]
    eye = np.eye(d)
    gens = []
    for s in range(m // 2):
        left = [U] * s
        right = [eye] * (m // 2 - s - 1)
        gens.append(_kron(left + [V] + right))
        gens.append(eta * _kron(left + [V @ U] + right))
    return gens


def reorder(factors, d):
    """Normal order a factor list [(index, exponent), ...] by bubble sort.

    Swapping adjacent factors with indices i > j costs q^(-e_i * e_j); equal
    indices merge.  Returns (phase exponent mod d, merged exponent dict).
    """
    arr = list(factors)
    phase = 0
    n = len(arr)
    for a in range(n):
        for b in range(n - 1 - a):
            (i1, e1), (i2, e2) = arr[b], arr[b + 1]
            if i1 > i2:
                phase -= e1 * e2
                arr[b], arr[b + 1] = arr[b + 1], arr[b]
    merged = {}
    for i, e in arr:
        merged[i] = (merged.get(i, 0) + e) % d
    return phase % d, merged


def _ordered(cfg, words) -> dict:
    """Coefficient table of a sum of v * word, each word a list [(index, exponent), ...]."""
    out = {}
    for fact, v in words:
        ph, merged = reorder(fact, cfg.d)
        kk = tuple(merged.get(i, 0) for i in range(cfg.m))
        out[kk] = out.get(kk, 0) + v * root_table(cfg.d)[2 * ph]
    return {k: v for k, v in out.items() if v != 0}


def bubble_product(A, B) -> dict:
    """Table of A B: each pair of words concatenated, then bubble sorted."""
    return _ordered(A.cfg, (
        ([(i, e) for i, e in enumerate(k1) if e] + [(i, e) for i, e in enumerate(k2) if e],
         v1 * v2)
        for k1, v1 in A.coeffs.items() for k2, v2 in B.coeffs.items()))


def bubble_star(A) -> dict:
    """Table of A*: each word reversed with inverted exponents, then bubble sorted."""
    d = A.cfg.d
    return _ordered(A.cfg, (([(i, (-e) % d) for i, e in reversed(list(enumerate(k))) if e],
                             np.conj(v)) for k, v in A.coeffs.items()))


def bubble_theta(A) -> dict:
    """Table of theta(A): each word with mirrored indices in place, then bubble sorted."""
    m = A.cfg.m
    return _ordered(A.cfg, (([(m - 1 - i, e) for i, e in enumerate(k) if e], np.conj(v))
                            for k, v in A.coeffs.items()))


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


def gemm_form_matrix(omega, algebra, family) -> np.ndarray:
    """M_ab = xi^(g_a g_b) tr(rho L_a R_b) as one product over dense one-sided reps.

    L_a = theta(B_a).rep and R_b = B_b.rep come from the Kronecker generators;
    tr(X_a R_b) with X_a = rho L_a is the dot product of X_a and R_b^T
    flattened.
    """
    gens = dense_generators(algebra.cfg)
    n, dim = len(family), algebra.cfg.dim
    elems = [algebra.monomial(k) for k in family]
    L = np.empty((n, dim, dim), dtype=complex)
    Rt = np.empty((n, dim, dim), dtype=complex)
    for a, E in enumerate(elems):
        L[a] = dense_rep(gens, theta(E))
        Rt[a] = dense_rep(gens, E).T
    X = dense_state(omega, algebra).density(algebra) @ L
    M = X.reshape(n, dim * dim) @ Rt.reshape(n, dim * dim).T
    g = np.array([E.grade for E in elems], dtype=int)
    M *= roots(algebra.cfg.d)[(algebra.cfg.d - 1) * np.outer(g, g) % (2 * algebra.cfg.d)]
    return M


def generator_perms(d: int, m: int) -> list:
    """(perm, phase) of c_1 ... c_m, the phases multiplied in Kronecker order."""
    w = m // 2
    dim = d**w
    idx = np.arange(dim)
    u, eta = roots(d)[::2], roots(d)[d - 1]
    gens = []
    prefix = np.ones(dim, dtype=complex)        # q^(i_0 + ... + i_{s-1})
    for s in range(w):
        place = d ** (w - 1 - s)
        digit = (idx // place) % d
        perm = np.where(digit == d - 1, idx - (d - 1) * place, idx + place)
        gens.append((perm, prefix))
        gens.append((perm, eta * (prefix * u[(digit + 1) % d])))
        prefix = prefix * u[digit]
    return gens


def compose(a: tuple, b: tuple) -> tuple:
    """The pair of the product A B: row i of A meets row perm_A[i] of B."""
    (pa, ha), (pb, hb) = a, b
    return pb[pa], ha * hb[pa]


def composed_perm(gens, k) -> tuple:
    """(perm, phase) of c_1^{k_1} ... c_m^{k_m}, composed factor by factor."""
    dim = len(gens[0][0])
    out = (np.arange(dim), np.ones(dim, dtype=complex))
    for i, e in enumerate(k):
        for _ in range(e):
            out = compose(out, gens[i])
    return out


def pair_tables(algebra, family) -> tuple:
    """The (perm, phase) tables of a monomial family, composed from the
    generator pairs (composed_perm), so independent of the closed form.

    Row a holds the pair (PR, HR) of B_a = c^k and the pair (PL, HL) of
    theta(B_a) = q^e(k, k) c^(k reversed), theta's coefficient folded into the
    phase; g[a] = sum(k) mod d is the grade of B_a.
    """
    n, dim = len(family), algebra.cfg.dim
    PL = np.empty((n, dim), dtype=np.intp)
    PR = np.empty((n, dim), dtype=np.intp)
    HL = np.empty((n, dim), dtype=complex)
    HR = np.empty((n, dim), dtype=complex)
    g = np.empty(n, dtype=int)
    d = algebra.cfg.d
    gens = generator_perms(d, algebra.cfg.m)
    for a, k in enumerate(family):
        k = algebra._canon(k)
        PR[a], HR[a] = composed_perm(gens, k)
        PL[a], hL = composed_perm(gens, k[::-1])
        HL[a] = roots(d)[2 * _swap_phase(k, k, d)] * hL
        g[a] = sum(k) % d
    return PL, HL, PR, HR, g


def exact_roots(h, d) -> np.ndarray:
    """Each phase h, a 2d-th root of unity up to round-off, as the exactly
    rounded root exp(i pi j / d): the products that composed h leave its
    root j and no round-off of their own."""
    j = np.rint(np.angle(h) * d / np.pi).astype(int) % (2 * d)
    return roots(d)[j]


def exact_entries(mat, d) -> np.ndarray:
    """A dense word or product of words with each nonzero entry, a 2d-th root
    of unity up to round-off, taken as its exact root (exact_roots)."""
    out = mat.copy()
    nz = out != 0
    out[nz] = exact_roots(out[nz], d)
    return out


def exact_dense_rep(gens, E) -> np.ndarray:
    """dense_rep with every monomial's phases taken as exact roots, summed in
    term order into zeros."""
    out = np.zeros_like(gens[0])
    for k, v in E.coeffs.items():
        out += v * exact_entries(dense_monomial_rep(gens, k), E.cfg.d)
    return out


def gathered_form(omega, algebra, family) -> np.ndarray:
    """M_ab = xi^(g_a g_b) sum_i rho[pR_b(pL_a(i)), i] hL_a(i) hR_b(pL_a(i)).

    theta(B_a) B_b composes the pairs of the two words: one gather over the
    family per row a, n^2 dim entries in all.  Each composed phase is taken
    as its exact root (exact_roots), so the form is within about dim eps of
    the exact one however long the words.
    """
    PL, HL, PR, HR, g = pair_tables(algebra, family)
    n, dim = PL.shape
    rho = dense_state(omega, algebra).density(algebra).ravel()
    twist = roots(algebra.cfg.d)[(algebra.cfg.d - 1) * np.outer(g, g) % (2 * algebra.cfg.d)]
    cols = np.arange(dim)
    M = np.empty((n, n), dtype=complex)
    for a in range(n):
        pl = PL[a]
        phase = exact_roots(HR[:, pl] * HL[a] * twist[a][:, None], algebra.cfg.d)
        M[a] = (rho[PR[:, pl] * dim + cols] * phase).sum(1)
    return M


def one_point(rho, perms, phases) -> np.ndarray:
    """omega(B) = sum_i rho[perm(i), i] phase(i) for each pair row (perm, phase)."""
    dim = rho.shape[0]
    return (rho.ravel()[perms * dim + np.arange(dim)] * phases).sum(1)


def gathered_reflection_defect(omega, algebra, family) -> float:
    """max_a |omega(theta(B_a)) - conj(omega(B_a))| from the pair tables."""
    PL, HL, PR, HR, _ = pair_tables(algebra, family)
    rho = dense_state(omega, algebra).density(algebra)
    diff = one_point(rho, PL, HL) - np.conj(one_point(rho, PR, HR))
    return float(np.abs(diff).max(initial=0.0))


SHIFT_MULTIPLES = 3


def multiple_shift_family(basis, steps, cfg, multiples=SHIFT_MULTIPLES) -> tuple:
    """The basis followed by its new shifts by steps, 2 steps, ..., multiples x steps.

    With three multiples, the family transfer_operator once evaluated; the
    members past the shift images by `steps` enter the compression only as
    trailing zero rows of the shift.  With one, the family of
    rpkit.reconstruction.shift_family.  Returns the family and its index map.
    """
    family = list(basis)
    index = {k: i for i, k in enumerate(family)}
    for j in range(1, multiples + 1):
        for k in basis:
            sk = time_shift(k, j * steps, cfg)
            if sk is not None and sk not in index:
                index[sk] = len(family)
                family.append(sk)
    return family, index


def multiple_shift_transfer(omega, algebra, basis, qspace, steps=1) -> TransferData:
    """transfer_operator over multiple_shift_family, the window block of the
    form replaced by gram's: the OS step as it read its form before."""
    cfg = algebra.cfg
    family, index = multiple_shift_family(basis, steps, cfg)
    M = form_matrix(omega, algebra, family)
    M[:len(basis), :len(basis)] = gram(omega, algebra, basis).matrix
    M = (M + M.conj().T) / 2
    scale = max(1.0, float(np.abs(M).max()))
    shifted = [index.get(time_shift(k, steps, cfg)) for k in basis]
    defect = shift_defect(M, shifted)
    if defect > SHIFT_TOL * scale:
        raise PreconditionViolation(
            f"functional not shift-invariant on the basis support "
            f"(defect {defect:.3e}, gate {SHIFT_TOL:.1e} x {scale:.3g})")
    if steps == 0:
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
    if w.size and w[0] < -1e-9 * max(1.0, abs(w[-1])):
        raise ReconstructionFailure(
            f"quantized shift is not positive (min eigenvalue {w[0]:.3e})",
            witness=vec[:, 0])
    return TransferData(transfer=T, eigenvalues=w, energies=energies(w, steps), dt=float(steps),
                        kernel_dim=int((w <= KERNEL_TOL).sum()), asymmetry=comp.asymmetry,
                        normalization=norm, shift_defect=defect)


def masked_weyl_plan(cfg, words) -> tuple:
    """The state-free half of masked_weyl_form: the phases zeta^P, the DFT
    blocks, and per chunk of shifts (rpkit.verifier.OMEGA_MACS) its whole
    u x dim gather index, its mask over all n^2 pairs and their positions in
    the chunk's table, chunks x n^2 work: the same reads and writes as the
    pairs ordered by chunk once (rpkit.verifier._omega_plan)."""
    S, F, P = words
    d, w, dim = cfg.d, cfg.m // 2, cfg.dim
    hi, lo = digit_table(d, w // 2), digit_table(d, w - w // 2)
    D1, D2 = len(hi), len(lo)
    zeta = root_table(d)

    def plus(x, s):
        return (x[None] + x[s][:, None]) % d @ (d ** np.arange(x.shape[1] - 1, -1, -1))

    shifts, slot = _members(S, dim)
    f_hi, f_lo = np.divmod(F, D2)
    cols, col = _members(f_lo, D2)
    F1 = zeta[2 * (hi @ hi.T) % (2 * d)]
    F2 = zeta[2 * (lo @ lo[cols].T) % (2 * d)]
    i = np.arange(dim).reshape(D1, 1, D2)
    step = max(1, verifier.OMEGA_MACS // (dim * len(cols)))
    chunks = []
    for first in range(0, len(shifts), step):
        s_hi, s_lo = np.divmod(shifts[first:first + step], D2)
        u = len(s_hi)
        index = (plus(hi, s_hi).T[:, :, None] * D2 + plus(lo, s_lo)[None]) * dim + i
        sel = (slot >= first) & (slot < first + u)
        chunks.append((index, sel, (f_hi[sel] * u + slot[sel] - first) * len(cols) + col[sel]))
    return zeta[P], F1, F2, chunks


def masked_weyl_form(rho, plan) -> np.ndarray:
    """The Omega table form of the density rho over a masked_weyl_plan: per
    chunk the gather, the low and the high DFT block, and the masked pairs."""
    phase, F1, F2, chunks = plan
    D1, D2 = len(F1), len(F2)
    flat = rho.ravel()
    vals = np.empty(phase.shape, dtype=complex)
    for index, sel, pos in chunks:
        V = flat[index]
        Om = (F1 @ (V.reshape(-1, D2) @ F2).reshape(D1, -1)).ravel()
        vals[sel] = Om[pos]
    return phase * vals


def one_block_form(omega, algebra, family) -> np.ndarray:
    """The Omega table form over all n^2 pairs of the family as one block,
    the cross-sector pairs included: what rpkit.verifier._form evaluates for
    a state that does not conserve the reflection charge, whatever omega is
    (a quasi-free state is read through its density)."""
    cfg = algebra.cfg
    K = verifier._family_exponents(algebra, family)
    plan = verifier._plan(cfg, K, np.zeros(len(K), dtype=int), False)
    return verifier._form(dense_state(omega, algebra), algebra, plan)


def stored_verdict(ev, tol, herm, reflection_defect) -> dict:
    """The five values a GramReport once stored beside its spectrum, by the
    rule they were stored with: the reflection gate (1e-10), then the
    hermiticity gate (1e-8), then PSD against -tol."""
    min_eig = float(ev[0]) if ev.size else 0.0
    psd = min_eig >= -tol
    reason = "reflection" if reflection_defect > 1e-10 else "hermiticity" if herm > 1e-8 else ""
    verdict = "not-applicable" if reason else "positive" if psd else "negative"
    return {"min_eig": min_eig, "psd": psd, "marginal": psd and min_eig < 0,
            "not_applicable_reason": reason, "verdict": verdict}


def leading_block_report(M, basis, one, tol, sectors) -> dict:
    """Every value of the report on the leading n = len(basis) block of a
    family form M, step by step: the reflection defect off the row and column
    of member `one`, the block cut out and symmetrized, one eigh per grade
    sector of sectors[:n] (None is one block) with its eigenpairs embedded in
    the block's basis and sorted ascending, then stored_verdict."""
    n = len(basis)
    refl = float(np.abs(M[:n, one] - M[one, :n].conj()).max(initial=0.0))
    B = M[:n, :n]
    herm = float(np.abs(B - B.conj().T).max()) if B.size else 0.0
    Ms = (B + B.conj().T) / 2
    grades = [None] if sectors is None else sorted(set(sectors[:n].tolist()))
    if len(grades) == 1:
        ev, vec = np.linalg.eigh(Ms)
        block = None
    else:
        vec = np.zeros_like(Ms)
        parts, owner, col = [], [], 0
        for g in grades:
            idx = np.flatnonzero(sectors[:n] == g)
            w, vec[idx, col:col + len(idx)] = np.linalg.eigh(Ms[np.ix_(idx, idx)])
            parts.append(w)
            owner += [g] * len(idx)
            col += len(idx)
        ev = np.concatenate(parts)
        order = np.argsort(ev, kind="stable")
        ev, vec = ev[order], vec[:, order]
        block = owner[order[0]]
    return {"basis": list(basis), "matrix": Ms, "eigenvalues": ev, "eigenvectors": vec,
            "witness": vec[:, 0] if ev.size else np.zeros(0), "tol": tol,
            "herm_defect": herm, "reflection_defect": refl, "block": block,
            **stored_verdict(ev, tol, herm, refl)}


def term_coupling_decomposition(H) -> CouplingDecomposition:
    """The split of H along the cut, word by word in reversed-tuple order: each
    word becomes one element added into h_plus (the identity too), h_minus or
    the residual, and every cross-cut word reads cross_element of its plus
    part to learn whether it is diagonal-matched."""
    alg = H.algebra
    half = H.cfg.m // 2
    h_plus, h_minus, residual, cross = alg.zero(), alg.zero(), alg.zero(), []
    for k, v in sorted(H.coeffs.items(), key=lambda kv: tuple(reversed(kv[0]))):
        term = alg.element({k: v})
        if not any(k[:half]):
            h_plus = h_plus + term
        elif not any(k[half:]):
            h_minus = h_minus + term
        else:
            kp = tuple([0] * half + list(k[half:]))
            (mono, tau), = cross_element(alg, kp).coeffs.items()
            if mono == k:
                cross.append((v / tau, kp))
            else:
                residual = residual + term
    return CouplingDecomposition(H, h_plus, h_minus, cross, residual)


def reassemble(dec):
    """h_minus + h_plus + residual + sum_k lambda_k cross_element(k)."""
    out = dec.h_minus + dec.h_plus + dec.residual
    for lam, k in dec.cross:
        out = out + lam * cross_element(dec.H.algebra, k)
    return out


def reassembled_sft_positivity(H, tol=verifier.DEFAULT_TOL):
    """sft_positivity of the term-by-term split, its theta-invariance tested
    on H reassembled from the parts."""
    dec = term_coupling_decomposition(H)
    return sft_positivity(CouplingDecomposition(reassemble(dec), dec.h_plus, dec.h_minus,
                                                dec.cross, dec.residual), tol)


def loop_theorem_hamiltonian(algebra, rng):
    """draw_theorem_hamiltonian with its neutral one-sided part g summed one
    monomial at a time."""
    cfg = algebra.cfg
    basis = plus_basis(cfg)
    H = algebra.zero()
    for _ in range(int(rng.integers(1, DRAW_COUPLINGS + 1))):
        k = basis[int(rng.integers(1, len(basis)))]
        H = H + coupling_element(algebra, k, float(rng.uniform(0.0, 2.0)))
    g = algebra.zero()
    for k in basis[1:]:
        if sum(k) % cfg.d == 0 and rng.random() < 0.7:
            g = g + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    g = g + g.star()
    return H + g + theta(g)


def dense_density(omega, algebra) -> np.ndarray:
    """exp(-beta (H - E0)) / Z of a Gibbs state, from one dense eigh of
    (H + H*)/2 and one dim^3 product, E0 its ground level."""
    H = omega.hamiltonian.rep
    w, v = np.linalg.eigh((H + H.conj().T) / 2)
    with np.errstate(over="ignore"):
        e = np.exp(-omega.beta * (w - w.min()))
    rho = (v * e) @ v.conj().T
    rho /= np.trace(rho).real
    return rho


def word_components(algebra, words) -> np.ndarray:
    """The component of each state in the graph that joins i to perm[i] for
    every word's (perm, phase) pair, numbered by first visit in state order."""
    dim = algebra.cfg.dim
    perms = [algebra.monomial_perm(k)[0] for k in words]
    perms += [np.argsort(p) for p in perms]     # each word's inverse too
    label = np.full(dim, -1)
    count = 0
    for start in range(dim):
        if label[start] >= 0:
            continue
        label[start], todo = count, [start]
        while todo:
            i = todo.pop()
            for p in perms:
                if label[p[i]] < 0:
                    label[p[i]] = count
                    todo.append(p[i])
        count += 1
    return label
