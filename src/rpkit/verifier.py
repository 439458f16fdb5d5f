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

Grade sectors (Jaffe-Pedrocchi, arXiv:1406.1384).  Let the reflection charge
of a word c^K be chi(K) = sum_{j>m/2} K_j - sum_{j<=m/2} K_j mod d.  The map
c_j -> q^-1 c_j left of the cut and c_j -> q c_j right of it keeps every
relation (c_j^d = 1, c_j* = c_j^-1, c_i c_j = q c_j c_i), so it is a
*-automorphism of the algebra, a full matrix algebra, and hence inner: Ad(Z)
for a unitary Z, with Z c^K Z* = q^chi(K) c^K.  When every word of H has
chi(K) = 0, Z H Z* = H, so rho commutes with Z and omega(c^K) =
tr(rho Z c^K Z*) = q^chi(K) omega(c^K): omega(c^K) = 0 unless chi(K) = 0.
theta(B_a) o B_b is a multiple of c^K with K = rev k_a + k_b, and chi(K) =
|k_b| - |k_a| = g_b - g_a mod d, so M_ab = 0 exactly unless g_a = g_b: the
form is block diagonal over the grades.  The trace state (H = 0) conserves
chi, and so does every cross element E_k (chi = |k| - |k|) and every
grade-0 one-sided word, hence every theorem-class H; a generic H does not.
grade_sectors reads this off the words of H (StateFunctional.conserves_charge),
_form evaluates the in-block pairs only and writes 0.0 across blocks, and
gram_report_from_matrix takes one eigh per block, one stacked eigh per block
size.

One judge: gram_report_from_matrix judges the leading block of a family
form (gram, reconstruct, lattice test functions), and a GramReport reads its
verdict off the spectrum and the two defects it stores.

Plan and apply (form_matrix): the half of a form that does not read the
state is planned once per family and kept, with the plus bases, the shift
families and the sector groupings, in one least-recently-used cache of
PLAN_PAIRS pairs (cached); each state then reads only its rho or covariance
and gets the bits that a new plan would give.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# evaluate is not called here, but perfbench/selftest.py patches it as
# rpkit.verifier.evaluate
from .algebra import (Algebra, AlgebraConfig, AlgebraElement, StateFunctional, check_dim,
                      digit_table, evaluate, root_table, theta, twisted_product, weyl_symbol)
from .boxes import dft_zd
from .chains import QuasiFreeState, word_supports
from .errors import InvalidArgument, InvalidConfig, SizeLimit, WrongHalf

DEFAULT_TOL = 1e-10
# Work budget of one form, n^2 dim over the n members of the family as given,
# kept as it was set for the per-pair gather that the Omega table replaced.  The table's real work is u k (dim + d^(2 (w//2)))
# <= u dim (d^(w//2) + d^(w - w//2)) multiply-adds plus n^2 w integer steps, for
# u <= min(n^2, dim) distinct shifts and k <= d^(w - w//2) low frequencies
# (form_matrix).  Lifting the gate needs its own bound on the eigh (n^3); the
# report already has one, as rp-gram writes at most WITNESS_CAP^2 = 256 entries
# of the form (cli).
GATHER_ENTRIES = 2**25
# Shifts per chunk of the Omega table (_omega_plan).  A chunk keeps each BLAS
# call under OMEGA_MACS multiply-adds, which OpenBLAS runs on one thread: it
# threads a zgemm from 2^16, and a threaded call waited 4-8 ms on a 2-vCPU
# host, where the whole (4, 6) form takes 0.5 ms.  A shift that alone needs
# more is a chunk of its own.
OMEGA_MACS = 2**15
# Weight budget of the plan cache (cached): a form plan weighs its evaluated
# pairs, a list its members, a sector grouping its labels.  The benchmark's
# working set is 22,904 pairs, the plans of the six rp-gram rungs (2, 8) ..
# (4, 6): 16,762 pairs of one-block plans and 6,142 in-sector ones.  Their
# arrays hold 38 B a pair (zeta^P 16 B, the chunk positions sel and pos 16 B,
# the in-sector positions, and per plan the gather offsets and DFT blocks),
# and the Pfaffian supports of the reconstruct windows 47 B.  At 48 B a pair,
# 2^16 pairs keep that set 2.8 times over in at most about 3 MB.
PLAN_PAIRS = 2**16

POSITIVE = "positive"
NEGATIVE = "negative"
NOT_APPLICABLE = "not-applicable"

_PLANS: OrderedDict = OrderedDict()     # key -> (value, weight), least recent first
_held = 0                               # total weight in _PLANS


def clear_plans() -> None:
    """Forget every cached plan, basis and shift family (cached)."""
    global _held
    _PLANS.clear()
    _held = 0


def cached(key, build, weight=len):
    """build() kept under key in one least-recently-used cache of at most
    PLAN_PAIRS total weight(value): form plans (form_plan), grade-sector
    groupings (gram_report_from_matrix), bases (plus_basis) and shift
    families (reconstruction.shift_family).  An entry weighs at least 1, so
    empty values cannot pile up.  A value heavier than the whole budget is
    returned and not kept, and an exception in build() keeps nothing, so it
    is raised again on the next call."""
    global _held
    hit = _PLANS.get(key)
    if hit is not None:
        _PLANS.move_to_end(key)
        return hit[0]
    value = build()
    w = max(1, weight(value))
    if w <= PLAN_PAIRS:
        while _PLANS and _held + w > PLAN_PAIRS:
            _held -= _PLANS.popitem(last=False)[1][1]
        _PLANS[key] = value, w
        _held += w
    return value


def _read_only(*arrays) -> None:
    for x in arrays:
        x.flags.writeable = False


def plus_basis(cfg: AlgebraConfig, max_grade: int | None = None) -> list:
    """Monomial exponent tuples spanning the right-half algebra.

    Ordered so that lower generator indices vary first: 1, c_{m/2+1},
    c_{m/2+2}, ..., matching the documented report layout.  Built once per
    (d, m, max_grade) (cached); each call returns a new list.
    """
    def build():
        w = cfg.m // 2
        check_dim(cfg)
        keys = sorted(itertools.product(range(cfg.d), repeat=w),
                      key=lambda t: tuple(reversed(t)))
        return tuple(tuple([0] * w + list(k)) for k in keys
                     if max_grade is None or sum(k) <= max_grade)
    return list(cached(("basis", cfg.d, cfg.m, max_grade), build))


@dataclass
class GramReport:
    """Hermitian Gram form with PSD verdict and violation witness.

    basis labels the members: exponent tuples (algebra), half-site indices
    (lattice.covariance_rp) or test-function indices.  A form read off its
    spectrum without being formed has no matrix and no eigenvectors, only
    the ascending eigenvalues and the witness.  block names the worst block
    of a block-diagonal form, the one that holds min_eig and the witness: a
    grade sector (int) or a transverse mode (per-axis tuple); None is one block.
    The verdict is read off these fields, never stored: the reflection gate
    (1e-10), then the hermiticity gate (1e-8), then PSD against -tol.
    """

    basis: list | range                 # a range for the lattice half
    matrix: np.ndarray | None
    eigenvalues: np.ndarray             # ascending
    eigenvectors: np.ndarray | None     # columns pair with `eigenvalues`
    witness: np.ndarray
    tol: float
    herm_defect: float = 0.0
    reflection_defect: float = 0.0
    block: int | tuple | None = None    # the worst block: grade sector or transverse mode

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[0]) if self.eigenvalues.size else 0.0

    @property
    def psd(self) -> bool:
        return self.min_eig >= -self.tol

    @property
    def marginal(self) -> bool:
        return self.psd and self.min_eig < 0

    @property
    def not_applicable_reason(self) -> str:
        """The gate that tripped: reflection or hermiticity, else ""."""
        return ("reflection" if self.reflection_defect > 1e-10 else
                "hermiticity" if self.herm_defect > 1e-8 else "")

    @property
    def verdict(self) -> str:
        return NOT_APPLICABLE if self.not_applicable_reason else POSITIVE if self.psd else NEGATIVE


def _sector_blocks(labels: np.ndarray) -> tuple:
    """The grade of each column of the concatenated sector spectra, and per
    block size b the (rows, cols) of its S blocks, each S x b: block s holds
    the members rows[s] (in order) and fills the columns cols[s], the blocks
    laid out by ascending grade."""
    perm = np.argsort(labels, kind="stable")
    counts = np.bincount(labels)
    grades = np.flatnonzero(counts)
    sizes = counts[grades]
    starts = np.cumsum(sizes) - sizes
    groups = []
    for b in sorted(set(sizes.tolist())):
        cols = starts[sizes == b][:, None] + np.arange(b)
        groups.append((perm[cols], cols))
        _read_only(*groups[-1])
    owner = np.repeat(grades, sizes)
    _read_only(owner)
    return owner, tuple(groups)


def gram_report_from_matrix(M: np.ndarray, basis, tol: float = DEFAULT_TOL,
                            one: int | None = None,
                            sectors: np.ndarray | None = None) -> GramReport:
    """The GramReport of the leading n = len(basis) block of a family form M
    (form_matrix).  Member `one` of the family is the identity, so its column
    holds omega(theta(B_a)) and its row omega(B_a): their largest gap over the
    n members is the reflection defect, 0.0 for one = None.  sectors labels
    the family's members with their grade sectors (grade_sectors); the block
    is block diagonal over them, and None is one block.  Each block gets its
    own eigh, the blocks of one size in one stacked call; the eigenpairs are
    embedded in the full basis in ascending grade order and sorted ascending,
    so the witness is the worst block's bottom eigenvector, and the report's
    block is that block's grade (None for one block).  The grouping of the
    labels is built once per labelling (cached).
    """
    n = len(basis)
    refl = 0.0 if one is None else float(np.abs(M[:n, one] - M[one, :n].conj()).max(initial=0.0))
    M = M[:n, :n]
    herm = float(np.abs(M - M.conj().T).max()) if M.size else 0.0
    Ms = (M + M.conj().T) / 2
    # one block kept apart: via the sector loop a report at n = 4-27 took 20-45 us more
    if sectors is None or not np.any(sectors[:n] != sectors[:1]):
        ev, vec = np.linalg.eigh(Ms)
        block = None
    else:
        labels = np.asarray(sectors[:n])
        owner, groups = cached(("sectors", labels.dtype.str, labels.tobytes()),
                               lambda: _sector_blocks(labels), lambda _: n)
        ev = np.empty(n)
        vec = np.zeros_like(Ms)
        for rows, cols in groups:
            ev[cols], vec[rows[:, :, None], cols[:, None, :]] = \
                np.linalg.eigh(Ms[rows[:, :, None], rows[:, None, :]])
        order = np.argsort(ev, kind="stable")
        ev, vec = ev[order], vec[:, order]
        block = int(owner[order[0]])
    witness = vec[:, 0] if ev.size else np.zeros(0)
    return GramReport(list(basis), Ms, ev, vec, witness, tol, herm, refl, block)


def _family_exponents(algebra: Algebra, family) -> np.ndarray:
    """The family as an n x m array of exponents mod d: a member off the
    plus half is refused with WrongHalf, and one that is no exponent tuple
    of length m with InvalidConfig."""
    cfg = algebra.cfg
    n, w = len(family), cfg.m // 2
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


def _weyl_words(cfg: AlgebraConfig, K: np.ndarray, pairs=None) -> tuple:
    """The shift index S, frequency index F and phase exponent P of
    theta(B_a) o B_b, so that M_ab = zeta^P Omega[S, F] (form_matrix).

    K holds the plus-half exponents of the family.  pairs = (a, b) are index
    arrays into it that broadcast together, one word per (a, b) in their
    shape; the default is every pair, as an n x n grid.  The symbols of
    theta(B_a)'s word c^(k_a reversed) and of B_b come from
    algebra.weyl_symbol; each index of a pair is one side's digits plus the
    other's, reduced digit by digit.
    """
    d, w, n = cfg.d, cfg.m // 2, len(K)
    a, b = (np.arange(n)[:, None], np.arange(n)) if pairs is None else pairs
    h = w // 2                          # digits with both generators left of the cut
    place = d ** np.arange(w - 1, -1, -1)
    steps, freq, phase = weyl_symbol(d, np.concatenate([K[:, ::-1], K]))
    shift = steps @ place
    S = shift[a] + shift[n + b]
    if w % 2:                           # digit h straddles the cut: carry once
        S -= (steps[a, h] + steps[n + b, h] >= d) * (d * place[h])
    g = K.sum(1) % d
    # left of digit h every frequency digit of B_b is its grade g_b
    left = ((freq[:n, None, :h] + np.arange(d)[:, None]) % d) @ place[:h]
    F = left[a, g[b]] + (freq[n:, h:] @ place[h:])[b]
    theta_a = phase[:n] + 2 * _theta_exponent(K)
    P = (theta_a[a] + phase[n + b] + (d + 1) * g[a] * g[b]) % (2 * d)
    return S, F, P


def _members(x: np.ndarray, size: int) -> tuple:
    """The distinct values of x in range(size), sorted, and the position of
    each entry of x among them."""
    mask = np.zeros(size, dtype=bool)
    mask[x] = True
    return np.flatnonzero(mask), (np.cumsum(mask) - 1)[x]


def _omega_plan(cfg: AlgebraConfig, S: np.ndarray, F: np.ndarray) -> tuple:
    """The state-free half of Omega[S, F] over flat word indices (form_matrix):
    the DFT blocks F1 and F2 and, per chunk of shifts, where its gather reads
    rho and where its pairs sit in the chunk's table; _omega_values applies it.

    The digits split into a high block of D1 = d^(w//2) states and a low
    block of D2 = d^(w - w//2).  Omega is built for the shifts in S and the
    low frequency digits in F only, a chunk of shifts at a time (OMEGA_MACS).
    """
    d, w, dim = cfg.d, cfg.m // 2, cfg.dim
    hi, lo = digit_table(d, w // 2), digit_table(d, w - w // 2)
    D1, D2 = len(hi), len(lo)
    zeta = root_table(d)                        # q^j = zeta^(2j)

    def plus(x, s):
        """Index of each state x + s, digit by digit, for each s."""
        return (x[None] + x[s][:, None]) % d @ (d ** np.arange(x.shape[1] - 1, -1, -1))

    shifts, slot = _members(S, dim)
    f_hi, f_lo = np.divmod(F, D2)
    cols, col = _members(f_lo, D2)
    F1 = zeta[2 * (hi @ hi.T) % (2 * d)]        # D1 x D1 DFT q^(f.i), high digits
    F2 = zeta[2 * (lo @ lo[cols].T) % (2 * d)]  # D2 x k, the low frequencies in use
    step = max(1, OMEGA_MACS // (dim * len(cols)))
    # the pairs ordered by slot once, by a stable radix sort (slot < dim <=
    # DEFAULT_CAP < 2^16): the pairs of shifts first .. first + u - 1 are
    # order[start[first]:start[first + u]]
    order = np.argsort(slot.astype(np.uint16), kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(slot, minlength=len(shifts)))])
    chunks = []
    for first in range(0, len(shifts), step):
        s_hi, s_lo = np.divmod(shifts[first:first + step], D2)
        u = len(s_hi)
        # V[i_hi, s, i_lo] = rho[i + s, i], i = i_hi D2 + i_lo, is read at
        # (i + s) dim + i = high[i_hi, s] + low[s, i_lo]: the u x dim sum is
        # left to _omega_values
        high = (plus(hi, s_hi).T * (D2 * dim) + np.arange(D1)[:, None] * D2)[:, :, None]
        low = (plus(lo, s_lo) * dim + np.arange(D2))[None]
        sel = order[start[first]:start[first + u]]
        chunks.append((high, low, sel, (f_hi[sel] * u + slot[sel] - first) * len(cols) + col[sel]))
        _read_only(*chunks[-1])
    _read_only(F1, F2)
    return F1, F2, tuple(chunks), len(S)


def _omega_values(rho: np.ndarray, table: tuple) -> np.ndarray:
    """Omega[S, F] of the density rho over the words of an _omega_plan table:
    per chunk the gather V, then the low and the high DFT block,
    Om[f_hi, s, col], and its entries at the chunk's pairs."""
    F1, F2, chunks, size = table
    D1, D2 = len(F1), len(F2)
    flat = rho.ravel()
    vals = np.empty(size, dtype=complex)
    for high, low, sel, pos in chunks:
        V = flat[high + low]
        Om = (F1 @ (V.reshape(-1, D2) @ F2).reshape(D1, -1)).ravel()
        vals[sel] = Om[pos]
    return vals


def grade_sectors(omega: StateFunctional | QuasiFreeState, cfg: AlgebraConfig,
                  K) -> np.ndarray:
    """The grade sector of each exponent row k of K: its grade |k| mod d when
    omega conserves the reflection charge chi (module docstring), else 0 for
    every row, one block.

    The trace state conserves it, and so does a Gibbs state all of whose
    Hamiltonian words have chi = 0 (StateFunctional.conserves_charge).  A
    quasi-free chain state is one block.
    """
    if isinstance(omega, QuasiFreeState) or not omega.conserves_charge:
        return np.zeros(len(K), dtype=int)
    return np.asarray(K).reshape(len(K), -1).sum(1) % cfg.d


class FormPlan(NamedTuple):
    """The state-free half of a family form (form_plan), arrays read-only:
    n members, the identity at index `one` (None if absent), their grade
    sectors, the flat positions a n + b of the evaluated pairs (None for all
    n^2, in order), the phase zeta^P of each, and the table of their values:
    _omega_plan's for a density, chains.word_supports for a quasi-free state."""

    n: int
    one: int | None
    sectors: np.ndarray
    at: np.ndarray | None
    phase: np.ndarray
    table: tuple

    @property
    def pairs(self) -> int:
        return len(self.phase)

    def form(self, omega: StateFunctional | QuasiFreeState, algebra: Algebra) -> np.ndarray:
        """The form of omega over the plan's family (form_matrix)."""
        return _form(omega, algebra, self)


def _plan(cfg: AlgebraConfig, K: np.ndarray, sectors: np.ndarray, wick: bool) -> FormPlan:
    """The plan of the exponent rows K split into the grade sectors
    `sectors`: for a quasi-free state (wick) the words of all n^2 pairs,
    else those of the pairs within a sector, with their phases (form_matrix)."""
    n, d = len(K), cfg.d
    one = np.flatnonzero(~K.any(1))
    zeta = root_table(d)
    if wick:
        g = K.sum(1) % d
        P = (2 * _theta_exponent(K)[:, None] + (d - 1) * np.outer(g, g)) % (2 * d)
        at, phase = None, zeta[P].ravel()
        table = word_supports((K[:, None, ::-1] + K[None]).reshape(n * n, cfg.m))
    else:
        # one block, every pair; via the sector path a generic (3, 8) gram took 2.65 ms, not 2.2
        if (sectors == sectors[:1]).all():
            at, (S, F, P) = None, _weyl_words(cfg, K)
        else:
            # the words of the in-sector pairs only, in row-major order
            a, b = np.nonzero(sectors[:, None] == sectors[None, :])
            at, (S, F, P) = a * n + b, _weyl_words(cfg, K, (a, b))
            _read_only(at)
        phase, table = zeta[P].ravel(), _omega_plan(cfg, S.ravel(), F.ravel())
    _read_only(sectors, phase)
    return FormPlan(n, int(one[0]) if one.size else None, sectors, at, phase, table)


def form_plan(omega: StateFunctional | QuasiFreeState, algebra: Algebra, family,
              identity: bool = False) -> FormPlan:
    """The plan of the form of omega over a plus-half family (form_matrix).

    The GATHER_ENTRIES gate counts the n members as given, on every call and
    before any lookup.  The plan depends on (d, m), the family, how omega
    splits it into grade sectors (a quasi-free state; a state that conserves
    the reflection charge; any other) and OMEGA_MACS, and on nothing else of
    omega: it is built once per such key and kept (cached), so every further
    state on the family reads only its own rho or covariance.  identity
    appends the identity to a family without it (gram).  A family whose
    members are not tuples is validated and planned, and not kept.
    """
    cfg = algebra.cfg
    n, dim = len(family), cfg.dim
    if n * n * dim > GATHER_ENTRIES:
        raise SizeLimit(f"Gram form over {n} monomials at dimension {dim} gathers "
                        f"{n * n * dim} entries, over the budget of {GATHER_ENTRIES}")
    wick = isinstance(omega, QuasiFreeState)

    def build():
        K = _family_exponents(algebra, family)
        if identity and K.any(1).all():
            K = np.vstack([K, np.zeros((1, cfg.m), dtype=K.dtype)])
        return _plan(cfg, K, grade_sectors(omega, cfg, K), wick)
    split = "wick" if wick else omega.conserves_charge
    try:
        key = ("form", cfg.d, cfg.m, tuple(map(tuple, family)), split, identity, OMEGA_MACS)
        hash(key)
    except TypeError:
        return build()
    return cached(key, build, lambda p: p.pairs)


def _form(omega: StateFunctional | QuasiFreeState, algebra: Algebra,
          plan: FormPlan) -> np.ndarray:
    """M_ab = omega(theta(B_a) o B_b) over the plan's family (form_matrix):
    a quasi-free state gives its word values, any other state the Omega
    table of its density, at the plan's pairs, times their phases, with 0.0
    at the pairs the plan leaves out."""
    if isinstance(omega, QuasiFreeState):
        vals = omega.word_values(algebra.cfg, plan.table)
    else:
        vals = _omega_values(omega.density(algebra), plan.table)
    n = plan.n
    if plan.at is None:                 # _plan's one-block fork: every pair, in order
        return (plan.phase * vals).reshape(n, n)
    M = np.zeros(n * n, dtype=complex)
    M[plan.at] = plan.phase * vals
    return M.reshape(n, n)


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
    an n x d table.  The indices cost w integer steps a pair (_weyl_words).

    Omega is built only for the u <= min(n^2, dim) distinct shifts and the
    k <= d^(w - w//2) low frequency digits in use.  The q^(f.i) sum of each
    shift is two dense DFT blocks, over the w - w//2 low digits and then the
    w//2 high ones: u k (dim + d^(2 (w//2))) <= 2 u dim k multiply-adds, in
    chunks of shifts sized by OMEGA_MACS.  By Cauchy-Schwarz
    sum_i |rho[i + n, i]| <= tr rho = 1, so each entry is within about
    (d^(w//2) + d^(w - w//2)) eps <= (dim + 1) eps of the exact form.

    When omega conserves the reflection charge (module docstring: the trace
    state and every theorem-class Gibbs state), M_ab = 0 exactly unless
    g_a = g_b, so only the pairs within a grade sector get words and are
    evaluated, and the others are 0.0 (grade_sectors, _form): about n^2/d of the
    n^2 pairs.  Any other state is one sector, and all n^2 pairs are
    evaluated.

    Plan and apply.  Only rho or the covariance, and how the state splits
    the family into sectors, depend on the state.  form_plan plans the rest
    once per key (d, m, family, split, OMEGA_MACS) and keeps it (cached,
    PLAN_PAIRS): the sectors, the in-sector positions and each pair's
    zeta^P, and for a density the DFT blocks and each chunk's gather offsets
    and pair positions (_omega_plan), for a quasi-free state the supports of
    each word length (chains.word_supports).  _form applies a plan with the
    arithmetic of the one-step form in the same order, so a kept plan gives
    the bits of a new one.  Each chunk's u x dim gather index is summed per
    apply and not kept: it would hold up to dim^2 = 2^24 entries at dim 4096.

    reconstruct evaluates one form, over the window followed by its shift
    images, and judges the window Gram, its leading block
    (gram_report_from_matrix).
    That block is the window's own form (gram) bit for bit for a quasi-free
    state, whose word values are elementwise eliminations, and up to the
    round-off above otherwise: BLAS may sum in another order for another
    family.
    """
    return _form(omega, algebra, form_plan(omega, algebra, family))


def gram(omega: StateFunctional | QuasiFreeState, algebra: Algebra, basis,
         tol: float = DEFAULT_TOL) -> GramReport:
    """M_ab = omega(theta(B_a) o B_b) over plus-half monomials, with verdict.

    The form is form_matrix's, under its GATHER_ENTRIES budget.  The
    reflection defect max_a |omega(theta(B_a)) - conj(omega(B_a))| reads the
    one-point values off the same form: theta(1) = 1 and the twist of a
    grade-0 factor is 1, so omega(theta(B_a)) is the identity column and
    omega(B_a) the identity row.  A basis without the identity gets it as an
    extra last member (form_plan's identity).  The budget gate counts the
    caller's n only, as it did for the gather, so that extra member can take
    the table to (n + 1)^2 dim > GATHER_ENTRIES, by 2n + 1 words; bases built
    by plus_basis hold the identity.  No dense rep is built.  A state that
    conserves the reflection charge gets the form and the eigh one grade
    sector at a time (form_matrix, gram_report_from_matrix).
    """
    plan = form_plan(omega, algebra, basis, identity=True)
    return gram_report_from_matrix(_form(omega, algebra, plan), basis, tol, plan.one, plan.sectors)


# ---------------------------------------------------------------------------
# canonical cross elements
# ---------------------------------------------------------------------------

def _bar(cfg: AlgebraConfig, k) -> tuple:
    w = cfg.m // 2
    return tuple([0] * w + [(-e) % cfg.d for e in k[w:]])


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
            (mono, tau), = cross_element(alg, kp).coeffs.items()
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

DRAW_COUPLINGS = 3   # a theorem draw has 1 .. DRAW_COUPLINGS cross couplings
DRAW_TERMS = 4       # a generic draw has DRAW_TERMS words before its adjoint


def draw_theorem_hamiltonian(algebra: Algebra, rng: np.random.Generator) -> AlgebraElement:
    """Zero-residual hermitian expansion with positive SFT: neutral one-sided
    part plus ferromagnetic diagonal couplings."""
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


def draw_generic_hamiltonian(algebra: Algebra, rng: np.random.Generator) -> AlgebraElement:
    """Generic star-invariant H; almost surely fails the SFT criterion."""
    cfg = algebra.cfg
    H = algebra.zero()
    for _ in range(DRAW_TERMS):
        k = tuple(int(x) for x in rng.integers(0, cfg.d, cfg.m))
        H = H + complex(rng.normal(), rng.normal()) * algebra.monomial(k)
    return H + H.star()
