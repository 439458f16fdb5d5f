"""Finite parafermion algebras as concrete complex matrices.

The degree-d algebra on m generators satisfies

    c_j^d = 1,        c_i c_j = q c_j c_i   (i < j),   q = exp(2*pi*i/d),

and is represented on C^(d^(m/2)) by pairing two generators per Z_d tensor
factor (a Jordan-Wigner-type construction built from clock and shift
matrices U and V):

    c_{2s+1} = U x ... x U x V x 1 x ... x 1,
    c_{2s+2} = eta U x ... x U x VU x 1 x ... x 1,    eta = exp(i*pi*(d-1)/d),

with s factors U.  Elements carry a normal-ordered coefficient table, c^k =
c_1^{k_1} ... c_m^{k_m} with 0 <= k_j < d, and build their dense matrix on
demand; the test suite re-checks it against dense Kronecker products.

One rule gives every word.  Each word c^K is a clock-shift (Weyl) operator
with a closed-form shift, frequency and phase (Jaffe-Pedrocchi,
arXiv:1406.1384).  Number the generators from 0: the pair c_2s, c_2s+1 steps
digit s of a basis state (digit 0 the most significant, s < w = m/2), c_2s
with the phase q^(i_0 + ... + i_{s-1}) and c_2s+1 with that phase times
eta q^(i_s + 1).  Applied left to right, the factors of digit s find each
digit t < s at i_t + n_t, and the j-th step of c_2s+1 finds digit s at
i_s + K_2s + j.  Summing the exponents,

    c^K[i, i + n] = eta^E q^(f.i + Q)          (i + n digit by digit, mod d)
    n_s = K_2s + K_2s+1,   f_t = K_2t+1 + sum_{s>t} n_s,   E = sum_s K_2s+1,
    Q = sum_s [n_s sum_{t<s} n_t + K_2s K_2s+1 + K_2s+1 (K_2s+1 + 1) / 2],

that is zeta^(P + 2 f.i), P = (d-1) E + 2Q mod 2d, with zeta = exp(i pi/d),
eta = zeta^(d-1), q = zeta^2.  weyl_symbol computes n, f and P.

One table gives every phase.  root_table(d) holds the exactly rounded zeta^j,
j < 2d (built by unit_root, exact at quarter turns), and every phase in the
package is one read of it at an exponent reduced mod 2d: each word's matrix
or pair, q^e = zeta^(2e) in products, star and theta, the twist xi^(ab) =
zeta^((d-1) a b mod 2d), the clock matrix and boxes.dft_zd.  Identities exact
in theory, such as theta(theta(B_k) o B_l) = theta(B_l) o B_k, then hold to a
few roundings of unit-modulus products, and exactly at d = 2.

One rule orders every word.  Since c_i c_j = q^(-1) c_j c_i for i > j,
moving c_j^(l_j) left past c_i^(k_i) costs q^(-k_i l_j), so

    c^k c^l = q^e(k, l) c^((k + l) mod d),    e(k, l) = -sum_{i>j} k_i l_j,

one prefix-sum pass over the exponents (_swap_phase).  The adjoint and the
reflection theta, which mirrors generator indices (c_j -> c_{m+1-j}) and
extends antilinearly as a homomorphism, follow from it:

    (c^k)* = q^e(k, k) c^(-k),    theta(c^k) = q^e(k, k) c^(k reversed),

each with the coefficient conjugated (derived at star and theta).  The
twisted product of homogeneous elements A in the left half and B in the
right half is

    A o B = xi^(grade(A) * grade(B)) * A B,    xi = exp(i*pi*(d-1)/d) = zeta^(d-1),

which reduces to the plain product whenever either grade vanishes (the
bosonic case).  At d = 2 the phase xi equals exp(i*pi/2) = i, i.e. the square
root of q; for d > 2 this particular root is the one for which the form
(A, B) -> omega(theta(A) o B) is hermitian for every reflection-invariant
omega, which is what every positivity check downstream relies on.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch, InvalidConfig, InvalidState, SizeLimit, WrongHalf

DEFAULT_CAP = 4096
# Entry budget of one chunk of AlgebraElement.rep: its digit temporary, N
# words x dim states x m/2 digits of int64, takes at most 8 x REP_ENTRIES bytes.
REP_ENTRIES = 2**16


def unit_root(d: int, k: int = 1) -> complex:
    """exp(2*pi*i*k/d), exact at quarter turns: the builder of root_table only."""
    k = k % d
    if (4 * k) % d == 0:
        return (1.0 + 0j, 1j, -1.0 + 0j, -1j)[4 * k // d]
    return np.exp(2j * np.pi * k / d)


@functools.cache
def root_table(d: int) -> np.ndarray:
    """zeta^j = exp(i*pi*j/d) for j < 2d, by unit_root; q^j = zeta^(2j).
    Built once per d and read-only: callers fancy-index it, which copies."""
    table = np.array([unit_root(2 * d, j) for j in range(2 * d)])
    table.flags.writeable = False
    return table


def clock_shift(d: int):
    """Clock and shift matrices with V U = q U V, U^d = V^d = 1.

    U = diag(1, q, q^2, ...), q^k = zeta^(2k) read off root_table, and V maps
    e_j -> e_{j-1} (cyclic).
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidConfig(f"degree must be an integer >= 2, got {d!r}")
    U = np.diag(root_table(d)[::2])
    V = np.zeros((d, d), dtype=complex)
    for i in range(d):
        V[i, (i + 1) % d] = 1.0
    return U, V


@dataclass(frozen=True)
class AlgebraConfig:
    """Degree d and generator count m; the matrix dimension is capped at DEFAULT_CAP."""

    d: int
    m: int

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 2:
            raise InvalidConfig(f"degree d must be an integer >= 2, got {self.d!r}")
        if not isinstance(self.m, (int, np.integer)) or self.m < 2 or self.m % 2:
            raise InvalidConfig(f"generator count m must be even and >= 2, got {self.m!r}")

    @property
    def dim(self) -> int:
        return self.d ** (self.m // 2)


def digit_table(d: int, h: int) -> np.ndarray:
    """The h base-d digits of 0 .. d^h - 1, most significant first."""
    return np.arange(d**h)[:, None] // d ** np.arange(h - 1, -1, -1) % d


def weyl_symbol(d: int, K: np.ndarray) -> tuple:
    """Shift digits n and frequency digits f (mod d, N x m/2) and phase
    exponent P mod 2d of each word c^K, a row of K (module docstring)."""
    even, odd = K[:, 0::2], K[:, 1::2]
    steps = even + odd                          # n_s
    before = np.cumsum(steps, axis=1) - steps   # sum_{t<s} n_t
    freq = odd + steps.sum(1, keepdims=True) - before - steps
    P = (d - 1) * odd.sum(1) + (2 * steps * before + 2 * even * odd + odd * (odd + 1)).sum(1)
    return steps % d, freq % d, P % (2 * d)


def shift_cosets(d: int, K: np.ndarray) -> np.ndarray:
    """The states split into the cosets of L, the group that the shifts n(K)
    of the words K generate (weyl_symbol), as an nb x b array: a coset a
    row, ascending, the rows by their least state.  A word maps state i to
    i + n(K) only, so an element with these words, and any function of it,
    is block diagonal over the rows.

    Each state's label becomes the least state of its coset: a shift not yet
    in L (label 0 marks L) joins it, and every label takes the least along
    that shift's orbit, by ceil(log2 d) doublings of dim-sized gathers."""
    w = K.shape[1] // 2
    i = digit_table(d, w)
    place = d ** np.arange(w - 1, -1, -1)
    used = np.zeros(len(i), dtype=bool)
    used[(K[:, 0::2] + K[:, 1::2]) % d @ place] = True      # n(K), as in weyl_symbol
    label = np.arange(len(i))
    for s in np.flatnonzero(used).tolist():
        if label[s]:
            step = (i + i[s]) % d @ place
            for _ in range((d - 1).bit_length()):
                label = np.minimum(label, label[step])
                step = step[step]
    return np.argsort(label, kind="stable").reshape(-1, np.count_nonzero(label == 0))


def _word_pairs(d: int, K: np.ndarray) -> tuple:
    """(perm, phase) rows of the words c^K, with an N x dim x m/2 temporary."""
    w = K.shape[1] // 2
    n, f, P = weyl_symbol(d, K)
    i = digit_table(d, w)
    perm = (i + n[:, None]) % d @ d ** np.arange(w - 1, -1, -1)
    return perm, root_table(d)[(P[:, None] + 2 * f @ i.T) % (2 * d)]


def _swap_phase(k, l, d: int) -> int:
    """Exponent e mod d in c^k c^l = q^e c^((k + l) mod d): e = -sum_{i>j} k_i l_j.

    Index i meets the prefix sum of l over j < i: one pass, O(m).
    """
    e = s = 0
    for ki, li in zip(k, l):
        e -= ki * s
        s += li
    return e % d


def _collect(terms) -> dict:
    """Coefficient table of a sum of (exponent tuple, coefficient) terms, zeros dropped."""
    out: dict[tuple, complex] = {}
    for k, v in terms:
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def check_dim(cfg: AlgebraConfig) -> None:
    """SizeLimit naming m when d^(m/2) > DEFAULT_CAP, found without forming the power:
    a huge m would make it a huge number and an unprintable message."""
    dim = 1
    for _ in range(cfg.m // 2):
        dim *= cfg.d
        if dim > DEFAULT_CAP:
            raise SizeLimit(f"generator count m = {cfg.m} gives matrix dimension "
                            f"d^(m/2) = {cfg.d}^{cfg.m // 2}, over the cap {DEFAULT_CAP}")


class Algebra:
    """Shared context of the elements of one algebra: its configuration."""

    def __init__(self, cfg: AlgebraConfig):
        check_dim(cfg)
        self.cfg = cfg

    # -- element constructors -------------------------------------------------

    def element(self, coeffs: dict) -> "AlgebraElement":
        clean = {self._canon(k): complex(v) for k, v in coeffs.items() if v != 0}
        return AlgebraElement(self, clean)

    def monomial(self, k) -> "AlgebraElement":
        """c_1^{k_1} ... c_m^{k_m} in that fixed order."""
        return self.element({tuple(k): 1.0})

    def identity(self) -> "AlgebraElement":
        return self.element({(0,) * self.cfg.m: 1.0})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def generators(self) -> list:
        return [self.monomial(k) for k in np.eye(self.cfg.m, dtype=int)]

    # -- internals -------------------------------------------------------------

    def _canon(self, k) -> tuple:
        if len(k) != self.cfg.m:
            raise InvalidConfig(f"exponent tuple length {len(k)} != m = {self.cfg.m}")
        return tuple(int(x) % self.cfg.d for x in k)

    def monomial_perm(self, k) -> tuple:
        """(perm, phase) of c_1^{k_1} ... c_m^{k_m}: rep[i, perm[i]] = phase[i]."""
        perm, phase = _word_pairs(self.cfg.d, np.array([self._canon(k)]))
        return perm[0], phase[0]

    def monomial_rep(self, k) -> np.ndarray:
        """Dense matrix of the monomial c^k.  No caller in the package: the
        tests and the benchmark tracer's algebra.monomial_rep span read it."""
        return self.monomial(k).rep


def build_algebra(cfg: AlgebraConfig) -> list:
    """Generators c_1 ... c_m as AlgebraElements sharing one context."""
    return Algebra(cfg).generators()


class AlgebraElement:
    """Normal-ordered coefficient table; its dense matrix is built from it and cached."""

    __slots__ = ("algebra", "coeffs", "_rep")

    def __init__(self, algebra: Algebra, coeffs: dict):
        self.algebra = algebra
        self.coeffs = coeffs
        self._rep = None

    @property
    def cfg(self) -> AlgebraConfig:
        return self.algebra.cfg

    @property
    def rep(self) -> np.ndarray:
        """Every word's pair times its coefficient, added into zeros in term
        order, REP_ENTRIES // (dim m/2) words at a time (at least one): the
        N x dim x m/2 digit temporary of _word_pairs stays within the budget.
        Each entry takes its adds word by word whatever the chunks, so the
        bits do not depend on them."""
        if self._rep is None:
            dim, w = self.cfg.dim, self.cfg.m // 2
            K = self.words()
            v = np.array(list(self.coeffs.values()), dtype=complex)
            out = np.zeros(dim * dim, dtype=complex)
            step = max(1, REP_ENTRIES // (dim * w))
            for at in range(0, len(K), step):
                perm, phase = _word_pairs(self.cfg.d, K[at:at + step])
                np.add.at(out, np.arange(dim) * dim + perm, v[at:at + step, None] * phase)
            self._rep = out.reshape(dim, dim)
        return self._rep

    def words(self) -> np.ndarray:
        """The exponent tuples of the terms, in term order, as an N x m array."""
        m = self.cfg.m
        return np.fromiter(itertools.chain.from_iterable(self.coeffs), np.int64,
                           len(self.coeffs) * m).reshape(-1, m)

    @property
    def grade(self):
        """Total degree mod d when homogeneous, None for mixed elements."""
        grades = {sum(k) % self.cfg.d for k in self.coeffs}
        if len(grades) == 1:
            return grades.pop()
        return None if grades else 0

    def grade_parts(self) -> dict:
        parts: dict[int, dict] = {}
        for k, v in self.coeffs.items():
            parts.setdefault(sum(k) % self.cfg.d, {})[k] = v
        return {g: AlgebraElement(self.algebra, c) for g, c in parts.items()}

    def support(self) -> set:
        """Generator indices (1-based) appearing with nonzero exponent."""
        out = set()
        for k in self.coeffs:
            out.update(i + 1 for i, e in enumerate(k) if e)
        return out

    # -- ring operations --------------------------------------------------------

    def _check(self, other):
        if self.algebra is not other.algebra and self.cfg != other.cfg:
            raise ConfigMismatch("operands built over different algebra configs")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
            if out[k] == 0:
                del out[k]
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        s = complex(scalar)
        return AlgebraElement(self.algebra, {k: s * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if np.isscalar(other):
            return self.__rmul__(other)
        self._check(other)
        d, zeta = self.cfg.d, root_table(self.cfg.d)
        return AlgebraElement(self.algebra, _collect(
            (tuple((a + b) % d for a, b in zip(k1, k2)),
             v1 * v2 * zeta[2 * _swap_phase(k1, k2, d)])
            for k1, v1 in self.coeffs.items() for k2, v2 in other.coeffs.items()))

    def star(self) -> "AlgebraElement":
        """Adjoint: v c^k -> conj(v) q^e(k, k) c^(-k); matches rep.conj().T.

        The generators are unitary, so (c^k)* is the inverse of c^k, and
        c^k c^(-k) = q^e(k, -k) = q^(-e(k, k)) by the ordering rule.
        """
        d, zeta = self.cfg.d, root_table(self.cfg.d)
        return AlgebraElement(self.algebra, _collect(
            (tuple(-e % d for e in k), np.conj(v) * zeta[2 * _swap_phase(k, k, d)])
            for k, v in self.coeffs.items()))

    def norm_max(self) -> float:
        """Largest coefficient modulus (zero element -> 0)."""
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __repr__(self):
        terms = ", ".join(f"{k}: {v:.4g}" for k, v in sorted(self.coeffs.items()))
        return f"AlgebraElement(d={self.cfg.d}, m={self.cfg.m}, {{{terms}}})"


def theta(A: AlgebraElement) -> AlgebraElement:
    """Antilinear reflection homomorphism: theta(c_j) = c_{m+1-j}.

    v c^k -> conj(v) q^e(k, k) c^(k reversed).  theta keeps the order of the
    factors and mirrors their indices, so the word c_m^{k_1} ... c_1^{k_m}
    has every pair inverted; normal ordering it costs q^(-k_i k_j) per pair,
    which is e(k, k).  theta(A B) = theta(A) theta(B) and theta^2 = id.
    """
    d, zeta = A.cfg.d, root_table(A.cfg.d)
    return AlgebraElement(A.algebra, _collect(
        (k[::-1], np.conj(v) * zeta[2 * _swap_phase(k, k, d)]) for k, v in A.coeffs.items()))


def twisted_product(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """A o B for A supported on generators 1..m/2 and B on m/2+1..m.

    Every generator of a word k1 of A precedes every one of a word k2 of B, so
    e(k1, k2) = 0: each pair is the word k1 + k2, distinct pairs give distinct
    words, and the twist is xi^(g1 g2) = zeta^((d-1) g1 g2 mod 2d), g = |k| mod d.
    """
    A._check(B)
    half = A.cfg.m // 2
    if max(A.support(), default=0) > half:
        raise WrongHalf("left factor of the twisted product must live on generators 1..m/2")
    if min(B.support(), default=half + 1) <= half:
        raise WrongHalf("right factor of the twisted product must live on generators m/2+1..m")
    d, zeta = A.cfg.d, root_table(A.cfg.d)
    return AlgebraElement(A.algebra, _collect(
        (tuple(a + b for a, b in zip(k1, k2)),
         v1 * v2 * zeta[(d - 1) * (sum(k1) % d) * (sum(k2) % d) % (2 * d)])
        for k1, v1 in A.coeffs.items() for k2, v2 in B.coeffs.items()))


def relation_residual(algebra: Algebra) -> float:
    """Largest entry of c_j^d - 1, c_j c_j* - 1 and c_i c_j - q c_j c_i on the
    generators' (perm, phase) pairs, in O(m^2 dim), and of theta(c_i c_j) -
    theta(q c_j c_i) on their tables.  Two pair matrices differ by |phase_A -
    phase_B| where the perms agree, by both entries where not.  c^d = 1 makes
    perm a bijection, so c c* = 1 is |phase| = 1; c^d is taken by squaring."""
    d, m, dim, q = algebra.cfg.d, algebra.cfg.m, algebra.cfg.dim, root_table(algebra.cfg.d)[2]

    def times(a, b):                    # the pair of the product a b
        return b[0][a[0]], a[1] * b[1][a[0]]

    def gap(a, b):
        return float(np.where(a[0] == b[0], np.abs(a[1] - b[1]),
                              np.maximum(np.abs(a[1]), np.abs(b[1]))).max())

    one = (np.arange(dim), np.ones(dim))
    gens = [algebra.monomial_perm(k) for k in np.eye(m, dtype=int)]
    elems = algebra.generators()
    worst = 0.0
    for i, c in enumerate(gens):
        power, base, e = c, c, d - 1
        while e:
            power = times(power, base) if e & 1 else power
            base, e = times(base, base), e >> 1
        worst = max(worst, gap(power, one), float(np.abs(np.abs(c[1]) ** 2 - 1).max()))
        for j in range(i + 1, m):
            p, h = times(gens[j], c)
            # theta preserves the relations (antilinearity conjugates q)
            lhs = theta(elems[i] * elems[j]) - theta(q * (elems[j] * elems[i]))
            worst = max(worst, gap(times(c, gens[j]), (p, q * h)), lhs.norm_max())
    return worst


@dataclass
class StateFunctional:
    """Normalized trace or Gibbs functional A -> Tr(exp(-beta H) A)/Tr(exp(-beta H))."""

    kind: str
    beta: float = 0.0
    hamiltonian: AlgebraElement | None = None
    _rho: np.ndarray | None = field(default=None, repr=False, compare=False)
    _cfg: AlgebraConfig | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("trace", "gibbs"):
            raise InvalidState(f"unknown state kind {self.kind!r}")
        if self.kind == "gibbs":
            if self.hamiltonian is None:
                raise InvalidState("gibbs state requires a hamiltonian")
            if not np.isfinite(self.beta) or self.beta < 0:
                raise InvalidState(f"gibbs state requires a finite beta >= 0, got {self.beta}")
            if not all(np.isfinite(v) for v in self.hamiltonian.coeffs.values()):
                raise InvalidState("gibbs hamiltonian coefficients must be finite")
            self._cfg = self.hamiltonian.cfg
            H = self.hamiltonian.rep
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.isfinite(H + H.conj().T).all():
                    raise InvalidState("gibbs hamiltonian overflows: H + H* is not finite")
                if np.abs(H - H.conj().T).max() > 1e-10:
                    raise InvalidState("gibbs hamiltonian must be star-invariant")

    def density(self, algebra: Algebra) -> np.ndarray:
        """Density matrix on `algebra`; a state serves one algebra config only.

        A word c^K maps state i to i + n(K) only (module docstring), so H,
        and with it rho = exp(-beta H) / Z, has no entry across the cosets
        of the group L that H's shifts generate (shift_cosets).  The nb
        cosets all hold b = |L| states: H is gathered into an nb x b x b
        stack, each block gets its eigh in one stacked call and its
        (v e) v* product, with e = exp(-beta (w - w_min)) at the ground
        level of all blocks, and the blocks are scattered into zeros and
        normalized by the trace.  That is nb b^3 work in place of dim^3,
        exact zeros across cosets, and, for one coset, the bits of the
        dense eigh of (H + H*)/2 and its product."""
        if self._cfg is None:
            self._cfg = algebra.cfg
        if algebra.cfg != self._cfg:
            raise ConfigMismatch(f"state built for d={self._cfg.d}, m={self._cfg.m} "
                                 f"evaluated on d={algebra.cfg.d}, m={algebra.cfg.m}")
        if self._rho is None:
            dim = algebra.cfg.dim
            if self.kind == "trace" or self.beta == 0:     # Gibbs at beta = 0 is the trace
                rho = np.eye(dim) / dim
            else:
                H = self.hamiltonian
                rows = shift_cosets(algebra.cfg.d, H.words())
                at = rows[:, :, None] * dim + rows[:, None, :]
                Hb = H.rep.ravel()[at]
                w, v = np.linalg.eigh((Hb + Hb.conj().swapaxes(1, 2)) / 2)
                # a huge beta gives exp(-inf) = 0 above the ground level: its limit
                with np.errstate(over="ignore"):
                    e = np.exp(-self.beta * (w - w.min()))
                rho = np.zeros(dim * dim, dtype=complex)
                rho[at] = (v * e[:, None, :]) @ v.conj().swapaxes(1, 2)
                rho = rho.reshape(dim, dim)
                rho /= np.trace(rho).real
            self._rho = rho
        return self._rho

    @functools.cached_property
    def conserves_charge(self) -> bool:
        """Whether every word c^K of H has reflection charge chi(K) = 0
        (verifier module docstring); the trace state has no H and conserves
        it.  The words of H are walked once per state."""
        if self.kind == "trace":
            return True
        H = self.hamiltonian
        w = H.cfg.m // 2
        return not any((sum(k[w:]) - sum(k[:w])) % H.cfg.d for k in H.coeffs)


def evaluate(omega: StateFunctional, A: AlgebraElement) -> complex:
    """omega(A) = tr(rho A); linear in A with omega(1) = 1.

    tr(rho A) = sum_ij rho_ij A_ji, the entrywise product with A transposed:
    dim^2 work, where the product rho A would take dim^3.
    """
    rho = omega.density(A.algebra)
    return complex((rho * A.rep.T).sum())
