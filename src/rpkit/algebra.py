"""Finite parafermion algebras as concrete complex matrices.

The degree-d algebra on m generators satisfies

    c_j^d = 1,        c_i c_j = q c_j c_i   (i < j),   q = exp(2*pi*i/d),

and is represented on C^(d^(m/2)) by pairing two generators per Z_d tensor
factor (a Jordan-Wigner-type construction built from clock and shift
matrices U and V):

    c_{2s+1} = U x ... x U x V x 1 x ... x 1,
    c_{2s+2} = eta U x ... x U x VU x 1 x ... x 1,    eta = exp(i*pi*(d-1)/d),

with s factors U.  Every such word, and so every monomial, has one nonzero
entry per row: it is a pair (perm, phase) with rep[i, perm[i]] = phase[i].
On basis states with digits (i_0, ..., i_{m/2-1}) the generator pair steps
digit s and carries the phase q^(i_0 + ... + i_{s-1}), times eta q^(i_s + 1)
for c_{2s+2}.  Products compose the pairs, (A B) = (perm_B[perm_A],
phase_A * phase_B[perm_A]), in O(dim) (Algebra.monomial_perm); the dense
monomial matrix is that pair scattered into zeros (Algebra.monomial_rep).
Elements carry a normal-ordered coefficient table, c^k = c_1^{k_1} ...
c_m^{k_m} with 0 <= k_j < d; the dense matrix is built from the table on
demand and re-checked in the test suite against dense Kronecker products of
clock and shift matrices.

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

    A o B = xi^(grade(A) * grade(B)) * A B,    xi = exp(i*pi*(d-1)/d),

which reduces to the plain product whenever either grade vanishes (the
bosonic case).  At d = 2 the phase xi equals exp(i*pi/2) = i, i.e. the square
root of q; for d > 2 this particular root is the one for which the form
(A, B) -> omega(theta(A) o B) is hermitian for every reflection-invariant
omega, which is what every positivity check downstream relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigMismatch, InvalidConfig, InvalidState, SizeLimit

DEFAULT_CAP = 4096


def unit_root(d: int, k: int = 1) -> complex:
    """exp(2*pi*i*k/d), exact at quarter turns so Pauli cases come out integral."""
    k = k % d
    quarters = {(0, 4): 1.0 + 0j, (1, 4): 1j, (2, 4): -1.0 + 0j, (3, 4): -1j}
    if (4 * k) % d == 0:
        return quarters[((4 * k // d) % 4, 4)]
    return np.exp(2j * np.pi * k / d)


def clock_shift(d: int):
    """Clock and shift matrices with V U = q U V, U^d = V^d = 1.

    U = diag(1, q, q^2, ...) and V maps e_j -> e_{j-1} (cyclic).
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise InvalidConfig(f"degree must be an integer >= 2, got {d!r}")
    U = np.diag([unit_root(d, k) for k in range(d)])
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
    def q(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    @property
    def zeta(self) -> complex:
        """Square root of q, zeta = exp(i*pi/d)."""
        return np.exp(1j * np.pi / self.d)

    @property
    def xi(self) -> complex:
        """Twist phase base exp(i*pi*(d-1)/d); equals zeta when d = 2."""
        return np.exp(1j * np.pi * (self.d - 1) / self.d)

    @property
    def dim(self) -> int:
        return self.d ** (self.m // 2)

    def twist(self, a: int, b: int) -> complex:
        """Phase xi^(a*b) attached to grades (a, b) in the twisted product."""
        return np.exp(1j * np.pi * (self.d - 1) * (a % self.d) * (b % self.d) / self.d)


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
    """Shared context: configuration, generator pairs, monomial pair cache."""

    def __init__(self, cfg: AlgebraConfig):
        check_dim(cfg)
        self.cfg = cfg
        self._gens = _generator_perms(cfg.d, cfg.m)
        self._perm_cache: dict[tuple, tuple] = {}

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
        out = []
        for j in range(self.cfg.m):
            k = [0] * self.cfg.m
            k[j] = 1
            out.append(self.monomial(k))
        return out

    # -- internals -------------------------------------------------------------

    def _canon(self, k) -> tuple:
        if len(k) != self.cfg.m:
            raise InvalidConfig(f"exponent tuple length {len(k)} != m = {self.cfg.m}")
        return tuple(int(x) % self.cfg.d for x in k)

    def monomial_perm(self, k) -> tuple:
        """(perm, phase) of c_1^{k_1} ... c_m^{k_m}: rep[i, perm[i]] = phase[i]."""
        k = self._canon(k)
        hit = self._perm_cache.get(k)
        if hit is not None:
            return hit
        out = (np.arange(self.cfg.dim), np.ones(self.cfg.dim, dtype=complex))
        for i, e in enumerate(k):
            for _ in range(e):
                out = _compose(out, self._gens[i])
        self._perm_cache[k] = out
        return out

    def monomial_rep(self, k) -> np.ndarray:
        """Dense matrix of the monomial: its (perm, phase) pair scattered into zeros.

        Only AlgebraElement.rep reads it (Gibbs Hamiltonians, algebra-check and
        evaluate); the Gram forms and their reflection defect read the Weyl
        table of verifier.form_matrix and build no monomial.
        """
        perm, phase = self.monomial_perm(k)
        mat = np.zeros((self.cfg.dim, self.cfg.dim), dtype=complex)
        mat[np.arange(self.cfg.dim), perm] = phase
        return mat


def _generator_perms(d: int, m: int) -> list:
    """(perm, phase) of c_1 ... c_m, the phases multiplied in Kronecker order."""
    w = m // 2
    dim = d**w
    idx = np.arange(dim)
    u = np.array([unit_root(d, k) for k in range(d)])
    eta = np.exp(1j * np.pi * (d - 1) / d)
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


def _compose(a: tuple, b: tuple) -> tuple:
    """The pair of the product A B: row i of A meets row perm_A[i] of B."""
    (pa, ha), (pb, hb) = a, b
    return pb[pa], ha * hb[pa]


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
        if self._rep is None:
            out = np.zeros((self.cfg.dim, self.cfg.dim), dtype=complex)
            for k, v in self.coeffs.items():
                out += v * self.algebra.monomial_rep(k)
            self._rep = out
        return self._rep

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
        d, q = self.cfg.d, self.cfg.q
        return AlgebraElement(self.algebra, _collect(
            (tuple((a + b) % d for a, b in zip(k1, k2)), v1 * v2 * q**_swap_phase(k1, k2, d))
            for k1, v1 in self.coeffs.items() for k2, v2 in other.coeffs.items()))

    def star(self) -> "AlgebraElement":
        """Adjoint: v c^k -> conj(v) q^e(k, k) c^(-k); matches rep.conj().T.

        The generators are unitary, so (c^k)* is the inverse of c^k, and
        c^k c^(-k) = q^e(k, -k) = q^(-e(k, k)) by the ordering rule.
        """
        d, q = self.cfg.d, self.cfg.q
        return AlgebraElement(self.algebra, _collect(
            (tuple(-e % d for e in k), np.conj(v) * q**_swap_phase(k, k, d))
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
    d, q = A.cfg.d, A.cfg.q
    return AlgebraElement(A.algebra, _collect(
        (k[::-1], np.conj(v) * q**_swap_phase(k, k, d)) for k, v in A.coeffs.items()))


def _support_in(A: AlgebraElement, lo: int, hi: int) -> bool:
    return all(lo <= j <= hi for j in A.support())


def twisted_product(A: AlgebraElement, B: AlgebraElement) -> AlgebraElement:
    """A o B for A supported on generators 1..m/2 and B on m/2+1..m.

    Homogeneous parts of grades (a, b) pick up the phase xi^(a*b); for
    grade-zero (bosonic) parts the product is untwisted.
    """
    A._check(B)
    half = A.cfg.m // 2
    from .errors import WrongHalf
    if not _support_in(A, 1, half):
        raise WrongHalf("left factor of the twisted product must live on generators 1..m/2")
    if not _support_in(B, half + 1, A.cfg.m):
        raise WrongHalf("right factor of the twisted product must live on generators m/2+1..m")
    out = A.algebra.zero()
    for ga, Pa in A.grade_parts().items():
        for gb, Pb in B.grade_parts().items():
            out = out + A.cfg.twist(ga, gb) * (Pa * Pb)
    return out


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
            if np.abs(H - H.conj().T).max() > 1e-10:
                raise InvalidState("gibbs hamiltonian must be star-invariant")

    def density(self, algebra: Algebra) -> np.ndarray:
        """Density matrix on `algebra`; a state serves one algebra config only."""
        if self._cfg is None:
            self._cfg = algebra.cfg
        if algebra.cfg != self._cfg:
            raise ConfigMismatch(f"state built for d={self._cfg.d}, m={self._cfg.m} "
                                 f"evaluated on d={algebra.cfg.d}, m={algebra.cfg.m}")
        if self._rho is None:
            dim = algebra.cfg.dim
            if self.kind == "trace":
                rho = np.eye(dim) / dim
            else:
                H = self.hamiltonian.rep
                w, v = np.linalg.eigh((H + H.conj().T) / 2)
                # a huge beta gives exp(-inf) = 0 above the ground level: its limit
                with np.errstate(over="ignore"):
                    e = np.exp(-self.beta * (w - w.min()))
                rho = (v * e) @ v.conj().T
                rho /= np.trace(rho).real
            self._rho = rho
        return self._rho


def evaluate(omega: StateFunctional, A: AlgebraElement) -> complex:
    """omega(A) = tr(rho A); linear in A with omega(1) = 1.

    tr(rho A) = sum_ij rho_ij A_ji, the entrywise product with A transposed:
    dim^2 work, where the product rho A would take dim^3.
    """
    rho = omega.density(A.algebra)
    return complex((rho * A.rep.T).sum())
