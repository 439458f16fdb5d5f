from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpkit.algebra
from rpkit.algebra import (AlgebraConfig, Algebra, AlgebraElement, StateFunctional, build_algebra,
                           clock_shift, evaluate, root_table, shift_cosets, theta,
                           twisted_product, unit_root)
from rpkit.errors import ConfigMismatch, InvalidConfig, InvalidState, SizeLimit, WrongHalf
from rpkit.verifier import (coupling_element, draw_generic_hamiltonian, draw_theorem_hamiltonian,
                            plus_basis)

from algebra_oracles import (bubble_product, bubble_star, bubble_theta, dense_density,
                             dense_generators, dense_monomial_rep, dense_rep, exact_dense_rep,
                             exact_entries, word_components)
from conftest import make_algebra, random_element, random_plus_element

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestClockShift:
    def test_d2_is_pauli(self):
        U, V = clock_shift(2)
        assert np.array_equal(U, Z)
        assert np.array_equal(V, X)
        assert np.abs(V @ U + U @ V).max() == 0.0   # VU = -UV

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weyl_relation(self, d):
        U, V = clock_shift(d)
        q = np.exp(2j * np.pi / d)
        assert np.abs(V @ U - q * U @ V).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_order_d(self, d):
        U, V = clock_shift(d)
        assert np.abs(np.linalg.matrix_power(U, d) - np.eye(d)).max() < 1e-14
        assert np.abs(np.linalg.matrix_power(V, d) - np.eye(d)).max() < 1e-14

    def test_rejects_small_degree(self):
        with pytest.raises(InvalidConfig):
            clock_shift(1)


class TestBuildAlgebra:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_relations(self, d, m):
        gens = build_algebra(AlgebraConfig(d, m))
        q = np.exp(2j * np.pi / d)
        dim = d ** (m // 2)
        eye = np.eye(dim)
        for c in gens:
            assert c.rep.shape == (dim, dim)
            assert np.abs(np.linalg.matrix_power(c.rep, d) - eye).max() < 1e-12
            assert np.abs(c.rep @ c.rep.conj().T - eye).max() < 1e-12
        for i in range(m):
            for j in range(i + 1, m):
                res = gens[i].rep @ gens[j].rep - q * gens[j].rep @ gens[i].rep
                assert np.abs(res).max() < 1e-12

    def test_majorana_pair_up_to_phase(self):
        gens = build_algebra(AlgebraConfig(2, 2))
        assert np.abs(gens[0].rep - X).max() < 1e-14
        assert np.abs(gens[1].rep - Y).max() < 1e-14
        anti = gens[0].rep @ gens[1].rep + gens[1].rep @ gens[0].rep
        assert np.abs(anti).max() < 1e-14

    def test_majorana_quadruple(self):
        gens = build_algebra(AlgebraConfig(2, 4))
        for i in range(4):
            assert np.abs(gens[i].rep @ gens[i].rep - np.eye(4)).max() < 1e-12
            for j in range(i + 1, 4):
                anti = gens[i].rep @ gens[j].rep + gens[j].rep @ gens[i].rep
                assert np.abs(anti).max() < 1e-12

    def test_d3_commutation(self):
        gens = build_algebra(AlgebraConfig(3, 2))
        q = np.exp(2j * np.pi / 3)
        res = gens[0].rep @ gens[1].rep - q * gens[1].rep @ gens[0].rep
        assert np.abs(res).max() < 1e-12

    def test_odd_m_rejected(self):
        with pytest.raises(InvalidConfig):
            AlgebraConfig(2, 3)

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            Algebra(AlgebraConfig(2, 26))   # 2^13 > 4096


    @pytest.mark.parametrize("d", [2, 3, 7, 4096])
    def test_root_table_is_cached_and_read_only(self, d):
        table = root_table(d)
        assert root_table(d) is table and not table.flags.writeable
        assert table.tolist() == [unit_root(2 * d, j) for j in range(2 * d)]
        with pytest.raises(ValueError):
            table[0] = 0.0


class TestElementOps:
    def test_monomial_identity(self):
        alg = make_algebra(2, 4)
        one = alg.monomial((0, 0, 0, 0))
        assert np.abs(one.rep - np.eye(4)).max() == 0.0

    def test_star_reverses_majorana_pair(self):
        # star(c1 c2) = c2 c1 = -c1 c2 in the 2x2 Pauli model
        alg = make_algebra(2, 2)
        c1, c2 = alg.generators()
        prod = c1 * c2
        assert np.abs(prod.star().rep + prod.rep).max() < 1e-14

    def test_star_antihomomorphism(self):
        rng = np.random.default_rng(11)
        for d, m in [(2, 4), (3, 2), (4, 4)]:
            alg = make_algebra(d, m)
            A = random_element(alg, rng)
            B = random_element(alg, rng)
            diff = (A * B).star() - B.star() * A.star()
            assert diff.norm_max() < 1e-12

    def test_star_matches_matrix_adjoint(self):
        rng = np.random.default_rng(3)
        for d, m in [(2, 4), (3, 2)]:
            alg = make_algebra(d, m)
            A = random_element(alg, rng)
            assert np.abs(A.star().rep - A.rep.conj().T).max() < 1e-12

    def test_rep_matches_coefficient_table(self):
        rng = np.random.default_rng(5)
        for d, m in [(2, 4), (3, 2), (3, 4)]:
            alg = make_algebra(d, m)
            A = random_element(alg, rng)
            B = random_element(alg, rng)
            P = A * B
            direct = sum(v * alg.monomial_rep(k) for k, v in P.coeffs.items())
            assert np.abs(P.rep - direct).max() < 1e-12

    def test_grading_of_products(self):
        alg = make_algebra(3, 2)
        c1, c2 = alg.generators()
        assert c1.grade == 1
        assert (c1 * c2).grade == 2
        assert (c1 * c1 * c2).grade == 0
        mixed = c1 + (c1 * c2)
        assert mixed.grade is None

    def test_config_mismatch(self):
        a = Algebra(AlgebraConfig(2, 2))
        b = Algebra(AlgebraConfig(2, 4))
        with pytest.raises((ConfigMismatch, InvalidConfig)):
            a.generators()[0] * b.generators()[0]


class TestTheta:
    def test_mirror_index(self):
        alg = make_algebra(2, 4)
        gens = alg.generators()
        assert theta(gens[1]).coeffs == gens[2].coeffs   # theta(c2) = c3

    def test_antilinearity_on_scalars(self):
        alg = make_algebra(2, 2)
        one = alg.identity()
        assert theta(1j * one).coeffs == ((-1j) * one).coeffs

    def test_homomorphism(self):
        rng = np.random.default_rng(17)
        for d, m in [(2, 4), (3, 2), (4, 2), (3, 4)]:
            alg = make_algebra(d, m)
            A = random_element(alg, rng)
            B = random_element(alg, rng)
            diff = theta(A * B) - theta(A) * theta(B)
            assert diff.norm_max() < 1e-12

    def test_involution_and_star_commutation(self):
        rng = np.random.default_rng(23)
        for d, m in [(2, 4), (3, 2), (4, 4), (2, 6), (3, 4)]:
            alg = make_algebra(d, m)
            for _ in range(20):
                A = random_element(alg, rng)
                assert (theta(theta(A)) - A).norm_max() < 1e-12
                assert (A.star().star() - A).norm_max() < 1e-12
                assert (theta(A.star()) - theta(A).star()).norm_max() < 1e-12

    def test_preserves_relations(self):
        # theta applied to both sides of c_i c_j = q c_j c_i; antilinearity
        # turns q into conj(q) = q^{-1}, which the mirrored indices absorb
        for d, m in [(2, 4), (3, 4), (4, 4)]:
            alg = make_algebra(d, m)
            gens = alg.generators()
            q = np.exp(2j * np.pi / d)
            for i in range(m):
                for j in range(i + 1, m):
                    lhs = theta(gens[i] * gens[j])
                    rhs = theta(q * (gens[j] * gens[i]))
                    assert (lhs - rhs).norm_max() < 1e-12


class TestTwistedProduct:
    def test_bosonic_reduction_exact(self):
        # grade-0 x grade-0 -> plain product, exactly
        alg = make_algebra(2, 4)
        c1, c2, c3, c4 = alg.generators()
        A = 0.7 * (c1 * c2)          # grade 0 on the minus half
        B = -1.3 * (c3 * c4)         # grade 0 on the plus half
        tp = twisted_product(A, B)
        pp = A * B
        assert (tp - pp).norm_max() == 0.0

    def test_majorana_pair_phase(self):
        # d = 2: c1 o c2 = i c1 c2 (the twist base equals zeta = i at d = 2)
        alg = make_algebra(2, 2)
        c1, c2 = alg.generators()
        tp = twisted_product(c1, c2)
        expected = 1j * (c1 * c2)
        assert (tp - expected).norm_max() < 1e-14

    def test_unit_neutral(self):
        alg = make_algebra(3, 2)
        c1, _ = alg.generators()
        one = alg.identity()
        assert (twisted_product(c1, one) - c1).norm_max() == 0.0

    def test_wrong_half(self):
        alg = make_algebra(2, 4)
        c1, c2, c3, c4 = alg.generators()
        with pytest.raises(WrongHalf):
            twisted_product(c3, c4)
        with pytest.raises(WrongHalf):
            twisted_product(c1, c2)

    def test_bilinearity(self):
        rng = np.random.default_rng(31)
        alg = make_algebra(3, 4)
        A1 = theta(random_plus_element(alg, rng))
        A2 = theta(random_plus_element(alg, rng))
        B = random_plus_element(alg, rng)
        lhs = twisted_product(A1 + A2, B)
        rhs = twisted_product(A1, B) + twisted_product(A2, B)
        assert (lhs - rhs).norm_max() < 1e-12


class TestStateFunctional:
    def test_trace_of_generator_vanishes(self):
        alg = make_algebra(2, 2)
        om = StateFunctional(kind="trace")
        c1, _ = alg.generators()
        assert abs(evaluate(om, c1)) < 1e-14

    def test_normalization(self):
        alg = make_algebra(3, 2)
        om = StateFunctional(kind="trace")
        assert abs(evaluate(om, alg.identity()) - 1) < 1e-14
        H = alg.generators()[0]
        H = H + H.star()
        og = StateFunctional(kind="gibbs", beta=0.7, hamiltonian=H)
        assert abs(evaluate(og, alg.identity()) - 1) < 1e-14

    def test_star_conjugates(self):
        rng = np.random.default_rng(41)
        alg = make_algebra(2, 4)
        H = random_element(alg, rng)
        H = H + H.star()
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        for _ in range(5):
            A = random_element(alg, rng)
            assert abs(evaluate(om, A.star()) - np.conj(evaluate(om, A))) < 1e-12

    def test_gibbs_weight_psd(self):
        rng = np.random.default_rng(43)
        alg = make_algebra(2, 4)
        H = random_element(alg, rng)
        H = H + H.star()
        om = StateFunctional(kind="gibbs", beta=2.0, hamiltonian=H)
        assert np.linalg.eigvalsh(om.density(alg)).min() > 0

    def test_gibbs_h_zero_is_trace(self):
        rng = np.random.default_rng(47)
        alg = make_algebra(2, 4)
        om0 = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=alg.zero())
        omt = StateFunctional(kind="trace")
        for _ in range(10):
            A = random_element(alg, rng)
            assert abs(evaluate(om0, A) - evaluate(omt, A)) < 1e-12

    def test_non_hermitian_hamiltonian_rejected(self):
        alg = make_algebra(2, 2)
        c1, _ = alg.generators()
        with pytest.raises(InvalidState):
            StateFunctional(kind="gibbs", beta=1.0, hamiltonian=1j * c1)

    @pytest.mark.parametrize("kind", ["trace", "gibbs"])
    def test_reuse_on_other_config_raises(self, kind):
        alg = make_algebra(2, 4)
        H = alg.generators()[0]
        om = StateFunctional(kind="trace") if kind == "trace" else \
            StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H + H.star())
        evaluate(om, alg.identity())
        with pytest.raises(ConfigMismatch):
            evaluate(om, make_algebra(2, 6).identity())

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        alg = make_algebra(2, 2)
        with pytest.raises(InvalidState):
            StateFunctional(kind="gibbs", beta=beta, hamiltonian=alg.zero())

    def test_non_finite_coefficient_rejected(self):
        alg = make_algebra(2, 2)
        with pytest.raises(InvalidState):
            StateFunctional(kind="gibbs", beta=1.0,
                            hamiltonian=alg.element({(1, 1): complex(float("nan"), 0.0)}))


# ---------------------------------------------------------------------------
# (perm, phase) monomial reps against the dense Kronecker products they replace
# ---------------------------------------------------------------------------

REP_CONFIGS = [(2, m) for m in (2, 4, 6, 8)] + [(3, m) for m in (2, 4, 6)] + \
    [(4, m) for m in (2, 4, 6)]
_DENSE = {}


def kron_generators(cfg):
    if cfg not in _DENSE:
        _DENSE[cfg] = dense_generators(cfg)
    return _DENSE[cfg]


@st.composite
def monomials(draw):
    d, m = draw(st.sampled_from(REP_CONFIGS))
    return make_algebra(d, m), tuple(draw(st.lists(st.integers(0, d - 1), min_size=m,
                                                   max_size=m)))


@st.composite
def element_pairs(draw):
    d, m = draw(st.sampled_from(REP_CONFIGS))
    alg = make_algebra(d, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (alg, random_element(alg, rng, draw(st.integers(1, 5))),
            random_element(alg, rng, draw(st.integers(1, 5))))


@settings(max_examples=120, deadline=None)
@given(case=monomials())
def test_monomial_rep_matches_kron_oracle(case):
    alg, k = case
    dim = alg.cfg.dim
    got = alg.monomial_rep(k)
    # the closed form gives each phase as its rounded root, where the
    # Kronecker product carries the round-off of its factors
    want = exact_entries(dense_monomial_rep(kron_generators(alg.cfg), k), alg.cfg.d)
    assert np.array_equal(got, want)
    perm, phase = alg.monomial_perm(k)
    assert np.array_equal(np.sort(perm), np.arange(dim))
    assert np.count_nonzero(got) == dim
    assert np.array_equal(got[np.arange(dim), perm], phase)


@settings(max_examples=60, deadline=None)
@given(case=monomials(), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_element_rep_matches_dense_oracle(case, extra, seed):
    """Elements with more than dim // (m/2) words, bit for bit against the
    Kronecker monomials with exact roots summed in term order, and within
    the round-off of the plain Kronecker products."""
    alg, _ = case
    d, m, dim = alg.cfg.d, alg.cfg.m, alg.cfg.dim
    rng = np.random.default_rng(seed)
    count = min(d**m, dim // (m // 2) + extra)
    words = rng.choice(d**m, count, replace=False)[:, None] // d ** np.arange(m) % d
    E = alg.element({tuple(k): complex(rng.normal(), rng.normal()) for k in words})
    assert len(E.coeffs) > dim // (m // 2)
    gens = kron_generators(alg.cfg)
    assert np.array_equal(E.rep, exact_dense_rep(gens, E))
    # each Kronecker phase is a product of up to (d - 1) m + 1 rounded factors
    bound = 2 * ((d - 1) * m + 2) * np.finfo(float).eps * sum(map(abs, E.coeffs.values()))
    assert np.abs(E.rep - dense_rep(gens, E)).max() <= bound


def gibbs_hamiltonian(alg, family, rng):
    """A star-invariant H of one draw family: the theorem and generic draws,
    one negative coupling on a random plus word (as the benchmark draws it),
    or 1 to 3 random words plus their adjoints."""
    if family == "theorem":
        return draw_theorem_hamiltonian(alg, rng)
    if family == "generic":
        return draw_generic_hamiltonian(alg, rng)
    if family == "negative":
        basis = plus_basis(alg.cfg)
        return coupling_element(alg, basis[int(rng.integers(1, len(basis)))],
                                -float(rng.uniform(0.5, 2.0)))
    H = random_element(alg, rng, int(rng.integers(1, 4)))
    return H + H.star()


GIBBS_FAMILIES = ["theorem", "generic", "negative", "words"]


@settings(max_examples=40, deadline=None)
@given(case=monomials(), family=st.sampled_from(GIBBS_FAMILIES),
       seed=st.integers(0, 2**32 - 1))
def test_rep_bits_do_not_depend_on_the_chunks(case, family, seed):
    """rep adds each entry's terms word by word, so a build with one word a
    chunk gives the bits of one sized by REP_ENTRIES."""
    alg, _ = case
    H = gibbs_hamiltonian(alg, family, np.random.default_rng(seed))
    want = AlgebraElement(alg, H.coeffs).rep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rpkit.algebra, "REP_ENTRIES", 1)
        got = AlgebraElement(alg, H.coeffs).rep
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(case=element_pairs())
def test_rep_is_multiplicative(case):
    alg, A, B = case
    want = A.rep @ B.rep
    assert np.abs((A * B).rep - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(case=element_pairs())
def test_star_is_conjugate_transpose(case):
    alg, A, _ = case
    want = A.rep.conj().T
    assert np.abs(A.star().rep - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(case=element_pairs())
def test_theta_is_an_involution(case):
    alg, A, _ = case
    assert (theta(theta(A)) - A).norm_max() <= 1e-12 * max(1.0, A.norm_max())
    assert np.abs(theta(theta(A)).rep - A.rep).max() <= \
        1e-12 * max(1.0, np.abs(A.rep).max())


# ---------------------------------------------------------------------------
# the closed-form ordering rule against bubble-sort normal order
# ---------------------------------------------------------------------------

@st.composite
def table_pairs(draw):
    """Two multi-term elements over one config; dimension is never built, so no cap."""
    d = draw(st.integers(2, 7))
    m = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    ctx = SimpleNamespace(cfg=AlgebraConfig(d, m))   # the table operations read only cfg
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def element():
        terms = draw(st.integers(1, 6))
        keys = [tuple(int(x) for x in rng.integers(0, d, m)) for _ in range(terms)]
        return AlgebraElement(ctx, {k: complex(rng.normal(), rng.normal()) for k in keys})

    return element(), element()


def _bits(table):
    return {k: (float(v.real).hex(), float(v.imag).hex()) for k, v in table.items()}


@settings(max_examples=300, deadline=None)
@given(case=table_pairs())
def test_ordering_rule_matches_bubble_sort_exactly(case):
    A, B = case
    assert _bits((A * B).coeffs) == _bits(bubble_product(A, B))
    assert _bits(A.star().coeffs) == _bits(bubble_star(A))
    assert _bits(theta(A).coeffs) == _bits(bubble_theta(A))


# ---------------------------------------------------------------------------
# Gibbs densities on the cosets of H's shift group against one dense eigh
# ---------------------------------------------------------------------------

COSET_CONFIGS = [(2, m) for m in (2, 4, 6, 8)] + [(3, m) for m in (2, 4, 6)] + \
    [(4, 2), (4, 4), (5, 2), (5, 4), (6, 2), (6, 4)]


@settings(max_examples=150, deadline=None)
@given(dm=st.sampled_from(COSET_CONFIGS), family=st.sampled_from(GIBBS_FAMILIES),
       beta=st.floats(0.05, 4.0), seed=st.integers(0, 2**32 - 1))
def test_density_is_block_diagonal_over_the_shift_cosets(dm, family, beta, seed):
    """The cosets partition the states into rows of one size, the components
    of the words' permutations; H and rho have no entry across them, rho an
    exact 0.0; in-coset entries lie within 16 eps max(1, beta sum|v|) of the
    dense oracle (sum|v| >= ||H||, each word unitary: the eigenvalues move by
    about eps ||H|| and the weights by beta times that), and a single coset
    gives the oracle's bits."""
    alg = make_algebra(*dm)
    dim = alg.cfg.dim
    H = gibbs_hamiltonian(alg, family, np.random.default_rng(seed))
    rows = shift_cosets(alg.cfg.d, H.words())
    assert np.array_equal(np.sort(rows, axis=None), np.arange(dim))
    assert np.array_equal(np.sort(rows, axis=1), rows)
    assert np.array_equal(np.sort(rows[:, 0]), rows[:, 0])
    coset = np.empty(dim, dtype=int)
    coset[rows] = np.arange(len(rows))[:, None]
    assert np.array_equal(coset, word_components(alg, H.coeffs))
    across = coset[:, None] != coset[None, :]
    assert not H.rep[across].any()
    om = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
    rho, want = om.density(alg), dense_density(om, alg)
    assert np.all(rho[across] == 0.0)
    bound = 16 * np.finfo(float).eps * max(1.0, beta * sum(map(abs, H.coeffs.values())))
    assert np.abs(rho - want)[~across].max() <= bound
    if len(rows) == 1:
        assert rho.tobytes() == want.tobytes()


def test_shift_cosets_of_no_word_are_single_states():
    rows = shift_cosets(3, np.zeros((0, 4), dtype=np.int64))
    assert np.array_equal(rows, np.arange(9)[:, None])
