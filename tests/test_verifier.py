import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpkit.algebra import (Algebra, AlgebraConfig, StateFunctional, evaluate, root_table,
                           theta, twisted_product)
from rpkit.boxes import dft_zd
from rpkit.chains import uniform_chain_state
from rpkit.errors import InvalidArgument, InvalidConfig, PreconditionViolation, SizeLimit, WrongHalf
from rpkit import verifier
from rpkit.reconstruction import quantize, shift_family
from rpkit.verifier import (NEGATIVE, NOT_APPLICABLE, POSITIVE, _weyl_words, clear_plans,
                            coupling_decomposition, coupling_element, cross_element,
                            draw_generic_hamiltonian, draw_theorem_hamiltonian, form_matrix,
                            gram, gram_report_from_matrix, plus_basis, sft_positivity,
                            sft_positivity_sequence)

from algebra_oracles import (gathered_form, gathered_reflection_defect, gemm_form_matrix,
                             loop_theorem_hamiltonian, masked_weyl_form, masked_weyl_plan,
                             multiple_shift_family, one_block_form, pair_tables, reassemble,
                             reassembled_sft_positivity, stored_verdict,
                             term_coupling_decomposition)
from conftest import make_algebra, random_element


class TestPlusBasis:
    def test_single_majorana(self):
        basis = plus_basis(AlgebraConfig(2, 2))
        assert basis == [(0, 0), (0, 1)]            # 1, c2

    def test_two_majoranas_order(self):
        basis = plus_basis(AlgebraConfig(2, 4))
        assert basis == [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]

    def test_d3_ladder(self):
        basis = plus_basis(AlgebraConfig(3, 2))
        assert basis == [(0, 0), (0, 1), (0, 2)]

    def test_count_uncapped(self):
        cfg = AlgebraConfig(3, 4)
        assert len(plus_basis(cfg)) == 9

    def test_grade_cap(self):
        basis = plus_basis(AlgebraConfig(2, 4), max_grade=1)
        assert basis == [(0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            plus_basis(AlgebraConfig(2, 26))


class TestGram:
    def test_trace_state_majorana_pair(self):
        # frozen by hand: M = diag(1, 0) since omega_tr kills c1 c2
        alg = make_algebra(2, 2)
        rep = gram(StateFunctional(kind="trace"), alg, plus_basis(alg.cfg))
        assert np.abs(rep.matrix - np.diag([1.0, 0.0])).max() < 1e-14
        assert rep.psd and rep.verdict == POSITIVE

    def test_unit_entry(self):
        alg = make_algebra(3, 2)
        rng = np.random.default_rng(2)
        H = random_element(alg, rng)
        H = H + H.star() + theta(random_element(alg, rng) * 0)
        om = StateFunctional(kind="gibbs", beta=0.5, hamiltonian=H + H.star())
        rep = gram(om, alg, plus_basis(alg.cfg))
        assert abs(rep.matrix[0, 0] - 1.0) < 1e-14

    def test_theorem_class_is_psd(self):
        rng = np.random.default_rng(123)
        for d, m in [(2, 4), (3, 2)]:
            alg = make_algebra(d, m)
            for _ in range(5):
                H = draw_theorem_hamiltonian(alg, rng)
                om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
                rep = gram(om, alg, plus_basis(alg.cfg))
                assert rep.herm_defect < 1e-12
                assert rep.min_eig >= -1e-10
                assert rep.verdict == POSITIVE

    def test_basis_order_independence(self):
        rng = np.random.default_rng(5)
        alg = make_algebra(2, 4)
        H = draw_theorem_hamiltonian(alg, rng)
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        basis = plus_basis(alg.cfg)
        rep = gram(om, alg, basis)
        perm = [2, 0, 3, 1]
        rep2 = gram(om, alg, [basis[i] for i in perm])
        assert abs(rep.min_eig - rep2.min_eig) < 1e-12
        P = np.zeros((4, 4))
        for new, old in enumerate(perm):
            P[new, old] = 1.0
        assert np.abs(P @ rep.matrix @ P.T - rep2.matrix).max() < 1e-12

    def test_wrong_half_rejected(self):
        alg = make_algebra(2, 4)
        with pytest.raises(WrongHalf):
            gram(StateFunctional(kind="trace"), alg, [(1, 0, 0, 0)])
        with pytest.raises(WrongHalf):
            form_matrix(StateFunctional(kind="trace"), alg, [(0, 0, 1, 0), (0, 1, 0, 0)])

    def test_forms_compose_no_monomial(self, monkeypatch):
        # the forms read the Weyl table: no (perm, phase) pair is composed
        monkeypatch.setattr(Algebra, "monomial_perm",
                            lambda *a: pytest.fail("monomial_perm called"))
        alg = Algebra(AlgebraConfig(3, 6))
        om = StateFunctional(kind="trace")
        rep = gram(om, alg, plus_basis(alg.cfg))
        assert rep.verdict == POSITIVE and rep.reflection_defect < 1e-15
        # omega_tr kills every word but 1, and theta(B_a) B_b = 1 only at a = b = 0
        want = np.zeros((27, 27))
        want[0, 0] = 1.0
        assert np.abs(form_matrix(om, alg, plus_basis(alg.cfg)) - want).max() < 1e-15

    def test_witness_certifies_min_eig(self):
        rng = np.random.default_rng(9)
        alg = make_algebra(2, 4)
        H = draw_generic_hamiltonian(alg, rng)
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        rep = gram(om, alg, plus_basis(alg.cfg))
        v = rep.witness
        assert abs(np.real(v.conj() @ rep.matrix @ v) - rep.min_eig) < 1e-10
        assert abs(np.linalg.norm(v) - 1) < 1e-12


class TestNullBasis:
    """The null space of a Gram report is quantize(rep).null_vectors (columns)."""

    def test_explicit_kernel(self):
        alg = make_algebra(2, 2)
        rep = gram(StateFunctional(kind="trace"), alg, plus_basis(alg.cfg))
        nb = quantize(rep).null_vectors.T
        assert len(nb) == 1
        assert np.abs(np.abs(nb[0]) - np.array([0.0, 1.0])).max() < 1e-12

    def test_strictly_positive_empty(self):
        rng = np.random.default_rng(21)
        alg = make_algebra(2, 2)
        H = coupling_element(alg, (0, 1), 1.0)
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        rep = gram(om, alg, plus_basis(alg.cfg))
        assert rep.min_eig > 1e-3
        assert quantize(rep).null_vectors.shape == (2, 0)

    def test_rank_plus_nullity(self):
        alg = make_algebra(2, 4)
        rep = gram(StateFunctional(kind="trace"), alg, plus_basis(alg.cfg))
        nb = quantize(rep).null_vectors.T
        rank = int((np.linalg.eigvalsh(rep.matrix) > rep.tol).sum())
        assert rank + len(nb) == 4

    def test_requires_psd(self):
        rng = np.random.default_rng(33)
        alg = make_algebra(2, 4)
        while True:
            H = draw_generic_hamiltonian(alg, rng)
            om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
            rep = gram(om, alg, plus_basis(alg.cfg))
            if not rep.psd:
                break
        with pytest.raises(PreconditionViolation):
            quantize(rep)


class TestCouplingDecomposition:
    def test_one_sided_term(self):
        alg = make_algebra(2, 4)
        gens = alg.generators()
        H = gens[2] * gens[3]                      # c3 c4
        dec = coupling_decomposition(H)
        assert (dec.h_plus - H).norm_max() == 0.0
        assert dec.cross == []
        assert dec.residual.norm_max() == 0.0

    def test_canonical_cross(self):
        alg = make_algebra(2, 4)
        H = coupling_element(alg, (0, 0, 1, 0), 1.0)
        dec = coupling_decomposition(H)
        assert dec.residual.norm_max() < 1e-14
        assert len(dec.cross) == 1
        lam, k = dec.cross[0]
        assert k == (0, 0, 1, 0)
        assert abs(-lam - 1.0) < 1e-12             # J = 1 recovered

    def test_bare_cross_monomial_phase(self):
        # c2 c3 = -i * theta(c3) o c3 at d = 2 (twist phase i)
        alg = make_algebra(2, 4)
        gens = alg.generators()
        H = gens[1] * gens[2]
        dec = coupling_decomposition(H)
        assert dec.residual.norm_max() == 0.0
        (lam, k), = dec.cross
        assert k == (0, 0, 1, 0)
        assert abs(lam - (-1j)) < 1e-14

    def test_offdiagonal_cross_goes_to_residual(self):
        alg = make_algebra(2, 4)
        gens = alg.generators()
        H = gens[0] * gens[2]                      # c1 c3: minus part is not theta(c3)
        dec = coupling_decomposition(H)
        assert dec.cross == []
        assert dec.residual.norm_max() == 1.0

    def test_reassembly(self):
        rng = np.random.default_rng(55)
        for d, m in [(2, 4), (3, 2), (3, 4)]:
            alg = make_algebra(d, m)
            H = draw_generic_hamiltonian(alg, rng)
            dec = coupling_decomposition(H)
            assert dec.H is H
            assert (reassemble(dec) - H).norm_max() < 1e-12

    def test_cross_element_runs_once_per_matched_word(self, monkeypatch):
        # a theorem draw's matched words, an off-diagonal cross word and a
        # generic draw's unmatched ones: only the matched words read tau
        alg = make_algebra(3, 4)
        rng = np.random.default_rng(5)
        X = alg.monomial((1, 2, 1, 1))
        H = draw_theorem_hamiltonian(alg, rng) + draw_generic_hamiltonian(alg, rng) + X + X.star()
        calls = []
        monkeypatch.setattr(verifier, "cross_element",
                            lambda *a: calls.append(a[1]) or cross_element(*a))
        dec = coupling_decomposition(H)
        assert len(calls) == len(dec.cross) > 0
        assert calls == [k for _, k in dec.cross]
        assert dec.residual.norm_max() > 0


@st.composite
def split_cases(draw):
    """An H over d 2-4: a theorem, generic or negative draw, or hand-made
    words (odd one-sided, off-diagonal cross, each word repeated)."""
    d = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.sampled_from([m for m in (2, 4, 6) if d ** (m // 2) <= 64]))
    alg, w = make_algebra(d, m), m // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["theorem", "generic", "negative", "odd", "offdiagonal",
                                 "repeated"]))
    if kind == "theorem":
        return draw_theorem_hamiltonian(alg, rng)
    if kind == "generic":
        return draw_generic_hamiltonian(alg, rng)
    basis = plus_basis(alg.cfg)
    if kind == "negative":
        return coupling_element(alg, basis[int(rng.integers(1, len(basis)))],
                                -float(rng.uniform(0.5, 2.0)))
    half = st.lists(st.integers(0, d - 1), min_size=w, max_size=w)
    if kind == "odd":
        k = (0,) * w + tuple(draw(half.filter(lambda h: sum(h) % d)))
        g = complex(rng.normal(), rng.normal()) * alg.monomial(k)
        g = g + g.star()
        return draw_theorem_hamiltonian(alg, rng) + g + theta(g)
    if kind == "offdiagonal":
        k = tuple(draw(half.filter(any))) + tuple(draw(half.filter(any)))
        X = complex(rng.normal(), rng.normal()) * alg.monomial(k)
        return coupling_element(alg, basis[-1], 1.0) + X + X.star()
    words = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * m), min_size=1, max_size=4))
    H = alg.zero()
    for k in words * 2:
        H = H + complex(rng.normal(), rng.normal()) * alg.monomial(k)
    return H + H.star()


def _bits(z) -> tuple:
    return z.real.hex(), z.imag.hex()


@settings(max_examples=120, deadline=None)
@given(H=split_cases())
def test_one_pass_split_matches_the_term_by_term_split(H):
    """Every part holds the term-by-term split's words in its order with equal
    coefficients, lambda keeps its bits, and sft_positivity, which reads
    theta-invariance off H, gives the verdict of the reassembled H."""
    dec, ref = coupling_decomposition(H), term_coupling_decomposition(H)
    for part in ("h_plus", "h_minus", "residual"):
        new, old = getattr(dec, part).coeffs, getattr(ref, part).coeffs
        assert list(new.items()) == list(old.items()), part
        assert getattr(dec, part).norm_max() == getattr(ref, part).norm_max()
    assert [(_bits(lam), k) for lam, k in dec.cross] == \
        [(_bits(lam), k) for lam, k in ref.cross]
    sv, want = sft_positivity(dec), reassembled_sft_positivity(H)
    assert (sv.verdict, sv.reason) == (want.verdict, want.reason)
    assert [(k, _bits(J)) for k, J in sv.couplings.items()] == \
        [(k, _bits(J)) for k, J in want.couplings.items()]
    assert (sv.eigenvalues is None) == (want.eigenvalues is None)
    if sv.eigenvalues is not None:
        assert sv.eigenvalues.tobytes() == want.eigenvalues.tobytes()


@pytest.mark.parametrize("d, m", [(2, 4), (2, 8), (3, 4), (3, 6), (4, 6)])
def test_theorem_draw_keeps_the_loop_words_bits_and_rng_state(d, m):
    alg = make_algebra(d, m)
    for seed in range(6):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        H, want = draw_theorem_hamiltonian(alg, rng), loop_theorem_hamiltonian(alg, ref)
        assert list(H.coeffs) == list(want.coeffs)
        assert [_bits(v) for v in H.coeffs.values()] == [_bits(v) for v in want.coeffs.values()]
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSftPositivity:
    def test_nonnegative_diagonal_couplings(self):
        rng = np.random.default_rng(61)
        for d, m in [(2, 4), (3, 2)]:
            alg = make_algebra(d, m)
            H = draw_theorem_hamiltonian(alg, rng)
            sv = sft_positivity(coupling_decomposition(H))
            assert sv.verdict == POSITIVE
            assert all(v.real >= -1e-12 for v in sv.couplings.values())

    def test_negative_coupling_detected(self):
        alg = make_algebra(2, 4)
        H = coupling_element(alg, (0, 0, 1, 0), -0.5)
        sv = sft_positivity(coupling_decomposition(H))
        assert sv.verdict == NEGATIVE

    def test_residual_not_applicable(self):
        alg = make_algebra(2, 4)
        gens = alg.generators()
        H = 1j * (gens[0] * gens[2])               # hermitian off-diagonal cross term
        assert (H.star() - H).norm_max() < 1e-14
        sv = sft_positivity(coupling_decomposition(H))
        assert sv.verdict == NOT_APPLICABLE

    def test_non_neutral_one_sided_negative(self):
        alg = make_algebra(2, 4)
        gens = alg.generators()
        g = gens[2] + gens[2].star()               # odd one-sided term
        H = g + theta(g)
        sv = sft_positivity(coupling_decomposition(H))
        assert sv.verdict == NEGATIVE

    def test_ladder_sequence_examples(self):
        sv = sft_positivity_sequence([1.0, 2.0], 2)
        assert sv.verdict == NEGATIVE
        assert np.abs(sv.eigenvalues - np.array([3.0, -1.0])).max() < 1e-12
        sv = sft_positivity_sequence([1.0, 1.0], 2)
        assert sv.verdict == POSITIVE
        assert np.abs(sv.eigenvalues - np.array([2.0, 0.0])).max() < 1e-12

    @pytest.mark.parametrize("seq, d", [([np.nan, 1.0], 2), ([1.0, np.inf], 2),
                                        ([1.0, 1.0, 1.0], 2), ([], 2)])
    def test_sequence_refuses_non_finite_and_wrong_length(self, seq, d):
        with pytest.raises(InvalidArgument):
            sft_positivity_sequence(seq, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bochner_bridge(self, d):
        # circulant coupling verdict == entrywise nonnegativity of dft_zd
        rng = np.random.default_rng(71 + d)
        for _ in range(25):
            J = np.zeros(d, dtype=complex)
            J[0] = rng.uniform(0, 2)
            for k in range(1, (d // 2) + 1):
                if (d - k) % d == k:
                    J[k] = rng.normal()            # self-paired entry must be real
                else:
                    z = complex(rng.normal(), rng.normal()) * 0.8
                    J[k] = z
                    J[(-k) % d] = np.conj(z)
            sv = sft_positivity_sequence(J, d)
            spec = dft_zd(J)
            assert np.abs(spec.imag).max() < 1e-10
            expect = POSITIVE if spec.real.min() >= -1e-10 else NEGATIVE
            assert sv.verdict == expect

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 9), seed=st.integers(0, 2**32 - 1), skew=st.floats(0.0, 1e-9))
    def test_sequence_hermiticity_matches_circulant_loop(self, d, seed, skew):
        # the closed form reads J[k] - conj(J[-k]) for the d x d loop it replaced
        rng = np.random.default_rng(seed)
        J = rng.normal(size=d) + 1j * rng.normal(size=d)
        J = (J + np.conj(J[-np.arange(d) % d])) / 2 + skew * rng.normal(size=d)
        K = np.array([[J[(a - b) % d] for b in range(d)] for a in range(d)])
        herm = float(np.abs(K - K.conj().T).max())
        sv = sft_positivity_sequence(J, d)
        if herm > 1e-10 * max(1.0, float(np.abs(J).max())):
            assert sv.reason == f"coupling block not hermitian (defect {herm:.3e})"
        else:
            assert not sv.reason.startswith("coupling block")


class TestRandomSuites:
    def test_violations_among_generic_draws(self):
        rng = np.random.default_rng(81)
        alg = make_algebra(2, 4)
        hits = 0
        for _ in range(25):
            H = draw_generic_hamiltonian(alg, rng)
            sv = sft_positivity(coupling_decomposition(H))
            if sv.verdict == POSITIVE:
                continue
            for beta in (0.5, 1.0, 2.0):
                om = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
                rep = gram(om, alg, plus_basis(alg.cfg))
                if rep.min_eig < -1e-6:
                    v = rep.witness
                    assert abs(np.real(v.conj() @ rep.matrix @ v) - rep.min_eig) < 1e-10
                    hits += 1
                    break
        assert hits >= 1

    def test_cross_element_is_invariant(self):
        for d, m in [(2, 4), (3, 2), (4, 2)]:
            alg = make_algebra(d, m)
            for k in plus_basis(alg.cfg)[1:]:
                H = coupling_element(alg, k, 0.8)
                assert (H.star() - H).norm_max() < 1e-12
                assert (theta(H) - H).norm_max() < 1e-12


# the gate edges, both sides of each literal, and PSD edges at each tol
HERM_EDGES = [0.0, 1e-9, 1e-8, np.nextafter(1e-8, 1.0), 1e-6]
REFL_EDGES = [0.0, 1e-11, 1e-10, np.nextafter(1e-10, 1.0), 1e-6]
TOLS = [0.0, 1e-12, 1e-10, 1e-8, 1.0]


@st.composite
def spectra(draw):
    tol = draw(st.sampled_from(TOLS))
    edges = [-tol, np.nextafter(-tol, -1.0), np.nextafter(-tol, 1.0), -0.0, 0.0, -5e-324]
    ev = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(-2.0, 2.0)), max_size=6))
    return np.sort(np.array(ev, dtype=float)), tol


@settings(max_examples=300, deadline=None)
@given(case=spectra(), herm=st.sampled_from(HERM_EDGES), refl=st.sampled_from(REFL_EDGES))
def test_report_reads_its_verdict_off_its_spectrum(case, herm, refl):
    # the five values a report once stored, against the rule they were stored with
    ev, tol = case
    rep = verifier.GramReport([], None, ev, None, np.zeros(0), tol, herm, refl)
    want = stored_verdict(ev, tol, herm, refl)
    got = {key: getattr(rep, key) for key in want}
    assert got == want and [type(v) for v in got.values()] == [type(v) for v in want.values()]


def with_identity(M, reflection_defect):
    """M as the leading block of a family form whose last member is the
    identity, with its column off its row by reflection_defect at member 0."""
    n = len(M)
    F = np.zeros((n + 1, n + 1), dtype=complex)
    F[:n, :n], F[0, n] = M, reflection_defect
    return F


class TestNotApplicableReason:
    def test_reflection_gate_named_first(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)     # not hermitian either
        rep = gram_report_from_matrix(with_identity(M, 1e-6), [0, 1], one=2)
        assert (rep.verdict, rep.not_applicable_reason) == (NOT_APPLICABLE, "reflection")

    def test_hermiticity_gate(self):
        M = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        rep = gram_report_from_matrix(with_identity(M, 1e-16), [0, 1], one=2)
        assert (rep.verdict, rep.not_applicable_reason) == (NOT_APPLICABLE, "hermiticity")

    @pytest.mark.parametrize("M", [np.eye(2), -np.eye(2)])
    def test_applicable_has_no_reason(self, M):
        rep = gram_report_from_matrix(with_identity(M, 1e-11), [0, 1], one=2)
        assert rep.verdict in (POSITIVE, NEGATIVE) and rep.not_applicable_reason == ""


# ---------------------------------------------------------------------------
# form_matrix against the per-entry form, the per-pair gather and the dense
# gemm form it replaced
# ---------------------------------------------------------------------------

FORM_CONFIGS = ([(2, m) for m in (2, 4, 6, 8, 10, 12)] + [(3, 2), (3, 4), (3, 6), (4, 2),
                (4, 4), (4, 6), (5, 2), (5, 4)])


def form_oracle(omega, algebra, family):
    """omega(theta(B_a) o B_b) entry by entry: theta, twisted product, evaluate."""
    elems = [algebra.monomial(k) for k in family]
    n = len(elems)
    M = np.zeros((n, n), dtype=complex)
    for a in range(n):
        Ta = theta(elems[a])
        for b in range(n):
            M[a, b] = evaluate(omega, twisted_product(Ta, elems[b]))
    return M


@st.composite
def form_cases(draw):
    """Random d <= 5, m (dim <= 64, odd w at m = 6 and 10), trace or Gibbs
    state, and a plus-half family: a window, up to a grade cap, followed by
    its shift images as transfer_operator takes them (one multiple of
    `steps`) or as it once took them (three)."""
    d, m = draw(st.sampled_from(FORM_CONFIGS))
    algebra = Algebra(AlgebraConfig(d, m))   # fresh: the oracle caches every product
    cfg = algebra.cfg
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        omega = StateFunctional(kind="trace")
    else:
        H = random_element(algebra, rng, terms=draw(st.integers(1, 5)))
        omega = StateFunctional(kind="gibbs", beta=draw(st.floats(0.0, 3.0)),
                                hamiltonian=H + H.star())
    pool = plus_basis(cfg, draw(st.one_of(st.none(), st.integers(0, (d - 1) * m // 2))))
    # sizes and shifts from the seeded rng: hypothesis would favour the smallest
    size = int(rng.integers(1, min(len(pool), 8) + 1))
    basis = [pool[i] for i in sorted(rng.choice(len(pool), size, replace=False))]
    steps = int(rng.integers(0, 3))         # 0: the basis alone
    family, _ = multiple_shift_family(basis, steps, cfg, draw(st.sampled_from([1, 3])))
    return algebra, omega, basis, family


def form_bound(algebra, M):
    """(dim + 2) eps max(1, |M|max): each entry sums dim terms of absolute
    sum <= tr rho = 1 (form_matrix), with exactly rounded phases."""
    return (algebra.cfg.dim + 2) * np.finfo(float).eps * max(1.0, float(np.abs(M).max()))


def charge_grades(omega, cfg, family):
    """The grade |k| mod d of each plus-half member when omega conserves the
    reflection charge chi (the trace state, or a Gibbs state every word of
    whose Hamiltonian has chi = 0; verifier docstring), else None.

    Then omega(c^K) = 0 exactly unless chi(K) = 0: the form vanishes between
    members of different grades, and so do omega(B) and omega(theta(B)) for
    a member of nonzero grade.
    """
    w = cfg.m // 2
    if omega.kind == "gibbs" and any((sum(k[w:]) - sum(k[:w])) % cfg.d
                                     for k in omega.hamiltonian.coeffs):
        return None
    return np.array([sum(k) % cfg.d for k in family])


def free_pairs(omega, cfg, family) -> np.ndarray:
    """The pairs (a, b) of the family whose form the charge does not force to
    0 (charge_grades): all of them for a state that does not conserve it."""
    g = charge_grades(omega, cfg, family)
    n = len(family)
    return np.ones((n, n), dtype=bool) if g is None else g[:, None] == g[None, :]


@settings(max_examples=80, deadline=None)
@given(case=form_cases())
def test_form_matrix_matches_entry_oracle(case):
    """The table against the gather over composed (perm, phase) pairs, the
    per-entry form and the dense gemm form.

    The gather takes each composed phase as its exact root, so both sides are
    within (dim + 2) eps of the exact form.  The entry and gemm oracles carry
    the round-off of their phases too, products of up to (d - 1) m generator
    factors, the theta coefficient and the twist, each a rounded root: against
    an exact (mpmath) reference at d = 3, m = 2 they were 1.7 (dim + 2) eps
    off, and the table 0.7 (dim + 2) eps.

    Both bounds take the density as exact.  Where the reflection charge
    forces the form to 0 (charge_grades), form_matrix and gram write exact
    zeros, while every oracle reads the rounded density, whose eigh round-off
    across grade sectors is not within them: at d = 3, m = 2, beta = 1 and an
    H of two chi = 0 words, the defect off dense evaluate read 1.26e-15 for
    the member (0, 2), of grade 2, against the bound 1.11e-15.  So those
    entries must be exactly 0, and the oracles are compared on the others.
    """
    algebra, omega, basis, family = case
    cfg = algebra.cfg
    got = form_matrix(omega, algebra, family)
    bound = form_bound(algebra, got)
    free = free_pairs(omega, cfg, family)
    assert np.all(got[~free] == 0.0)
    assert np.abs(got - gathered_form(omega, algebra, family))[free].max() <= bound
    words = 2 * ((cfg.d - 1) * cfg.m + 2) * np.finfo(float).eps * max(1.0, np.abs(got).max())
    for oracle in (form_oracle, gemm_form_matrix):
        assert np.abs(got - oracle(omega, algebra, family))[free].max() <= bound + words
    # the reflection defect off the table against evaluate of dense reps and
    # against the one-point gather, over the members of grade 0 when the
    # charge is conserved: the others add exact zeros
    grades = charge_grades(omega, cfg, family)
    plain = family if grades is None else [k for k, g in zip(family, grades) if g == 0]
    refl = 0.0
    for k in plain:
        E = algebra.monomial(k)
        refl = max(refl, abs(evaluate(omega, theta(E)) - np.conj(evaluate(omega, E))))
    got_refl = gram(omega, algebra, family).reflection_defect
    assert abs(got_refl - refl) <= bound
    if plain:
        assert abs(got_refl - gathered_reflection_defect(omega, algebra, plain)) <= bound
    else:
        assert got_refl == 0.0


@settings(max_examples=40, deadline=None)
@given(case=form_cases(), macs=st.sampled_from([1, 2**8, 2**11]))
def test_form_matrix_in_small_chunks_matches_gather(case, macs):
    """The table built a few shifts at a time, or one shift per chunk
    (OMEGA_MACS = 1), against the gather: the chunks split only the shifts,
    so every pair is read from its own shift's chunk.  The pairs the
    reflection charge forces to 0 are exact zeros (as in
    test_form_matrix_matches_entry_oracle)."""
    algebra, omega, _, family = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "OMEGA_MACS", macs)
        got = form_matrix(omega, algebra, family)
    bound = form_bound(algebra, got)
    free = free_pairs(omega, algebra.cfg, family)
    assert np.all(got[~free] == 0.0)
    assert np.abs(got - gathered_form(omega, algebra, family))[free].max() <= bound


@settings(max_examples=40, deadline=None)
@given(case=form_cases(), macs=st.sampled_from([1, 2**6, 2**9]))
def test_chunk_order_is_the_masks_bit_for_bit(case, macs):
    """The pairs ordered by chunk once against each chunk's mask over all
    n^2 pairs (algebra_oracles.masked_weyl_plan), with OMEGA_MACS small
    enough for many chunks: the same entries read, so the same bits.  Each
    side is planned once and applied to the state's density and to that of
    the trace state."""
    algebra, omega, _, family = case
    cfg = algebra.cfg
    K = verifier._family_exponents(algebra, family)
    S, F, P = _weyl_words(cfg, K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "OMEGA_MACS", macs)
        table = verifier._omega_plan(cfg, S.ravel(), F.ravel())
        oracle = masked_weyl_plan(cfg, (S, F, P))
    for state in (omega, StateFunctional(kind="trace")):
        rho = state.density(algebra)
        got = root_table(cfg.d)[P] * verifier._omega_values(rho, table).reshape(S.shape)
        assert np.array_equal(got, masked_weyl_form(rho, oracle))


@settings(max_examples=40, deadline=None)
@given(case=form_cases())
def test_in_sector_words_are_the_masked_grid(case):
    """The words of the in-sector pairs only, against the words of all n^2
    pairs masked to the sectors, element for element in row-major order; and
    the form of a plan over them gives the masked grid's form bit for bit.
    The grade sectors are imposed whatever the state, so that most draws
    have several."""
    algebra, omega, _, family = case
    cfg = algebra.cfg
    K = verifier._family_exponents(algebra, family)
    sectors = K.sum(1) % cfg.d
    pairs = sectors[:, None] == sectors[None, :]
    grid = _weyl_words(cfg, K)
    words = _weyl_words(cfg, K, np.nonzero(pairs))
    for got, want in zip(words, grid):
        assert got.dtype == want.dtype and np.array_equal(got, want[pairs])
    S, F, P = (x[pairs] for x in grid)
    want = np.zeros(pairs.shape, dtype=complex)
    want[pairs] = root_table(cfg.d)[P] * verifier._omega_values(
        omega.density(algebra), verifier._omega_plan(cfg, S, F))
    got = verifier._form(omega, algebra, verifier._plan(cfg, K, sectors, False))
    assert got.tobytes() == want.tobytes()


def test_form_matrix_wide_shift_chunks_match_gather():
    """d = 256, m = 2 with 144 random grades and a Gibbs state: one shift
    over 144 frequencies alone needs more than OMEGA_MACS multiply-adds, so
    each shift is a chunk of its own at the default budget."""
    algebra = Algebra(AlgebraConfig(256, 2))
    rng = np.random.default_rng(7)
    H = random_element(algebra, rng, terms=6)
    omega = StateFunctional(kind="gibbs", beta=0.7, hamiltonian=H + H.star())
    family = [(0, int(g)) for g in np.sort(rng.choice(256, 144, replace=False))]
    got = form_matrix(omega, algebra, family)
    assert algebra.cfg.dim * 144 > verifier.OMEGA_MACS
    assert np.abs(got - gathered_form(omega, algebra, family)).max() <= form_bound(algebra, got)


@settings(max_examples=60, deadline=None)
@given(case=form_cases())
def test_weyl_words_are_the_composed_pairs(case):
    """The closed-form (shift, frequency, phase) of every theta(B_a) o B_b
    against the (perm, phase) pairs composed from the Kronecker-order
    generator pairs (algebra_oracles.pair_tables): the perm is i -> i + S
    digit by digit, and the phase is zeta^P q^(F.i) up to the round-off of
    the composed products."""
    algebra, _, _, family = case
    d, w, dim = algebra.cfg.d, algebra.cfg.m // 2, algebra.cfg.dim
    S, F, P = _weyl_words(algebra.cfg, np.array(family).reshape(len(family), -1))
    PL, HL, PR, HR, g = pair_tables(algebra, family)
    digits = np.arange(dim)[:, None] // d ** np.arange(w - 1, -1, -1) % d
    place = d ** np.arange(w - 1, -1, -1)
    twist = np.exp(1j * np.pi * (d - 1) * np.outer(g, g) / d)
    for a in range(len(family)):
        perm = PR[:, PL[a]]
        phase = HR[:, PL[a]] * HL[a] * twist[a][:, None]
        assert np.array_equal(perm, (digits[None] + digits[S[a]][:, None]) % d @ place)
        j = (P[a][:, None] + 2 * (digits[F[a]] @ digits.T)) % (2 * d)   # zeta^j, q = zeta^2
        assert np.abs(phase - np.exp(1j * np.pi * j / d)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(case=form_cases())
def test_family_form_leading_block_is_gram_form(case):
    """reconstruct reads the window Gram off the family form, where rp-gram
    evaluates gram's form: the two agree on the window to round-off.

    Not bit for bit: the BLAS product and numpy's complex multiply can take
    another order for another family size (d = 4, m = 6, trace state, a
    7-member window and one image gives 1.7e-18 against 0).  Each entry sums
    terms of absolute sum <= tr rho = 1 (form_matrix), so each side is within
    about (dim + 2) eps of the exact form.
    """
    algebra, omega, basis, family = case
    n = len(basis)
    M = form_matrix(omega, algebra, family)
    Ms = (M + M.conj().T) / 2
    bound = 2 * (algebra.cfg.dim + 2) * np.finfo(float).eps
    assert np.abs(Ms[:n, :n] - gram(omega, algebra, basis).matrix).max() <= bound


@st.composite
def plus_pairs(draw):
    """Two plus monomials k != 0 and l of one algebra, d = 2..8, and a J > 0."""
    d = draw(st.integers(2, 8))
    m = draw(st.sampled_from([m for m in (2, 4, 6, 8) if d ** (m // 2) <= 4096]))
    digits = st.lists(st.integers(0, d - 1), min_size=m // 2, max_size=m // 2)
    k = draw(digits.filter(any))
    return (make_algebra(d, m), (0,) * (m // 2) + tuple(k),
            (0,) * (m // 2) + tuple(draw(digits)), draw(st.floats(0.1, 2.0)))


@settings(max_examples=80, deadline=None)
@given(case=plus_pairs())
def test_cross_elements_need_no_orientation_phase(case):
    """theta(theta(B_k) o B_l) = theta(B_l) o B_k and E_k* = E_kbar on the
    element algebra, so coupling_element is star- and theta-invariant and
    sft_positivity reads its J back (verifier docstring).

    Within 8 d^2 eps, a bound with room: every phase is one root_table read,
    and test_cross_identities_hold_over_every_plus_pair holds the identities
    to round-off.
    """
    alg, k, l, J = case
    d = alg.cfg.d
    tol = 8 * d * d * np.finfo(float).eps
    Bk, Bl = alg.monomial(k), alg.monomial(l)
    swapped = theta(twisted_product(theta(Bk), Bl)) - twisted_product(theta(Bl), Bk)
    assert swapped.norm_max() <= tol
    kbar = tuple(-e % d for e in k)
    assert (cross_element(alg, k).star() - cross_element(alg, kbar)).norm_max() <= tol
    H = coupling_element(alg, k, J)
    assert (theta(H) - H).norm_max() <= tol * J
    assert (H.star() - H).norm_max() <= tol * J
    sv = sft_positivity(coupling_decomposition(H))
    assert sv.verdict == POSITIVE
    assert set(sv.couplings) == {k, kbar}
    assert all(abs(v - J) <= tol * J for v in sv.couplings.values())


@pytest.mark.parametrize("d, m, bound", [(2, 8, 0.0), (4, 6, 2e-16), (3, 6, 2e-15),
                                         (6, 4, 2e-15), (8, 4, 2e-15)])
def test_cross_identities_hold_over_every_plus_pair(d, m, bound):
    """theta(theta(B_k) o B_l) = theta(B_l) o B_k, E_k* = E_kbar and
    theta(E_k) = E_k over every pair of plus_basis (verifier docstring).

    Each phase is one read of the exactly rounded root_table, so each side
    carries a few roundings of products of unit-modulus factors.  At d = 2
    every root is 1, i or their negatives, and the identities hold exactly;
    at d = 4 the odd roots are np.exp's cos and sin of pi/4, which differ in
    the last bit.
    """
    alg = make_algebra(d, m)
    basis = plus_basis(alg.cfg)
    B = [alg.monomial(k) for k in basis]
    tB = [theta(b) for b in B]
    worst = 0.0
    for a, k in enumerate(basis):
        E = twisted_product(tB[a], B[a])
        kbar = tuple(-e % d for e in k)
        worst = max(worst, (E.star() - cross_element(alg, kbar)).norm_max(),
                    (theta(E) - E).norm_max())
        for b in range(len(B)):
            swapped = theta(twisted_product(tB[a], B[b])) - twisted_product(tB[b], B[a])
            worst = max(worst, swapped.norm_max())
    assert worst <= bound


# ---------------------------------------------------------------------------
# grade sectors: the form, the eigh and the witness one sector at a time
# ---------------------------------------------------------------------------

def sector_case(d, m, seed, kind, beta, max_grade):
    """The algebra (d, m), a state that conserves the reflection charge (the
    trace, a theorem draw or one coupling_element with J < 0, from
    default_rng(seed)) and a max_grade basis."""
    algebra = make_algebra(d, m)
    rng = np.random.default_rng(seed)
    if kind == "trace":
        omega = StateFunctional(kind="trace")
    else:
        if kind == "theorem":
            H = draw_theorem_hamiltonian(algebra, rng)
        else:
            pool = plus_basis(algebra.cfg)
            H = coupling_element(algebra, pool[int(rng.integers(1, len(pool)))],
                                 -float(rng.uniform(0.5, 2.0)))
        omega = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
    return algebra, omega, plus_basis(algebra.cfg, max_grade)


@st.composite
def sector_cases(draw):
    """sector_case over d 2-4 and m 4-8."""
    d, m = draw(st.integers(2, 4)), draw(st.sampled_from([4, 6, 8]))
    return sector_case(d, m, draw(st.integers(0, 2**32 - 1)),
                       draw(st.sampled_from(["trace", "theorem", "negative"])),
                       draw(st.sampled_from([0.5, 1.0, 2.0])),
                       draw(st.one_of(st.none(), st.integers(0, (d - 1) * m // 2))))


def density_drift(omega, dim) -> float:
    """A bound on |tr((rho~ - rho) c^K)| for a Weyl word c^K, rho~ the
    density as StateFunctional.density computes it and rho the exact one.

    c^K is a phased permutation, so the term is at most ||rho~ - rho||_1.
    The eigh of H is backward stable: its eigenpairs are those of H + dH,
    ||dH|| <= dim eps ||H||, with eigenvectors orthonormal within dim eps.
    The Gibbs state moves by at most 2 beta ||dH|| in trace norm (Duhamel:
    d rho = -beta int_0^1 rho^u dH rho^(1-u) du + beta rho tr(rho dH), each
    part of trace norm <= beta ||dH|| by Hoelder), and the product
    v e v^* with its normalization adds about dim eps.  ||H|| <= sum |h_K|,
    each word unitary.  So the bound is dim eps (2 beta sum |h_K| + 1), and
    0 for the trace state, whose density is exact.
    """
    if omega.kind == "trace":
        return 0.0
    norm = sum(abs(c) for c in omega.hamiltonian.coeffs.values())
    return dim * np.finfo(float).eps * (2 * omega.beta * norm + 1)


@settings(max_examples=40, deadline=None)
@given(case=sector_cases())
@example(case=sector_case(2, 6, 2145, "theorem", 2.0, None))
def test_sector_form_matches_the_one_block_oracle(case):
    """The form of a charge-conserving state, evaluated one grade sector at a
    time, against all n^2 pairs evaluated as one block.

    Both sides read the same rounded density rho~, and each is within
    (dim + 1) eps of the form of rho~ entrywise (form_matrix), so in-sector
    entries agree within 2 (dim + 1) eps.  The exact cross-sector entries
    are 0 (verifier docstring), and the sector path writes exact zeros; the
    oracle reads tr(rho~ c^K) = tr((rho~ - rho) c^K), so it is within
    (dim + 1) eps + density_drift of 0.  That term grows with beta ||H||
    through the eigh of H: the pinned draw (d = 2, m = 6, beta = 2, a
    theorem H, the full basis of 8) reads 3.1e-15 there, over (dim + 1) eps
    = 2.0e-15 but 0.045 of the drift bound.  Over theorem and negative
    draws at each beta (600 seeds per config of dim <= 64, 60 above) the
    worst was 0.097 of the whole bound, which stays below 6e-11 (dim 256),
    while the cross entries of a state that does not conserve the charge
    are >= 1e-3 (test_a_charged_word_keeps_the_form_one_block).  By Weyl
    the eigenvalues then move by at most n times the entry bound, plus n eps
    for each eigh, |M_ab| <= 1.
    """
    algebra, omega, basis = case
    cfg, eps, n = algebra.cfg, np.finfo(float).eps, len(basis)
    K = verifier._family_exponents(algebra, basis)
    sectors = verifier.grade_sectors(omega, cfg, K)
    assert np.array_equal(sectors, K.sum(1) % cfg.d)
    got, want = form_matrix(omega, algebra, basis), one_block_form(omega, algebra, basis)
    same = sectors[:, None] == sectors[None, :]
    form = (cfg.dim + 1) * eps
    cross = form + density_drift(omega, cfg.dim)
    assert np.abs(got - want)[same].max() <= 2 * form
    assert np.all(got[~same] == 0.0)
    assert np.abs(want[~same]).max(initial=0.0) <= cross
    rep, oracle = gram(omega, algebra, basis), gram_report_from_matrix(want, basis, one=0)
    entry = max(2 * form, cross)
    assert np.abs(rep.eigenvalues - oracle.eigenvalues).max() <= n * entry + 2 * n * n * eps
    assert rep.verdict == oracle.verdict
    # the witness lies in the worst sector, and min_eig is that sector's bottom
    if len(set(sectors.tolist())) == 1:
        assert rep.block is None
    else:
        inside = sectors == rep.block
        assert np.all(rep.witness[~inside] == 0.0)
        Ms = rep.matrix[np.ix_(inside, inside)]
        assert abs(rep.min_eig - np.linalg.eigvalsh(Ms)[0]) <= 2 * n * n * eps


def test_a_charged_word_keeps_the_form_one_block():
    """A theorem H plus 0.1 (c^k + (c^k)*) with chi(k) = 1 does not conserve
    the reflection charge: one block, and every entry, the cross-sector ones
    included, is the one-block oracle's, bit for bit."""
    algebra = make_algebra(3, 6)
    X = algebra.monomial((0, 0, 0, 1, 0, 0))
    H = draw_theorem_hamiltonian(algebra, np.random.default_rng(7)) + 0.1 * (X + X.star())
    omega = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
    basis = plus_basis(algebra.cfg)
    assert not verifier.grade_sectors(omega, algebra.cfg, basis).any()
    got = form_matrix(omega, algebra, basis)
    assert np.array_equal(got, one_block_form(omega, algebra, basis))
    g = np.array(basis).sum(1) % 3
    assert np.abs(got[g[:, None] != g[None, :]]).max() > 1e-3
    assert gram(omega, algebra, basis).block is None


@pytest.mark.parametrize("family, shapes", [("trace", [(3, 27, 27)]),
                                            ("theorem", [(3, 27, 27)]),
                                            ("generic", [(81, 81)])])
def test_gram_hands_eigh_one_block_per_sector(monkeypatch, family, shapes):
    """(3, 8) on the full basis of 81 monomials: the trace and a theorem draw
    conserve the reflection charge, so their Gram is three 27 x 27 sectors,
    handed to eigh as one stack; a generic draw does not, and its Gram is
    one 81 x 81 block."""
    algebra = make_algebra(3, 8)
    if family == "trace":
        omega = StateFunctional(kind="trace")
    else:
        draw = draw_theorem_hamiltonian if family == "theorem" else draw_generic_hamiltonian
        omega = StateFunctional(kind="gibbs", beta=1.0,
                                hamiltonian=draw(algebra, np.random.default_rng(7)))
    omega.density(algebra)              # the state's own eigh, before the watch
    seen, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **kw: seen.append(a.shape) or
                        real(a, *r, **kw))
    gram(omega, algebra, plus_basis(algebra.cfg))
    assert seen == shapes


# ---------------------------------------------------------------------------
# plans: the state-free half of a form, built once per family and reused
# ---------------------------------------------------------------------------

PLAN_CONFIGS = [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (4, 4)]


@st.composite
def plan_cases(draw):
    """An algebra, a plus-half window and the family the form is taken over
    (a plus basis, a max_grade subset, its shift family at steps 1 or 2, or
    the window with some members repeated), the trace state, a theorem and
    a generic draw, a chain window at d = 2, and an OMEGA_MACS (None keeps
    the default)."""
    d, m = draw(st.sampled_from(PLAN_CONFIGS))
    algebra = make_algebra(d, m)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = plus_basis(algebra.cfg, draw(st.one_of(st.none(), st.integers(0, (d - 1) * m // 2))))
    shape = draw(st.sampled_from(["basis", "shift", "repeats"]))
    if shape == "shift":
        family, _ = shift_family(basis, draw(st.integers(1, 2)), algebra.cfg)
    elif shape == "repeats":
        family = basis + [basis[int(i)] for i in rng.integers(0, len(basis), 3)]
    else:
        family = basis
    states = [StateFunctional(kind="trace")]
    for draw_h in (draw_theorem_hamiltonian, draw_generic_hamiltonian):
        states.append(StateFunctional(kind="gibbs", beta=float(rng.uniform(0.2, 2.0)),
                                      hamiltonian=draw_h(algebra, rng)))
    if d == 2:
        states.append(uniform_chain_state(algebra, float(rng.uniform(-1.5, 1.5)),
                                          float(rng.uniform(0.2, 2.0))))
    return algebra, basis, family, states, draw(st.sampled_from([1, 2**6, None]))


def plan_outcome(omega, algebra, basis, family) -> list:
    """The bytes of the family form, of the window report read off its
    leading block with the plan's sectors, as reconstruct reads it, and of
    gram's report over the family."""
    def report(rep):
        return [rep.matrix.tobytes(), rep.eigenvalues.tobytes(), rep.eigenvectors.tobytes(),
                rep.witness.tobytes(), rep.herm_defect, rep.reflection_defect, rep.block]
    plan = verifier.form_plan(omega, algebra, family)
    M = form_matrix(omega, algebra, family)
    window = gram_report_from_matrix(M, basis, one=plan.one, sectors=plan.sectors)
    return [M.tobytes()] + report(window) + report(gram(omega, algebra, family))


@settings(max_examples=30, deadline=None)
@given(case=plan_cases())
def test_a_warm_plan_gives_the_bits_of_a_cold_one(case):
    """Every state's form and reports from new plans only (PLAN_PAIRS = 0
    keeps none), from the plans of one cache shared by all four states, run
    twice, and again after the cache is cleared: the same bytes."""
    algebra, basis, family, states, macs = case
    with pytest.MonkeyPatch.context() as mp:
        if macs is not None:
            mp.setattr(verifier, "OMEGA_MACS", macs)
        clear_plans()
        with pytest.MonkeyPatch.context() as cold_only:
            cold_only.setattr(verifier, "PLAN_PAIRS", 0)
            cold = [plan_outcome(omega, algebra, basis, family) for omega in states]
        assert len(verifier._PLANS) == 0
        for _ in range(2):
            assert [plan_outcome(omega, algebra, basis, family) for omega in states] == cold
        clear_plans()
        assert [plan_outcome(omega, algebra, basis, family) for omega in states[::-1]] \
            == cold[::-1]


def test_a_plan_is_built_once_per_family(monkeypatch):
    """Two states that split the family alike share one plan: the words are
    built for the first only.  The plan's arrays are read-only."""
    algebra = make_algebra(3, 6)
    basis = plus_basis(algebra.cfg)
    words, real = [], verifier._weyl_words
    monkeypatch.setattr(verifier, "_weyl_words", lambda *a: words.append(1) or real(*a))
    theorem = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=draw_theorem_hamiltonian(
        algebra, np.random.default_rng(3)))
    plan = verifier.form_plan(StateFunctional(kind="trace"), algebra, basis)
    assert verifier.form_plan(theorem, algebra, basis) is plan
    gram(theorem, algebra, basis)       # the basis holds the identity: the plan with identity
    gram(StateFunctional(kind="trace"), algebra, basis)
    assert words == [1, 1]
    arrays = [plan.sectors, plan.at, plan.phase, *plan.table[:2]] + \
        [x for chunk in plan.table[2] for x in chunk]
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[(0,) * x.ndim] = 0
    chain = verifier.form_plan(uniform_chain_state(make_algebra(2, 6)), make_algebra(2, 6),
                               plus_basis(AlgebraConfig(2, 6)))
    base, parts = chain.table
    assert all(not x.flags.writeable for x in [chain.phase, base, *[y for p in parts for y in p]])


def test_the_plan_key_holds_omega_macs(monkeypatch):
    """A plan built at one OMEGA_MACS is not read at another: the chunks
    differ, and the default's plan comes back when the default does."""
    algebra = make_algebra(2, 8)
    omega, basis = StateFunctional(kind="trace"), plus_basis(AlgebraConfig(2, 8))
    plan = verifier.form_plan(omega, algebra, basis)
    monkeypatch.setattr(verifier, "OMEGA_MACS", 1)
    small = verifier.form_plan(omega, algebra, basis)
    assert small is not plan and len(small.table[2]) > len(plan.table[2])
    monkeypatch.undo()
    assert verifier.form_plan(omega, algebra, basis) is plan


def test_the_budget_gate_runs_before_the_lookup(monkeypatch):
    """A cached plan does not pass a family that the GATHER_ENTRIES gate now
    refuses: the gate counts the caller's n on every call."""
    algebra = make_algebra(2, 8)
    omega, basis = StateFunctional(kind="trace"), plus_basis(AlgebraConfig(2, 8))
    gram(omega, algebra, basis)
    monkeypatch.setattr(verifier, "GATHER_ENTRIES", 16 * 16 * 16 - 1)
    for call in (lambda: gram(omega, algebra, basis),
                 lambda: form_matrix(omega, algebra, basis)):
        with pytest.raises(SizeLimit, match="over the budget of 4095"):
            call()


@pytest.mark.parametrize("call, error", [
    (lambda: plus_basis(AlgebraConfig(2, 26)), SizeLimit),
    (lambda: form_matrix(StateFunctional(kind="trace"), make_algebra(2, 4),
                         [(0, 0, 0, 0), (1, 0, 0, 0)]), WrongHalf),
    (lambda: gram(StateFunctional(kind="trace"), make_algebra(2, 4), [(0, 0, 1)]), InvalidConfig),
    (lambda: form_matrix(StateFunctional(kind="trace"), make_algebra(2, 4), [0, 1]),
     InvalidConfig),
    (lambda: shift_family([(0, 0, 1, 0)], -1, AlgebraConfig(2, 4)), InvalidArgument),
], ids=["size", "wrong-half", "short-tuple", "no-tuples", "negative-steps"])
def test_a_refused_plan_is_refused_again_and_kept_nowhere(call, error):
    for _ in range(2):
        with pytest.raises(error):
            call()
    assert len(verifier._PLANS) == 0


def test_returned_lists_are_the_callers_own():
    """Mutating what plus_basis and shift_family return does not change
    what the next call returns."""
    cfg = AlgebraConfig(2, 6)
    basis = plus_basis(cfg)
    want = list(basis)
    family, shifted = shift_family(basis, 1, cfg)
    want_family, want_shifted = list(family), list(shifted)
    basis.append((0, 0, 0, 1, 1, 1))
    basis[0] = None
    family.clear()
    shifted[0] = 99
    assert plus_basis(cfg) == want
    assert shift_family(want, 1, cfg) == (want_family, want_shifted)


def test_a_plan_over_the_budget_is_used_and_not_kept(monkeypatch):
    """Under a small PLAN_PAIRS the (2, 8) plan of 256 pairs is built, gives
    the bits of a kept one, and leaves no entry; smaller entries are evicted
    least recently used first, until the held weight fits the budget; an
    empty entry weighs 1."""
    algebra = make_algebra(2, 8)
    omega, basis = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=draw_generic_hamiltonian(
        algebra, np.random.default_rng(5))), plus_basis(AlgebraConfig(2, 8))
    want = form_matrix(omega, algebra, basis)
    clear_plans()
    monkeypatch.setattr(verifier, "PLAN_PAIRS", 255)
    assert form_matrix(omega, algebra, basis).tobytes() == want.tobytes()
    assert len(verifier._PLANS) == 0
    for d, m in [(2, 2), (2, 4), (2, 6), (3, 8), (2, 14)]:     # 2 + 4 + 8 + 81 + 128 members
        plus_basis(AlgebraConfig(d, m))
    plus_basis(AlgebraConfig(2, 2))                             # read last
    plus_basis(AlgebraConfig(4, 6))                             # 64 more: three go
    assert [k[1:3] for k in verifier._PLANS] == [(2, 14), (2, 2), (4, 6)]
    assert verifier._held == sum(w for _, w in verifier._PLANS.values()) == 194
    assert plus_basis(AlgebraConfig(2, 4), max_grade=-1) == []      # weighs 1
    assert verifier._held == 195
