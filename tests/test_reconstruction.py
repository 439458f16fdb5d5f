import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpkit.cli
import rpkit.verifier
from rpkit.algebra import AlgebraConfig, StateFunctional
from rpkit.algebra import theta as theta_alg
from rpkit.chains import QuasiFreeState, finite_chain_hamiltonian, uniform_chain_state
from rpkit.cli import main
from rpkit.errors import (InvalidArgument, PreconditionViolation, ReconstructionFailure,
                          WrongHalf)
from rpkit.reconstruction import (KERNEL_TOL, compress_shift, quantize, shift_defect,
                                  shift_family, spectrum_report, time_shift,
                                  transfer_operator)
from rpkit.verifier import (coupling_element, draw_theorem_hamiltonian, gram,
                            gram_report_from_matrix, plus_basis)

from algebra_oracles import leading_block_report, multiple_shift_transfer
from conftest import family_form, make_algebra


def fake_report(M, tol=1e-10):
    return gram_report_from_matrix(M.astype(complex), range(M.shape[0]), tol)


def assert_energies(td):
    """energies = sorted -log(w)/dt over the transfer spectrum above KERNEL_TOL."""
    w = np.linalg.eigvalsh(td.transfer)
    want = np.sort(-np.log(w[w > KERNEL_TOL])) / td.dt
    assert td.energies.shape == want.shape
    assert np.abs(td.energies - want).max(initial=0.0) <= 1e-12


class TestQuantize:
    def test_rank_one(self):
        q = quantize(fake_report(np.diag([1.0, 0.0])))
        assert q.rank == 1

    def test_identity_gram(self):
        q = quantize(fake_report(np.eye(4)))
        assert q.rank == 4
        assert np.abs(q.isometry @ q.isometry.conj().T - np.eye(4)).max() < 1e-12

    def test_isometry_m_orthonormal(self):
        rng = np.random.default_rng(3)
        W = rng.normal(size=(5, 3))
        M = W @ W.T
        q = quantize(fake_report(M))
        G = q.isometry.conj().T @ M @ q.isometry
        assert np.abs(G - np.eye(q.rank)).max() < 1e-10

    def test_trace_state_rank_matches_eigenspectrum(self):
        alg = make_algebra(2, 4)
        rep = gram(StateFunctional(kind="trace"), alg, plus_basis(alg.cfg))
        q = quantize(rep)
        oracle_rank = int((np.linalg.eigvalsh(rep.matrix) > rep.tol).sum())
        assert q.rank == oracle_rank == 1

    def test_rejects_indefinite(self):
        rep = fake_report(np.diag([1.0, -1.0]))
        with pytest.raises(PreconditionViolation):
            quantize(rep)


class TestTimeShift:
    def test_basic_shift(self):
        cfg = AlgebraConfig(2, 6)
        assert time_shift((0, 0, 0, 1, 0, 0), 1, cfg) == (0, 0, 0, 0, 1, 0)

    def test_falls_off_chain(self):
        cfg = AlgebraConfig(2, 6)
        assert time_shift((0, 0, 0, 0, 0, 1), 1, cfg) is None

    def test_identity_steps(self):
        cfg = AlgebraConfig(3, 4)
        k = (0, 0, 2, 1)
        assert time_shift(k, 0, cfg) == k

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            time_shift((0, 0), -1, AlgebraConfig(2, 2))

    def test_identity_monomial_survives(self):
        cfg = AlgebraConfig(2, 4)
        assert time_shift((0, 0, 0, 0), 2, cfg) == (0, 0, 0, 0)


class TestTransferOperator:
    def test_single_majorana_instances(self):
        rng = np.random.default_rng(2024)
        alg = make_algebra(2, 2)
        for _ in range(5):
            H = draw_theorem_hamiltonian(alg, rng)
            om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
            basis = plus_basis(alg.cfg)
            rep = gram(om, alg, basis)
            q = quantize(rep)
            td = transfer_operator(*family_form(om, alg, basis), q)
            ev = np.linalg.eigvalsh(td.transfer)
            assert ev.min() >= -1e-9
            assert ev.max() <= 1 + 1e-10
            assert td.energies.min(initial=0.0) >= -1e-9
            assert_energies(td)

    def test_trace_state_rank_one(self):
        alg = make_algebra(2, 6)
        om = StateFunctional(kind="trace")
        basis = plus_basis(alg.cfg)
        rep = gram(om, alg, basis)
        q = quantize(rep)
        td = transfer_operator(*family_form(om, alg, basis), q)
        assert td.transfer.shape == (1, 1)
        assert abs(td.transfer[0, 0] - 1.0) < 1e-12
        assert td.energies.shape == (1,) and abs(td.energies[0]) < 1e-12
        assert_energies(td)

    @pytest.mark.parametrize("steps", [0, 1])
    def test_wrong_half_rejected(self, steps):
        alg = make_algebra(2, 4)
        om = StateFunctional(kind="trace")
        basis = plus_basis(alg.cfg)
        q = quantize(gram(om, alg, basis))
        with pytest.raises(WrongHalf, match=r"\(0, 1, 0, 1\) not supported"):
            family_form(om, alg, basis[:3] + [(0, 1, 0, 1)], steps)

    def test_steps_zero_is_identity(self):
        alg = make_algebra(2, 4)
        om = StateFunctional(kind="trace")
        basis = plus_basis(alg.cfg)
        td = transfer_operator(*family_form(om, alg, basis, 0), quantize(gram(om, alg, basis)),
                               steps=0)
        assert np.abs(td.transfer - np.eye(td.transfer.shape[0])).max() == 0.0
        assert np.array_equal(td.energies, np.zeros(td.transfer.shape[0]))

    def test_semigroup_on_trace_state(self):
        alg = make_algebra(2, 8)
        om = StateFunctional(kind="trace")
        basis = plus_basis(alg.cfg)
        rep = gram(om, alg, basis)
        q = quantize(rep)
        T1 = transfer_operator(*family_form(om, alg, basis, 1), q, steps=1).transfer
        for k in (2, 3):
            Tk = transfer_operator(*family_form(om, alg, basis, k), q, steps=k).transfer
            assert np.abs(Tk - np.linalg.matrix_power(T1, k)).max() < 1e-8

    def test_semigroup_on_plane_local_chain_m8(self):
        # nontrivial-rank m=8 instance with exact semigroup for k <= 3
        from rpkit.reconstruction import time_shift

        alg = make_algebra(2, 8)
        H = coupling_element(alg, (0, 0, 0, 0, 1, 0, 0, 0), 1.2)
        g = alg.monomial((0, 0, 0, 0, 1, 1, 0, 0))
        g = 0.4 * (g + g.star())
        H = H + g + theta_alg(g)
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        basis = plus_basis(alg.cfg)
        rep = gram(om, alg, basis)
        q = quantize(rep)
        assert q.rank >= 2
        td = transfer_operator(*family_form(om, alg, basis, 1), q, steps=1)
        ev = np.linalg.eigvalsh(td.transfer)
        assert ev.min() >= -1e-9 and ev.max() <= 1 + 1e-10
        assert_energies(td)
        idx = {k: i for i, k in enumerate(basis)}

        def smat(steps):
            S = np.zeros((len(basis), len(basis)))
            for j, k in enumerate(basis):
                sk = time_shift(k, steps, alg.cfg)
                if sk is not None:
                    S[idx[sk], j] = 1.0
            return S

        iso = q.isometry
        T1 = iso.conj().T @ rep.matrix @ smat(1) @ iso
        for k in (2, 3):
            Tk = iso.conj().T @ rep.matrix @ smat(k) @ iso
            assert np.abs(Tk - np.linalg.matrix_power(T1, k)).max() < 1e-8

    def test_uniform_window_state_transfer(self):
        # uniform infinite-chain window: shift invariant, site-step T is a PSD
        # contraction with nonnegative Hamiltonian
        alg = make_algebra(2, 8)
        om = uniform_chain_state(alg, coupling=1.0, beta=1.0)
        basis = [k for k in plus_basis(alg.cfg) if not any(k[6:])]
        rep = gram(om, alg, basis)
        assert rep.verdict == "positive"
        q = quantize(rep)
        td = transfer_operator(*family_form(om, alg, basis, 2), q, steps=2)
        ev = np.linalg.eigvalsh(td.transfer)
        assert td.asymmetry < 1e-10
        assert ev.min() >= -1e-9
        assert ev.max() <= 1 + 1e-10
        assert td.energies.min(initial=0.0) >= -1e-9
        assert_energies(td)

    def test_finite_chain_gibbs_is_rp_but_shift_variant(self):
        alg = make_algebra(2, 6)
        H = finite_chain_hamiltonian(alg, hopping=1.0, field=0.5)
        om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
        basis = plus_basis(alg.cfg)
        rep = gram(om, alg, basis)
        assert rep.min_eig >= -1e-10           # RP holds for the ferromagnetic chain
        q = quantize(rep)
        with pytest.raises(PreconditionViolation, match=(
                r"^functional not shift-invariant on the basis support "
                r"\(defect \d\.\d{3}e[+-]\d\d, gate 1\.0e-10 x ")):
            transfer_operator(*family_form(om, alg, basis), q)


class TestSpectrumReport:
    def test_explicit_gap(self):
        td_like = type("TD", (), {"energies": np.array([0.0, 1.0, 3.0])})
        rep = spectrum_report(td_like)
        assert abs(rep.gap - 1.0) < 1e-14
        assert np.abs(rep.eigenvalues - np.array([0.0, 1.0, 3.0])).max() == 0.0

    def test_zero_hamiltonian(self):
        td_like = type("TD", (), {"energies": np.zeros(3)})
        assert spectrum_report(td_like).gap == 0.0

    def test_single_level(self):
        td_like = type("TD", (), {"energies": np.array([2.0])})
        assert spectrum_report(td_like).gap == 0.0


def _theorem_d2m4(seed):
    alg = make_algebra(2, 4)
    H = draw_theorem_hamiltonian(alg, np.random.default_rng(seed))
    om = StateFunctional(kind="gibbs", beta=1.0, hamiltonian=H)
    basis = plus_basis(alg.cfg)
    return om, alg, basis, quantize(gram(om, alg, basis))


class TestRefusalMessages:
    """Refusal texts keep the prefixes and number formats that report readers parse."""

    def test_null_class(self):
        om, alg, basis, q = _theorem_d2m4(35)
        with pytest.raises(ReconstructionFailure,
                           match=r"^null vector maps to a class of norm \d\.\d{3}e[+-]\d\d$"):
            transfer_operator(*family_form(om, alg, basis), q)

    def test_shift_not_positive(self):
        om, alg, basis, q = _theorem_d2m4(0)
        with pytest.raises(ReconstructionFailure, match=(
                r"^quantized shift is not positive \(min eigenvalue -\d\.\d{3}e[+-]\d\d\)$")):
            transfer_operator(*family_form(om, alg, basis), q)


@pytest.mark.parametrize("cfg", [
    {"d": 2, "m": 6, "state": "trace"},
], ids=["trace-full-basis"])
def test_reconstruct_reads_density_once_per_form(tmp_path, monkeypatch, cfg):
    # one form over the window and its shift images: the window Gram, its
    # reflection defect and the transfer all read it; a chain window reads
    # none (test_chains.py::test_chain_reconstruct_builds_no_density)
    calls = []
    density = StateFunctional.density
    monkeypatch.setattr(StateFunctional, "density",
                        lambda self, algebra: calls.append(1) or density(self, algebra))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_chain_reconstruct_reads_word_values_once(tmp_path, monkeypatch):
    # the window Gram is the leading block of the family form, so the
    # window's Pfaffians are not taken a second time
    calls = []
    word_values = QuasiFreeState.word_values
    monkeypatch.setattr(QuasiFreeState, "word_values",
                        lambda self, *a: calls.append(1) or word_values(self, *a))
    cfg = {"d": 2, "m": 12, "chain": {"coupling": 1.0, "beta": 1.0}, "basis_room": 2, "steps": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_reconstruct_walks_the_hamiltonian_once(tmp_path, monkeypatch):
    # whether H conserves the reflection charge is decided once and kept on
    # the state (grade_sectors): the family form and the window report share
    # it.  At beta = 0 the draw is the trace state, which reconstructs (exit 0).
    walks = []

    class Words(dict):
        def __iter__(self):
            walks.append(1)
            return super().__iter__()

    state = rpkit.cli._state_from_config

    def watched(*args):
        omega = state(*args)
        omega.hamiltonian.coeffs = Words(omega.hamiltonian.coeffs)
        return omega

    monkeypatch.setattr(rpkit.cli, "_state_from_config", watched)
    cfg = {"d": 3, "m": 6, "state": "gibbs", "beta": 0.0, "draw": {"family": "theorem"}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(walks) == 1


@pytest.mark.parametrize("J", [-1.0, 1.0], ids=["window-not-positive", "window-positive"])
def test_reconstruct_refuses_its_size_before_any_form(tmp_path, monkeypatch, capsys, J):
    # the window (8 members at dim 16) fits the budget and the family with
    # its 4 new shift images does not: refused with exit 4 before any form,
    # whatever the window's verdict (J < 0 makes it negative)
    alg = make_algebra(2, 8)
    H = coupling_element(alg, (0, 0, 0, 0, 1, 0, 0, 0), J)
    monkeypatch.setattr(rpkit.verifier, "GATHER_ENTRIES", 8 * 8 * 16)
    forms = []
    form = rpkit.verifier._form
    monkeypatch.setattr(rpkit.verifier, "_form", lambda *a: forms.append(1) or form(*a))
    cfg = {"d": 2, "m": 8, "state": "gibbs", "beta": 1.0, "basis_room": 1, "steps": 1,
           "hamiltonian": [[[v.real, v.imag], list(k)] for k, v in H.coeffs.items()]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["reconstruct", "--config", str(cfg_path)]) == 4
    assert forms == []
    assert capsys.readouterr().err.startswith(
        "rpkit: size cap exceeded: Gram form over 12 monomials at dimension 16")


def test_chain_window_diagonalizes_each_form_once(tmp_path, monkeypatch):
    # window Gram (1) and transfer (1): the window's values are Pfaffians, and
    # the quotient, the energies and the report reuse these
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), **kw):
            calls.append(1)
            return _real(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": 1.0}, "basis_room": 2, "steps": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), extra=st.integers(0, 3), nulls=st.integers(0, 6),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_compress_shift_matches_dense_oracle(n, extra, nulls, scale, seed):
    """Random PSD Gram with planted null directions, random partial shift."""
    rng = np.random.default_rng(seed)
    N, tol = n + extra, 1e-10
    W = rng.normal(size=(N, max(n - nulls, 0))) + 1j * rng.normal(size=(N, max(n - nulls, 0)))
    M = scale * (W @ W.conj().T)
    M = (M + M.conj().T) / 2
    targets = [None if rng.random() < 0.3 else int(rng.integers(N)) for _ in range(n)]
    comp = compress_shift(M, targets, quantize(gram_report_from_matrix(M[:n, :n], range(n), tol)))

    S = np.zeros((N, n))
    for j, t in enumerate(targets):
        if t is not None:
            S[t, j] = 1.0
    ev, V = np.linalg.eigh(M[:n, :n])
    keep = ev > tol
    iso = V[:, keep] / np.sqrt(ev[keep])
    T = iso.conj().T @ (M[:n, :] @ S) @ iso
    null_form = max((abs(np.real(v.conj() @ S.T @ M @ S @ v)) for v in V[:, ~keep].T),
                    default=0.0)
    atol = 1e-8 * max(1.0, scale)
    assert comp.transfer.shape == (int(keep.sum()),) * 2
    assert int((np.linalg.eigvalsh(M[:n, :n]) > tol).sum()) == int(keep.sum())
    assert np.abs(comp.transfer - (T + T.conj().T) / 2).max(initial=0.0) <= atol
    assert abs(comp.asymmetry - np.abs(T - T.conj().T).max(initial=0.0)) <= atol
    assert abs(comp.null_defect ** 2 - null_form) <= atol


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 8), extra=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_shift_defect_matches_pair_loop(n, extra, seed):
    """The vectorized defect equals the pair loop it replaced, bit for bit."""
    rng = np.random.default_rng(seed)
    N = n + extra
    M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    shifted = [None if rng.random() < 0.3 else int(rng.integers(N)) for _ in range(n)]
    live = [(a, sa) for a, sa in enumerate(shifted) if sa is not None]
    want = 0.0
    for a, sa in live:
        for b, sb in live:
            want = max(want, float(abs(M[sa, b] - M[a, sb])))
    assert shift_defect(M, shifted) == want


@st.composite
def os_cases(draw):
    """A chain window or a Gibbs / trace state, its basis and a shift length."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = draw(st.sampled_from([4, 6, 8, 10]))
        alg = make_algebra(2, m)
        om = uniform_chain_state(alg, coupling=float(rng.uniform(0.5, 1.5)),
                                 beta=draw(st.sampled_from([0.5, 1.0, 2.0])))
    else:
        d, m = draw(st.sampled_from([(2, 2), (2, 4), (2, 6), (2, 8), (3, 4), (3, 6)]))
        alg = make_algebra(d, m)
        om = StateFunctional(kind="trace") if draw(st.booleans()) else StateFunctional(
            kind="gibbs", beta=draw(st.sampled_from([0.5, 1.0, 2.0])),
            hamiltonian=draw_theorem_hamiltonian(alg, rng))
    room = draw(st.integers(0, m // 2 - 1))
    basis = [k for k in plus_basis(alg.cfg) if not any(k[m - room:])] if room \
        else plus_basis(alg.cfg)
    return alg, om, basis, draw(st.integers(0, m // 2))


@st.composite
def window_cases(draw):
    """A chain window (even m 4-12) or a Gibbs theorem draw, a basis_room
    window and a shift of 1 or 2 generators, as reconstruct takes them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    if draw(st.booleans()):
        m = draw(st.sampled_from([4, 6, 8, 10, 12]))
        alg = make_algebra(2, m)
        om = uniform_chain_state(alg, coupling=draw(st.floats(0.5, 1.5)), beta=beta)
    else:
        d, m = draw(st.sampled_from([(2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (4, 4)]))
        alg = make_algebra(d, m)
        om = StateFunctional(kind="gibbs", beta=beta,
                             hamiltonian=draw_theorem_hamiltonian(alg, rng))
    room = draw(st.integers(0, m // 2 - 1))
    basis = [k for k in plus_basis(alg.cfg) if not any(k[m - room:])] if room \
        else plus_basis(alg.cfg)
    return alg, om, basis, draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(case=window_cases(), tol=st.sampled_from([0.0, 1e-10, 1e-6]),
       span=st.sampled_from(["none", "window", "family"]), cut=st.integers(1, 64))
def test_leading_block_report_matches_the_step_by_step_oracle(case, tol, span, cut):
    # bit for bit, whether the sectors span none, the window or the whole
    # family, on the window or on a shorter leading block of it
    alg, om, basis, steps = case
    family, _ = shift_family(basis, steps, alg.cfg)
    M = family_form(om, alg, basis, steps)[0]
    sectors = None if span == "none" else rpkit.verifier.grade_sectors(
        om, alg.cfg, basis if span == "window" else family)
    got = gram_report_from_matrix(M, basis[:cut], tol, 0, sectors)
    want = leading_block_report(M, basis[:cut], 0, tol, sectors)
    for key, value in want.items():
        assert np.array_equal(getattr(got, key), value), key
        assert type(getattr(got, key)) is type(value), key


@settings(max_examples=60, deadline=None)
@given(case=window_cases())
def test_window_report_is_the_leading_block_of_the_family_form(case):
    """reconstruct's window report, read off the family form, is gram's.

    Bit for bit on chain windows: each word value is its own elimination,
    whatever else the batch holds.  On Gibbs draws each form is within
    (dim + 1) eps of the exact one entrywise (form_matrix), so the two differ
    by at most 2 (dim + 1) eps an entry and the reflection defects by twice
    that.  The eigenvalues move by at most the spectral norm of the
    difference (Weyl), <= n 2 (dim + 1) eps, plus the backward error of each
    eigh, about n eps |M| <= n^2 eps (entries of modulus <= 1).  Measured on
    300 draws: 0.06, 0.18 and 0.004 (dim + 1) eps.
    """
    alg, om, basis, steps = case
    got = gram_report_from_matrix(family_form(om, alg, basis, steps)[0], basis, one=0)
    want = gram(om, alg, basis)
    if isinstance(om, QuasiFreeState):
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert got.reflection_defect == want.reflection_defect
        return
    n, eps = len(basis), np.finfo(float).eps
    form = (alg.cfg.dim + 1) * eps
    assert np.abs(got.matrix - want.matrix).max() <= 2 * form
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 2 * n * (form + n * eps)
    assert abs(got.reflection_defect - want.reflection_defect) <= 4 * form


# A null-class norm is the square root of a form at unit round-off, so two
# summation orders can give it another third digit: refusals are compared
# with their numbers masked (test_transfer_refusal_matches_the_oracle_...).
NUMBER = re.compile(r"-?\d+(\.\d+)?(e[+-]?\d+)?")


def _outcome(fn):
    """The result of fn, or its refusal as (type, text with every number masked)."""
    try:
        return fn()
    except (PreconditionViolation, ReconstructionFailure) as exc:
        return type(exc), NUMBER.sub("#", str(exc))


@settings(max_examples=50, deadline=None)
@given(case=os_cases())
def test_transfer_matches_multiple_shift_family_oracle(case):
    """The family of window and shift images gives the TransferData, or the
    refusal, of the form over shifts by up to three multiples.

    Equal up to round-off, not bit for bit: a BLAS product sums an entry in
    another order when the family size changes (see form_matrix), and the
    null-class quadratic form runs over the whole family.
    """
    alg, om, basis, steps = case
    rep = gram(om, alg, basis)
    if not rep.psd:
        return
    q = quantize(rep)
    got = _outcome(lambda: transfer_operator(*family_form(om, alg, basis, steps), q, steps))
    want = _outcome(lambda: multiple_shift_transfer(om, alg, basis, q, steps=steps))
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    for name in ("transfer", "eigenvalues"):
        assert np.abs(getattr(got, name) - getattr(want, name)).max(initial=0.0) <= 1e-12, name
    for name in ("asymmetry", "normalization", "shift_defect"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
    assert (got.dt, got.kernel_dim, got.energies.shape) == \
        (want.dt, want.kernel_dim, want.energies.shape)


def test_transfer_refusal_matches_the_oracle_to_the_digit():
    """A d = 3, m = 4 Gibbs draw that both paths refuse with the null-class
    text at the same norm, 7.0e-01, far above the 1e-8 gate: a norm on the
    gate's round-off floor would pass or fail with the last bits of the
    density.  The state conserves the reflection charge, so the
    cross-sector entries of both families are exact zeros (verifier
    docstring), and its density is three cosets of three states
    (algebra.shift_cosets)."""
    alg = make_algebra(3, 4)
    om = StateFunctional(kind="gibbs", beta=0.5, hamiltonian=draw_theorem_hamiltonian(
        alg, np.random.default_rng(35)))
    basis = [k for k in plus_basis(alg.cfg) if not any(k[3:])]
    q = quantize(gram(om, alg, basis))
    texts = []
    for transfer in (lambda: transfer_operator(*family_form(om, alg, basis), q),
                     lambda: multiple_shift_transfer(om, alg, basis, q, steps=1)):
        with pytest.raises(ReconstructionFailure) as exc:
            transfer()
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert NUMBER.sub("#", texts[0]) == "null vector maps to a class of norm #"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), images=st.integers(0, 8), extra=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_compress_shift_reads_no_member_past_the_images(n, images, extra, seed):
    """Members after the window and its images are trailing zero rows of the
    shift: the transfer and the asymmetry do not move by a bit, and the
    null-class norm (a quadratic form over the whole family) only by
    round-off."""
    rng = np.random.default_rng(seed)
    N = n + images
    W = rng.normal(size=(N + extra, n)) + 1j * rng.normal(size=(N + extra, n))
    W[:, :int(rng.integers(0, n + 1))] = 0.0      # planted null directions
    M = W @ W.conj().T
    M = (M + M.conj().T) / 2
    shifted = [None if rng.random() < 0.3 else int(rng.integers(N)) for _ in range(n)]
    q = quantize(gram_report_from_matrix(M[:n, :n], range(n)))
    big, small = compress_shift(M, shifted, q), compress_shift(M[:N, :N].copy(), shifted, q)
    assert np.array_equal(big.transfer, small.transfer)
    assert big.asymmetry == small.asymmetry
    assert abs(big.null_defect ** 2 - small.null_defect ** 2) <= 1e-12 * max(1.0, np.abs(M).max())
