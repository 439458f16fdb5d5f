import functools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkit.algebra import Algebra, AlgebraConfig, AlgebraElement, StateFunctional
from rpkit.chains import RING, _ring_sines, _window_covariance, pfaffians, uniform_chain_state
from rpkit.cli import main
from rpkit.verifier import form_matrix, gram, plus_basis

from algebra_oracles import dense_state, multiple_shift_family


# ---------------------------------------------------------------------------
# dense oracle: the window cut out of a long open chain
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _unit_bath(length):
    """eigh of iA for the open chain with unit coupling, A[j, j+1] = -1 = -A[j+1, j]."""
    A = np.zeros((length, length))
    for j in range(length - 1):
        A[j, j + 1] = -1.0
        A[j + 1, j] = +1.0
    return np.linalg.eigh(1j * A)


def open_bath_covariance(m, coupling, beta, length):
    """<c_a c_b> on an m-generator window centered (at even offset) in a length-L open chain.

    The eigenpairs of iA at coupling kappa are kappa w with the unit chain's
    vectors, so one solve per length serves every (kappa, beta).
    """
    w, V = _unit_bath(length)
    off = (length - m) // 2
    off -= off % 2
    Vw = V[off:off + m]
    return np.eye(m) + (Vw * np.tanh(beta * coupling * w / 2)) @ Vw.conj().T


@settings(max_examples=40, deadline=None)
@given(m=st.integers(4, 12), coupling=st.floats(0.5, 1.5), beta=st.floats(0.0, 10.0))
def test_symbol_covariance_matches_open_bath(m, coupling, beta):
    # at beta |kappa| <= 15 the 1000-site bath is the infinite chain to round-off
    want = open_bath_covariance(m, coupling, beta, 1000)
    assert np.abs(_window_covariance(m, coupling, beta) - want).max() <= 1e-13


@pytest.mark.parametrize("m, coupling, beta", [(4, 1.0, 0.0), (8, 1.0, 1.0), (12, -0.7, 3.0),
                                               (8, 1.0, 50.0), (10, 2.0, 400.0)])
def test_window_is_exactly_toeplitz_and_hermitian(m, coupling, beta):
    G = _window_covariance(m, coupling, beta)
    assert np.array_equal(G[1:, 1:], G[:-1, :-1])
    assert np.array_equal(G, G.conj().T)
    assert np.array_equal(np.diag(G), np.ones(m))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 12).map(lambda h: 2 * h), coupling=st.floats(-3.0, 3.0),
       beta=st.floats(0.0, 50.0))
def test_window_from_cached_sines_is_bit_identical(m, coupling, beta):
    # the uncached formula: the same operands, so the same bits
    k = 2 * np.pi * np.arange(RING) / RING
    h = np.sin(np.outer(np.arange(m), k)) @ np.tanh(beta * coupling * np.sin(k)) / RING
    x = np.subtract.outer(np.arange(m), np.arange(m))
    want = np.eye(m) + 1j * np.sign(x) * h[np.abs(x)]
    assert np.array_equal(_window_covariance(m, coupling, beta), want)


@pytest.mark.parametrize("m", [2, 8, 24])
def test_ring_sines_are_cached_and_read_only(m):
    table, sin_k = _ring_sines(m)
    assert _ring_sines(m)[0] is table and _ring_sines(m)[1] is sin_k
    assert table.shape == (m, RING) and not (table.flags.writeable or sin_k.flags.writeable)
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    with pytest.raises(ValueError):
        sin_k[0] = 1.0


def test_window_at_large_beta_is_the_long_bath():
    # a 240-site bath misses here by ~4e-5; the symbol needs no length
    want = open_bath_covariance(8, 1.0, 50.0, 1000)
    assert np.abs(_window_covariance(8, 1.0, 50.0) - want).max() <= 1e-13


def test_large_beta_window_reconstructs(tmp_path):
    # shift invariance holds at every beta, so the steps-2 window is not refused
    cfg = {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": 50.0},
           "basis_room": 2, "steps": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["shift_defect"] <= 1e-10
    assert max(res["transfer_eigenvalues"]) <= 1 + 1e-10


def _reconstruct(tmp_path, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(["reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "out.json")])


@pytest.mark.parametrize("coupling, beta, code", [(1.0, 170.0, 0), (1.0, 200.0, 3),
                                                   (-1.0, 200.0, 3)])
def test_window_past_the_alias_bound_is_refused(tmp_path, capsys, coupling, beta, code):
    # beta |kappa| = 174.6 puts the ring's aliasing bound at 1e-16; past it
    # the window drifts from the infinite chain (1.1e-7 at 1000)
    cfg = {"d": 2, "m": 8, "chain": {"coupling": coupling, "beta": beta},
           "basis_room": 2, "steps": 2}
    assert _reconstruct(tmp_path, cfg) == code
    if code:
        assert "beta" in capsys.readouterr().err


def test_chain_reconstruct_builds_no_density(tmp_path, monkeypatch):
    # an m = 12 window reads Pfaffians of its covariance: no density and no
    # dense rep, so a fallback to either fails here
    def refuse(*args, **kw):
        raise AssertionError("dense path taken")
    monkeypatch.setattr(StateFunctional, "density", refuse)
    monkeypatch.setattr(AlgebraElement, "rep", property(refuse))
    cfg = {"d": 2, "m": 12, "chain": {"coupling": 1.0, "beta": 1.0},
           "basis_room": 2, "steps": 2}
    assert _reconstruct(tmp_path, cfg) == 0
    assert json.loads((tmp_path / "out.json").read_text())["results"]["rank"] > 0


# ---------------------------------------------------------------------------
# Wick's rule: batched Pfaffians and the chain forms against the density
# ---------------------------------------------------------------------------

def expansion_pfaffian(A) -> Fraction:
    """Pf(A) by expansion along the first row, exact in rationals."""
    F = [[Fraction(float(x)) for x in row] for row in A]

    @functools.cache
    def pf(idx):
        if not idx:
            return Fraction(1)
        i, rest = idx[0], idx[1:]
        return sum(((-1) ** j * F[i][k] * pf(rest[:j] + rest[j + 1:])
                    for j, k in enumerate(rest) if F[i][k]), Fraction(0))

    return pf(tuple(range(len(A))))


@st.composite
def antisymmetric_stacks(draw):
    """N x L x L real antisymmetric stacks, L = 0 .. 12: entries in [-1, 1],
    small integers, or products of rank < L (singular, with zero pivots on
    the way), some with zero rows and columns."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L, N = 2 * draw(st.integers(0, 6)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "integer", "low-rank"]))
    if kind == "uniform":
        X = rng.uniform(-1.0, 1.0, (N, L, L))
    elif kind == "integer":
        X = rng.integers(-2, 3, (N, L, L)).astype(float)
    else:
        r = draw(st.integers(0, max(L - 1, 0)))
        X = rng.integers(-1, 2, (N, L, r)) @ rng.integers(-1, 2, (N, r, L)).astype(float)
    A = np.triu(X, 1)
    A = A - A.transpose(0, 2, 1)
    if L and draw(st.booleans()):
        zero = rng.integers(L, size=N)
        A[np.arange(N), zero] = 0.0
        A[np.arange(N), :, zero] = 0.0
    return A


@settings(max_examples=60, deadline=None)
@given(A=antisymmetric_stacks())
def test_pfaffians_match_expansion(A):
    """The elimination is backward stable like LU with partial pivoting: on
    entries of one scale it is within L eps H of the exact Pfaffian, with
    the Hadamard bound H = sqrt(prod_j |a_j|) >= |Pf|.  Measured, the error
    stays under 0.15 L eps H.  A zero column gives exactly 0."""
    got = pfaffians(A)
    L = A.shape[1]
    for a, pf in zip(A, got):
        H = np.sqrt(np.prod(np.linalg.norm(a, axis=0)))
        if L and H == 0:
            assert pf == 0
        else:
            assert abs(Fraction(float(pf)) - expansion_pfaffian(a)) <= L * np.finfo(float).eps * H


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 6).map(lambda h: 2 * h), coupling=st.floats(0.5, 1.5),
       beta=st.sampled_from([0.5, 1.0, 2.0]), room=st.integers(0, 2), steps=st.integers(1, 2))
def test_chain_forms_match_entanglement_density(m, coupling, beta, room, steps):
    """form_matrix and gram of the window's Pfaffians against the same forms
    of the Gibbs state of its entanglement Hamiltonian (the density path).
    Both are within the density path's (dim + 2) eps of the exact form
    (verifier.form_matrix); measured, they differ by at most 0.45 of it
    (4.3e-15 at m = 12)."""
    alg = Algebra(AlgebraConfig(2, m))
    om = uniform_chain_state(alg, coupling, beta)
    oracle = dense_state(om, alg)
    basis = [k for k in plus_basis(alg.cfg) if not any(k[m - room:])] if room \
        else plus_basis(alg.cfg)
    family, _ = multiple_shift_family(basis, steps, alg.cfg, 1)
    bound = (alg.cfg.dim + 2) * np.finfo(float).eps
    got, want = gram(om, alg, basis), gram(oracle, alg, basis)
    assert np.abs(got.matrix - want.matrix).max() <= bound
    assert abs(got.reflection_defect - want.reflection_defect) <= bound
    assert np.abs(form_matrix(om, alg, family) - form_matrix(oracle, alg, family)).max() <= bound
