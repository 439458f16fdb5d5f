import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkit.chains import RING, _ring_sines, _window_covariance
from rpkit.cli import main


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
