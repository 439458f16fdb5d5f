import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

import rpkit.algebra
import rpkit.report
import rpkit.verifier
from rpkit import cli
from rpkit.algebra import Algebra, AlgebraConfig, StateFunctional
from rpkit.cli import main
from rpkit.report import (ARRAY_PASS_FLOATS, CONVENTIONS, TOOL, curve_csv, to_text,
                          truncate_witness)
from rpkit.verifier import draw_generic_hamiltonian, draw_theorem_hamiltonian, gram, plus_basis

import report_oracles
from conftest import random_element

# strings that break a naive JSON writer: quotes, backslashes, control
# characters, lone and paired surrogates, non-ASCII and line separators
HOSTILE = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(['"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "\x7f", "\b",
                              "\f", "\ud800", "\udfff", "\ud83d", "\ude00", "\u00e9",
                              "\u4e2d", "\U0001f600", "\u2028", "/", "a", "\\u0041"]),
             max_size=6).map("".join))
SPECIAL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e15, -1e15, 1e15 - 1, 1e16,
                     5e-324, -5e-324, 2.0**-1030, 1e-310, 1e308, 0.1]),
    st.floats())


def _array(dtype, shape, values):
    raw = np.array(values, dtype=float)
    if np.dtype(dtype).kind == "c":
        raw = raw.view(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        return raw.astype(dtype).reshape(shape)


@st.composite
def _arrays(draw):
    # float and complex arrays on both sides of ARRAY_PASS_FLOATS
    dtype = draw(st.sampled_from([np.float64, np.float32, np.complex128, np.complex64]))
    shape = draw(st.sampled_from([(0,), (1,), (3,), (2, 2), (40,), (63,), (64,), (65,),
                                  (127,), (128,), (129,), (12, 12), (3, 4, 5), (260,)]))
    count = int(np.prod(shape)) * (2 if np.dtype(dtype).kind == "c" else 1)
    pool = draw(st.lists(SPECIAL_FLOATS, min_size=1, max_size=5))
    values = draw(st.lists(st.builds(lambda x, sign: sign * x, st.sampled_from(pool),
                                     st.sampled_from([1.0, -1.0])),
                           min_size=count, max_size=count))
    return _array(dtype, shape, values)


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), SPECIAL_FLOATS,
    st.builds(complex, SPECIAL_FLOATS, SPECIAL_FLOATS), HOSTILE, _arrays(),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)),
    st.builds(np.complex128, st.complex_numbers()))
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.tuples(children, children),
                               st.dictionaries(HOSTILE, children, max_size=4)),
    max_leaves=12)


class TestSerializer:
    def test_round_trip_parses_as_json(self):
        report = {
            "a": 1,
            "b": [1.5, -2.25, 0.1],
            "c": {"nested": True, "z": complex(1.0, -0.5)},
            "s": 'quote " and newline\n',
            "none": None,
        }
        text = to_text(report)
        back = json.loads(text)
        assert back["a"] == 1
        assert back["b"] == [1.5, -2.25, 0.1]
        assert back["c"]["z"] == {"re": 1.0, "im": -0.5}
        assert back["s"] == 'quote " and newline\n'
        assert back["none"] is None

    def test_float_precision_round_trip(self):
        x = 0.1 + 0.2
        text = to_text({"x": x})
        assert json.loads(text)["x"] == x

    def test_byte_determinism(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=6)
        r1 = to_text({"v": list(vals), "m": {"k": 2}})
        r2 = to_text({"v": list(vals), "m": {"k": 2}})
        assert r1 == r2

    def test_numpy_arrays(self):
        text = to_text({"arr": np.array([1.0, 2.0]), "c": np.complex128(1j)})
        back = json.loads(text)
        assert back["arr"] == [1.0, 2.0]
        assert back["c"] == {"re": 0.0, "im": 1.0}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           dtype=st.sampled_from([np.float64, np.float32, np.complex128, np.complex64]),
           shape=array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    def test_array_text_matches_generic_walk(self, data, dtype, shape):
        # the one-pass array text against the element-by-element walk of tolist()
        cplx = np.dtype(dtype).kind == "c"
        hermitian = len(shape) >= 2 and data.draw(st.booleans())
        if hermitian:
            shape = (*shape[:-1], shape[-2])
        count = int(np.prod(shape)) * (2 if cplx else 1)
        # a few magnitudes, each with both signs, so that formats are shared
        pool = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, allow_infinity=False),
                                            st.integers(0, 2**60).map(float)),
                                  min_size=1, max_size=4))
        value = st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308,
                             1e15 - 1, 1e15, 1e15 + 1, -1e15 - 1, 2.0**53]),
            st.integers(-2**60, 2**60).map(float),
            st.floats(allow_nan=True, allow_infinity=True),
            st.builds(lambda x, sign: sign * x, st.sampled_from(pool), st.sampled_from([1.0, -1.0])))
        raw = np.array(data.draw(st.lists(value, min_size=count, max_size=count)), dtype=float)
        if cplx:
            raw = raw.view(np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            arr = raw.astype(dtype).reshape(shape)
            if hermitian:   # exactly hermitian, as rp-gram writes its matrix
                arr = (arr + np.conj(np.swapaxes(arr, -1, -2))) / 2
        want = to_text({"a": arr.tolist()})
        assert to_text({"a": arr}) == want
        if arr.size:    # below ARRAY_PASS_FLOATS to_text walks: call the pass itself
            assert '{"a":' + rpkit.report._array_text(arr) + "}\n" == want

    def test_array_text_of_a_gibbs_gram(self):
        # a (3, 8) Gibbs Gram: half its magnitudes repeat, with both signs
        algebra = Algebra(AlgebraConfig(3, 8))
        H = random_element(algebra, np.random.default_rng(5))
        omega = StateFunctional(kind="gibbs", beta=0.5, hamiltonian=H + H.star())
        M = gram(omega, algebra, plus_basis(algebra.cfg)).matrix
        x = M.ravel().view(np.float64)
        assert M.shape == (81, 81) and np.unique(np.abs(x)).size < 0.6 * x.size
        assert to_text({"matrix": M}) == to_text({"matrix": M.tolist()})

    @settings(max_examples=100, deadline=None)
    @given(tree=TREES)
    def test_to_text_matches_the_walk_oracle(self, tree):
        # every report reads back as its tree; where the old walk wrote valid
        # JSON that reads back as the tree too, the bytes are its bytes
        report = {"tree": tree}
        text = to_text(report)
        want = report_oracles.plain(report)
        assert json.loads(text.encode("utf-8")) == want
        old = report_oracles.serialize(report)
        try:
            valid = json.loads(old.encode("utf-8")) == want
        except ValueError:      # UnicodeEncodeError and JSONDecodeError alike
            valid = False
        if valid:
            assert text == old

    @pytest.mark.parametrize("value, literal", [
        ("a\tb", '"a\\tb"'), ('q"uote', '"q\\"uote"'), ("back\\slash", '"back\\\\slash"'),
        ("\x00\x1f", '"\\u0000\\u001f"'), ("\ud800", '"\\ud800"'),
        ("\ud83d\ude00", '"\\ud83d\\ude00"'), ("\u00e9\U0001f600", '"\u00e9\U0001f600"'),
    ])
    def test_one_string_rule_for_values_and_keys(self, value, literal):
        # escapes as JSON needs them; non-ASCII stays raw UTF-8
        assert to_text({"k": value}) == '{"k":' + literal + "}\n"
        assert to_text({value: 1}) == "{" + literal + ":1}\n"
        assert json.loads(to_text({value: value}).encode("utf-8")) == {
            report_oracles.plain(value): report_oracles.plain(value)}

    def test_report_head_is_serialized_once(self):
        # the constant head is cached; a report whose head is an equal copy
        # in another key order is written from its own objects
        rpkit.report._head.cache_clear()
        try:
            for seed in (1, 2):
                report = {"tool": TOOL, "conventions": CONVENTIONS, "seed": seed, "x": [1.5]}
                assert to_text(report) == report_oracles.serialize(report)
            info = rpkit.report._head.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            reordered = {"tool": dict(reversed(list(TOOL.items()))), "conventions": CONVENTIONS}
            assert to_text(reordered) == report_oracles.serialize(reordered)
            assert to_text({"tool": TOOL}) == report_oracles.serialize({"tool": TOOL})
            swapped = {"conventions": CONVENTIONS, "tool": TOOL}
            assert to_text(swapped) == report_oracles.serialize(swapped)
            assert rpkit.report._head.cache_info().hits == 1
        finally:
            rpkit.report._head.cache_clear()

    def test_small_arrays_take_the_walk(self, monkeypatch):
        calls = []
        real = rpkit.report._array_text
        monkeypatch.setattr(rpkit.report, "_array_text",
                            lambda a: calls.append(a.size) or real(a))
        for arr in (np.zeros(0), np.arange(4.0), np.ones(ARRAY_PASS_FLOATS - 1),
                    np.ones(ARRAY_PASS_FLOATS // 2 - 1, dtype=complex)):
            assert to_text({"a": arr}) == report_oracles.serialize({"a": arr})
        assert calls == []
        for arr in (np.ones(ARRAY_PASS_FLOATS), np.ones(ARRAY_PASS_FLOATS // 2, dtype=complex)):
            assert to_text({"a": arr}) == report_oracles.serialize({"a": arr})
        assert calls == [ARRAY_PASS_FLOATS, ARRAY_PASS_FLOATS // 2]

    def test_witness_truncation(self):
        w = truncate_witness(np.arange(40.0))
        assert len(w) == 16

    def test_empty_curve_header_only(self):
        assert curve_csv([]) == "t,min_eig,violated\n"

    def test_curve_rows(self):
        text = curve_csv([(0.25, -1e-4, True), (100.0, -1e-12, False)])
        lines = text.strip().split("\n")
        assert lines[0] == "t,min_eig,violated"
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",0")


def run_cli(tmp_path, command, cfg, *extra):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.json"
    code = main([command, "--config", str(cfg_path), "--out", str(out_path), *extra])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def test_package_exports_names_not_submodules():
    import types

    import rpkit
    assert len(set(rpkit.__all__)) == len(rpkit.__all__)
    for name in rpkit.__all__:
        assert not isinstance(getattr(rpkit, name), types.ModuleType), name


class TestCli:
    def test_algebra_check(self, tmp_path):
        code, text = run_cli(tmp_path, "algebra-check", {"d": 3, "m": 4})
        assert code == 0
        rep = json.loads(text)
        assert rep["results"]["relation_residual"] < 1e-12
        assert "conventions" in rep

    def test_rp_gram_trace_majorana(self, tmp_path):
        code, text = run_cli(tmp_path, "rp-gram",
                             {"d": 2, "m": 2, "state": "trace"})
        assert code == 0
        rep = json.loads(text)
        M = rep["results"]["matrix"]
        assert abs(M[0][0]["re"] - 1.0) < 1e-12
        assert abs(M[1][1]["re"]) < 1e-12
        assert rep["results"]["verdict"] == "positive"

    @pytest.mark.parametrize("state", [{"state": "trace"},
                                       {"state": "gibbs", "draw": {"family": "generic"}}],
                             ids=["trace", "generic"])
    def test_rp_gram_matrix_is_the_leading_block(self, tmp_path, state):
        # n = 32 at (2, 10): basis_size says 32, matrix is the leading 16 x 16
        # block of the form, and reads back bit for bit
        cfg = {"d": 2, "m": 10, **state}
        code, text = run_cli(tmp_path, "rp-gram", cfg, "--seed", "3")
        results = json.loads(text)["results"]
        algebra = Algebra(AlgebraConfig(2, 10))
        omega = cli._state_from_config(cfg, algebra, 3)
        rep = gram(omega, algebra, plus_basis(algebra.cfg))
        assert code == (0 if state["state"] == "trace" else 2)
        assert results["basis_size"] == len(rep.matrix) == 32
        got = np.array([[complex(z["re"], z["im"]) for z in row]
                        for row in results["matrix"]])
        assert got.shape == (rpkit.report.WITNESS_CAP, rpkit.report.WITNESS_CAP) == (16, 16)
        assert got.tobytes() == rep.matrix[:16, :16].tobytes()

    @pytest.mark.parametrize("state", [{"state": "trace"},
                                       {"state": "gibbs", "draw": {"family": "theorem"}}],
                             ids=["trace", "theorem"])
    def test_rp_gram_matrix_of_16_members_is_whole(self, tmp_path, monkeypatch, state):
        # n = 16 at (2, 8): the whole form, and the same bytes as with no cap
        cfg = {"d": 2, "m": 8, **state}
        code, text = run_cli(tmp_path, "rp-gram", cfg, "--seed", "4")
        algebra = Algebra(AlgebraConfig(2, 8))
        rep = gram(cli._state_from_config(cfg, algebra, 4), algebra, plus_basis(algebra.cfg))
        assert len(json.loads(text)["results"]["matrix"]) == len(rep.matrix) == 16
        monkeypatch.setattr(cli, "WITNESS_CAP", 10**9)
        assert run_cli(tmp_path, "rp-gram", cfg, "--seed", "4") == (code, text)

    def test_rp_gram_theorem_draw(self, tmp_path):
        cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0,
               "draw": {"family": "theorem"}}
        code, text = run_cli(tmp_path, "rp-gram", cfg, "--seed", "5")
        assert code == 0
        rep = json.loads(text)
        assert rep["results"]["sft_verdict"] == "positive"
        assert rep["results"]["min_eig"] >= -1e-9

    def test_rp_gram_explicit_negative(self, tmp_path):
        # H = +J theta(c2) o c2 with J > 0 is the anti-ferromagnetic direction
        cfg = {"d": 2, "m": 2, "state": "gibbs", "beta": 1.0,
               "hamiltonian": [[[0.0, 1.0], [1, 1]]]}   # i * c1 c2
        code, text = run_cli(tmp_path, "rp-gram", cfg)
        rep = json.loads(text)
        assert code in (0, 1)
        assert rep["results"]["verdict"] in ("positive", "negative")

    @pytest.mark.parametrize("term, reason", [
        ([[0.0, 1.0], [0, 0, 1, 1]], "reflection"),     # i c3 c4: omega(c3 c4) != 0 = omega(theta(c3 c4))
        ([[0.0, 1.5], [0, 1, 1, 1]], "hermiticity"),    # i c2 c3 c4
    ])
    def test_rp_gram_names_the_gate_that_tripped(self, tmp_path, term, reason):
        cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0, "hamiltonian": [term]}
        code, text = run_cli(tmp_path, "rp-gram", cfg)
        res = json.loads(text)["results"]
        assert code == 2 and res["verdict"] == "not-applicable"
        assert res["not_applicable_reason"] == reason

    def test_rp_gram_names_the_worst_sector(self, tmp_path):
        # H = i c2 c3 = -J theta(c3) o c3 with J = -1: the violation is c3, of grade 1
        cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0,
               "hamiltonian": [[[0.0, 1.0], [0, 1, 1, 0]]]}
        code, text = run_cli(tmp_path, "rp-gram", cfg)
        res = json.loads(text)["results"]
        assert (code, res["worst_sector"]) == (1, 1)
        # a generic draw is one block
        code, text = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 6, "state": "gibbs",
                                                   "draw": {"family": "generic"}})
        assert json.loads(text)["results"]["worst_sector"] is None

    def test_rp_gram_applicable_report_has_no_reason(self, tmp_path):
        code, text = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 4, "state": "trace"})
        assert code == 0 and "not_applicable_reason" not in json.loads(text)["results"]

    def test_green_positive(self, tmp_path):
        code, text = run_cli(tmp_path, "green", {"dims": [8], "mass2": 1.0, "bc": "box"})
        assert code == 0
        rep = json.loads(text)
        assert rep["results"]["verdict"] == "positive"
        assert rep["results"]["verdicts_agree"] is True
        assert rep["results"]["cut_size"] == 1

    @pytest.mark.parametrize("dims, mass2", [([256], 1e-6), ([512], 1e-4)])
    def test_green_long_light_chain_one_tol(self, tmp_path, dims, mass2):
        # round-off eigenvalues of the reflected block between 1e-12 and the check's
        # tol: the covariance verdict and the chain quotient must judge them alike
        code, text = run_cli(tmp_path, "green", {"dims": dims, "mass2": mass2})
        assert code == 0
        res = json.loads(text)["results"]
        assert res["verdict"] == "positive" and res["chain_gap"] > 0

    @pytest.mark.parametrize("dims, cut", [([16], 2), ([8, 8], 16)])
    def test_green_light_torus_positive(self, tmp_path, dims, cut):
        # the cut form gives the block's kernel as exact zeros: the dense slice
        # read them as round-off, -3.8e-9 on [16] and -1.4e-9 on [8, 8], and
        # exited 1 on a field that is RP at every mass2 > 0
        code, text = run_cli(tmp_path, "green", {"dims": dims, "mass2": 1e-8, "bc": "torus"})
        assert code == 0
        res = json.loads(text)["results"]
        assert res["verdicts_agree"] is True and res["cut_size"] == cut
        assert res["covariance_rp_min_eig"] == 0.0 == res["monotonicity_min_eig"]

    def test_stochastic_exit_one_and_csv(self, tmp_path):
        cfg = {"dims": [16], "mass2": 1.0, "bc": "box", "t_grid": [0.25, 100.0]}
        code, text = run_cli(tmp_path, "stochastic", cfg, "--format", "csv")
        assert code == 1                     # violation present
        lines = text.strip().split("\n")
        assert lines[0] == "t,min_eig,violated"
        assert lines[1].startswith("0.25") and lines[1].endswith(",1")
        assert lines[2].startswith("100") and lines[2].endswith(",0")

    def test_stochastic_tol_is_the_violation_gate(self, tmp_path):
        cfg = {"dims": [16], "mass2": 1.0, "bc": "box", "t_grid": [0.25, 100.0]}
        code, text = run_cli(tmp_path, "stochastic", cfg, "--tol", "1.0")
        assert code == 0                     # t=0.25 sits at -2.2e-4, above -1.0
        rows = json.loads(text)["results"]["rows"]
        assert rows[0]["min_eig"] < -1e-8 and not any(r["violated"] for r in rows)

    def test_sft_check_sequences(self, tmp_path):
        code, _ = run_cli(tmp_path, "sft-check", {"d": 2, "sequence": [1.0, 2.0]})
        assert code == 1
        code, _ = run_cli(tmp_path, "sft-check", {"d": 2, "sequence": [1.0, 1.0]})
        assert code == 0

    def test_sft_check_box_identities(self, tmp_path):
        code, text = run_cli(tmp_path, "sft-check", {"d": 3, "boxes": 10})
        assert code == 0
        rep = json.loads(text)
        assert rep["results"]["rotation_identity_residual"] == 0.0

    def test_reconstruct_chain(self, tmp_path):
        cfg = {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": 1.0},
               "basis_room": 2, "steps": 2}
        code, text = run_cli(tmp_path, "reconstruct", cfg)
        assert code == 0
        rep = json.loads(text)
        ev = rep["results"]["transfer_eigenvalues"]
        assert min(ev) >= -1e-9
        assert max(ev) <= 1 + 1e-10
        assert min(rep["results"]["hamiltonian_spectrum"]) >= -1e-9

    def test_reconstruct_kernel_has_no_energy(self, tmp_path):
        # this draw has a one-dimensional ker T: no finite energy, no second vacuum
        cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 0.5, "draw": {"family": "theorem"}}
        code, text = run_cli(tmp_path, "reconstruct", cfg, "--seed", "1880224405")
        assert code == 0
        res = json.loads(text)["results"]
        assert res["kernel_dim"] == 1
        spec, ev = res["hamiltonian_spectrum"], res["transfer_eigenvalues"]
        assert len(spec) == res["rank"] - res["kernel_dim"]
        want = sorted(-np.log(w) / res["dt"] for w in ev if w > 1e-12)
        assert np.abs(np.array(spec) - want).max() <= 1e-12

    def test_parse_error_exit_3(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["rp-gram", "--config", str(cfg_path)]) == 3

    def test_command_mismatch_exit_3(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"command": "green", "d": 2, "m": 2}))
        assert main(["rp-gram", "--config", str(cfg_path)]) == 3

    def test_missing_field_exit_3(self, tmp_path):
        code, _ = run_cli(tmp_path, "green", {"mass2": 1.0})
        assert code == 3

    def test_size_cap_exit_4(self, tmp_path):
        code, _ = run_cli(tmp_path, "algebra-check", {"d": 2, "m": 30})
        assert code == 4

    def test_gram_memory_budget_exit_4(self, tmp_path, monkeypatch, capsys):
        # the d=2, m=18 form is over GATHER_ENTRIES: refused before its word
        # tables (the indices of the Omega table) are built
        tables = []
        real = rpkit.verifier._weyl_words
        monkeypatch.setattr(rpkit.verifier, "_weyl_words",
                            lambda *a: tables.append(1) or real(*a))
        start = time.perf_counter()
        code, _ = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 18, "state": "trace"})
        assert code == 4
        assert time.perf_counter() - start < 30
        assert tables == []
        assert capsys.readouterr().err.startswith("rpkit: size cap exceeded:")
        # the watch sees the builder when the form fits
        assert run_cli(tmp_path, "rp-gram", {"d": 2, "m": 4, "state": "trace"})[0] == 0
        assert tables == [1]

    def test_huge_m_exit_4_names_m(self, tmp_path, capsys):
        # d^(m/2) = 2^500000 has 150,515 digits: the cap message names m and
        # prints the power, never the number
        code, text = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 1000000})
        err = capsys.readouterr().err
        assert (code, text) == (4, "")
        assert err.startswith("rpkit: size cap exceeded:") and "m = 1000000" in err
        assert len(err) < 200

    def test_huge_integer_literal_exit_3(self, tmp_path, capsys):
        # json refuses to read an integer of more than 4,300 digits with a
        # plain ValueError: a parse error, not an internal one
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"d": 2, "m": ' + "9" * 5000 + "}")
        assert main(["rp-gram", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith("rpkit: config parse error:")

    @pytest.mark.parametrize("d, m", [(2, 24), (64, 4), (4096, 2)])
    def test_algebra_check_on_pairs_at_the_cap(self, tmp_path, monkeypatch, d, m):
        # dimension 4096: the relations are checked on (perm, phase) pairs,
        # with no dense rep and no matrix power; at d = 4096, c^d composes
        # 4096 rounded phases and still meets the 1e-12 gate
        def fail(*args):
            raise AssertionError("dense relation product")

        monkeypatch.setattr(rpkit.algebra.AlgebraElement, "rep", property(fail))
        monkeypatch.setattr(np.linalg, "matrix_power", fail)
        code, text = run_cli(tmp_path, "algebra-check", {"d": d, "m": m})
        assert code == 0
        results = json.loads(text)["results"]
        assert results["dimension"] == 4096 and results["relation_residual"] < 1e-12

    @pytest.mark.parametrize("d, m, j", [(2, 6, 3), (3, 4, 0), (4, 4, 2)])
    def test_algebra_check_sees_a_perturbed_generator(self, tmp_path, monkeypatch, d, m, j):
        # one row of one generator's phase turned by 1e-9: the pair check
        # must see it, so it is not vacuous
        real = rpkit.algebra.Algebra.monomial_perm

        def perturbed(self, k):
            perm, phase = real(self, k)
            if list(k) == [int(i == j) for i in range(m)]:
                phase = phase.copy()
                phase[1] *= np.exp(1e-9j)
            return perm, phase

        monkeypatch.setattr(rpkit.algebra.Algebra, "monomial_perm", perturbed)
        code, text = run_cli(tmp_path, "algebra-check", {"d": d, "m": m})
        assert code == 1
        assert 5e-10 < json.loads(text)["results"]["relation_residual"] < 1e-8

    @pytest.mark.parametrize("terms", [5, "c1 c2", {"re": 1.0}])
    def test_hamiltonian_not_a_list_exit_3(self, tmp_path, capsys, terms):
        code, text = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 4, "state": "gibbs",
                                                   "hamiltonian": terms})
        err = capsys.readouterr().err
        assert (code, text) == (3, "")
        assert err.startswith("rpkit: config error:") and "'hamiltonian'" in err

    def test_rp_gram_evaluates_no_dense_rep(self, tmp_path, monkeypatch):
        # form and reflection defect both come from the Weyl table
        calls = []
        for module in (rpkit.algebra, rpkit.verifier):
            monkeypatch.setattr(module, "evaluate",
                                lambda *a, _real=module.evaluate: calls.append(1) or _real(*a))
        code, _ = run_cli(tmp_path, "rp-gram", {"d": 2, "m": 10, "state": "gibbs",
                                                "draw": {"family": "generic"}})
        assert code == 2
        assert calls == []

    def test_csv_only_for_stochastic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d": 2, "m": 2}))
        assert main(["rp-gram", "--config", str(cfg_path), "--format", "csv"]) == 3

    def test_reconstruct_shift_variant_exit_2(self, tmp_path):
        # finite-chain Gibbs is RP but not shift-invariant: refused, exit 2
        H = []
        for j in range(1, 6):
            kappa = 0.5 if j % 2 == 1 else 1.0
            k = [0] * 6
            k[j - 1] = 1
            k[j] = 1
            H.append([[0.0, -kappa], k])
        cfg = {"d": 2, "m": 6, "state": "gibbs", "beta": 1.0, "hamiltonian": H}
        code, _ = run_cli(tmp_path, "reconstruct", cfg)
        assert code == 2

    def test_io_failure_exit_5(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"d": 2, "m": 2}))
        code = main(["algebra-check", "--config", str(cfg_path),
                     "--out", str(tmp_path / "no" / "such" / "dir" / "o.json")])
        assert code == 5

    def test_missing_config_file_exit_5(self, tmp_path):
        assert main(["algebra-check", "--config", str(tmp_path / "nope.json")]) == 5

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0,
               "draw": {"family": "theorem"}}
        _, t1 = run_cli(tmp_path, "rp-gram", cfg, "--seed", "99")
        _, t2 = run_cli(tmp_path, "rp-gram", cfg, "--seed", "99")
        assert t1 == t2
        _, t3 = run_cli(tmp_path, "rp-gram", cfg, "--seed", "100")
        assert t1 != t3


NAN, INF = float("nan"), float("inf")
GIBBS_M2 = {"d": 2, "m": 2, "state": "gibbs", "beta": 1.0,
            "hamiltonian": [[[0.0, 1.0], [1, 1]]]}
CHAIN_M4 = {"d": 2, "m": 4, "chain": {"coupling": 1.0, "beta": 1.0}}


@pytest.mark.parametrize("command, cfg", [
    ("green", {"dims": [8], "mass2": NAN}),
    ("green", {"dims": [8], "mass2": INF}),
    ("stochastic", {"dims": [8], "mass2": INF, "t_grid": [0.25]}),
    ("stochastic", {"dims": [8], "mass2": 1.0, "t_grid": [0.25, NAN]}),
    ("rp-gram", {**GIBBS_M2, "beta": NAN}),
    ("rp-gram", {**GIBBS_M2, "beta": INF}),
    ("rp-gram", {**GIBBS_M2, "hamiltonian": [[[NAN, 0.0], [1, 1]]]}),
    ("reconstruct", {**CHAIN_M4, "chain": {"coupling": NAN, "beta": 1.0}}),
    ("reconstruct", {**CHAIN_M4, "chain": {"coupling": 1.0, "beta": NAN}}),
    ("reconstruct", {**CHAIN_M4, "chain": {"coupling": 1.0, "beta": INF}}),
    ("sft-check", {"d": 2, "sequence": [NAN, 1.0]}),
    ("sft-check", {"d": 2, "sequence": [1.0, INF]}),
], ids=["green-mass2-nan", "green-mass2-inf", "stochastic-mass2-inf", "stochastic-t-nan",
        "gram-beta-nan",
        "gram-beta-inf", "gram-coefficient-nan", "chain-coupling-nan", "chain-beta-nan",
        "chain-beta-inf", "sequence-nan", "sequence-inf"])
def test_non_finite_input_exit_3(tmp_path, capsys, command, cfg):
    code, text = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("rpkit: invalid config:")


@pytest.mark.parametrize("command, term", [
    ("rp-gram", [[1.0, 0.0], [0, 0, INF, 0]]),
    ("rp-gram", [[1.0, 0.0], [0, 0, 1.5, 0]]),
    ("reconstruct", [[1, 0], [0, 0, 0.5, 0.5]]),
    ("rp-gram", [[1.0, 0.0], [0, 0, "1", 0]]),
    ("rp-gram", [[1.0, 0.0], [0, 0, True, 0]]),
    ("rp-gram", [[True, 0.0], [0, 0, 1, 1]]),
    ("rp-gram", [[1.0, "0"], [0, 0, 1, 1]]),
], ids=["exponent-inf", "exponent-fraction", "exponents-halves", "exponent-string",
        "exponent-bool", "coefficient-bool", "coefficient-string"])
def test_hamiltonian_numbers_exit_3(tmp_path, capsys, command, term):
    # exponents and coefficients go through the config's one number coercion:
    # an infinite exponent exited 6 (OverflowError in int), fractions were
    # truncated (0.5 ran as the identity term), strings and bools were cast
    cfg = {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0, "hamiltonian": [term]}
    code, text = run_cli(tmp_path, command, cfg)
    err = capsys.readouterr().err
    assert (code, text) == (3, "")
    assert err.startswith("rpkit: config error:") and "'hamiltonian'" in err


@pytest.mark.parametrize("command, cfg", [
    ("reconstruct", {**CHAIN_M4, "chain": {"coupling": 1.0, "beta": -1.0}}),
    ("reconstruct", {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": -1.0},
                     "basis_room": 2, "steps": 2}),
], ids=["chain-beta-negative", "chain-window-beta-negative"])
def test_negative_chain_beta_exit_3(tmp_path, capsys, command, cfg):
    # a Gibbs state needs beta >= 0: refused as config (as a Gibbs draw is),
    # never a gram_verdict "negative"
    code, text = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("rpkit: invalid config:")


@pytest.mark.parametrize("command, cfg", [
    ("green", {"dims": [NAN, 4], "mass2": 1.0}),
    ("green", {"dims": [4.5, 4], "mass2": 1.0}),
    ("green", {"dims": [8], "mass2": "heavy"}),
    ("algebra-check", {"d": "2", "m": 4}),
    ("algebra-check", {"d": 2, "m": "four"}),
    ("rp-gram", {**GIBBS_M2, "beta": "hot"}),
    ("rp-gram", {"d": 2, "m": 4, "max_grade": "1"}),
    ("reconstruct", {**CHAIN_M4, "basis_room": "2"}),
    ("stochastic", {"dims": [8], "mass2": 1.0, "t_grid": ["0.25"]}),
    ("sft-check", {"d": 2, "sequence": ["one", 1.0]}),
    ("sft-check", {"d": 2, "boxes": -5}),
    ("sft-check", {"d": 2, "boxes": 0}),
    ("sft-check", {"d": 0, "boxes": 1}),
    ("rp-gram", {"d": 2, "m": 4, "max_grade": -1}),
    ("stochastic", {"dims": [8], "mass2": 1.0, "t_grid": []}),
    ("reconstruct", {**CHAIN_M4, "basis_room": 2}),
    ("reconstruct", {**CHAIN_M4, "basis_room": 4}),
    ("reconstruct", {**CHAIN_M4, "basis_room": -2}),
], ids=["dims-nan", "dims-fraction", "mass2-string", "d-string", "m-string", "beta-string",
        "max-grade-string", "basis-room-string", "t-grid-string", "sequence-string",
        "boxes-negative", "boxes-zero", "sft-d-zero", "max-grade-negative", "t-grid-empty",
        "basis-room-half", "basis-room-full", "basis-room-negative"])
def test_wrong_type_config_exit_3(tmp_path, capsys, command, cfg):
    code, text = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("rpkit: config error: config field")


@pytest.mark.parametrize("command, cfg, names", [
    ("green", {"dims": [8], "mass2": 1e308}, "mass2"),
    ("green", {"dims": [2, 2], "mass2": 1e160}, "mass2"),
    ("reconstruct", {**CHAIN_M4, "chain": {"coupling": 1e300, "beta": 1e300}}, "beta x coupling"),
    ("sft-check", {"d": 2, "sequence": [1e308, 1e308]}, "sequence"),
    ("reconstruct", {"d": 2, "m": 6, "state": "gibbs",
                     "hamiltonian": [[[1e308, 0], [1, 0, 0, 0, 0, 0]]]}, "hamiltonian"),
    ("rp-gram", {"d": 2, "m": 4, "state": "gibbs",
                 "hamiltonian": [[[1e308, 0], [0, 0, 0, 0]]]}, "hamiltonian"),
], ids=["green-block-underflow", "green-block-subnormal", "chain-beta-coupling-overflow",
        "sequence-dft-overflow", "gibbs-generator-overflow", "gibbs-identity-overflow"])
def test_overflow_exit_3(tmp_path, capsys, command, cfg, names):
    # finite inputs whose result over- or underflows: refused, never a crash
    # (exit 6) or a "positive" read off zeros, subnormals, inf or nan
    code, text = run_cli(tmp_path, command, cfg)
    assert code == 3
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("rpkit: invalid config:") and names in err


@pytest.mark.parametrize("cfg, field", [
    ({"d": 100000000, "boxes": 1}, "d"),
    ({"d": 2, "boxes": 1000000000}, "boxes"),
], ids=["d-huge", "boxes-huge"])
def test_sft_box_budget_exit_4(tmp_path, capsys, monkeypatch, cfg, field):
    # refused before any box is built; a box built anyway fails fast
    def no_box(*args, **kwargs):
        raise AssertionError("a box was built")

    monkeypatch.setattr(cli, "Box22", no_box)
    code, text = run_cli(tmp_path, "sft-check", cfg)
    assert code == 4
    assert text == ""
    assert capsys.readouterr().err.startswith(
        f"rpkit: size cap exceeded: config field '{field}':")


@pytest.mark.parametrize("budget, d", [(2**20, 2000), (16, 5)], ids=["d-2000", "small-budget"])
def test_sft_sequence_budget_exit_4(tmp_path, capsys, monkeypatch, budget, d):
    # the DFT builds a d x d matrix: refused before it is built
    def no_dft(*args, **kwargs):
        raise AssertionError("the DFT was built")

    monkeypatch.setattr(cli, "SFT_ENTRIES", budget)
    monkeypatch.setattr(rpkit.verifier, "dft_zd", no_dft)
    code, text = run_cli(tmp_path, "sft-check", {"d": d, "sequence": [1.0] * d})
    assert code == 4
    assert text == ""
    assert capsys.readouterr().err.startswith(
        "rpkit: size cap exceeded: config field 'sequence':")


@pytest.mark.parametrize("steps", [0, 4, 100, 1e30, -1],
                         ids=["zero", "half", "hundred", "1e30", "negative"])
def test_reconstruct_steps_out_of_range_exit_3(tmp_path, capsys, monkeypatch, steps):
    # from m/2 generators on every plus generator leaves the chain: the
    # transfer would be the vacuum projection, a vacuous "positive" with gap 0;
    # steps = 0 shifts nothing, a transfer of 1 and gap 0 for any state
    def no_form(*args, **kwargs):
        raise AssertionError("the form was built")

    monkeypatch.setattr(cli, "form_plan", no_form)
    cfg = {"d": 2, "m": 8, "chain": {}, "basis_room": 3, "steps": steps}
    code, text = run_cli(tmp_path, "reconstruct", cfg)
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("rpkit: config error: config field 'steps':")


def test_gibbs_density_at_huge_beta_warns_nothing(tmp_path, capsys):
    # -beta (w - w_min) overflows to -inf above the ground level; exp(-inf) = 0
    # is the ground-state limit, and no RuntimeWarning may reach stderr
    cfg = {"d": 2, "m": 8, "state": "gibbs", "beta": 1e308, "draw": {"family": "theorem"}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(tmp_path, "rp-gram", cfg)
    assert (code, capsys.readouterr().err) == (0, "")
    assert json.loads(text)["results"]["verdict"] == "positive"


@pytest.mark.parametrize("sequence", [[], [1.0, 1.0, 1.0]], ids=["empty", "too-long"])
def test_sft_sequence_length_mismatch_exit_3(tmp_path, capsys, sequence):
    code, text = run_cli(tmp_path, "sft-check", {"d": 2, "sequence": sequence})
    assert code == 3
    assert text == ""
    assert capsys.readouterr().err.startswith("rpkit: invalid config:")


def test_internal_error_exit_6(tmp_path, capsys, monkeypatch):
    def broken(cfg, tol, rng):
        raise RuntimeError("broken\npipeline")

    monkeypatch.setitem(cli.COMMANDS, "green", broken)
    code, text = run_cli(tmp_path, "green", {"dims": [8], "mass2": 1.0})
    assert code == 6
    assert text == ""
    assert capsys.readouterr().err == "rpkit: internal error: RuntimeError: broken pipeline\n"


def test_parser_built_once_for_successive_calls(tmp_path, capsys, monkeypatch):
    # the parser is built on first use and reused; each call still parses its
    # own command, and the COMMANDS table is read at parse time
    cli._parser.cache_clear()
    try:
        code, text = run_cli(tmp_path, "green", {"dims": [8], "mass2": 1.0})
        assert code == 0 and json.loads(text)["command"] == "green"
        code, text = run_cli(tmp_path, "sft-check", {"d": 2, "sequence": [1.0, 0.5]})
        assert code == 0 and json.loads(text)["command"] == "sft-check"
        monkeypatch.setitem(cli.COMMANDS, "green", lambda cfg, tol, rng: ("positive", {"x": 1}))
        code, text = run_cli(tmp_path, "green", {"dims": [8], "mass2": 1.0})
        assert code == 0 and json.loads(text)["results"] == {"x": 1}
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert main(["no-such-command", "--config", "x.json"]) == 3
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("argv, message", [
    (["green"], "the following arguments are required: --config"),
    (["green", "--config", "x.json", "--seed", "abc"], "argument --seed: invalid int value"),
    (["no-such-command", "--config", "x.json"], "invalid choice: 'no-such-command'"),
    # nan failed every PSD test (rp-gram exited 1 on the trace state), inf
    # passed every gate and -1 made a PSD form negative
    *[([command, "--config", "x.json", f"--tol={tol}"],
       f"argument --tol: must be a finite number >= 0, got '{tol}'")
      for command, tol in [("rp-gram", "nan"), ("stochastic", "inf"), ("green", "-1"),
                           ("sft-check", "-inf"), ("green", "-1e-300"), ("green", "abc")]],
    # as a separate argument, argparse alone read -inf and -1e-300 as options
    # and said "expected one argument"
    *[([command, "--config", "x.json", "--tol", tol],
       f"argument --tol: must be a finite number >= 0, got '{tol}'")
      for command, tol in [("sft-check", "-inf"), ("green", "-1e-300")]],
])
def test_usage_error_exit_3(capsys, argv, message):
    # argparse exits 2 on a usage error, and 2 means not-applicable here
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: rpkit") and message in err


def test_timing_is_written_only_on_request(tmp_path):
    # --timing adds timing.seconds and nothing else; without it two runs
    # write the same bytes
    cfg = {"dims": [8], "mass2": 1.0}
    out = tmp_path / "out.json"
    assert run_cli(tmp_path, "green", cfg, "--timing")[0] == 0
    timed = json.loads(out.read_bytes())
    seconds = timed.pop("timing")["seconds"]
    assert np.isfinite(seconds) and seconds >= 0
    plain = []
    for _ in range(2):
        assert run_cli(tmp_path, "green", cfg)[0] == 0
        plain.append(out.read_bytes())
    assert plain[0] == plain[1] and json.loads(plain[0]) == timed


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rpkit")


@pytest.mark.parametrize("text", ["null", "3", '"command"', "[1]", "[]", "true"])
def test_non_object_config_exit_3(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["green", "--config", str(cfg_path), "--out", str(tmp_path / "o.json")]) == 3
    assert capsys.readouterr().err == "rpkit: config error: config must be a JSON object\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("cfg", [
    {"dims": [8], "mass2": 1.0, "note": "a\tb"},
    {"dims": [8], "mass2": 1.0, 'k"ey': 1, "back\\slash": "\x00"},
    {"dims": [8], "mass2": 1.0, "note": "\ud800"},
    {"dims": [8], "mass2": 1.0, "note": "\u00e9\u4e2d\U0001f600\u2028"},
], ids=["tab", "quote-key", "lone-surrogate", "non-ascii"])
def test_hostile_config_strings_write_valid_json(tmp_path, cfg):
    code, _ = run_cli(tmp_path, "green", cfg)
    raw = (tmp_path / "out.json").read_bytes()
    assert code == 0 and json.loads(raw)["config"] == cfg
    assert not (tmp_path / "out.json.tmp").exists()


@pytest.mark.parametrize("name", ["write", "replace"])
def test_failed_report_write_removes_the_temp_file(tmp_path, capsys, monkeypatch, name):
    def fail(*args):
        raise OSError(28, "No space left on device")

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": [8], "mass2": 1.0}))
    out = tmp_path / "o.json"
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, name, fail)
        code = main(["green", "--config", str(cfg_path), "--out", str(out)])
    assert code == 5
    assert capsys.readouterr().err.startswith("rpkit: cannot write report: [Errno 28]")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_report_is_written_whole_through_short_writes(tmp_path, monkeypatch):
    # os.write may take fewer bytes than it is given: the rest follows
    real = cli.os.write
    monkeypatch.setattr(cli.os, "write", lambda fd, data: real(fd, data[:7]))
    code, text = run_cli(tmp_path, "green", {"dims": [8], "mass2": 1.0, "note": "\u00e9"})
    monkeypatch.undo()
    assert code == 0 and text == run_cli(tmp_path, "green",
                                         {"dims": [8], "mass2": 1.0, "note": "\u00e9"})[1]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("body", [
    '{NL "dims": [8],NL "mass2": ]NL}',
    '{NL "dims": [8],NL "note": "a\tb"NL}',
    '{NL "dims": [8]NL "mass2": 1.0}',
])
def test_newlines_keep_the_parse_error_position(tmp_path, capsys, newline, body):
    # the config is read as text with universal newlines: \r\n and \r count
    # as one line break, as \n does
    errs = []
    for nl in ("\n", newline):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(body.replace("NL", nl).encode("utf-8"))
        assert main(["green", "--config", str(cfg_path)]) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and errs[0].startswith("rpkit: config parse error at line 3 col")


@pytest.mark.parametrize("raw, message", [
    (b'\xef\xbb\xbf{"dims": [8], "mass2": 1.0}',
     "rpkit: config parse error at line 1 col 1: Unexpected UTF-8 BOM"),
    ('{"dims": [8], "mass2": 1.0}'.encode("utf-16"),
     "rpkit: config parse error: 'utf-8' codec can't decode byte 0xff in position 0"),
    (b'{"dims": [8], \xff}', "rpkit: config parse error: 'utf-8' codec can't decode byte "
                            "0xff in position 14"),
])
def test_config_must_be_utf8_without_bom(tmp_path, capsys, raw, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(raw)
    assert main(["green", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith(message)


NO_DRAW = [
    ("green", {"dims": [6, 4], "mass2": 1.0}),
    ("stochastic", {"dims": [8], "mass2": 1.0, "t_grid": [0.5, 100.0]}),
    ("reconstruct", {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": 1.0},
                     "basis_room": 2, "steps": 2}),
    ("algebra-check", {"d": 3, "m": 4}),
    ("sft-check", {"d": 3, "sequence": [1.0, 0.25, 0.25]}),
    ("rp-gram", {"d": 2, "m": 6, "state": "trace"}),
    ("rp-gram", {"d": 2, "m": 4, "state": "gibbs",
                 "hamiltonian": [[[1.0, 0.0], [1, 0, 0, 1]], [[1.0, 0.0], [1, 0, 0, 1]]]}),
]


@pytest.mark.parametrize("command, cfg", NO_DRAW, ids=[c for c, _ in NO_DRAW])
def test_commands_that_draw_nothing_build_no_generator(tmp_path, monkeypatch, command, cfg):
    want = run_cli(tmp_path, command, cfg, "--seed", "3")

    def no_generator(seed):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(cli, "default_rng", no_generator)
    assert run_cli(tmp_path, command, cfg, "--seed", "3") == want


DRAW = [
    ("rp-gram", {"d": 2, "m": 6, "state": "gibbs", "beta": 0.7, "draw": {"family": "theorem"}}),
    ("rp-gram", {"d": 3, "m": 4, "state": "gibbs", "beta": 0.7, "draw": {"family": "generic"}}),
    ("reconstruct", {"d": 2, "m": 6, "state": "gibbs", "beta": 0.7,
                     "draw": {"family": "theorem"}}),
    ("sft-check", {"d": 2, "boxes": 3}),
]


@pytest.mark.parametrize("command, cfg", DRAW, ids=[c for c, _ in DRAW])
def test_drawing_commands_draw_from_the_seed(tmp_path, capsys, monkeypatch, command, cfg):
    # one generator, default_rng(seed); the report and stderr are those of a
    # run that draws from a generator built directly from the seed
    want = run_cli(tmp_path, command, cfg, "--seed", "11"), capsys.readouterr().err
    seeds = []
    generator = np.random.default_rng(11)
    monkeypatch.setattr(cli, "default_rng", lambda seed: seeds.append(seed) or generator)
    assert (run_cli(tmp_path, command, cfg, "--seed", "11"), capsys.readouterr().err) == want
    assert seeds == [11]
    if "draw" in cfg:
        # a Gibbs draw reads as the terms of the Hamiltonian drawn directly
        algebra = Algebra(AlgebraConfig(cfg["d"], cfg["m"]))
        draw = {"theorem": draw_theorem_hamiltonian,
                "generic": draw_generic_hamiltonian}[cfg["draw"]["family"]]
        H = draw(algebra, np.random.default_rng(11))
        explicit = {k: v for k, v in cfg.items() if k != "draw"}
        explicit["hamiltonian"] = [[[z.real, z.imag], list(k)] for k, z in H.coeffs.items()]
        code, text = run_cli(tmp_path, command, explicit, "--seed", "11")
        assert capsys.readouterr().err == want[1] and code == want[0][0]
        if text:
            assert json.loads(text)["results"] == json.loads(want[0][1])["results"]


@pytest.mark.parametrize("dims, tol", [([8], "0"), ([8], "1e-18"), ([64], "0")])
def test_green_leaves_out_a_chain_gap_below_round_off(tmp_path, dims, tol):
    # the verdict is positive, but the dense chain Gram's min eig is about
    # -1e-18, so quantize refuses it at this tol: the gap is left out, as on a
    # torus, where it used to exit 2
    code, text = run_cli(tmp_path, "green", {"dims": dims, "mass2": 1.0}, "--tol", tol)
    assert code == 0
    res = json.loads(text)["results"]
    assert res["verdict"] == "positive" and "chain_gap" not in res
