import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpkit import lattice
from rpkit.errors import (InvalidArgument, InvalidConfig, InvalidGeometry,
                          PreconditionViolation, SizeLimit, WrongHalf)
from rpkit.cli import main, run_green
from rpkit.lattice import (VIOLATION_TOL, LatticeModel, chain_gap, chain_transfer,
                           covariance_rp, green_set, lattice_operator, monotonicity_verdict,
                           stochastic_covariance, stochastic_rp_scan)
from rpkit.verifier import NEGATIVE, POSITIVE, gram_report_from_matrix

from lattice_oracles import (counterexample_covariance, covariance_green_set, cut_spectrum,
                             dense_block, dense_green, dirichlet_half_green, neumann_half_green,
                             reflect, reflection_matrix, schwinger_moment, site_index,
                             whole_cut_form)


class TestLatticeOperator:
    def test_two_site_torus_has_doubled_edge(self):
        A = lattice_operator(LatticeModel((2,), 1.0, "torus"))
        assert np.array_equal(A, np.array([[3.0, -2.0], [-2.0, 3.0]]))

    def test_box_stencil_and_spectrum(self):
        N = 4
        A = lattice_operator(LatticeModel((N,), 1.0, "box"))
        want = np.diag([3.0] * N) + np.diag([-1.0] * (N - 1), 1) + np.diag([-1.0] * (N - 1), -1)
        assert np.array_equal(A, want)
        # eigenvalues 1 + 2 - 2 cos(k pi / (N+1))
        expect = np.sort([3 - 2 * np.cos(k * np.pi / (N + 1)) for k in range(1, N + 1)])
        assert np.abs(np.sort(np.linalg.eigvalsh(A)) - expect).max() < 1e-12

    def test_symmetric_exact(self):
        for dims, bc in [((6,), "box"), ((4, 4), "torus"), ((4, 3), "box")]:
            A = lattice_operator(LatticeModel(dims, 0.5, bc))
            assert np.abs(A - A.T).max() == 0.0

    def test_lower_spectral_bound(self):
        for bc in ("box", "torus"):
            model = LatticeModel((6, 3), 0.7, bc)
            w = np.linalg.eigvalsh(lattice_operator(model))
            assert w.min() >= model.mass2 - 1e-12

    def test_invalid_mass(self):
        with pytest.raises(InvalidConfig):
            LatticeModel((4,), 0.0, "torus")
        with pytest.raises(InvalidConfig):
            LatticeModel((4,), -1.0, "box")

    @pytest.mark.parametrize("dims", [(16,), (4, 4)])
    def test_singular_torus_exit_3(self, tmp_path, dims):
        # mass2 below n eps ||A||: inv raised (exit 6) on [16] and returned garbage
        # (exit 2, monotonicity_min_eig -0.457) on [4, 4]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": list(dims), "mass2": 1e-17, "bc": "torus"}))
        assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 3
        floor = LatticeModel(dims, 1.0, "torus").torus_floor()
        LatticeModel(dims, 2 * floor, "torus")
        LatticeModel(dims, 1e-17, "box")

    def test_non_integral_dims_rejected(self):
        assert LatticeModel((4.0, 4), 1.0).dims == (4, 4)
        for dims in ((4.5, 4), (4, float("nan")), (float("inf"), 4), ("4", 4)):
            with pytest.raises(InvalidConfig):
                LatticeModel(dims, 1.0)

    def test_odd_time_axis_rejected(self):
        with pytest.raises(InvalidGeometry):
            LatticeModel((5,), 1.0, "box")

    def test_volume_cap(self):
        # the mode path's work S Nt^2 + n + sum L^2 against MODE_ENTRIES = 2^25:
        # 8 * 2048^2 is the budget itself, and the 16,384 sites go over it
        with pytest.raises(SizeLimit, match="over the budget"):
            LatticeModel((2048, 8), 1.0, "box")
        LatticeModel((2048, 7), 1.0, "box")
        with pytest.raises(SizeLimit, match="over the budget"):
            LatticeModel((2**40, 2**40), 1.0, "box")    # Python ints: no int64 wrap

    def test_dense_operator_budget(self):
        # lattice_operator is n x n: it holds n^2 to the same budget
        with pytest.raises(SizeLimit, match="n\\^2"):
            lattice_operator(LatticeModel((64, 96), 1.0, "box"))


def _image_charges(model, C=None):
    """C_D and C_N = (C -+ C R)|half from a dense covariance (by default the
    dense Green operator) and the loop reflection."""
    C = dense_green(model) if C is None else C
    C_r = C @ _loop_reflection(model)
    half = model.half_indices()
    sel = np.ix_(half, half)
    return (C - C_r)[sel], (C + C_r)[sel]


class TestGreenSet:
    def test_image_charge_identity_exact(self):
        model = LatticeModel((8,), 1.0, "box")
        C_D, C_N = _image_charges(model)
        assert np.abs((C_N - C_D) - 2 * dense_block(model)).max() < 1e-14
        assert np.abs((C_N - C_D) - 2 * green_set(model).block).max() < 1e-14

    @pytest.mark.parametrize("dims,bc", [((8,), "box"), ((8,), "torus"),
                                         ((4, 4), "box"), ((4, 4), "torus"),
                                         ((2,), "torus"), ((6, 3, 3), "box")])
    @pytest.mark.parametrize("mass2", [0.1, 1.0, 4.0])
    def test_half_operator_cross_check(self, dims, bc, mass2):
        # independent construction: adjusted half-space stencils
        model = LatticeModel(dims, mass2, bc)
        C_D, C_N = _image_charges(model)
        assert np.abs(C_D - dirichlet_half_green(model)).max() < 1e-10
        assert np.abs(C_N - neumann_half_green(model)).max() < 1e-10

    def test_monotonicity_on_free_field(self):
        C_D, C_N = _image_charges(LatticeModel((8,), 1.0, "box"))
        assert np.linalg.eigvalsh((C_N - C_D + (C_N - C_D).T) / 2).min() >= -1e-12

    def test_reflection_covariance(self):
        model = LatticeModel((6, 3), 1.0, "torus")
        C = dense_green(model)
        R = reflection_matrix(model)
        assert np.abs(R @ C @ R - C).max() < 1e-12
        assert np.abs(R @ R - np.eye(R.shape[0])).max() == 0.0

    def test_symmetry(self):
        model = LatticeModel((6, 4), 0.5, "box")
        for mat in (dense_green(model), *_image_charges(model), green_set(model).block):
            assert np.abs(mat - mat.T).max() < 1e-12


class TestMonotonicityVerdict:
    @pytest.mark.parametrize("dims", [(8,), (8, 8), (4, 4, 4)])
    def test_free_field_positive(self, dims):
        gs = green_set(LatticeModel(dims, 1.0, "box"))
        v = monotonicity_verdict(gs)
        assert v.verdict == POSITIVE
        assert v.min_eig >= -1e-10

    def test_zero_reflected_kernel_is_marginal_positive(self):
        model = LatticeModel((8,), 1.0, "box")
        half = model.half_indices()
        rh = model.reflection_indices()[half]
        C = dense_green(model)
        C[np.ix_(rh, half)] = C[np.ix_(half, rh)] = 0.0
        v = monotonicity_verdict(covariance_green_set(model, C))
        assert v.verdict == POSITIVE
        assert abs(v.min_eig) < 1e-14

    def test_counterexample_negative_with_witness(self):
        rng = np.random.default_rng(7)
        model = LatticeModel((8,), 1.0, "box")
        Cbad = counterexample_covariance(model, strength=1.0, rng=rng)
        v = monotonicity_verdict(covariance_green_set(model, Cbad))
        assert v.verdict == NEGATIVE
        C_D, C_N = _image_charges(model, Cbad)
        D = (C_N - C_D + (C_N - C_D).T) / 2
        assert abs(np.real(v.witness @ D @ v.witness) - v.min_eig) < 1e-10


class TestCovarianceRp:
    def test_equivalence_with_monotonicity(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            dims = (int(rng.choice([4, 6, 8])),)
            if trial % 2:
                dims = dims + (int(rng.choice([3, 4])),)
            model = LatticeModel(dims, float(rng.uniform(0.2, 3.0)),
                                 "box" if trial % 3 else "torus")
            gs = green_set(model)
            mono = monotonicity_verdict(gs)
            cov = covariance_rp(gs)
            assert mono.verdict == cov.verdict
            assert np.sign(mono.min_eig) == np.sign(cov.min_eig) or \
                max(abs(mono.min_eig), abs(cov.min_eig)) < 1e-12

    def test_plane_adjacent_delta(self):
        model = LatticeModel((8,), 1.0, "box")
        gs = green_set(model)
        idx = site_index(model)
        site = idx[(4,)]                     # first positive-time site
        f = np.zeros(len(model.sites))
        f[site] = 1.0
        rep = covariance_rp(gs, [f])
        refl = idx[reflect(model, (4,))]
        assert abs(rep.matrix[0, 0] - dense_green(model)[refl, site]) < 1e-14
        assert rep.matrix[0, 0].real > 0

    def test_zero_function(self):
        gs = green_set(LatticeModel((6,), 1.0, "box"))
        rep = covariance_rp(gs, [np.zeros(6)])
        assert np.abs(rep.matrix).max() == 0.0

    def test_wrong_half(self):
        gs = green_set(LatticeModel((6,), 1.0, "box"))
        f = np.zeros(6)
        f[0] = 1.0
        with pytest.raises(WrongHalf):
            covariance_rp(gs, [f])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("site", [0, 4], ids=["minus-half", "plus-half"])
    def test_non_finite_function_rejected(self, bad, site):
        # abs(nan) > 0 is False, so NaN off the half used to pass the support check
        gs = green_set(LatticeModel((6,), 1.0, "box"))
        f = np.zeros(6)
        f[site] = bad
        f[4 if site == 0 else 5] = 1.0
        with pytest.raises(InvalidArgument, match="finite"):
            covariance_rp(gs, [f])


class TestSchwingerMoment:
    def test_two_points(self):
        C = np.arange(9, dtype=float).reshape(3, 3)
        assert schwinger_moment(C, [0, 2]) == C[0, 2]

    def test_four_points_hand_formula(self):
        rng = np.random.default_rng(3)
        C = rng.normal(size=(5, 5))
        C = C + C.T
        p = [0, 1, 3, 4]
        want = C[0, 1] * C[3, 4] + C[0, 3] * C[1, 4] + C[0, 4] * C[1, 3]
        assert abs(schwinger_moment(C, p) - want) < 1e-12

    def test_identity_covariance(self):
        C = np.eye(4)
        assert schwinger_moment(C, [0, 1, 2, 3]) == 0.0
        assert schwinger_moment(C, [0, 0, 1, 1]) == 1.0

    def test_six_points_vs_enumeration(self):
        rng = np.random.default_rng(5)
        C = rng.normal(size=(6, 6))
        C = C + C.T
        pts = [0, 1, 2, 3, 4, 5]

        def pairings(items):
            if not items:
                yield []
                return
            a = items[0]
            for i in range(1, len(items)):
                for rest in pairings(items[1:i] + items[i + 1:]):
                    yield [(a, items[i])] + rest

        want = sum(np.prod([C[a, b] for a, b in pr]) for pr in pairings(pts))
        assert abs(schwinger_moment(C, pts) - want) < 1e-10

    def test_odd_rejected(self):
        with pytest.raises(InvalidArgument):
            schwinger_moment(np.eye(2), [0, 1, 1])


class TestStochastic:
    def test_zero_time(self):
        model = LatticeModel((6,), 1.0, "box")
        assert np.abs(stochastic_covariance(model, 0.0)).max() < 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgument):
            stochastic_covariance(LatticeModel((4,), 1.0, "box"), -0.5)

    def test_monotone_in_t(self):
        model = LatticeModel((8,), 1.0, "box")
        prev = np.zeros((8, 8))
        for t in (0.1, 0.3, 1.0, 3.0, 10.0):
            Ct = stochastic_covariance(model, t)
            assert np.abs(Ct - Ct.T).max() < 1e-12
            assert np.linalg.eigvalsh(Ct - prev).min() >= -1e-12
            prev = Ct

    def test_long_time_limit(self):
        model = LatticeModel((8,), 1.0, "box")
        C = np.linalg.inv(lattice_operator(model))
        assert np.abs(stochastic_covariance(model, 60.0) - C).max() < 1e-10

    def test_scan_builds_no_green_set(self, monkeypatch):
        inv = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv.append(1) or real_inv(a))
        stochastic_rp_scan(LatticeModel((4, 3), 1.0, "box"), [0.25, 1.0])
        assert inv == []

    def test_scan_violation_pattern(self):
        model = LatticeModel((16,), 1.0, "box")
        scan = stochastic_rp_scan(model, [0.0, 0.25, 100.0])
        rows = {t: (me, v) for t, me, v in scan.rows}
        assert np.abs(rows[0.0][0]) < 1e-14          # degenerate zero Gram
        assert rows[0.25][0] < -1e-8 and rows[0.25][1]
        assert rows[100.0][0] >= -1e-9 and not rows[100.0][1]
        assert scan.witness_t == 0.25


class TestChainGap:
    def test_gap_approaches_dispersion_value(self):
        # half-window of 16 sites reproduces arccosh(1 + m^2/2) to ~1e-9
        model = LatticeModel((32,), 1.0, "box")
        gap, diag = chain_gap(green_set(model))
        assert abs(gap - np.arccosh(1.5)) < 1e-6
        assert diag["asymmetry"] < 1e-10

    def test_gap_grows_with_mass(self):
        gaps = [chain_gap(green_set(LatticeModel((24,), m2, "box")))[0]
                for m2 in (0.5, 1.0, 2.0)]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_counterexample_gram_is_refused(self):
        # a chain Gram that is not PSD has no OS quotient: refused, not quantized
        model = LatticeModel((16,), 1.0, "box")
        bad = covariance_green_set(model, counterexample_covariance(
            model, strength=1.0, rng=np.random.default_rng(7)))
        assert monotonicity_verdict(bad).verdict == NEGATIVE
        with pytest.raises(PreconditionViolation):
            chain_gap(bad)

    def test_green_check_inverts_no_lattice_matrix(self, monkeypatch):
        # one batched solve with the S half operators A_+ on the cut columns and
        # one batched solve of cut size; the chain gap reuses the GreenSet of the
        # monotonicity check
        inv, solved = [], []
        real_inv, real_solve = np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv.append(a.shape) or real_inv(a))
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(a.shape) or real_solve(a, b))
        for dims in ((16,), (6, 4)):
            solved.clear()
            verdict, results = run_green({"dims": list(dims), "mass2": 1.0}, 1e-10, None)
            assert verdict == POSITIVE and ("chain_gap" in results) == (len(dims) == 1)
            S, h = int(np.prod(dims[1:])), dims[0] // 2
            c = results["cut_size"] // S
            assert solved == [(S, h, h), (S, c, c)]
        assert inv == []

    def test_one_row_half_has_no_chain_gap(self):
        # a 2-site box: the shift moves the half's one time row off the chain, so
        # there is no transfer, and green omits the gap instead of reporting 0
        gs = green_set(LatticeModel((2,), 1.0, "box"))
        with pytest.raises(InvalidGeometry, match="two or more time rows"):
            chain_gap(gs)
        verdict, results = run_green({"dims": [2], "mass2": 1.0}, 1e-10, None)
        assert verdict == POSITIVE and "chain_gap" not in results
        assert "chain_gap" in run_green({"dims": [4], "mass2": 1.0}, 1e-10, None)[1]

    def test_green_check_decomposes_once(self, monkeypatch):
        # both verdicts read one batched eigvalsh of the cut forms; the kernel
        # witness needs no eigenvectors
        eigh, eigvalsh = [], []
        real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh.append(a.shape) or real_eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: eigvalsh.append(a.shape) or real_eigvalsh(a))
        verdict, results = run_green({"dims": [6, 4], "mass2": 1.0}, 1e-10, None)
        assert verdict == POSITIVE and results["verdicts_agree"]
        assert results["monotonicity_min_eig"] == 2 * results["covariance_rp_min_eig"]
        assert eigvalsh == [(4, 1, 1)] and eigh == []

    @pytest.mark.parametrize("sites", [4, 16])
    def test_torus_has_no_chain_gap(self, sites):
        # a torus compression is no transfer operator: refused, and green omits the gap
        gs = green_set(LatticeModel((sites,), 0.5, "torus"))
        with pytest.raises(InvalidGeometry, match="needs a box"):
            chain_gap(gs)
        verdict, results = run_green({"dims": [sites], "mass2": 0.5, "bc": "torus"},
                                     1e-10, None)
        assert verdict == POSITIVE and "chain_gap" not in results


class TestModePath:
    def test_transverse_modes_diagonalize_the_laplacian(self):
        # u_k is a unit eigenvector of -laplacian_perp at lambda_k, the basis is
        # orthonormal, and the time operators are the mode blocks of A
        for dims, bc in [((4, 5), "box"), ((4, 6), "torus"), ((2, 3, 4), "torus"),
                         ((4, 2, 3), "box"), ((2, 2), "torus")]:
            model = LatticeModel(dims, 0.7, bc)
            modes = lattice.transverse_modes(model)
            U = modes.matrix()
            S = U.shape[0]
            assert np.abs(U.T @ U - np.eye(S)).max() < 1e-13
            perp = lattice_operator(LatticeModel((2,) + dims[1:], 0.7, bc))[:S, :S]
            perp -= (2 + 0.7) * np.eye(S)   # drop the time axis' diagonal and the mass
            assert np.abs(perp @ U - U * modes.lam).max() < 1e-13
            for k in range(S):
                assert np.array_equal(modes.vector(k), U[:, k])
            T = lattice.time_operators(model.mass2 + modes.lam, dims[0], bc == "torus")
            Um = np.kron(np.eye(dims[0]), U)
            Am = Um.T @ lattice_operator(model) @ Um
            for k in range(S):
                assert np.abs(Am[k::S, k::S] - T[k]).max() < 1e-13

    def test_verdict_path_forms_nothing_of_site_size(self, monkeypatch):
        # neither green nor the scan calls lattice_operator or allocates an array
        # of n/2 x n/2 entries (64^2: 33.5 MB); traced numpy memory stays far
        # below one such array (the scan's S time operators are 2 MB)
        import tracemalloc

        from rpkit.cli import run_stochastic

        def no_dense(model):
            raise AssertionError("lattice_operator was called")

        monkeypatch.setattr(lattice, "lattice_operator", no_dense)
        dims = [64, 64]
        half_block = (64 * 64 // 2) ** 2 * 8
        for run, cfg in [(run_green, {"dims": dims, "mass2": 1.0, "bc": "torus"}),
                         (run_stochastic, {"dims": dims, "mass2": 1.0, "t_grid": [0.25, 100.0]})]:
            tracemalloc.start()
            try:
                run(cfg, VIOLATION_TOL if run is run_stochastic else 1e-10, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < half_block / 4

    def test_budget_refuses_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        # the refusal reads only the dims: numpy is never touched
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} was used before the refusal")

        monkeypatch.setattr(lattice, "MODE_ENTRIES", 100)
        monkeypatch.setattr(lattice, "np", NoNumpy())
        with pytest.raises(SizeLimit, match="S Nt\\^2 \\+ n \\+ sum L\\^2 = 224 entries"):
            LatticeModel((4, 8), 1.0, "box")            # 8 * 4^2 + 32 + 8^2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [4, 8], "mass2": 1.0, "t_grid": [1.0]}))
        assert main(["stochastic", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("rpkit: size cap exceeded: lattice [4, 8]")

    @pytest.mark.parametrize("command", ["green", "stochastic"])
    def test_budget_counts_transverse_bases(self, tmp_path, capsys, monkeypatch, command):
        # [2, 100000] has S Nt^2 + n = 6e5, far under the budget, but its
        # transverse basis is 100000^2 entries (80 GB): refused on the dims,
        # before numpy is touched
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} was used before the refusal")

        monkeypatch.setattr(lattice, "np", NoNumpy())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [2, 100000], "mass2": 1.0, "t_grid": [1.0]}))
        assert main([command, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("rpkit: size cap exceeded: lattice [2, 100000]")
        assert "= 10000600000 entries" in err

    def test_large_lattices_pass(self):
        # 256^2 green (65,536 sites) and a 64^2 scan, far past the dense oracle,
        # against the properties the dense oracle shows at small size: n/2 -
        # cut exact zeros, a positive cut spectrum, exit 0; a violated early
        # row and a clean t = 100 row
        from rpkit.cli import run_stochastic

        verdict, results = run_green({"dims": [256, 256], "mass2": 0.5}, 1e-10, None)
        assert verdict == POSITIVE and results["verdicts_agree"]
        assert results["cut_size"] == 256 and results["covariance_rp_min_eig"] == 0.0
        rep = covariance_rp(green_set(LatticeModel((256, 256), 0.5, "box")))
        h = 256 * 256 // 2
        assert not rep.eigenvalues[:h - 256].any() and rep.eigenvalues[h - 256] > 0
        verdict, results = run_stochastic(
            {"dims": [64, 64], "mass2": 1.0, "t_grid": [0.25, 1.0, 100.0]}, VIOLATION_TOL, None)
        rows = results["rows"]
        assert verdict == NEGATIVE and rows[0]["violated"]
        assert not rows[-1]["violated"] and rows[-1]["min_eig"] >= -1e-9

    @pytest.mark.parametrize("t_grid", [[1.0], [0.0, 1.0]], ids=["t1", "t0-t1"])
    def test_scan_refuses_zero_block(self, tmp_path, capsys, t_grid):
        # C_t underflows to a zero reflected block at mass2 1e300, which read as
        # "positive" with min_eig 0.0 (exit 0); t = 0 alone stays a zero row
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [4], "mass2": 1e300, "t_grid": t_grid}))
        assert main(["stochastic", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("rpkit: invalid config:") and "mass2" in err and "zero" in err
        scan = stochastic_rp_scan(LatticeModel((4,), 1e300), [0.0])
        assert scan.rows == [(0.0, 0.0, False)]

    def test_green_names_the_worst_mode(self):
        # the witness is the worst mode's time vector (x) its transverse vector
        model = LatticeModel((2, 6), 1.0, "box")
        gs = green_set(model)
        rep = covariance_rp(gs)
        k = rep.mode[0]
        u = lattice.transverse_modes(model).vector(k)
        assert abs(abs(rep.witness @ u) - 1.0) < 1e-14     # one time row: the witness is +-u
        lam = np.linalg.eigvalsh(gs.cut_form[1])
        assert k == int(np.argmin(lam[:, 0])) and rep.min_eig == lam[k, 0]
        assert run_green({"dims": [2, 6], "mass2": 1.0}, 1e-10, None)[1]["worst_mode"] == [k]
        assert run_green({"dims": [8], "mass2": 1.0}, 1e-10, None)[1]["worst_mode"] == []


# ---------------------------------------------------------------------------
# dense oracles: the per-site loops and reflection products the fast paths replace
# ---------------------------------------------------------------------------

def _loop_operator(model):
    idx = {s: i for i, s in enumerate(model.sites)}
    A = np.zeros((len(idx), len(idx)))
    for s, i in idx.items():
        A[i, i] = 2 * len(model.dims) + model.mass2
        for ax, L in enumerate(model.dims):
            for delta in (-1, 1):
                t = list(s)
                t[ax] += delta
                if model.bc == "torus":
                    t[ax] %= L
                elif not 0 <= t[ax] < L:
                    continue
                A[i, idx[tuple(t)]] -= 1.0
    return A


def _loop_reflection(model):
    idx = {s: i for i, s in enumerate(model.sites)}
    R = np.zeros((len(idx), len(idx)))
    for s, i in idx.items():
        R[i, idx[reflect(model, s)]] = 1.0
    return R


def _loop_half(model):
    return [i for i, s in enumerate(model.sites) if s[0] >= model.dims[0] // 2]


def _loop_half_operator(model, sign):
    half = _loop_half(model)
    Ah = _loop_operator(model)[np.ix_(half, half)]
    Nt = model.dims[0]
    for k, i in enumerate(half):
        t = model.sites[i][0]
        cuts = int(t == Nt // 2) + int(model.bc == "torus" and t == Nt - 1)
        if cuts:
            Ah[k, k] += sign * cuts
    return np.linalg.inv(Ah)


def _loop_covariance(R, C, fns):
    """G_ij = (R f_i) @ C @ f_j entry by entry, associated left to right."""
    G = np.zeros((len(fns), len(fns)))
    for i, fi in enumerate(fns):
        row = (R @ fi) @ C
        for j, fj in enumerate(fns):
            G[i, j] = row @ fj
    return G


def _deltas(n, idx):
    return [np.eye(n)[i] for i in idx]


@st.composite
def lattice_models(draw):
    """Boxes and tori in 1-3 dimensions with at most 216 sites."""
    nd = draw(st.integers(1, 3))
    k_max, axis_max = {1: (108, 216), 2: (7, 14), 3: (3, 6)}[nd]
    dims = [2 * draw(st.integers(1, k_max))]
    dims += [draw(st.integers(2, axis_max)) for _ in range(nd - 1)]
    return LatticeModel(tuple(dims), draw(st.floats(1e-3, 10.0)),
                        draw(st.sampled_from(["box", "torus"])))


def _round_off(model, C) -> float:
    """The distance allowed between the cut block and the dense slice.

    Both are backward stable, so each lies within about eps cond(A) max|C| of
    the exact block, and cond(A) <= (4 len(dims) + mass2) / mass2 (||A|| <=
    4 len(dims) + mass2, A >= mass2).  The worst ratio seen over 400 draws of
    lattice_models() and the ten benchmark shapes was 0.64 of that scale, at
    mass2 near 1e-3 on tori (2.3e-13 max|C|).
    """
    kappa = (4 * len(model.dims) + model.mass2) / model.mass2
    return 8 * np.finfo(float).eps * kappa * np.abs(C).max()


def _scan_round_off(model, t) -> float:
    """The entrywise distance allowed between the mode path's C_t and the dense one.

    Both take C_t = g(A), g(w) = (1 - exp(-2 t w)) / w, from a backward-stable
    eigendecomposition, exact for some A + E with |E| ~ eps ||A||.  w g'(w) /
    g(w) lies in (-1, 0], so g moves by at most the relative error of w,
    eps ||A|| / w <= eps kappa, and g <= g(mass2) on the spectrum (g
    decreases): the error is of order eps kappa g(mass2), with the kappa of
    _round_off, and max|C_t| <= ||C_t|| = g(w_min) <= g(mass2).  At t = 0 both
    are exact zeros.  The worst ratio seen over 60 draws of lattice_models()
    at the eight t values of the test (half-size Weyl factor included) was
    0.023 of the eigenvalue bound len(half) * _scan_round_off.
    """
    kappa = (4 * len(model.dims) + model.mass2) / model.mass2
    return 8 * np.finfo(float).eps * kappa * -np.expm1(-2 * t * model.mass2) / model.mass2


class TestDenseOracles:
    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_geometry_matches_loops(self, model):
        assert np.array_equal(lattice_operator(model), _loop_operator(model))
        R = _loop_reflection(model)
        assert np.array_equal(reflection_matrix(model), R)
        assert model.half_indices() == _loop_half(model)
        assert np.array_equal(dirichlet_half_green(model), _loop_half_operator(model, +1.0))
        assert np.array_equal(neumann_half_green(model), _loop_half_operator(model, -1.0))

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_green_set_matches_reflection_products(self, model):
        gs = green_set(model)
        assert gs.half == _loop_half(model)
        C = dense_green(model)
        assert np.array_equal(C, np.linalg.inv(_loop_operator(model)))
        C_D, C_N = _image_charges(model, C)
        scale = np.abs(C).max()
        # stencil cross-check of the image charges (worst seen 3e-14 relative)
        assert np.abs(C_D - dirichlet_half_green(model)).max() <= 1e-10 * scale
        assert np.abs(C_N - neumann_half_green(model)).max() <= 1e-10 * scale
        D = C_N - C_D
        D = (D + D.T) / 2
        B = gs.block
        assert np.abs((B + B.T) - D).max() <= 2 * _round_off(model, C)

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    @example(model=LatticeModel((2,), 0.7, "torus"))
    @example(model=LatticeModel((2, 5), 0.3, "torus"))
    @example(model=LatticeModel((2, 3, 4), 2.0, "torus"))
    @example(model=LatticeModel((2, 6), 1.0, "box"))
    @example(model=LatticeModel((4, 4), 0.5, "torus"))
    @example(model=LatticeModel((16,), 1e-3, "torus"))
    @example(model=LatticeModel((2, 2, 5), 1.3e-3, "torus"))
    def test_cut_form_matches_dense_oracle(self, model):
        # the mode path against the dense slice and the whole-lattice cut form
        gs = green_set(model)
        C = dense_green(model)
        D = dense_block(model, C)
        tol = _round_off(model, C)
        assert np.abs(gs.block - D).max() <= tol
        row = int(np.prod(model.dims[1:]))
        two_planes = model.bc == "torus" and model.dims[0] >= 4
        assert gs.cut_size == row * (2 if two_planes else 1)
        assert gs.K.shape == (row, model.dims[0] // 2, 2 if two_planes else 1)
        assert np.linalg.matrix_rank(D) == gs.cut_size
        K, W = whole_cut_form(model)
        assert K.shape[1] == gs.cut_size

        rep, want = covariance_rp(gs), gram_report_from_matrix(D, gs.half)
        assert rep.matrix is None and rep.eigenvectors is None
        assert rep.verdict == want.verdict == POSITIVE
        assert monotonicity_verdict(gs).verdict == rep.verdict
        h, c = len(gs.half), gs.cut_size
        # Weyl: an eigenvalue moves by at most ||dB||_2 <= (n/2) max|dB|
        assert np.abs(rep.eigenvalues[h - c:] - want.eigenvalues[h - c:]).max() <= h * tol
        assert np.abs(rep.eigenvalues - cut_spectrum(K, W)[0]).max() <= h * tol
        # the kernel: n/2 - cut exact zeros
        assert rep.eigenvalues[h - c] > 0 and not rep.eigenvalues[:h - c].any()
        assert rep.min_eig == (0.0 if h > c else rep.eigenvalues[0])
        assert not rep.marginal
        # the witness: a unit vector of the worst mode, in the kernel when the
        # minimum is its exact zero, else an eigenvector at min_eig
        w = rep.witness
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        assert len(rep.mode) == len(model.dims) - 1
        assert np.abs(D @ w - rep.min_eig * w).max() <= h * tol + 1e-13 * rep.eigenvalues[-1]
        if h > c:
            # a kernel witness tau (x) u_k, tau in the complement of range(K_k)
            k = int(np.ravel_multi_index(rep.mode, model.dims[1:])) if rep.mode else 0
            tau = w.reshape(gs.K.shape[1], -1) @ gs.modes.vector(k)
            assert abs(np.linalg.norm(tau) - 1.0) < 1e-12
            assert np.abs(gs.K[k].T @ tau).max() < 1e-12 * np.abs(gs.K[k]).max()

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models(), seed=st.integers(0, 2**32 - 1))
    def test_covariance_rp_matches_loop(self, model, seed):
        # the oracle slice equals the loop bit for bit; the cut form is within round-off
        gs = green_set(model)
        C = dense_green(model)
        R = _loop_reflection(model)
        n = C.shape[0]
        labels = [model.sites[i] for i in gs.half]
        want = gram_report_from_matrix(
            _loop_covariance(R, C, _deltas(n, gs.half)), labels)
        oracle = gram_report_from_matrix(dense_block(model, C), labels)
        assert oracle.basis == want.basis
        assert oracle.herm_defect == want.herm_defect       # the raw Gram, before symmetrizing
        assert np.array_equal(oracle.matrix, want.matrix)
        assert oracle.min_eig == want.min_eig and np.array_equal(oracle.witness, want.witness)
        tol = _round_off(model, C)
        rep = covariance_rp(gs)
        assert rep.basis == want.basis and rep.verdict == want.verdict
        assert np.abs((gs.block + gs.block.T) / 2 - want.matrix).max() <= tol
        assert np.abs(rep.eigenvalues - want.eigenvalues).max() <= len(gs.half) * tol

        rng = np.random.default_rng(seed)
        fns = []
        for _ in range(int(rng.integers(1, 8))):
            f = np.zeros(n)
            f[gs.half] = rng.normal(size=len(gs.half))
            fns.append(f)
        want = _loop_covariance(R, C, fns)
        want = (want + want.T) / 2
        got = covariance_rp(gs, fns).matrix
        # |f dB g^T| <= |f|_1 |g|_1 max|dB|
        l1 = np.abs(np.array(fns)).sum(axis=1).max()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max() + l1**2 * tol

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_monotonicity_matches_doubled_block_eigh(self, model):
        # the scaled covariance report against a solve of 2 (R C)[half, half]
        gs = green_set(model)
        half = _loop_half(model)
        C = dense_green(model)
        want = gram_report_from_matrix(
            2 * (_loop_reflection(model) @ C)[np.ix_(half, half)], gs.half)
        rep = monotonicity_verdict(gs)
        cov = covariance_rp(gs)
        tol = 2 * _round_off(model, C)
        assert rep.verdict == want.verdict
        assert np.abs((gs.block + gs.block.T) - want.matrix).max() <= tol
        assert np.abs(rep.eigenvalues - want.eigenvalues).max() <= len(half) * tol
        # the scaling is exact: one spectrum serves both reports
        assert np.array_equal(rep.eigenvalues, 2 * cov.eigenvalues)
        assert np.array_equal(rep.witness, cov.witness) and rep.mode == cov.mode
        assert rep.min_eig == 2 * cov.min_eig and rep.herm_defect == 2 * cov.herm_defect

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_chain_transfer_gram_and_shift(self, model):
        if model.bc == "torus":
            # the positive half meets the negative half at both ends: no transfer
            with pytest.raises(InvalidGeometry, match="needs a box"):
                chain_transfer(green_set(model))
            return
        if model.dims[0] == 2:
            # the half is one time row, which the shift moves off the chain
            with pytest.raises(InvalidGeometry, match="two or more time rows"):
                chain_transfer(green_set(model))
            return
        seen = {}

        def capture_report(report, _real=lattice.quantize):
            seen.update(report=report)
            return _real(report)

        def capture(M, shifted, quotient):
            seen.update(M=M, shifted=shifted, quotient=quotient)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "quantize", capture_report)
            mp.setattr(lattice, "compress_shift", capture)
            chain_transfer(green_set(model), tol=1e-9)
        C = np.linalg.inv(_loop_operator(model))
        half = _loop_half(model)
        assert np.array_equal(seen["M"][1:, 1:], green_set(model).block)
        dense = (_loop_reflection(model) @ C)[np.ix_(half, half)]
        assert np.abs(seen["M"][1:, 1:] - dense).max() <= _round_off(model, C)
        assert seen["M"][0, 0] == 1.0 and not seen["M"][0, 1:].any()
        Ms = (seen["M"] + seen["M"].conj().T) / 2      # the window Gram the quotient splits
        assert np.array_equal(seen["report"].matrix, Ms)
        assert seen["report"].tol == 1e-9
        assert seen["quotient"].rank == int((np.linalg.eigvalsh(Ms) > 1e-9).sum())
        pos = {model.sites[i]: k + 1 for k, i in enumerate(half)}
        want = [0] + [pos.get((model.sites[i][0] + 1,) + model.sites[i][1:]) for i in half]
        assert seen["shifted"] == want

    @settings(max_examples=25, deadline=None)
    @given(model=lattice_models(),
           ts=st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 100.0]),
                       min_size=1, max_size=4))
    @example(model=LatticeModel((16,), 1e-3, "torus"), ts=[0.25, 100.0])
    @example(model=LatticeModel((2, 2, 5), 1.3e-3, "torus"), ts=[0.0, 0.1, 2.0])
    @example(model=LatticeModel((4, 4), 0.5, "torus"), ts=[0.05, 1.0])
    def test_stochastic_scan_matches_per_t_eigh(self, model, ts):
        # the mode path sums in another order than the dense C_t, so the rows
        # agree within the bound of _scan_round_off, not bit for bit
        scan = stochastic_rp_scan(model, ts)
        R = _loop_reflection(model)
        half = _loop_half(model)
        deltas = _deltas(R.shape[0], half)
        w, V = np.linalg.eigh(_loop_operator(model))
        wit_t = None
        assert [row[0] for row in scan.rows] == ts
        for t, min_eig, violated in scan.rows:
            Ct = (V * ((1.0 - np.exp(-2.0 * t * w)) / w)) @ V.T
            rep = gram_report_from_matrix(_loop_covariance(R, Ct, deltas), half)
            bound = len(half) * _scan_round_off(model, t)     # Weyl, as for green
            assert abs(min_eig - rep.min_eig) <= bound
            assert violated == (min_eig < -VIOLATION_TOL)
            if abs(rep.min_eig + VIOLATION_TOL) > bound:
                assert violated == (rep.min_eig < -VIOLATION_TOL)
            if violated and wit_t is None:
                wit_t = t
                x = scan.witness
                assert abs(np.linalg.norm(x) - 1.0) < 1e-12
                G = rep.matrix
                assert abs(x @ G @ x - rep.min_eig) <= 2 * bound + 1e-13 * np.abs(G).max()
        assert scan.witness_t == wit_t
        assert (wit_t is None) == (scan.witness is None)
