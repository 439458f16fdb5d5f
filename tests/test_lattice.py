import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpkit import lattice
from rpkit.errors import (InvalidArgument, InvalidConfig, InvalidGeometry,
                          PreconditionViolation, SizeLimit, WrongHalf)
from rpkit.cli import main, run_green
from rpkit.lattice import (VIOLATION_TOL, GreenSet, LatticeModel, chain_gap,
                           chain_transfer, covariance_rp, green_set, lattice_operator,
                           monotonicity_verdict, stochastic_covariance, stochastic_rp_scan)
from rpkit.verifier import NEGATIVE, POSITIVE, gram_report_from_matrix

from lattice_oracles import (counterexample_covariance, dirichlet_half_green,
                             neumann_half_green, reflect, reflection_matrix,
                             schwinger_moment, site_index)


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
        with pytest.raises(SizeLimit):
            LatticeModel((100, 100), 1.0, "box")


def _image_charges(gs):
    """C_D and C_N = (C -+ C R)|half from the Green operator and the loop reflection."""
    C_r = gs.C @ _loop_reflection(gs.model)
    sel = np.ix_(gs.half, gs.half)
    return (gs.C - C_r)[sel], (gs.C + C_r)[sel]


class TestGreenSet:
    def test_image_charge_identity_exact(self):
        gs = green_set(LatticeModel((8,), 1.0, "box"))
        C_D, C_N = _image_charges(gs)
        r = gs.model.reflection_indices()
        rhs = 2 * gs.C[np.ix_(r[gs.half], gs.half)]
        assert np.abs((C_N - C_D) - rhs).max() < 1e-14

    @pytest.mark.parametrize("dims,bc", [((8,), "box"), ((8,), "torus"),
                                         ((4, 4), "box"), ((4, 4), "torus"),
                                         ((2,), "torus"), ((6, 3, 3), "box")])
    @pytest.mark.parametrize("mass2", [0.1, 1.0, 4.0])
    def test_half_operator_cross_check(self, dims, bc, mass2):
        # independent construction: adjusted half-space stencils
        model = LatticeModel(dims, mass2, bc)
        C_D, C_N = _image_charges(green_set(model))
        assert np.abs(C_D - dirichlet_half_green(model)).max() < 1e-10
        assert np.abs(C_N - neumann_half_green(model)).max() < 1e-10

    def test_monotonicity_on_free_field(self):
        C_D, C_N = _image_charges(green_set(LatticeModel((8,), 1.0, "box")))
        assert np.linalg.eigvalsh((C_N - C_D + (C_N - C_D).T) / 2).min() >= -1e-12

    def test_reflection_covariance(self):
        model = LatticeModel((6, 3), 1.0, "torus")
        gs = green_set(model)
        R = reflection_matrix(model)
        assert np.abs(R @ gs.C @ R - gs.C).max() < 1e-12
        assert np.abs(R @ R - np.eye(R.shape[0])).max() == 0.0

    def test_symmetry(self):
        gs = green_set(LatticeModel((6, 4), 0.5, "box"))
        for mat in (gs.C, *_image_charges(gs)):
            assert np.abs(mat - mat.T).max() < 1e-12


class TestMonotonicityVerdict:
    @pytest.mark.parametrize("dims", [(8,), (8, 8), (4, 4, 4)])
    def test_free_field_positive(self, dims):
        gs = green_set(LatticeModel(dims, 1.0, "box"))
        v = monotonicity_verdict(gs)
        assert v.verdict == POSITIVE
        assert v.min_eig >= -1e-10

    def test_zero_reflected_kernel_is_marginal_positive(self):
        gs = green_set(LatticeModel((8,), 1.0, "box"))
        rh = gs.model.reflection_indices()[gs.half]
        C = gs.C.copy()
        C[np.ix_(rh, gs.half)] = C[np.ix_(gs.half, rh)] = 0.0
        v = monotonicity_verdict(GreenSet(model=gs.model, C=C, half=gs.half))
        assert v.verdict == POSITIVE
        assert abs(v.min_eig) < 1e-14

    def test_counterexample_negative_with_witness(self):
        rng = np.random.default_rng(7)
        model = LatticeModel((8,), 1.0, "box")
        gs = green_set(model)
        Cbad = counterexample_covariance(gs, strength=1.0, rng=rng)
        bad = GreenSet(model=model, C=Cbad, half=gs.half)
        v = monotonicity_verdict(bad)
        assert v.verdict == NEGATIVE
        C_D, C_N = _image_charges(bad)
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
        assert abs(rep.matrix[0, 0] - gs.C[refl, site]) < 1e-14
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
        gs = green_set(model)
        bad = GreenSet(model=model, C=counterexample_covariance(
            gs, strength=1.0, rng=np.random.default_rng(7)), half=gs.half)
        assert monotonicity_verdict(bad).verdict == NEGATIVE
        with pytest.raises(PreconditionViolation):
            chain_gap(bad)

    def test_green_check_inverts_once(self, monkeypatch):
        # the chain gap reuses the GreenSet of the monotonicity check
        inv = []
        real_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inv.append(1) or real_inv(a))
        verdict, results = run_green({"dims": [16], "mass2": 1.0}, 1e-10, None)
        assert verdict == POSITIVE and "chain_gap" in results
        assert inv == [1]

    def test_green_check_decomposes_once(self, monkeypatch):
        # both verdicts read one eigendecomposition of the reflected block
        eigh = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh.append(1) or real_eigh(a))
        verdict, results = run_green({"dims": [6, 4], "mass2": 1.0}, 1e-10, None)
        assert verdict == POSITIVE and results["verdicts_agree"]
        assert results["monotonicity_min_eig"] == 2 * results["covariance_rp_min_eig"]
        assert eigh == [1]

    @pytest.mark.parametrize("sites", [4, 16])
    def test_torus_has_no_chain_gap(self, sites):
        # a torus compression is no transfer operator: refused, and green omits the gap
        gs = green_set(LatticeModel((sites,), 0.5, "torus"))
        with pytest.raises(InvalidGeometry, match="needs a box"):
            chain_gap(gs)
        verdict, results = run_green({"dims": [sites], "mass2": 0.5, "bc": "torus"},
                                     1e-10, None)
        assert verdict == POSITIVE and "chain_gap" not in results


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
        assert np.array_equal(gs.C, np.linalg.inv(_loop_operator(model)))
        C_D, C_N = _image_charges(gs)
        scale = np.abs(gs.C).max()
        # stencil cross-check of the image charges (worst seen 3e-14 relative)
        assert np.abs(C_D - dirichlet_half_green(model)).max() <= 1e-10 * scale
        assert np.abs(C_N - neumann_half_green(model)).max() <= 1e-10 * scale
        D = C_N - C_D
        D = (D + D.T) / 2
        assert np.abs(monotonicity_verdict(gs).matrix - D).max() <= 1e-14 * scale

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models(), seed=st.integers(0, 2**32 - 1))
    def test_covariance_rp_matches_loop(self, model, seed):
        gs = green_set(model)
        R = _loop_reflection(model)
        n = gs.C.shape[0]
        labels = [model.sites[i] for i in gs.half]
        want = gram_report_from_matrix(
            _loop_covariance(R, gs.C, _deltas(n, gs.half)), labels)
        rep = covariance_rp(gs)
        assert rep.basis == want.basis
        assert rep.herm_defect == want.herm_defect          # the raw Gram, before symmetrizing
        assert np.array_equal(rep.matrix, want.matrix)
        assert rep.min_eig == want.min_eig and np.array_equal(rep.witness, want.witness)

        rng = np.random.default_rng(seed)
        fns = []
        for _ in range(int(rng.integers(1, 8))):
            f = np.zeros(n)
            f[gs.half] = rng.normal(size=len(gs.half))
            fns.append(f)
        want = _loop_covariance(R, gs.C, fns)
        want = (want + want.T) / 2
        got = covariance_rp(gs, fns).matrix
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_monotonicity_matches_doubled_block_eigh(self, model):
        # the scaled covariance report against a solve of 2 (R C)[half, half]
        gs = green_set(model)
        half = _loop_half(model)
        want = gram_report_from_matrix(
            2 * (_loop_reflection(model) @ gs.C)[np.ix_(half, half)], gs.half)
        rep = monotonicity_verdict(gs)
        assert rep.verdict == want.verdict and rep.min_eig == want.min_eig
        assert rep.herm_defect == want.herm_defect and rep.marginal == want.marginal
        assert np.array_equal(rep.matrix, want.matrix)
        assert np.array_equal(rep.eigenvalues, want.eigenvalues)
        assert np.array_equal(rep.eigenvectors, want.eigenvectors)

    @settings(max_examples=40, deadline=None)
    @given(model=lattice_models())
    def test_chain_transfer_gram_and_shift(self, model):
        if model.bc == "torus":
            # the positive half meets the negative half at both ends: no transfer
            with pytest.raises(InvalidGeometry, match="needs a box"):
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
        assert np.array_equal(seen["M"][1:, 1:], (_loop_reflection(model) @ C)[np.ix_(half, half)])
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
    def test_stochastic_scan_matches_per_t_eigh(self, model, ts):
        scan = stochastic_rp_scan(model, ts)
        R = _loop_reflection(model)
        half = _loop_half(model)
        deltas = _deltas(R.shape[0], half)
        rows, wit_t, wit = [], None, None
        for t in ts:
            w, V = np.linalg.eigh(_loop_operator(model))
            Ct = (V * ((1.0 - np.exp(-2.0 * t * w)) / w)) @ V.T
            rep = gram_report_from_matrix(_loop_covariance(R, Ct, deltas), half)
            rows.append((t, rep.min_eig, rep.min_eig < -VIOLATION_TOL))
            if rows[-1][2] and wit_t is None:
                wit_t, wit = t, rep.witness
        assert scan.rows == rows
        assert scan.witness_t == wit_t
        assert (wit is None and scan.witness is None) or np.array_equal(scan.witness, wit)
