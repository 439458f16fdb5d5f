"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a PASS/FAIL line that pytest prints in the terminal
summary (see conftest.pytest_terminal_summary).
"""

import json
import time

import numpy as np

from rpkit.algebra import DEFAULT_CAP, AlgebraConfig, StateFunctional, build_algebra, theta
from rpkit.boxes import (Box22, adjoint, cyclic_convolve, dft_zd, group_box, rot_pi,
                         sft, star_product)
from rpkit.boxes import theta as theta_box
from rpkit.chains import uniform_chain_state
from rpkit.cli import main as cli_main
from rpkit.errors import PreconditionViolation
from rpkit.lattice import (LatticeModel, chain_gap, covariance_rp, green_set, lattice_operator,
                           monotonicity_verdict, stochastic_covariance, stochastic_rp_scan)
from rpkit.reconstruction import quantize, time_shift
from rpkit.report import curve_csv
from rpkit.verifier import (NEGATIVE, POSITIVE, coupling_decomposition,
                            draw_generic_hamiltonian, draw_theorem_hamiltonian, gram,
                            plus_basis, sft_positivity)

from conftest import acceptance_lines, family_form, make_algebra, random_element
from lattice_oracles import counterexample_covariance, covariance_green_set


def record(index, ok, detail):
    line = f"criterion {index:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


MASTER_SEED = 20170331


def theorem_suite():
    """The seeded criterion-4 instance list: (algebra, H, beta) triples."""
    rng = np.random.default_rng(MASTER_SEED)
    instances = []
    betas = (0.5, 1.0, 2.0)
    for i in range(100):
        m = 2 if i % 2 == 0 else 4
        alg = make_algebra(2, m)
        H = draw_theorem_hamiltonian(alg, rng)
        instances.append((alg, H, betas[i % 3]))
    for i in range(20):
        alg = make_algebra(3, 2)
        H = draw_theorem_hamiltonian(alg, rng)
        instances.append((alg, H, betas[i % 3]))
    return instances


def test_criterion_1_algebra_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4):
        for m in (2, 4, 6):
            cfg = AlgebraConfig(d, m)
            if cfg.dim > DEFAULT_CAP:
                continue
            gens = build_algebra(cfg)
            q = cfg.q
            eye = np.eye(cfg.dim)
            for c in gens:
                worst = max(worst, np.abs(np.linalg.matrix_power(c.rep, d) - eye).max())
            for i in range(m):
                for j in range(i + 1, m):
                    res = gens[i].rep @ gens[j].rep - q * gens[j].rep @ gens[i].rep
                    worst = max(worst, np.abs(res).max())
    elapsed = time.perf_counter() - t0
    record(1, worst < 1e-12 and elapsed < 10.0,
           f"relation residual {worst:.2e} (< 1e-12), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_2_reflection_identities():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst = 0.0
    cases = [(2, 4), (3, 2), (4, 4), (2, 6), (3, 4)]
    for i in range(100):
        d, m = cases[i % len(cases)]
        alg = make_algebra(d, m)
        A = random_element(alg, rng)
        B = random_element(alg, rng)
        lam = complex(rng.normal(), rng.normal())
        worst = max(worst, (theta(theta(A)) - A).norm_max())
        worst = max(worst, (theta(A * B) - theta(A) * theta(B)).norm_max())
        worst = max(worst, (theta(lam * A) - np.conj(lam) * theta(A)).norm_max())
    record(2, worst < 1e-12, f"theta identity residual {worst:.2e} (< 1e-12) on 100 draws")


def test_criterion_3_pictorial_identities():
    rng = np.random.default_rng(MASTER_SEED + 2)
    worst_rot = 0.0
    worst_sft4 = 0.0
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        n = d * d
        T = Box22(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), d)
        worst_rot = max(worst_rot,
                        np.abs(rot_pi(theta_box(T)).data - adjoint(T).data).max())
        X = T
        for _ in range(4):
            X = sft(X)
        worst_sft4 = max(worst_sft4, np.abs(X.data - T.data).max())
    worst_conv = 0.0
    for d in (2, 3, 4):
        for _ in range(10):
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            bu, bv = group_box(u), group_box(v)
            res = sft(bu @ bv).data - star_product(sft(bu), sft(bv)).data
            worst_conv = max(worst_conv, np.abs(res).max())
            worst_conv = max(worst_conv,
                             np.abs(dft_zd(cyclic_convolve(u, v)) - dft_zd(u) * dft_zd(v)).max())
    ok = worst_rot == 0.0 and worst_sft4 == 0.0 and worst_conv < 1e-12
    record(3, ok, f"rot/theta exact ({worst_rot:.1e}), sft^4 exact ({worst_sft4:.1e}), "
                  f"convolution residual {worst_conv:.2e} (< 1e-12)")


def test_criterion_4_rp_theorem_suite():
    t0 = time.perf_counter()
    instances = theorem_suite()
    worst = np.inf
    for alg, H, beta in instances:
        dec = coupling_decomposition(H)
        assert dec.residual.norm_max() <= 1e-10
        assert sft_positivity(dec).verdict == POSITIVE
        om = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
        rep = gram(om, alg, plus_basis(alg.cfg))
        worst = min(worst, rep.min_eig)
    elapsed = time.perf_counter() - t0
    record(4, worst >= -1e-9 and elapsed < 60.0,
           f"120 theorem-class Grams, worst min eig {worst:+.2e} (>= -1e-9), "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_5_violation_detection():
    rng = np.random.default_rng(MASTER_SEED + 3)
    hits = 0
    worst_cert = 0.0
    most_negative = 0.0
    checked = 0
    for i in range(100):
        d, m = (2, 4) if i % 3 else (2, 2)
        alg = make_algebra(d, m)
        H = draw_generic_hamiltonian(alg, rng)
        sv = sft_positivity(coupling_decomposition(H))
        if sv.verdict == POSITIVE:
            continue
        checked += 1
        for beta in (0.5, 1.0, 2.0):
            om = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
            rep = gram(om, alg, plus_basis(alg.cfg))
            if rep.min_eig < -1e-6:
                hits += 1
                v = rep.witness
                worst_cert = max(worst_cert,
                                 abs(np.real(v.conj() @ rep.matrix @ v) - rep.min_eig))
                most_negative = min(most_negative, rep.min_eig)
                break
    ok = hits >= 1 and worst_cert < 1e-10 and checked >= 90
    record(5, ok, f"{hits}/{checked} SFT-failing draws violate (min eig {most_negative:+.2e}"
                  f" < -1e-6), witness certification error {worst_cert:.1e} (< 1e-10)")


def _shift_matrix(cfg, basis, steps):
    index = {k: i for i, k in enumerate(basis)}
    S = np.zeros((len(basis), len(basis)))
    for j, k in enumerate(basis):
        sk = time_shift(k, steps, cfg)
        if sk is not None and sk in index:
            S[index[sk], j] = 1.0
    return S


def test_criterion_6_os_reconstruction():
    """Every theorem-suite instance quantizes; the transfer contract (0 <= T,
    ‖T‖ <= 1 + 1e-10, H >= -1e-9, null mapping, semigroup) holds on every
    instance the construction admits, and the rest are refused through the
    stated preconditions (shift invariance / well-definedness), never built
    silently wrong."""
    from rpkit.reconstruction import transfer_operator

    instances = theorem_suite()
    worst_null = 0.0
    worst_sg = 0.0
    worst_Tmin = np.inf
    worst_Tmax = -np.inf
    worst_H = np.inf
    n_full = 0
    n_refused = 0
    for alg, H, beta in instances:
        cfg = alg.cfg
        basis = plus_basis(cfg)
        om = StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)
        rep = gram(om, alg, basis)
        assert rep.psd
        q = quantize(rep)
        assert q.rank + q.null_vectors.shape[1] == len(basis)
        try:
            td = transfer_operator(*family_form(om, alg, basis, 1), q, steps=1)
        except (PreconditionViolation, Exception) as exc:
            if not isinstance(exc, PreconditionViolation):
                from rpkit.errors import ReconstructionFailure
                assert isinstance(exc, ReconstructionFailure)
            n_refused += 1
            continue
        n_full += 1
        M = rep.matrix
        S1 = _shift_matrix(cfg, basis, 1)
        for i in range(q.null_vectors.shape[1]):
            v = S1 @ q.null_vectors[:, i]
            worst_null = max(worst_null, float(np.sqrt(abs(np.real(v.conj() @ M @ v)))))
        evT = np.linalg.eigvalsh(td.transfer)
        worst_Tmin = min(worst_Tmin, float(evT.min()))
        worst_Tmax = max(worst_Tmax, float(evT.max()))
        worst_H = min(worst_H, float(td.energies.min(initial=np.inf)))
        iso = q.isometry
        T1 = iso.conj().T @ M @ S1 @ iso
        for k in (2, 3):
            Tk = iso.conj().T @ M @ _shift_matrix(cfg, basis, k) @ iso
            worst_sg = max(worst_sg, float(np.abs(Tk - np.linalg.matrix_power(T1, k)).max()))
    # dedicated shift-invariant transfer-grade family: uniform chain windows
    for m, coupling, beta in [(6, 1.0, 1.0), (8, 1.0, 1.0), (8, 0.6, 2.0)]:
        alg = make_algebra(2, m)
        om = uniform_chain_state(alg, coupling=coupling, beta=beta)
        basis = [k for k in plus_basis(alg.cfg) if not any(k[m - 2:])]
        rep = gram(om, alg, basis)
        assert rep.psd
        q = quantize(rep)
        td = transfer_operator(*family_form(om, alg, basis, 2), q, steps=2)
        evT = np.linalg.eigvalsh(td.transfer)
        worst_Tmin = min(worst_Tmin, float(evT.min()))
        worst_Tmax = max(worst_Tmax, float(evT.max()))
        worst_H = min(worst_H, float(td.energies.min(initial=np.inf)))
        n_full += 1
    ok = (worst_null <= 1e-8 and worst_sg < 1e-8 and worst_Tmin >= -1e-9
          and worst_Tmax <= 1 + 1e-10 and worst_H >= -1e-9 and n_full >= 60)
    record(6, ok, f"{n_full} instances pass the full transfer contract "
                  f"({n_refused} refused by stated preconditions): null-map "
                  f"{worst_null:.1e} (<= 1e-8), semigroup {worst_sg:.1e} (< 1e-8), "
                  f"T in [{worst_Tmin:+.1e}, {worst_Tmax:.6f}], "
                  f"min eig(H) {worst_H:+.1e} (>= -1e-9)")


def test_criterion_7_green_monotonicity():
    worst = np.inf
    agree = True
    for dims in [(64,), (32, 32), (8, 8, 8)]:
        for mass2 in (0.1, 1.0, 4.0):
            gs = green_set(LatticeModel(dims, mass2, "box"))
            v = monotonicity_verdict(gs)
            worst = min(worst, v.min_eig)
            agree &= v.verdict == covariance_rp(gs).verdict
    rng = np.random.default_rng(MASTER_SEED + 4)
    for trial in range(20):
        nd = int(rng.integers(1, 3))
        dims = tuple(int(rng.choice([4, 6, 8])) for _ in range(nd))
        model = LatticeModel(dims, float(rng.uniform(0.2, 3.0)),
                             "box" if trial % 2 else "torus")
        gs = green_set(model)
        agree &= monotonicity_verdict(gs).verdict == covariance_rp(gs).verdict
    n_negative = 0
    for trial in range(5):
        model = LatticeModel((8,), 1.0, "box")
        Cbad = counterexample_covariance(model, strength=1.0 + trial, rng=rng)
        bad = covariance_green_set(model, Cbad)
        mono = monotonicity_verdict(bad)
        cov = covariance_rp(bad)
        agree &= mono.verdict == cov.verdict
        n_negative += mono.verdict == NEGATIVE
    ok = worst >= -1e-10 and agree and n_negative == 5
    record(7, ok, f"free-field min eig(C_N - C_D) {worst:+.2e} (>= -1e-10) up to 32x32/8^3; "
                  f"verdict equivalence on those 9 + 20 models + {n_negative}/5 counterexamples")


def _kernel_gap_oracle(mass2, L=12.0, n=801):
    """Independent oracle: quadrature diagonalization of the 1-D transfer kernel
    K(x, y) = exp(-m^2 x^2/4 - (x-y)^2/2 - m^2 y^2/4)."""
    x = np.linspace(-L, L, n)
    dx = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    K = np.exp(-0.25 * mass2 * (X**2 + Y**2) - 0.5 * (X - Y) ** 2) * dx
    lam = np.sort(np.linalg.eigvalsh((K + K.T) / 2))[::-1]
    return float(np.log(lam[0] / lam[1]))


def test_criterion_8_gaussian_chain_gap():
    worst = 0.0
    details = []
    for mass2 in (0.5, 1.0, 2.0):
        oracle = _kernel_gap_oracle(mass2)
        closed = float(np.arccosh(1 + mass2 / 2))
        assert abs(oracle - closed) < 1e-8     # oracle self-consistency
        gap, diag = chain_gap(green_set(LatticeModel((32,), mass2, "box")))
        err = abs(gap - oracle)
        worst = max(worst, err)
        details.append(f"m2={mass2}: |gap-oracle|={err:.1e}")
    record(8, worst < 1e-6, "16 positive-time sites; " + ", ".join(details) + " (< 1e-6)")


def test_criterion_9_stochastic_quantization(tmp_path):
    model = LatticeModel((16,), 1.0, "box")
    scan = stochastic_rp_scan(model, [0.1, 0.25, 0.5, 1.0, 100.0])
    rows = {t: (me, v) for t, me, v in scan.rows}
    early_violation = any(me < -1e-8 for t, (me, v) in rows.items() if t <= 1.0)
    late_clean = rows[100.0][0] >= -1e-9
    C = np.linalg.inv(lattice_operator(model))
    drift = np.abs(stochastic_covariance(model, 100.0) - C).max()
    csv_text = curve_csv(scan.rows)
    lines = csv_text.strip().split("\n")
    csv_ok = lines[0] == "t,min_eig,violated" and len(lines) == 6
    (tmp_path / "scan.csv").write_text(csv_text)
    ok = early_violation and late_clean and drift < 1e-10 and csv_ok
    record(9, ok, f"violation at t<=1 (min {min(me for t, (me, v) in rows.items() if t <= 1.0):+.1e}"
                  f" < -1e-8), t=100 min {rows[100.0][0]:+.1e} (>= -1e-9), "
                  f"‖C_t - C‖ {drift:.1e} (< 1e-10), CSV emitted")


def test_criterion_10_determinism(tmp_path):
    jobs = [
        ("rp-gram", {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0,
                     "draw": {"family": "theorem"}}),
        ("rp-gram", {"d": 2, "m": 4, "state": "gibbs", "beta": 1.0,
                     "draw": {"family": "generic"}}),
        ("green", {"dims": [8], "mass2": 1.0, "bc": "box"}),
        ("stochastic", {"dims": [16], "mass2": 1.0, "bc": "box",
                        "t_grid": [0.25, 100.0]}),
        ("sft-check", {"d": 3, "boxes": 20}),
        ("algebra-check", {"d": 3, "m": 4}),
    ]
    outputs = []
    for run in range(2):
        blob = []
        for i, (cmd, cfg) in enumerate(jobs):
            cfgp = tmp_path / f"cfg{run}_{i}.json"
            cfgp.write_text(json.dumps(cfg))
            outp = tmp_path / f"out{run}_{i}.json"
            cli_main([cmd, "--config", str(cfgp), "--out", str(outp), "--seed", "777"])
            blob.append(outp.read_bytes())
        outputs.append(b"\n".join(blob))
    ok = outputs[0] == outputs[1]
    record(10, ok, f"full CLI suite x2 with seed 777: byte-identical = {ok}")
