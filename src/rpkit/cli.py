"""Command-line front end: config in, verdicts and machine-readable reports out.

Exit codes: 0 positive verdicts, 1 negative (violation found), 2
not-applicable or reconstruction failure, 3 config/parse error, 4 size cap
exceeded, 5 I/O failure.  Reports are written atomically; identical config
and seed give byte-identical output (timing is only included on --timing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .algebra import Algebra, AlgebraConfig, StateFunctional, build_algebra, theta
from .boxes import Box22, adjoint, rot_pi, sft, star_product
from .boxes import theta as theta_box
from .chains import uniform_chain_state
from .errors import (InvalidArgument, InvalidConfig, InvalidGeometry, InvalidState,
                     RpkitError, SizeLimit, WrongHalf)
from .lattice import (LatticeModel, chain_gap, covariance_rp, green_set,
                      monotonicity_verdict, stochastic_rp_scan)
from .reconstruction import quantize, spectrum_report, transfer_operator
from .report import CONVENTIONS, curve_csv, to_text, truncate_witness
from .verifier import (NEGATIVE, NOT_APPLICABLE, POSITIVE, coupling_decomposition,
                       draw_generic_hamiltonian, draw_theorem_hamiltonian, gram,
                       plus_basis, sft_positivity, sft_positivity_sequence)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_NOT_APPLICABLE = 2
EXIT_PARSE = 3
EXIT_SIZE = 4
EXIT_IO = 5


class ConfigError(Exception):
    pass


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config field '{key}' is required")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field '{key}' has wrong type {type(val).__name__}")
    return val


def _hamiltonian_from_terms(algebra, terms):
    H = algebra.zero()
    for item in terms:
        try:
            (re, im), k = item
            H = H + complex(re, im) * algebra.monomial(k)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad hamiltonian term {item!r}: {exc}") from exc
    return H


def _state_from_config(cfg, algebra, rng):
    kind = cfg.get("state", "trace")
    if kind == "trace":
        return StateFunctional(kind="trace")
    if kind != "gibbs":
        raise ConfigError(f"state must be 'trace' or 'gibbs', got {kind!r}")
    beta = float(cfg.get("beta", 1.0))
    if "hamiltonian" in cfg:
        H = _hamiltonian_from_terms(algebra, cfg["hamiltonian"])
    elif "draw" in cfg:
        family = _require(cfg["draw"], "family", str)
        if family == "theorem":
            H = draw_theorem_hamiltonian(algebra, rng)
        elif family == "generic":
            H = draw_generic_hamiltonian(algebra, rng)
        else:
            raise ConfigError(f"unknown draw family {family!r}")
    else:
        raise ConfigError("gibbs state needs 'hamiltonian' terms or a 'draw' spec")
    return StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _algebra_config(cfg):
    return AlgebraConfig(int(_require(cfg, "d")), int(_require(cfg, "m")))


def run_algebra_check(cfg, tol, rng):
    acfg = _algebra_config(cfg)
    gens = build_algebra(acfg)
    d, m, q = acfg.d, acfg.m, acfg.q
    eye = np.eye(acfg.dim)
    worst = 0.0
    for c in gens:
        p = np.linalg.matrix_power(c.rep, d)
        worst = max(worst, float(np.abs(p - eye).max()))
        worst = max(worst, float(np.abs(c.rep @ c.rep.conj().T - eye).max()))
    for i in range(m):
        for j in range(i + 1, m):
            lhs = gens[i].rep @ gens[j].rep
            rhs = q * gens[j].rep @ gens[i].rep
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    # theta preserves the relations (antilinearity conjugates q)
    for i in range(m):
        for j in range(i + 1, m):
            lhs = theta(gens[i] * gens[j]) - theta(q * (gens[j] * gens[i]))
            worst = max(worst, lhs.norm_max())
    verdict = POSITIVE if worst < tol else NEGATIVE
    return verdict, {"relation_residual": worst, "gate": tol, "dimension": acfg.dim}


def run_rp_gram(cfg, tol, rng):
    algebra = Algebra(_algebra_config(cfg))
    omega = _state_from_config(cfg, algebra, rng)
    basis = plus_basis(algebra.cfg, cfg.get("max_grade"))
    rep = gram(omega, algebra, basis, tol)
    results = {
        "verdict": rep.verdict,
        "min_eig": rep.min_eig,
        "psd": rep.psd,
        "marginal": rep.marginal,
        "hermiticity_defect": rep.herm_defect,
        "reflection_defect": rep.reflection_defect,
        "basis_size": len(basis),
        "matrix": rep.matrix,
        "witness": truncate_witness(rep.witness),
    }
    if omega.kind == "gibbs":
        dec = coupling_decomposition(omega.hamiltonian)
        sv = sft_positivity(dec)
        results["sft_verdict"] = sv.verdict
        results["sft_reason"] = sv.reason
        results["residual_norm"] = dec.residual.norm_max()
    return rep.verdict, results


def run_reconstruct(cfg, tol, rng):
    algebra = Algebra(_algebra_config(cfg))
    if "chain" in cfg:
        ch = cfg["chain"]
        omega = uniform_chain_state(algebra, float(ch.get("coupling", 1.0)),
                                    float(ch.get("beta", 1.0)))
    else:
        omega = _state_from_config(cfg, algebra, rng)
    room = int(cfg.get("basis_room", 0))
    steps = int(cfg.get("steps", 1))
    basis = [k for k in plus_basis(algebra.cfg)
             if not any(k[algebra.cfg.m - room:])] if room else plus_basis(algebra.cfg)
    greport = gram(omega, algebra, basis, tol)
    if greport.verdict != POSITIVE:
        return NOT_APPLICABLE, {"gram_verdict": greport.verdict,
                                "min_eig": greport.min_eig}
    q = quantize(greport)
    td = transfer_operator(omega, algebra, basis, q, steps=steps)
    spec = spectrum_report(td)
    evT = np.sort(np.linalg.eigvalsh(td.transfer))
    results = {
        "verdict": POSITIVE,
        "gram_min_eig": greport.min_eig,
        "rank": q.rank,
        "nullity": len(basis) - q.rank,
        "transfer_eigenvalues": evT,
        "transfer_asymmetry": td.asymmetry,
        "normalization": td.normalization,
        "kernel_dim": td.kernel_dim,
        "shift_defect": td.shift_defect,
        "hamiltonian_spectrum": spec.eigenvalues,
        "gap": spec.gap,
        "dt": td.dt,
    }
    if evT.size and (evT[0] < -1e-9 or evT[-1] > 1 + 1e-10):
        results["verdict"] = NEGATIVE
    return results["verdict"], results


def _lattice_model(cfg):
    return LatticeModel(dims=tuple(_require(cfg, "dims", list)),
                        mass2=float(_require(cfg, "mass2")),
                        bc=cfg.get("bc", "box"))


def run_green(cfg, tol, rng):
    model = _lattice_model(cfg)
    gs = green_set(model)
    mono = monotonicity_verdict(gs, tol)
    cov = covariance_rp(gs, tol=tol)
    results = {
        "verdict": mono.verdict,
        "monotonicity_min_eig": mono.min_eig,
        "covariance_rp_verdict": cov.verdict,
        "covariance_rp_min_eig": cov.min_eig,
        "verdicts_agree": mono.verdict == cov.verdict,
        "witness": truncate_witness(mono.witness),
    }
    if len(model.dims) == 1:
        results["chain_gap"] = chain_gap(model)[0]
    return mono.verdict, results


def run_stochastic(cfg, tol, rng):
    model = _lattice_model(cfg)
    ts = [float(t) for t in _require(cfg, "t_grid", list)]
    scan = stochastic_rp_scan(model, ts)
    any_violation = any(v for _, _, v in scan.rows)
    results = {
        "verdict": NEGATIVE if any_violation else POSITIVE,
        "rows": [{"t": t, "min_eig": me, "violated": v} for t, me, v in scan.rows],
        "witness_t": scan.witness_t,
        "witness": truncate_witness(scan.witness),
    }
    return results["verdict"], results


def run_sft_check(cfg, tol, rng):
    d = int(cfg.get("d", 2))
    results = {}
    if "sequence" in cfg:
        sv = sft_positivity_sequence([complex(x) for x in cfg["sequence"]], d, tol)
        results["verdict"] = sv.verdict
        results["dft"] = sv.eigenvalues
        results["reason"] = sv.reason
        return sv.verdict, results
    count = int(cfg.get("boxes", 20))
    worst_rot = 0.0
    worst_sft4 = 0.0
    worst_conv = 0.0
    for _ in range(count):
        T = Box22(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)), d)
        S = Box22(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)), d)
        worst_rot = max(worst_rot, float(np.abs(rot_pi(theta_box(T)).data
                                                - adjoint(T).data).max()))
        X = T
        for _ in range(4):
            X = sft(X)
        worst_sft4 = max(worst_sft4, float(np.abs(X.data - T.data).max()))
        worst_conv = max(worst_conv, float(np.abs(
            sft(T @ S).data - star_product(sft(T), sft(S)).data).max()))
    ok = max(worst_rot, worst_sft4, worst_conv) <= tol
    results = {
        "verdict": POSITIVE if ok else NEGATIVE,
        "rotation_identity_residual": worst_rot,
        "sft4_residual": worst_sft4,
        "convolution_residual": worst_conv,
        "boxes": count,
    }
    return results["verdict"], results


COMMANDS = {
    "algebra-check": run_algebra_check,
    "rp-gram": run_rp_gram,
    "reconstruct": run_reconstruct,
    "green": run_green,
    "stochastic": run_stochastic,
    "sft-check": run_sft_check,
}


def _default_tol(command, cfg) -> float:
    """Exact identities (relations, box pictures) use 1e-12; spectral gates 1e-10."""
    if command == "algebra-check" or (command == "sft-check" and "sequence" not in cfg):
        return 1e-12
    return 1e-10


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rpkit",
                                     description="reflection positivity verification toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("structured", "csv"), default="structured")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte-determinism)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"rpkit: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"rpkit: config parse error at line {exc.lineno} col {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_PARSE

    if "command" in cfg and cfg["command"] != args.command:
        print(f"rpkit: config command {cfg['command']!r} does not match {args.command!r}",
              file=sys.stderr)
        return EXIT_PARSE
    if args.format == "csv" and args.command != "stochastic":
        print("rpkit: csv format is only defined for stochastic curves", file=sys.stderr)
        return EXIT_PARSE

    rng = np.random.default_rng(args.seed)
    tol = _default_tol(args.command, cfg) if args.tol is None else args.tol
    t0 = time.perf_counter()
    try:
        verdict, results = COMMANDS[args.command](cfg, tol, rng)
    except ConfigError as exc:
        print(f"rpkit: config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimit as exc:
        print(f"rpkit: size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (InvalidConfig, InvalidArgument, InvalidGeometry, InvalidState,
            WrongHalf) as exc:
        print(f"rpkit: invalid config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RpkitError as exc:   # refusals: precondition or reconstruction failure
        print(f"rpkit: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE

    report = {
        "tool": {"name": "rpkit", "version": __version__},
        "conventions": CONVENTIONS,
        "config": cfg,
        "command": args.command,
        "seed": args.seed,
        "results": results,
    }
    if args.timing:
        report["timing"] = {"seconds": time.perf_counter() - t0}

    try:
        if args.format == "csv":
            _emit(curve_csv([(r["t"], r["min_eig"], r["violated"])
                             for r in results["rows"]]), args.out)
        else:
            _emit(to_text(report), args.out)
    except OSError as exc:
        print(f"rpkit: cannot write report: {exc}", file=sys.stderr)
        return EXIT_IO

    if verdict == POSITIVE:
        return EXIT_POSITIVE
    if verdict == NEGATIVE:
        return EXIT_NEGATIVE
    return EXIT_NOT_APPLICABLE


if __name__ == "__main__":
    sys.exit(main())
