"""Command-line front end: config in, verdicts and machine-readable reports out.

Exit codes are stated once, in EXIT_OF and REFUSALS.  A verdict exits 0
positive, 1 negative (violation found) or 2 not-applicable (EXIT_OF).  A
refusal, an RpkitError, exits with the code and stderr label of the first
REFUSALS row of its type: 2 for a precondition or reconstruction failure, 3
for a config, parse or usage error, 4 for a size cap exceeded, 5 for an I/O
failure.  Any other exception exits EXIT_INTERNAL (6), reported as one line
"rpkit: internal error: <Type>: <message>" without a traceback.  main is one
try around the whole run, with one handler for each of the two.

reconstruct never exits 1: a Gram or transfer that fails a gate is refused
(2).  Config numbers are read through one coercion (_number; _count adds a
range), so a string, a bool, a non-integral count or a count that leaves a
check vacuous is a config error (3), never a crash, and so is a config
that names two states (_one_state), a state key that the chosen state does
not read or an sft-check key of the other mode (_unread).  --seed is an
integer >= 0 and --tol a finite number >= 0 (3 otherwise).

The config is read with one binary read and decoded as UTF-8, with "\r\n" and
"\r" read as "\n" as a text-mode read would (so a parse error keeps its line
and column); a BOM or another encoding is a parse error (3), and a config
that is not a JSON object is a config error (3).  The pipelines get the seed,
not a generator: only the two that draw build default_rng(seed), a Gibbs
"draw" state (rp-gram, reconstruct) and the random boxes of sft-check, so a
check that draws nothing builds none.  A report is written atomically: its
UTF-8 bytes go to <out>.tmp with os.write, which then replaces <out>; a
failed write removes <out>.tmp and exits 5.  Identical config and seed give
byte-identical output (timing is only included on --timing).

An rp-gram report gives the size n of the basis as basis_size and, as matrix,
the leading WITNESS_CAP x WITNESS_CAP principal block of the Gram M, as
witness holds the first WITNESS_CAP entries of the witness: so the report
holds at most WITNESS_CAP^2 entries of M whatever n is.  That block is itself
the Gram of the first WITNESS_CAP members of plus_basis, a basis of at most
WITNESS_CAP members is written whole, and the whole form is
verifier.gram(...).matrix.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np
from numpy.random import default_rng

from .algebra import Algebra, AlgebraConfig, StateFunctional, relation_residual
from .boxes import Box22, adjoint, rot_pi, sft, star_product
from .boxes import theta as theta_box
from .chains import uniform_chain_state
from .errors import (InvalidArgument, InvalidConfig, InvalidGeometry, InvalidState,
                     PreconditionViolation, RpkitError, SizeLimit, WrongHalf)
from .lattice import (VIOLATION_TOL, LatticeModel, chain_gap, covariance_rp, green_set,
                      monotonicity_of, stochastic_rp_scan)
from .reconstruction import quantize, shift_family, spectrum_report, transfer_operator
from .report import CONVENTIONS, TOOL, WITNESS_CAP, curve_csv, to_text, truncate_witness
from .verifier import (DEFAULT_TOL, NEGATIVE, NOT_APPLICABLE, POSITIVE, coupling_decomposition,
                       draw_generic_hamiltonian, draw_theorem_hamiltonian, form_plan, gram,
                       gram_report_from_matrix, plus_basis, sft_positivity,
                       sft_positivity_sequence)

# sft-check boxes: each box draws two d^2 x d^2 complex matrices and runs a
# fixed number of same-size transforms and two products on them, so its
# memory grows as d^4 and the run as d^4 x boxes.  2^20 entries allow one
# box at d = 32 (16 MiB a matrix) or 65,536 boxes at d = 2.  A sequence's DFT
# builds one d x d matrix, so it allows d <= 1024.
SFT_ENTRIES = 2**20


class ConfigError(RpkitError):
    """A config field that is missing, of the wrong type or out of range."""


class UsageError(RpkitError):
    """A command line, config text or option that cannot be read or run."""


class IOFailure(RpkitError):
    """The config cannot be read or the report cannot be written."""


# The exit-code contract (module docstring): a refusal exits with the code of
# the first row whose type it is, with its label after "rpkit: " on stderr.
EXIT_OF = {POSITIVE: 0, NEGATIVE: 1, NOT_APPLICABLE: 2}
REFUSALS = (
    (ConfigError, 3, "config error: "),
    (SizeLimit, 4, "size cap exceeded: "),
    ((InvalidConfig, InvalidArgument, InvalidGeometry, InvalidState, WrongHalf), 3,
     "invalid config: "),
    (UsageError, 3, ""),
    (IOFailure, 5, ""),
    (RpkitError, 2, ""),    # a precondition or reconstruction failure
)
EXIT_INTERNAL = 6


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"config field '{key}' is required")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config field '{key}' has wrong type {type(val).__name__}")
    return val


def _number(val, kind, key):
    """A config number as int, float or complex; ConfigError for anything else.

    Strings and bools are refused, except that complex parses strings such as
    "1-2j" (JSON has no complex literal).  int takes integral values only, so
    4.0 is 4 while 4.5, nan and inf are refused.  Non-finite floats pass: the
    pipelines refuse them as invalid config.
    """
    allowed = (int, float, str) if kind is complex else (int, float)
    try:
        if isinstance(val, bool) or not isinstance(val, allowed):
            raise TypeError(f"expected a number, got {type(val).__name__}")
        if kind is int and isinstance(val, float) and not val.is_integer():
            raise ValueError(f"expected an integer, got {val!r}")
        return kind(val)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field '{key}': {exc}") from exc


def _count(val, key, lo, hi=None):
    """An integer config count in [lo, hi); ConfigError outside that range."""
    n = _number(val, int, key)
    if n < lo or (hi is not None and n >= hi):
        bound = f"[{lo}, {hi})" if hi is not None else f">= {lo}"
        raise ConfigError(f"config field '{key}': {n} is not {bound}")
    return n


def _hamiltonian_from_terms(algebra, terms):
    if not isinstance(terms, list):
        raise ConfigError(f"config field 'hamiltonian' must be a list of "
                          f"[[re, im], exponents] terms, got {type(terms).__name__}")
    H = algebra.zero()
    for item in terms:
        try:
            (re, im), k = item
            v = complex(_number(re, float, "hamiltonian"), _number(im, float, "hamiltonian"))
            H = H + v * algebra.monomial([_number(x, int, "hamiltonian") for x in k])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad hamiltonian term {item!r}: {exc}") from exc
    return H


def _one_state(cfg, first, *others):
    """ConfigError naming both fields when cfg has `first` and one of `others`:
    either names the state, and the second would be dropped silently."""
    other = next((o for o in others if o in cfg), None)
    if first in cfg and other:
        raise ConfigError(f"config names two states: '{first}' and '{other}'")


def _unread(cfg, reader, *keys):
    """ConfigError naming the first of `keys` that cfg has: the chosen state
    or mode (reader) does not read it, so it would be dropped silently."""
    key = next((k for k in keys if k in cfg), None)
    if key:
        raise ConfigError(f"config field '{key}' is not read by the {reader}")


def _state_from_config(cfg, algebra, seed):
    _one_state(cfg, "hamiltonian", "draw")
    kind = cfg.get("state", "trace")
    if kind == "trace":
        _unread(cfg, "trace state", "beta", "hamiltonian", "draw")
        return StateFunctional(kind="trace")
    if kind != "gibbs":
        raise ConfigError(f"state must be 'trace' or 'gibbs', got {kind!r}")
    beta = _number(cfg.get("beta", 1.0), float, "beta")
    if "hamiltonian" in cfg:
        H = _hamiltonian_from_terms(algebra, cfg["hamiltonian"])
    elif "draw" in cfg:
        family = _require(_require(cfg, "draw", dict), "family", str)
        if family == "theorem":
            H = draw_theorem_hamiltonian(algebra, default_rng(seed))
        elif family == "generic":
            H = draw_generic_hamiltonian(algebra, default_rng(seed))
        else:
            raise ConfigError(f"unknown draw family {family!r}")
    else:
        raise ConfigError("gibbs state needs 'hamiltonian' terms or a 'draw' spec")
    return StateFunctional(kind="gibbs", beta=beta, hamiltonian=H)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _algebra_config(cfg):
    return AlgebraConfig(_number(_require(cfg, "d"), int, "d"),
                         _number(_require(cfg, "m"), int, "m"))


def run_algebra_check(cfg, tol, seed):
    algebra = Algebra(_algebra_config(cfg))
    worst = relation_residual(algebra)
    verdict = POSITIVE if worst < tol else NEGATIVE
    return verdict, {"relation_residual": worst, "gate": tol, "dimension": algebra.cfg.dim}


def run_rp_gram(cfg, tol, seed):
    """The Gram verdict over plus_basis, with the leading WITNESS_CAP block of
    the form as matrix and the basis size n as basis_size (module docstring)."""
    algebra = Algebra(_algebra_config(cfg))
    omega = _state_from_config(cfg, algebra, seed)
    max_grade = cfg.get("max_grade")
    basis = plus_basis(algebra.cfg,
                       None if max_grade is None else _count(max_grade, "max_grade", 0))
    rep = gram(omega, algebra, basis, tol)
    results = {
        "verdict": rep.verdict,
        "min_eig": rep.min_eig,
        "worst_sector": rep.block,
        "psd": rep.psd,
        "marginal": rep.marginal,
        "hermiticity_defect": rep.herm_defect,
        "reflection_defect": rep.reflection_defect,
        **({"not_applicable_reason": rep.not_applicable_reason}
           if rep.verdict == NOT_APPLICABLE else {}),
        "basis_size": len(basis),
        "matrix": rep.matrix[:WITNESS_CAP, :WITNESS_CAP],
        "witness": truncate_witness(rep.witness),
    }
    if omega.kind == "gibbs":
        dec = coupling_decomposition(omega.hamiltonian)
        sv = sft_positivity(dec, tol)
        results["sft_verdict"] = sv.verdict
        results["sft_reason"] = sv.reason
        results["residual_norm"] = dec.residual.norm_max()
    return rep.verdict, results


def run_reconstruct(cfg, tol, seed):
    algebra = Algebra(_algebra_config(cfg))
    _one_state(cfg, "chain", "state", "hamiltonian", "draw")
    if "chain" in cfg:
        _unread(cfg, "chain state", "beta")
        ch = _require(cfg, "chain", dict)
        omega = uniform_chain_state(algebra, _number(ch.get("coupling", 1.0), float, "coupling"),
                                    _number(ch.get("beta", 1.0), float, "beta"))
    else:
        omega = _state_from_config(cfg, algebra, seed)
    room = _count(cfg.get("basis_room", 0), "basis_room", 0, algebra.cfg.m // 2)
    # steps = 0 shifts nothing, a vacuous transfer of 1 and gap 0 for any state;
    # from m/2 generators on, every plus monomial but the identity leaves the chain
    steps = _count(cfg.get("steps", 1), "steps", 1, algebra.cfg.m // 2)
    basis = [k for k in plus_basis(algebra.cfg)
             if not any(k[algebra.cfg.m - room:])] if room else plus_basis(algebra.cfg)
    # one form over the window and its shift images: its budget gate refuses
    # before any form is built, the window Gram is its leading block with the
    # plan's sectors, and the identity (first in plus_basis) gives the
    # reflection defect
    family, shifted = shift_family(basis, steps, algebra.cfg)
    plan = form_plan(omega, algebra, family)
    M = plan.form(omega, algebra)
    greport = gram_report_from_matrix(M, basis, tol, plan.one, plan.sectors)
    if greport.verdict != POSITIVE:
        return NOT_APPLICABLE, {"gram_verdict": greport.verdict,
                                "min_eig": greport.min_eig}
    q = quantize(greport)
    td = transfer_operator(M, shifted, q, steps)
    spec = spectrum_report(td)
    results = {
        "verdict": POSITIVE,
        "gram_min_eig": greport.min_eig,
        "rank": q.rank,
        "nullity": len(basis) - q.rank,
        "transfer_eigenvalues": td.eigenvalues,
        "transfer_asymmetry": td.asymmetry,
        "normalization": td.normalization,
        "kernel_dim": td.kernel_dim,
        "shift_defect": td.shift_defect,
        "hamiltonian_spectrum": spec.eigenvalues,
        "gap": spec.gap,
        "dt": td.dt,
    }
    return POSITIVE, results


def _lattice_model(cfg):
    return LatticeModel(dims=tuple(_number(n, int, "dims") for n in _require(cfg, "dims", list)),
                        mass2=_number(_require(cfg, "mass2"), float, "mass2"),
                        bc=cfg.get("bc", "box"))


def run_green(cfg, tol, seed):
    model = _lattice_model(cfg)
    gs = green_set(model)
    cov = covariance_rp(gs, tol=tol)
    mono = monotonicity_of(cov)
    results = {
        "verdict": mono.verdict,
        "monotonicity_min_eig": mono.min_eig,
        "covariance_rp_verdict": cov.verdict,
        "covariance_rp_min_eig": cov.min_eig,
        "cut_size": gs.cut_size,
        "worst_mode": list(cov.block),
        "verdicts_agree": mono.verdict == cov.verdict,
        "witness": truncate_witness(mono.witness),
    }
    if len(model.dims) == 1:
        try:
            results["chain_gap"] = chain_gap(gs, tol)[0]
        except InvalidGeometry:
            pass    # a torus, or a half of one time row, has no transfer: no gap
        except PreconditionViolation:
            pass    # the dense chain Gram is not PSD at this tol (round-off): no gap
    return mono.verdict, results


def run_stochastic(cfg, tol, seed):
    model = _lattice_model(cfg)
    ts = [_number(t, float, "t_grid") for t in _require(cfg, "t_grid", list)]
    if not ts:
        raise ConfigError("config field 't_grid' is empty")
    scan = stochastic_rp_scan(model, ts, tol)
    any_violation = any(v for _, _, v in scan.rows)
    results = {
        "verdict": NEGATIVE if any_violation else POSITIVE,
        "rows": [{"t": t, "min_eig": me, "violated": v} for t, me, v in scan.rows],
        "witness_t": scan.witness_t,
        "witness": truncate_witness(scan.witness),
    }
    return results["verdict"], results


def run_sft_check(cfg, tol, seed):
    d = _count(cfg.get("d", 2), "d", 2)
    results = {}
    if "sequence" in cfg:
        _unread(cfg, "sequence mode", "boxes")
        seq = _require(cfg, "sequence", list)
        if d * d > SFT_ENTRIES:
            raise SizeLimit(f"config field 'sequence': its DFT at d = {d} takes d^2 = {d * d} "
                            f"entries, over the budget of {SFT_ENTRIES}")
        sv = sft_positivity_sequence([_number(x, complex, "sequence") for x in seq], d, tol)
        results["verdict"] = sv.verdict
        results["dft"] = sv.eigenvalues
        results["reason"] = sv.reason
        return sv.verdict, results
    count = _count(cfg.get("boxes", 20), "boxes", 1)
    if d**4 * count > SFT_ENTRIES:
        field = "d" if d**4 > SFT_ENTRIES else "boxes"
        raise SizeLimit(f"config field '{field}': d^4 x boxes = {d**4 * count} "
                        f"entries, over the budget of {SFT_ENTRIES}")
    rng = default_rng(seed)
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
    """Exact identities (relations, box pictures) use 1e-12; spectral gates
    DEFAULT_TOL (1e-10); the stochastic scan's violation gate VIOLATION_TOL (1e-8)."""
    if command == "algebra-check" or (command == "sft-check" and "sequence" not in cfg):
        return 1e-12
    if command == "stochastic":
        return VIOLATION_TOL
    return DEFAULT_TOL


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    """The config at path: one binary read decoded as UTF-8, with the universal
    newlines of a text-mode read, parsed as a JSON object."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        cfg = json.loads(text)
    except OSError as exc:
        raise IOFailure(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config parse error at line {exc.lineno} col {exc.colno}: "
                         f"{exc.msg}") from exc
    except ValueError as exc:   # e.g. an integer literal over the int-to-str digit limit
        raise UsageError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _emit(text: str, out_path: str | None) -> None:
    """text to stdout, or as UTF-8 to out_path through out_path.tmp and one
    os.replace, so the report appears whole or not at all.  A failed write
    removes the temporary file and raises IOFailure."""
    try:
        if out_path is None:
            sys.stdout.write(text)
            return
        data = memoryview(text.encode("utf-8"))
        tmp = out_path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, out_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOFailure(f"cannot write report: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse that prints its usage line and raises UsageError on a usage
    error, where argparse exits 2, which means not-applicable here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"error: {message}")


def _joined_tol(argv) -> list:
    """argv with each `--tol VALUE` as `--tol=VALUE`, so that a value argparse
    takes for an option (-inf, -1e-300) reaches _tolerance."""
    args = list(argv)
    for i in reversed(range(len(args) - 1)):
        if args[i] == "--tol":
            args[i:i + 2] = [f"--tol={args[i + 1]}"]
    return args


def _tolerance(text: str) -> float:
    """A --tol value: a finite float >= 0.  nan would make every PSD test
    false, inf every gate pass and a negative tol a PSD form negative."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not (np.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, which default_rng takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return seed


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use.  Its command choices are the
    COMMANDS table itself, read at parse time."""
    parser = _Parser(prog="rpkit", description="reflection positivity verification toolkit")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--tol", type=_tolerance, default=None)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("structured", "csv"), default="structured")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte-determinism)")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_joined_tol(sys.argv[1:] if argv is None else argv))
        cfg = _read_config(args.config)
        if "command" in cfg and cfg["command"] != args.command:
            raise UsageError(f"config command {cfg['command']!r} does not match "
                             f"{args.command!r}")
        if args.format == "csv" and args.command != "stochastic":
            raise UsageError("csv format is only defined for stochastic curves")
        tol = _default_tol(args.command, cfg) if args.tol is None else args.tol
        t0 = time.perf_counter()
        verdict, results = COMMANDS[args.command](cfg, tol, args.seed)
        report = {
            "tool": TOOL,
            "conventions": CONVENTIONS,
            "config": cfg,
            "command": args.command,
            "seed": args.seed,
            "results": results,
        }
        if args.timing:
            report["timing"] = {"seconds": time.perf_counter() - t0}
        _emit(curve_csv([(r["t"], r["min_eig"], r["violated"]) for r in results["rows"]])
              if args.format == "csv" else to_text(report), args.out)
        return EXIT_OF[verdict]
    except RpkitError as exc:   # a refusal: its REFUSALS row gives the exit and label
        code, label = next((c, lab) for kind, c, lab in REFUSALS if isinstance(exc, kind))
        print(f"rpkit: {label}{exc}", file=sys.stderr)
        return code
    except Exception as exc:    # a bug, not a verdict: exit 6, never 1
        msg = " ".join(str(exc).split())
        print(f"rpkit: internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
