"""Record the outcomes of fixed benchmark streams, compare two records, judge one.

    PYTHONPATH=src python3 tools/outcomes.py dump OUT [--stream WORKLOAD:SEEDS:ROUNDS ...]
    python3 tools/outcomes.py diff A B
    PYTHONPATH=src python3 tools/outcomes.py judge DUMP

`dump` generates the checks of each stream with perfbench/workloads.py (read,
never written) and runs every check in-process through rpkit.cli.main, as the
benchmark does.  It records, per check, the exit code, the report text and
what went to stderr, in one JSON file.  rpkit is imported from the path, so
pointing PYTHONPATH at another checkout's src records that checkout; set
OPENBLAS_NUM_THREADS to fix the BLAS thread count of a record.

A stream is WORKLOAD:SEEDS:ROUNDS, with SEEDS one seed or a range "1-8"
and ROUNDS the number of rounds from round 0.  The default set is
gram-ladder:1-3:8, os-reconstruct:1-8:2 and lattice-rp:1-8:2 (784 checks).

`diff` prints the number of checks and how many differ in each field; then
every exit-code flip in full, with both exit codes and the last stderr line
of each side; then, over the differing reports whose exit codes agree, the
largest |delta| of each numeric `results` key that moved (a number, a
complex {"re", "im"} pair or a list of those) and the check it came from;
a list of objects, such as the scan's `rows`, counts as one field per key
of its objects, named `rows[].min_eig`; then each such field that changed
shape (a list length, the nesting or the type of an entry, or a field that
one side lacks) on how many checks, and the first;
then the keys of the differing and the missing checks, up to SHOWN of each.
It exits 1 on any difference.

`judge` holds every recorded check to its rule in perfbench/oracle.py (read,
never written), as the benchmark does.  It regenerates each stream's checks
with workloads.py to find the rule, so it imports rpkit from the path too.
It lists every failure and exits 1 on any.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_STREAMS = ("gram-ladder:1-3:8", "os-reconstruct:1-8:2", "lattice-rp:1-8:2")
FIELDS = ("exit", "report", "stderr")
SHOWN = 40  # differing keys printed per diff


def _perfbench(name: str):
    """perfbench/<name>.py as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up here
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


def parse_stream(text: str) -> tuple:
    """'os-reconstruct:1-8:2' -> ('os-reconstruct', range(1, 9), 2)."""
    try:
        workload, seeds, rounds = text.split(":")
        lo, _, hi = seeds.partition("-")
        return workload, range(int(lo), int(hi or lo) + 1), int(rounds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"stream {text!r} is not WORKLOAD:SEEDS:ROUNDS") from exc


def run_check(main, check, work: Path) -> list:
    """[exit code, report text or None, stderr] of one check."""
    config, report = work / "config.json", work / "report.json"
    config.write_text(json.dumps(check.config), encoding="utf-8")
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([check.command, "--config", str(config), "--seed", str(check.seed),
                   "--out", str(report)])
    text = report.read_text(encoding="utf-8") if report.exists() else None
    return [rc, text, err.getvalue()]


def dump(out: str, streams) -> int:
    import rpkit
    from rpkit.cli import main

    workloads = _perfbench("workloads")
    checks = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seeds, rounds in streams:
            for seed in seeds:
                stream = workloads.Stream(workload, seed)
                for r in range(rounds):
                    for i, check in enumerate(stream.round(r)):
                        key = f"{workload}/s{seed}/r{r}/{i:02d} {check.kind}"
                        checks[key] = run_check(main, check, Path(tmp))
    record = {"rpkit": str(Path(rpkit.__file__).resolve().parent),
              "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
              "checks": checks}
    Path(out).write_text(json.dumps(record, indent=0, sort_keys=True), encoding="utf-8")
    print(f"{len(checks)} checks from {record['rpkit']} -> {out}")
    return 0


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def _numbers(value) -> list | None:
    """A results value as a flat list of complex numbers, or None when it
    holds anything else (a string, a bool, null, another dict)."""
    if type(value) in (int, float):
        return [complex(value)]
    if isinstance(value, dict) and set(value) == {"re", "im"} \
            and all(type(x) in (int, float) for x in value.values()):
        return [complex(value["re"], value["im"])]
    if isinstance(value, list):
        items = [_numbers(x) for x in value]
        if None not in items:
            return [z for item in items for z in item]
    return None


def _fields(name: str, value):
    """(name, value) of a results entry, or, for a list of objects that are
    not complex pairs, (name[].key, the list of their values) per key that
    every object holds, recursively."""
    if isinstance(value, list) and value and \
            all(isinstance(x, dict) and _numbers(x) is None for x in value):
        for key in value[0]:
            if all(key in x for x in value):
                yield from _fields(f"{name}[].{key}", [x[key] for x in value])
    else:
        yield name, value


def _skeleton(value):
    """value with every number, real or a complex pair, replaced by 0: two
    values have equal skeletons when only their numbers and strings differ."""
    if isinstance(value, list):
        return [_skeleton(x) for x in value]
    if _numbers(value) is not None:
        return 0
    if isinstance(value, dict):
        return {k: _skeleton(v) for k, v in value.items()}
    return type(value).__name__


def _result_moves(a: dict, b: dict, keys) -> tuple:
    """({results field: (largest |delta|, check)}, {results field: [checks,
    first check]}) over the checks whose reports differ while their exit
    codes agree.  A field that changed shape (_skeleton) on a check, or that
    one side lacks, goes to the second table; of the others, those that hold
    no numbers or did not move are left out."""
    moves, reshaped = {}, {}
    for k in keys:
        if a[k][0] != b[k][0] or a[k][1] is None or b[k][1] is None:
            continue
        try:
            ra, rb = (json.loads(side[k][1]).get("results", {}) for side in (a, b))
        except ValueError:
            continue
        fa, fb = ({f: v for name in r for f, v in _fields(name, r[name])} for r in (ra, rb))
        for name in fa.keys() | fb.keys():
            if name not in fa or name not in fb or _skeleton(fa[name]) != _skeleton(fb[name]):
                reshaped.setdefault(name, [0, k])[0] += 1
                continue
            xa, xb = _numbers(fa[name]), _numbers(fb[name])
            if xa is None:
                continue
            delta = max((abs(p - q) for p, q in zip(xa, xb)), default=0.0)
            if delta > moves.get(name, (0.0, None))[0]:
                moves[name] = (delta, k)
    return moves, reshaped


def diff(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["checks"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["checks"]
    missing = sorted(set(a) ^ set(b))
    common = sorted(set(a) & set(b))
    differing = {f: [k for k in common if a[k][j] != b[k][j]] for j, f in enumerate(FIELDS)}
    keys = sorted(set().union(*differing.values()))
    print(f"{len(common)} checks in both, {len(missing)} in one only; differing: "
          + ", ".join(f"{f} {len(ks)}" for f, ks in differing.items()))
    for k in differing["exit"]:     # every flip in full: a few among many report diffs
        print(f"  exit {a[k][0]} -> {b[k][0]}: {k}")
        for side in (a, b):
            print(f"    {_last_line(side[k][2])}")
    moves, reshaped = _result_moves(a, b, differing["report"])
    for name, (delta, k) in sorted(moves.items()):
        print(f"  max |delta| results.{name}: {delta:.3g} ({k})")
    for name, (count, k) in sorted(reshaped.items()):
        print(f"  results.{name}: shape differs on {count} checks ({k})")
    for k in keys[:SHOWN]:
        print(f"  differs ({', '.join(f for f in FIELDS if k in differing[f])}): {k}")
    for k in missing[:SHOWN]:
        print(f"  only in {path_a if k in a else path_b}: {k}")
    if len(keys) > SHOWN or len(missing) > SHOWN:
        print(f"  ... ({len(keys)} differing and {len(missing)} missing keys in all)")
    return 1 if keys or missing else 0


def judge(path: str) -> int:
    checks = json.loads(Path(path).read_text(encoding="utf-8"))["checks"]
    workloads, oracle = _perfbench("workloads"), _perfbench("oracle")
    rounds = {}                     # (workload, seed) -> rounds recorded
    for key in checks:
        workload, seed, r, _ = key.split("/", 3)
        at = (workload, int(seed[1:]))
        rounds[at] = max(rounds.get(at, 0), int(r[1:]) + 1)
    failures = {key: "not a check of its stream" for key in checks}
    for (workload, seed), count in sorted(rounds.items()):
        stream = workloads.Stream(workload, seed)
        for r in range(count):      # a stream's rounds come in order
            for i, check in enumerate(stream.round(r)):
                key = f"{workload}/s{seed}/r{r}/{i:02d} {check.kind}"
                if key in checks:
                    rc, text, stderr = checks[key]
                    try:
                        report = None if text is None else json.loads(text)
                        failures[key] = oracle.judge(check, rc, report, stderr)
                    except ValueError as exc:
                        failures[key] = f"unreadable report: {exc}"
    failed = sorted(k for k, why in failures.items() if why is not None)
    print(f"{len(checks)} checks judged, {len(failed)} failed")
    for key in failed:
        print(f"  FAIL {key}: {failures[key]}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outcomes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("dump", help="run the streams and record every outcome")
    p.add_argument("out")
    p.add_argument("--stream", action="append", type=parse_stream,
                   help="WORKLOAD:SEEDS:ROUNDS, repeatable (default: the fixed set)")
    p = sub.add_parser("diff", help="compare two records; exit 1 on any difference")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("judge", help="hold every recorded check to its oracle rule")
    p.add_argument("dump")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.out, args.stream or [parse_stream(s) for s in DEFAULT_STREAMS])
    if args.cmd == "judge":
        return judge(args.dump)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
