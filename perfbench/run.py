"""rpkit benchmark: seeded closed-loop streams of CLI checks, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gram-ladder --seed 1 --seconds 40 --trace 0

The workload runs in its own process (child.py) with BLAS threads capped at
the number of usable CPUs.  With --trace 0 the last stdout line carries the
end-to-end metrics listed in BENCHMARK.json, with --trace 1 the per-layer
ones; the lines before it print every metric with its unit, the sample
counts, the failure fraction and the run environment.  --save writes the
whole record as JSON.

End-to-end times are in reference seconds (see calib.py): each interval is
scaled by a fixed load timed right before and after it, so that the drift of
a shared host's speed does not read as a change of rpkit.  The lines before
the result also print the raw wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The BLAS thread cap, set before numpy loads here (for the calibration load)
# and passed on to the workload process.
BLAS_CAP = str(len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_CAP

from calib import Calibration, normalise  # noqa: E402
from workloads import TAIL_LEVEL, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 15
CHILD_DEADLINE_S = 170.0
TAIL_BEYOND = 10


def rank(n, q):
    """1-based rank of the q-quantile of n samples: floor(q * n) + 1."""
    return min(n, math.floor(q * n + 1e-9) + 1)


def quantile(xs, q):
    """The smallest value with more than a fraction q of the values at or below it.

    It is always one of the values.  Interpolating would average two
    neighbours, and where the round mix puts the quantile between two kinds
    of check of different cost (the median of lattice-rp's 14-check rounds,
    for one) that average belongs to neither.
    """
    return sorted(xs)[rank(len(xs), q) - 1]


def typical_round(times, rounds):
    """The median time of each position of the round over the run's rounds.

    Position j holds the same model in every round (on gram-ladder the same
    rung, whose state rotates), so its median is that model's time with the
    host's jitter between checks damped; single check times on the shared
    host this benchmark was defined on spread 10-30% within one run.  The
    percentiles are taken over this round, so they do not depend on how many
    rounds fit in a run, where an order statistic over all checks would be
    the fastest of three to five samples of one model.
    """
    per = len(times) // rounds
    return [statistics.median(times[j::per]) for j in range(per)]


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env):
    """Seconds from launching a fresh interpreter until `import rpkit.cli` returns.

    Returns the launch times and the calibration load times around them.
    """
    calibrate = Calibration()
    launches, loads = [], []
    code = "import rpkit.cli, time; print(time.monotonic())"
    for _ in range(SETUP_LAUNCHES):
        loads.append(calibrate())
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import rpkit.cli failed: {proc.stderr.strip()[-400:]}")
        launches.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    loads.append(calibrate())
    return launches, loads


def check_figures(times, rounds, level):
    typical = typical_round(times, rounds)
    return {
        "checks_per_s": len(times) / sum(times),
        "check_s.p50": quantile(typical, 0.5),
        "check_s.p90": quantile(typical, level),
    }


def end_to_end(res, level):
    walls = [wall for _, wall, _ in res["checks"]]
    norm = normalise(walls, res["loads"])
    values = dict(check_figures(norm, res["rounds"], level), peak_rss_mb=res["peak_rss_mb"])
    raw = check_figures(walls, res["rounds"], level)
    n, rounds = len(walls), res["rounds"]
    per = n // rounds
    return values, {"n": n, "tail_level": level, "beyond": (per - rank(per, level)) * rounds,
                    "rounds": rounds, "wall_s": sum(res["round_s"]),
                    "median_load_s": statistics.median(res["loads"]),
                    "raw": raw}


def per_layer(res) -> dict:
    passes = res["passes"]
    out = {}
    for name in res["spans"]:   # a span a workload never enters reports 0
        out[f"{name}.calls"] = res["calls"].get(name, 0) / passes
        out[f"{name}.s"] = res["incl_s"].get(name, 0.0) / passes
        out[f"{name}.self_s"] = res["self_s"].get(name, 0.0) / passes
    for name, value in res["counters"].items():
        out[name] = value / passes
    mono_calls = res["calls"].get("algebra.monomial_rep", 0)
    out["algebra.monomial_rep.distinct_ratio"] = res["distinct"] / mono_calls if mono_calls else 0.0
    out["trace.overhead_frac"] = res["traced_wall_s"] / res["untraced_wall_s"] - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write the full record as JSON here")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "rpkit" / "cli.py").is_file():
        print("perfbench: run from the root of an rpkit checkout (src/rpkit is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    setup, setup_loads = ([], []) if args.trace else measure_setup(env)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    timeout = CHILD_DEADLINE_S - (time.monotonic() - started)
    try:
        # subprocess.run kills the child and waits for it when the deadline passes
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload process killed after {timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        try:
            workdir.parent.rmdir()   # only succeeds once no workload uses it
        except OSError:
            pass
    if proc.returncode != 0:
        print(f"perfbench: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = len(res["checks"])
    failed = sum(1 for _, _, failure in res["checks"] if failure is not None)
    if args.trace:
        values, info = per_layer(res), {"passes": res["passes"],
                                        "checks_per_pass": res["checks_per_pass"]}
        if res["leftover"]:
            print(f"perfbench: still wrapped after restore: {res['leftover']}", file=sys.stderr)
            failed += 1
    else:
        values, info = end_to_end(res, TAIL_LEVEL[args.workload])
        values["setup_s"] = statistics.median(normalise(setup, setup_loads))
        info["raw"]["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    env_info = dict(res["env"], commit=git_commit(root))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in info.items() if k != "raw"))
    print("env: " + ", ".join(f"{k} {v}" for k, v in env_info.items()))
    if args.trace:
        self_total = sum(res["self_s"].values())
        print(f"trace: self times {self_total:.6f} s + untraced remainder "
              f"{res['remainder_s']:.6f} s = {self_total + res['remainder_s']:.6f} s; "
              f"traced wall {res['traced_wall_s']:.6f} s over {res['passes']} pass(es)")
        for name in sorted(res["self_s"], key=res["self_s"].get, reverse=True):
            print(f"  span {name:36s} calls/pass {res['calls'][name] / res['passes']:10.0f}  "
                  f"self/pass {res['self_s'][name] / res['passes']:.6f} s")
    else:
        kinds = {}
        norm = normalise([wall for _, wall, _ in res["checks"]], res["loads"])
        for (kind, wall, _), ref in zip(res["checks"], norm):
            kinds.setdefault(kind, []).append((ref, wall))
        for kind, pairs in kinds.items():
            print(f"  kind {kind:34s} n {len(pairs):4d}  median "
                  f"{statistics.median(r for r, _ in pairs):.6f} ref s, "
                  f"{statistics.median(w for _, w in pairs):.6f} wall s")
        level = f"p{round(info['tail_level'] * 100)}"
        print(f"check samples n={info['n']}; check_s.p90 is {level} on this workload; "
              f"{info['beyond']} samples lie beyond it"
              + ("" if info["beyond"] >= TAIL_BEYOND else f" (fewer than {TAIL_BEYOND})"))
        print("wall-clock figures: " + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    refusals = ", ".join(f"{k} {v}" for k, v in sorted(res["refusals"].items())) or "none"
    print(f"fail_frac {failed / attempted:.6g} 1 ({failed} of {attempted}; "
          f"accepted reconstruct refusals: {refusals})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    if args.save:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env_info, "info": info,
                  "setup_launches_s": setup, "setup_loads_s": setup_loads, "attempted": attempted, "failed": failed,
                  "fail_frac": failed / attempted, "metrics": metrics, "raw": res}
        Path(args.save).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
