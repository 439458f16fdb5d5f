"""Workload process: runs one seeded stream of rpkit checks closed-loop.

One client in one process calls ``rpkit.cli.main(argv)`` in-process, waits for
it, judges the outcome, then sends the next check.  Only whole rounds run: a
round starts while the time spent so far plus the mean round time fits in
``--seconds``, and the first round always runs.

Before every check the fixed calibration load of ``calib.py`` is timed, and
once more after the last one, so that run.py can report each check in
reference seconds.  Untraced runs report per-check wall times, the load times
and the peak RSS of this process.  Traced runs alternate a traced pass and an untraced pass over the first round
and report the tracer's totals per pass; the pass times give the overhead.

Prints one JSON object on its last stdout line; run.py turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from calib import Calibration  # noqa: E402
from tracer import COUNTERS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402


class Runner:
    """Runs checks against the CLI in a work directory inside the checkout."""

    def __init__(self, workdir: Path):
        import rpkit.cli
        self.cli = rpkit.cli
        self.config = workdir / "config.json"
        self.report = workdir / "report.json"
        self.outcomes = []        # (kind, seconds, failure reason or None)
        self.refusals = Counter()  # accepted reconstruct refusals by label
        self.calibrate = Calibration()
        self.loads = []           # load time before each check, then one after the last

    def run(self, check) -> float:
        self.config.write_text(json.dumps(check.config), encoding="utf-8")
        if self.report.exists():
            self.report.unlink()
        argv = [check.command, "--config", str(self.config), "--seed", str(check.seed),
                "--out", str(self.report)]
        err = io.StringIO()
        rc, failure = None, None
        self.loads.append(self.calibrate())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception:
            failure = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        wall = time.perf_counter() - start
        if failure is None:
            try:
                report = json.loads(self.report.read_text(encoding="utf-8")) \
                    if self.report.exists() else None
            except ValueError as exc:
                report, failure = None, f"unreadable report: {exc}"
            if failure is None:
                failure = oracle.judge(check, rc, report, err.getvalue())
            if failure is None:
                label = oracle.refusal(check, rc, report, err.getvalue())
                if label is not None:
                    self.refusals[label] += 1
        if failure is not None:
            print(f"perfbench: FAIL {check.kind} {json.dumps(check.config)[:200]}: {failure}",
                  file=sys.stderr)
        self.outcomes.append((check.kind, wall, failure))
        return wall

    def run_round(self, checks) -> float:
        start = time.perf_counter()
        for check in checks:
            self.run(check)
        return time.perf_counter() - start

    def close(self):
        """Time the load once more, after the last check."""
        self.loads.append(self.calibrate())


def _rounds(stream, seconds, body):
    """Call body(r) for r = 0, 1, ... while the next round is expected to fit."""
    start = time.perf_counter()
    times = []
    while not times or (time.perf_counter() - start) + sum(times) / len(times) <= seconds:
        times.append(body(len(times)))
    return times


def untraced(stream, runner, seconds):
    def body(r):
        return runner.run_round(stream.round(r))

    times = _rounds(stream, seconds, body)
    return {"rounds": len(times), "round_s": times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(stream, runner, seconds):
    checks = stream.round(0)
    tracer = Tracer()
    pass_s = {"traced": [], "untraced": []}
    remainder = 0.0

    def traced_pass():
        nonlocal remainder
        tracer.patch()
        try:
            total = 0.0
            for check in checks:
                before = tracer.root_s
                wall = runner.run(check)
                tracer.fold()
                total += wall
                remainder += wall - (tracer.root_s - before)
        finally:
            tracer.restore()
        pass_s["traced"].append(total)

    def untraced_pass():
        pass_s["untraced"].append(sum(runner.run(c) for c in checks))

    def body(r):
        # alternate which pass goes first, so warm-up falls on both sides
        for one in ((traced_pass, untraced_pass) if r % 2 == 0 else (untraced_pass, traced_pass)):
            one()
        return pass_s["traced"][-1] + pass_s["untraced"][-1]

    times = _rounds(stream, seconds, body)
    passes = len(times)
    return {
        "passes": passes,
        "checks_per_pass": len(checks),
        "traced_wall_s": sum(pass_s["traced"]),
        "untraced_wall_s": sum(pass_s["untraced"]),
        "remainder_s": remainder,
        "root_s": tracer.root_s,
        "calls": dict(tracer.calls),
        "incl_s": dict(tracer.incl_s),
        "self_s": dict(tracer.self_s),
        "spans": sorted({name for name, *_ in TARGETS}),
        "counters": {name: tracer.counters[name] for name in COUNTERS},
        "distinct": tracer.distinct_total,
        "leftover": tracer.wrapped_references(),
    }


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one perfbench workload process")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        stream = Stream(args.workload, args.seed)
        run = traced if args.trace else untraced
        result = run(stream, runner, args.seconds)
        runner.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        env=environment(),
        checks=[[kind, wall, failure] for kind, wall, failure in runner.outcomes],
        loads=runner.loads,
        refusals=dict(runner.refusals))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
