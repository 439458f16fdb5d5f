"""Self-test of the benchmark's own machinery (not part of the rpkit test suite).

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

It checks that
  * patching leaves no rpkit module or class holding an unwrapped traced
    function (a planted stale alias must be caught), and restoring leaves
    nothing wrapped;
  * the exact work counters repeat for one seed and change with another;
  * self times add up to the traced root time;
  * the oracle rejects outcomes that break its rules;
  * calibration scales an interval by the loads around it.
It takes about a minute and exits non-zero on the first failed check.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calib  # noqa: E402
import child  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Check, Stream  # noqa: E402


def check_patch_complete():
    import rpkit.algebra
    import rpkit.verifier

    tracer = Tracer()
    tracer.patch()
    try:
        left = tracer.unwrapped_references()
        assert not left, f"unwrapped after patch: {left}"
        assert getattr(rpkit.verifier.evaluate, "perfbench_span", None) == "algebra.evaluate"
        assert getattr(rpkit.algebra.Algebra.monomial_rep, "perfbench_span", None)
        # a stale alias planted after patching must be reported
        original = rpkit.verifier.evaluate.__wrapped__
        rpkit.verifier._stale_alias = original
        try:
            assert "rpkit.verifier._stale_alias" in tracer.unwrapped_references()
        finally:
            del rpkit.verifier._stale_alias
    finally:
        tracer.restore()
    left = Tracer.wrapped_references()
    assert not left, f"still wrapped after restore: {left}"
    assert not hasattr(rpkit.verifier.evaluate, "perfbench_span")
    print("ok  patch covers every alias; restore unwraps everything")


def traced_round(workload, seed):
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        runner = child.Runner(Path(tmp))
        res = child.traced(Stream(workload, seed), runner, seconds=0.0)
    failures = [o for o in runner.outcomes if o[2] is not None]
    assert not failures, f"oracle failures: {failures}"
    return res


def check_counters_and_self_time():
    first = traced_round("os-reconstruct", 11)
    again = traced_round("os-reconstruct", 11)
    other = traced_round("os-reconstruct", 12)

    def exact(res):
        return dict(res["counters"], distinct=res["distinct"],
                    monomial_calls=res["calls"]["algebra.monomial_rep"])

    assert exact(first) == exact(again), (exact(first), exact(again))
    assert exact(first) != exact(other), "counters did not change with the seed"
    changed = sorted(k for k in exact(first) if exact(first)[k] != exact(other)[k])
    print(f"ok  counters repeat exactly for one seed; another seed changes {changed}")

    for res in (first, other):
        self_total = sum(res["self_s"].values())
        assert abs(self_total - res["root_s"]) <= 1e-9 * max(1.0, res["root_s"]), \
            (self_total, res["root_s"])
        wall = self_total + res["remainder_s"]
        assert abs(wall - res["traced_wall_s"]) <= 1e-9 * max(1.0, wall), \
            (wall, res["traced_wall_s"])
        assert not res["leftover"], res["leftover"]
    print("ok  self times + untraced remainder = traced wall time")


def check_oracle_rejects():
    def verdict(v, **extra):
        return {"results": dict(verdict=v, **extra)}

    neg = Check("k", "rp-gram", {}, 0, "gram-negative")
    assert oracle.judge(neg, 0, verdict("positive"), "")
    assert oracle.judge(neg, 1, verdict("positive", min_eig=-0.5), "")
    assert oracle.judge(neg, 1, verdict("negative", min_eig=-0.5), "") is None

    green = Check("k", "green", {}, 0, "green", {"chain_gap": 0.9624236501192069})
    ok = verdict("positive", verdicts_agree=True, monotonicity_min_eig=-1e-16,
                 chain_gap=0.9624236501192069)
    assert oracle.judge(green, 0, ok, "") is None
    assert oracle.judge(green, 0, dict(ok, results=dict(ok["results"], verdicts_agree=False)), "")
    assert oracle.judge(green, 0, dict(ok, results=dict(ok["results"], chain_gap=0.9)), "")

    generic = Check("k", "rp-gram", {}, 0, "gram-not-applicable")
    na = verdict("not-applicable", reflection_defect=0.3)
    assert oracle.judge(generic, 2, na, "") is None
    assert oracle.judge(generic, 2, None, "rpkit: basis Gram is not PSD")
    assert oracle.judge(generic, 2, verdict("positive", reflection_defect=0.3), "")
    assert oracle.judge(generic, 2, verdict("not-applicable", reflection_defect=0.0), "")

    window = Check("k", "reconstruct", {}, 0, "reconstruct", {"must_succeed": True})
    good = verdict("positive", transfer_eigenvalues=[0.01, 1.0], hamiltonian_spectrum=[0.0])
    assert oracle.judge(window, 0, good, "") is None
    assert oracle.judge(window, 1, verdict("negative"), "")
    assert oracle.judge(window, 2, None, "rpkit: quantized shift is not positive")
    assert oracle.judge(window, 2, None, "")
    assert oracle.judge(window, 2, None, "rpkit: null vector maps to a class of norm 3.0e-03")
    assert oracle.judge(window, 2, None, "rpkit: null vector maps to a class of norm 1.1e-08") is None
    assert oracle.judge(window, 2, None,
                        "rpkit: quantized shift is not positive (min eigenvalue -2.891e-07)") is None
    assert oracle.judge(window, 2, None,
                        "rpkit: quantized shift is not positive (min eigenvalue -1.416e-01)")
    bad_t = verdict("positive", transfer_eigenvalues=[-0.01, 1.0], hamiltonian_spectrum=[0.0])
    assert oracle.judge(window, 0, bad_t, "")

    draw = Check("k", "reconstruct", {}, 0, "reconstruct", {"must_succeed": False})
    shifted = "rpkit: functional not shift-invariant on the basis support (defect 1e-1)"
    assert oracle.judge(draw, 2, None, shifted) is None
    assert oracle.refusal(draw, 2, None, shifted) == "not shift-invariant"
    assert oracle.judge(draw, 2, None, "rpkit: something else went wrong")
    assert oracle.judge(draw, 2, None, "")
    not_psd = {"results": {"gram_verdict": "negative", "min_eig": -0.2}}
    assert oracle.judge(draw, 2, not_psd, "") is None
    assert oracle.refusal(draw, 2, not_psd, "") == "gram not positive"
    assert oracle.judge(draw, 2, {"results": {"gram_verdict": "positive"}}, "")
    assert oracle.judge(window, 2, not_psd, "")
    assert oracle.refusal(window, 2, None, "rpkit: null vector maps to a class of norm 1.1e-08") \
        == "marginal null class"

    scan = Check("k", "stochastic", {}, 0, "stochastic")
    rows = [{"t": 0.5, "min_eig": -1e-3, "violated": True},
            {"t": 100.0, "min_eig": -1e-16, "violated": False}]
    assert oracle.judge(scan, 1, verdict("negative", rows=rows), "") is None
    assert oracle.judge(scan, 1, verdict("negative", rows=rows[1:]), "")
    print("ok  oracle rejects wrong exit codes, verdicts and invariants")


def check_normalise():
    ref = calib.REF_S
    assert calib.normalise([1.0], [ref, ref]) == [1.0]
    slow = calib.normalise([3.0, 1.5], [3 * ref, 3 * ref, ref])
    assert abs(slow[0] - 1.0) < 1e-12 and abs(slow[1] - 0.75) < 1e-12, slow
    print("ok  calibration scales each interval by the loads around it")


def main() -> int:
    if not Path("src/rpkit/cli.py").is_file():
        print("selftest: run from the root of an rpkit checkout", file=sys.stderr)
        return 2
    check_patch_complete()
    check_oracle_rejects()
    check_normalise()
    check_counters_and_self_time()
    return 0


if __name__ == "__main__":
    sys.exit(main())
