"""Outside-in tracer for rpkit: wraps public functions from the benchmark's side.

patch() rebinds every reference that an rpkit module or class holds to a
traced function, including aliases made by ``from .x import f``, to a wrapper
that records a span (name, start, end, parent) in memory.  numpy's solvers are
wrapped on ``numpy.linalg``, where rpkit looks them up at call time.
restore() puts every original back.  Nothing under ``src/`` changes.

After each check, fold() turns the recorded spans into per-name call counts,
inclusive times and self times (a span's duration minus that of its direct
children), then drops them.  Self times of all spans add up to the time of the
root spans, so self times plus the untraced remainder around each root give
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_gram(tr, args, kwargs, result):
    tr.counters["verifier.gram.entries"] += len(_arg(args, kwargs, 2, "basis")) ** 2


def _count_covariance(tr, args, kwargs, result):
    testfns = _arg(args, kwargs, 1, "testfns")
    n = len(_arg(args, kwargs, 0, "gs").half) if testfns is None else len(testfns)
    tr.counters["lattice.covariance_rp.entries"] += n * n


def _count_eigh(tr, args, kwargs, result):
    tr.counters["linalg.eigh.n3"] += _arg(args, kwargs, 0, "a").shape[-1] ** 3


def _count_monomial(tr, args, kwargs, result):
    algebra, k = args[0], _arg(args, kwargs, 1, "k")
    tr.distinct.add((id(algebra), tuple(int(x) % algebra.cfg.d for x in k)))


def _count_report(tr, args, kwargs, result):
    tr.counters["report.bytes"] += len(result.encode("utf-8"))


# (span name, module, attribute path, work counter or None)
TARGETS = (
    ("algebra.init", "rpkit.algebra", "Algebra.__init__", None),
    ("algebra.monomial_rep", "rpkit.algebra", "Algebra.monomial_rep", _count_monomial),
    ("algebra.mul", "rpkit.algebra", "AlgebraElement.__mul__", None),
    ("algebra.density", "rpkit.algebra", "StateFunctional.density", None),
    ("algebra.evaluate", "rpkit.algebra", "evaluate", None),
    ("algebra.theta", "rpkit.algebra", "theta", None),
    ("algebra.twisted_product", "rpkit.algebra", "twisted_product", None),
    ("verifier.gram", "rpkit.verifier", "gram", _count_gram),
    ("verifier.gram_report", "rpkit.verifier", "gram_report_from_matrix", None),
    ("verifier.coupling_decomposition", "rpkit.verifier", "coupling_decomposition", None),
    ("verifier.sft_positivity", "rpkit.verifier", "sft_positivity", None),
    ("verifier.draw", "rpkit.verifier", "draw_theorem_hamiltonian", None),
    ("verifier.draw", "rpkit.verifier", "draw_generic_hamiltonian", None),
    ("reconstruction.quantize", "rpkit.reconstruction", "quantize", None),
    ("reconstruction.transfer_operator", "rpkit.reconstruction", "transfer_operator", None),
    ("reconstruction.compress_shift", "rpkit.reconstruction", "compress_shift", None),
    ("reconstruction.spectrum_report", "rpkit.reconstruction", "spectrum_report", None),
    ("chains.uniform_chain_state", "rpkit.chains", "uniform_chain_state", None),
    ("lattice.lattice_operator", "rpkit.lattice", "lattice_operator", None),
    ("lattice.green_set", "rpkit.lattice", "green_set", None),
    ("lattice.monotonicity_verdict", "rpkit.lattice", "monotonicity_verdict", None),
    ("lattice.covariance_rp", "rpkit.lattice", "covariance_rp", _count_covariance),
    ("lattice.stochastic_covariance", "rpkit.lattice", "stochastic_covariance", None),
    ("lattice.stochastic_rp_scan", "rpkit.lattice", "stochastic_rp_scan", None),
    ("lattice.chain_gap", "rpkit.lattice", "chain_gap", None),
    ("boxes.sft", "rpkit.boxes", "sft", None),
    ("boxes.star_product", "rpkit.boxes", "star_product", None),
    ("report.to_text", "rpkit.report", "to_text", _count_report),
    ("cli.main", "rpkit.cli", "main", None),
    ("linalg.eigh", "numpy.linalg", "eigh", _count_eigh),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", None),
    ("linalg.inv", "numpy.linalg", "inv", None),
)

COUNTERS = ("verifier.gram.entries", "lattice.covariance_rp.entries",
            "linalg.eigh.n3", "report.bytes")


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def rpkit_namespaces():
    """Every rpkit module and every class defined in one, as (label, object) pairs."""
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "rpkit" or mod_name.startswith("rpkit.")):
            continue
        out.append((mod_name, mod))
        for attr, val in vars(mod).items():
            if isinstance(val, type) and getattr(val, "__module__", None) == mod_name:
                out.append((f"{mod_name}.{attr}", val))
    return out


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]; cleared by fold()
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self.originals = set()   # ids of the wrapped originals
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.distinct = set()    # (algebra id, monomial key) within the current check
        self.distinct_total = 0
        self.root_s = 0.0

    # -- patching ---------------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.perfbench_span = name
        return wrapper

    def patch(self):
        """Rebind every rpkit reference to a traced function; numpy's solvers too."""
        if self._patched:
            raise RuntimeError("tracer is already patched")
        importlib.import_module("rpkit.cli")   # loads the package and every module
        namespaces = rpkit_namespaces()
        for name, module, path, count in TARGETS:
            owner, attr = _resolve(module, path)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, count)
            self.originals.add(id(original))
            targets = [owner] + [ns for _, ns in namespaces if ns is not owner]
            for ns in targets:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def restore(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def unwrapped_references(self):
        """Labels of rpkit (or numpy.linalg) bindings that still hold an original."""
        import numpy.linalg
        found = []
        for label, ns in rpkit_namespaces() + [("numpy.linalg", numpy.linalg)]:
            for key, val in vars(ns).items():
                if id(val) in self.originals:
                    found.append(f"{label}.{key}")
        return found

    @staticmethod
    def wrapped_references():
        """Labels of bindings that still hold a benchmark wrapper."""
        import numpy.linalg
        return [f"{label}.{key}"
                for label, ns in rpkit_namespaces() + [("numpy.linalg", numpy.linalg)]
                for key, val in vars(ns).items() if hasattr(val, "perfbench_span")]

    # -- aggregation ------------------------------------------------------------

    def fold(self):
        """Fold the spans of one check into the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.calls[name] += 1
            self.incl_s[name] += dur
            self.self_s[name] += dur - child[i]
            if parent < 0:
                self.root_s += dur
        spans.clear()
        self.distinct_total += len(self.distinct)
        self.distinct.clear()
