"""Tooling contracts: the benchmark tracer's patch table names functions that
exist, and importing the package pulls in no scipy."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    """Execute tracer.py from its source text: nothing is written next to it."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, module, path, count", tracer.TARGETS,
                         ids=[f"{t[0]}:{t[2]}" for t in tracer.TARGETS])
def test_tracer_target_resolves_to_callable(name, module, path, count):
    owner, attr = tracer._resolve(module, path)
    # patch() reads the attribute from the owner's own namespace
    assert attr in vars(owner), f"{module}.{path} is not defined on its owner"
    assert callable(vars(owner)[attr])
    assert count is None or callable(count)


def test_cli_imports_no_scipy():
    # scipy is installed but unused: importing it would slow every launch
    code = ("import sys, rpkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
