"""Tooling contracts: the benchmark tracer's patch table names functions that
exist, importing the package pulls in no scipy, a check of each command
imports no numpy.ma, no module imports another's
private name, assigns another object's private attribute or reads a private
attribute that it does not define itself, no function but
unit_root computes a phase with np.exp, cli exits only through its EXIT_OF
and REFUSALS tables, one refusal handler and its internal-error code, and
the outcome recorder finds a change and judges each check."""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
OUTCOMES = ROOT / "tools" / "outcomes.py"


def _load(path, name):
    """Execute a script from its source text: nothing is written next to it."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


tracer = _load(TRACER, "perfbench_tracer")


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


# one config of each command, with the Gibbs density, the chain window and
# both sft-check modes
EACH_COMMAND = [
    ("algebra-check", {"d": 3, "m": 6}),
    ("rp-gram", {"d": 3, "m": 8, "state": "gibbs", "beta": 1.0, "draw": {"family": "theorem"}}),
    ("rp-gram", {"d": 2, "m": 8, "state": "gibbs", "beta": 1.0, "draw": {"family": "generic"}}),
    ("reconstruct", {"d": 3, "m": 4, "state": "gibbs", "beta": 1.0,
                     "draw": {"family": "theorem"}}),
    ("reconstruct", {"d": 2, "m": 8, "chain": {"coupling": 1.0, "beta": 1.0},
                     "basis_room": 2, "steps": 2}),
    ("green", {"dims": [8, 8], "mass2": 1.0}),
    ("stochastic", {"dims": [16], "mass2": 1.0, "t_grid": [0.25, 1.0, 4.0]}),
    ("sft-check", {"d": 3, "sequence": [1.0, 0.25, 0.25]}),
    ("sft-check", {"d": 2, "boxes": 2}),
]


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique, np.ma and friends import numpy.ma on first use, about 1.3 MB
    # of peak RSS in a benchmark child
    code = f"""
import json, sys
from rpkit.cli import main
for i, (command, cfg) in enumerate({EACH_COMMAND!r}):
    path = f"cfg{{i}}.json"
    with open(path, "w") as f:
        json.dump(cfg, f)
    rc = main([command, "--config", path, "--seed", "1", "--out", f"out{{i}}.json"])
    print(command, rc, "numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=tmp_path)
    lines = out.stdout.split("\n")[:-1]
    assert [line.split()[0] for line in lines] == [c for c, _ in EACH_COMMAND]
    assert [line for line in lines if not line.endswith(" False")] == []
    assert all(line.split()[1] in "012" for line in lines), lines


def _private(name: str) -> bool:
    """An underscore name; dunders such as __version__ are public."""
    return name.startswith("_") and not name.endswith("__")


def _sources():
    """(file name, AST) of every rpkit module."""
    for path in sorted((ROOT / "src" / "rpkit").glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _source_nodes():
    """(file name, node) for every AST node of every rpkit module."""
    for name, tree in _sources():
        for node in ast.walk(tree):
            yield name, node


def test_no_module_imports_a_private_name_of_another():
    # a name one module shares with another is public: give it a public name
    found = []
    for name, node in _source_nodes():
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rpkit"):
            found += [f"{name}:{node.lineno} {alias.name}"
                      for alias in node.names if _private(alias.name)]
    assert found == []


def test_no_module_assigns_a_private_attribute_of_another_object():
    # an object's underscore attributes are its own: only `self` assigns them,
    # and a value another module decides for it is a public method or property
    found = [f"{name}:{node.lineno} {ast.unparse(node)}" for name, node in _source_nodes()
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
             and _private(node.attr)
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert found == []


def _defined_names(tree) -> set:
    """The names a module defines: its functions, methods and classes, and
    every name or attribute it assigns (dataclass fields included)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_no_module_reads_a_private_attribute_it_does_not_define():
    # x._name is read only in the module that defines _name (lattice's
    # model._grid() is LatticeModel's own method): what another module needs
    # of an object is public
    found = []
    for name, tree in _sources():
        own = _defined_names(tree)
        found += [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and _private(node.attr) and node.attr not in own]
    assert found == []


def test_cli_exits_through_one_refusal_handler_and_its_tables():
    # every exit code is read off EXIT_OF or REFUSALS, or is EXIT_INTERNAL:
    # one `except RpkitError` in main, and no return of an exit literal
    tree = ast.parse((ROOT / "src" / "rpkit" / "cli.py").read_text(encoding="utf-8"))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                and node.type is not None and ast.unparse(node.type) == "RpkitError"]
    assert len(handlers) == 1
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert handlers[0] in list(ast.walk(main))
    codes = {target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name) and target.id.startswith("EXIT_")}
    assert codes == {"EXIT_OF", "EXIT_INTERNAL"}
    found = [f"cli.py:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
             if isinstance(node, ast.Return) and node.value is not None
             and isinstance(node.value, ast.Constant) and type(node.value.value) is int]
    assert found == []


# exit code and stderr label of each refusal type: "config error: ",
# "invalid config: ", "size cap exceeded: " or none
REFUSAL_EXITS = {
    "RpkitError": (2, ""), "ConfigMismatch": (2, ""), "PreconditionViolation": (2, ""),
    "ReconstructionFailure": (2, ""),
    "ConfigError": (3, "config error: "), "UsageError": (3, ""),
    **dict.fromkeys(["InvalidConfig", "InvalidArgument", "InvalidGeometry", "InvalidState",
                     "WrongHalf"], (3, "invalid config: ")),
    "SizeLimit": (4, "size cap exceeded: "), "IOFailure": (5, ""),
}


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_refusal_type_exits_with_its_code_and_label(tmp_path, capsys, monkeypatch):
    # one instance of every RpkitError type of rpkit.errors and rpkit.cli,
    # raised by a command, exits through main with its code and label
    from rpkit import cli, errors
    kinds = [errors.RpkitError] + [kind for kind in _subclasses(errors.RpkitError)
                                   if kind.__module__ in ("rpkit.errors", "rpkit.cli")]
    assert sorted(kind.__name__ for kind in kinds) == sorted(REFUSAL_EXITS)
    config = tmp_path / "cfg.json"
    config.write_text("{}", encoding="utf-8")
    for kind in kinds:
        def refuse(cfg, tol, seed, kind=kind):
            raise kind("planted")

        monkeypatch.setitem(cli.COMMANDS, "green", refuse)
        code, label = REFUSAL_EXITS[kind.__name__]
        assert cli.main(["green", "--config", str(config)]) == code, kind.__name__
        assert capsys.readouterr() == ("", f"rpkit: {label}planted\n"), kind.__name__


def _calls_exp_on_an_imaginary_literal(node) -> bool:
    """node is a call of np.exp whose argument holds an imaginary literal."""
    return (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.exp", "numpy.exp")
            and any(isinstance(sub, ast.Constant) and isinstance(sub.value, complex)
                    for arg in node.args for sub in ast.walk(arg)))


def test_every_phase_is_read_off_the_root_table():
    # unit_root builds algebra.root_table; every other phase is a read of it,
    # so no function computes a phase of its own
    found = []
    for path in sorted((ROOT / "src" / "rpkit").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    func.name != "unit_root":
                found += [f"{path.name}:{node.lineno} {func.name}" for node in ast.walk(func)
                          if _calls_exp_on_an_imaginary_literal(node)]
    assert found == []


def test_outcomes_dump_is_repeatable_and_diff_flags_a_stderr_change(tmp_path, capsys,
                                                                    monkeypatch):
    outcomes = _load(OUTCOMES, "tools_outcomes")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert outcomes.main(["dump", str(out), "--stream", "os-reconstruct:1:1"]) == 0
    assert outcomes.main(["diff", str(a), str(b)]) == 0
    record = json.loads(b.read_text(encoding="utf-8"))
    assert len(record["checks"]) == 26          # one os-reconstruct round
    key = sorted(record["checks"])[0]
    record["checks"][key][2] += "rpkit: planted\n"
    b.write_text(json.dumps(record), encoding="utf-8")
    capsys.readouterr()
    assert outcomes.main(["diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "exit 0, report 0, stderr 1" in out and key in out
    # an exit-code flip is listed in full, ahead of the capped key list, even
    # among more differing keys than the list shows
    flip = sorted(record["checks"])[-1]
    record["checks"][flip][0] = 6
    record["checks"][flip][2] += "rpkit: internal error: planted\n"
    for k in sorted(record["checks"])[:-1]:
        record["checks"][k][1] = "planted"
    b.write_text(json.dumps(record), encoding="utf-8")
    monkeypatch.setattr(outcomes, "SHOWN", 2)
    assert outcomes.main(["diff", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    head = lines.index(f"  exit {json.loads(a.read_text())['checks'][flip][0]} -> 6: {flip}")
    assert lines[head + 2] == "    rpkit: internal error: planted"
    assert head < min(i for i, line in enumerate(lines) if line.startswith("  differs"))
    assert any("26 differing" in line for line in lines)


def test_outcomes_judge_lists_a_failed_check(tmp_path, capsys):
    # every check is held to its perfbench/oracle.py rule; one planted crash
    # among the 26 checks of a round is listed by its key
    outcomes = _load(OUTCOMES, "tools_outcomes")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert outcomes.main(["dump", str(a), "--stream", "os-reconstruct:1:1"]) == 0
    capsys.readouterr()
    assert outcomes.main(["judge", str(a)]) == 0
    assert capsys.readouterr().out == "26 checks judged, 0 failed\n"
    record = json.loads(a.read_text(encoding="utf-8"))
    crash = sorted(record["checks"])[3]
    record["checks"][crash] = [6, None, "rpkit: internal error: planted\n"]
    b.write_text(json.dumps(record), encoding="utf-8")
    assert outcomes.main(["judge", str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "26 checks judged, 1 failed"
    assert len(lines) == 2 and lines[1].startswith(f"  FAIL {crash}: exit 6, expected ")


def test_outcomes_diff_prints_the_largest_move_of_each_result(tmp_path, capsys):
    # reports whose exit codes agree: the largest |delta| of each numeric
    # results key, complex entries and lists included, and of each numeric
    # field of a list of objects (the scan's rows); a flipped check and the
    # keys that hold no numbers are left out, and the exit status stays 1
    outcomes = _load(OUTCOMES, "tools_outcomes")

    def record(path, checks):
        path.write_text(json.dumps({"checks": checks}), encoding="utf-8")
        return str(path)

    def report(results):
        return json.dumps({"command": "rp-gram", "results": results})

    rows = [{"t": 0.25, "min_eig": -1e-3, "violated": True},
            {"t": 100.0, "min_eig": 0.0, "violated": False}]
    base = {"min_eig": 1.0, "verdict": "positive", "psd": True, "worst_sector": None,
            "matrix": [[{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.5}]], "basis_size": 2,
            "rows": rows}
    moved = dict(base, min_eig=1.0 + 3e-14, matrix=[[{"re": 1.0, "im": 0.0},
                                                     {"re": 0.0, "im": 0.5 - 2e-15}]],
                 rows=[dict(rows[0], violated=False), dict(rows[1], min_eig=-4e-16)])
    other = dict(base, min_eig=1.0 - 5e-14, rows=[dict(rows[0], min_eig=-1e-3 + 1e-16),
                                                  rows[1]])
    a = record(tmp_path / "a.json", {"g/s1/r0/00": [0, report(base), ""],
                                     "g/s1/r0/01": [0, report(base), ""],
                                     "g/s1/r0/02": [0, report(base), ""]})
    b = record(tmp_path / "b.json", {"g/s1/r0/00": [0, report(moved), ""],
                                     "g/s1/r0/01": [0, report(other), ""],
                                     "g/s1/r0/02": [1, report(dict(base, min_eig=-9.0)), ""]})
    capsys.readouterr()
    assert outcomes.main(["diff", a, b]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if "max |delta|" in line]
    assert lines == ["  max |delta| results.matrix: 2e-15 (g/s1/r0/00)",
                     "  max |delta| results.min_eig: 5e-14 (g/s1/r0/01)",
                     "  max |delta| results.rows[].min_eig: 4e-16 (g/s1/r0/00)"]


def test_outcomes_diff_names_a_field_that_changed_shape(tmp_path, capsys):
    # a results field whose values changed shape is named with its count and
    # first check, not skipped: a shorter matrix, a list that became a
    # number, a field one side lacks; equal shapes keep the |delta| line
    outcomes = _load(OUTCOMES, "tools_outcomes")

    def record(path, reports):
        checks = {f"g/s1/r0/{i:02d}": [0, json.dumps({"results": r}), ""]
                  for i, r in enumerate(reports)}
        path.write_text(json.dumps({"checks": checks}), encoding="utf-8")
        return str(path)

    z = {"re": 1.0, "im": 0.0}
    base = {"min_eig": 1.0, "matrix": [[z, z], [z, z]], "witness": [z, z], "gap": 0.5}
    a = record(tmp_path / "a.json", [base, base, base])
    b = record(tmp_path / "b.json", [dict(base, min_eig=2.0),
                                     dict(base, matrix=[[z]], witness=1.0),
                                     {"min_eig": 1.0, "matrix": [[z]], "witness": [z, z]}])
    capsys.readouterr()
    assert outcomes.main(["diff", a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "results." in line] == [
        "  max |delta| results.min_eig: 1 (g/s1/r0/00)",
        "  results.gap: shape differs on 1 checks (g/s1/r0/02)",
        "  results.matrix: shape differs on 2 checks (g/s1/r0/01)",
        "  results.witness: shape differs on 1 checks (g/s1/r0/01)"]
