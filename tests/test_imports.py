"""Every name imported in the package and its tests is used, every
top-level definition of the package is referenced, no package module
branches on a gate name, every package name the benchmark harness wraps or
calls resolves, and no CLI mode or calibration run loads scipy or takes a
per-qubit partial trace.  Importing the CLI and the calibration fills no
cache, and every cached table is read-only.

No linter ships with the test dependencies, so this scans the syntax
trees directly.  `from __future__` imports and the re-exports of the
package's `__init__.py` are exempt.
"""
import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = [p for p in sorted(ROOT.glob("src/qdgates/*.py")) + sorted(ROOT.glob("tests/*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 10
    assert [hit for p in paths for hit in unused_imports(p)] == []


def references(tree: ast.AST) -> list:
    """(name, line) of every name, attribute and string constant in `tree`.

    String constants count because the benchmark tracer and the tests'
    monkeypatching name functions by string.
    """
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hits.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            hits.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            hits.append((node.value, node.lineno))
    return hits


def test_no_unreferenced_definitions():
    # a top-level function or class of the package that nothing in src/,
    # tests/ or perfbench/ names outside its own body is dead code
    modules = [p for p in sorted(ROOT.glob("src/qdgates/*.py")) if p.name != "__init__.py"]
    users = modules + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    refs = {path: references(ast.parse(path.read_text(), filename=str(path)))
            for path in users}
    dead = []
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (user == path and line in own)
                       for user, hits in refs.items() for name, line in hits):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert len(modules) > 5
    assert dead == []


def test_gate_layout_written_once():
    # each gate's chain lives in device.LAYOUTS and nowhere else: no module
    # compares against a gate name, so no `if gate == ...` branch can treat
    # every other name as one particular gate
    names, strings = {"CNOT", "TOFFOLI"}, {"cnot", "toffoli"}
    branches, layouts = [], []
    paths = sorted(ROOT.glob("src/qdgates/*.py"))
    assert len(paths) > 5
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Compare) and any(
                    (isinstance(op, ast.Name) and op.id in names)
                    or (isinstance(op, ast.Constant) and op.value in strings)
                    for op in [node.left, *node.comparators]):
                branches.append(where)
            elif (isinstance(node, ast.Call) and path.name != "device.py"
                  and "GateLayout" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))):
                layouts.append(where)
    assert branches == []
    assert layouts == []


def test_parameter_rules_written_once():
    # NoiseConfig, Thresholds and DeviceConfig own their parameters' rules;
    # config.py builds them to validate, so it compares none of their spec
    # attributes and tests no sign of b_ac or an exchange coupling
    owned = {"upsilon", "phonon_p", "delta_e_nuc", "t_k", "t2_star_ns", "t_up", "t_down",
             "j", "j12", "j23"}
    path = ROOT / "src" / "qdgates" / "config.py"
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Compare) or all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        attrs = {op.attr for operand in operands for op in ast.walk(operand)
                 if isinstance(op, ast.Attribute) and dotted(op.value) == "spec"}
        zero = any(isinstance(op, ast.Constant) and op.value == 0 for op in operands)
        sign = zero and any(isinstance(op, (ast.GtE, ast.Lt, ast.LtE)) for op in node.ops)
        getattr_sign = sign and any(isinstance(op, ast.Call) and dotted(op.func) == "getattr"
                                    for operand in operands for op in ast.walk(operand))
        if attrs & owned or (sign and "b_ac" in attrs) or getattr_sign:
            hits.append(f"config.py:{node.lineno} {ast.unparse(node)}")
    assert hits == []

def dotted(node: ast.AST):
    """'a.b.c' of a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def perfbench_names() -> set:
    """Dotted package names the benchmark harness depends on.

    The tracer's SPAN_TARGETS, every name imported from the package, and
    every attribute read off a package module; read from the syntax trees,
    so nothing in perfbench/ is imported or run.
    """
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {"qdgates": "qdgates"}      # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qdgates"):
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and dotted(node.targets[0]) == "SPAN_TARGETS"):
                names |= {f"{module}.{attr}" for module, attr, _ in ast.literal_eval(node.value)}
        for node in ast.walk(tree):
            head, _, rest = (dotted(node) or "").partition(".")
            if isinstance(node, ast.Attribute) and head in aliases:
                names.add(f"{aliases[head]}.{rest}")
    return names


def test_perfbench_names_resolve():
    # the tracer patches nothing for a (module, attribute) that is gone, so
    # a rename would make its per-layer metric read 0 without any error
    for module in ("calibration", "cli"):
        importlib.import_module(f"qdgates.{module}")
    names = perfbench_names()
    missing = []
    for name in sorted(names):
        try:
            functools.reduce(getattr, name.split(".")[1:], importlib.import_module("qdgates"))
        except AttributeError:
            missing.append(name)
    assert missing == []
    # the scan itself still finds the tracer's targets and the workloads' names
    assert {"qdgates.analysis.classify", "qdgates.analysis.evaluate_point",
            "qdgates.analysis.expected_final", "qdgates.analysis._basis_zeeman",
            "qdgates.analysis.flip_time", "qdgates.lindblad.expm_oracle",
            "qdgates.operators.partial_trace", "qdgates.cli.template_from_spec",
            "qdgates.cli.noise_from_spec", "qdgates.calibration.calibrate_upsilon"} <= names


SWEEP_CFG = """\
mode = sweep
device.gate = toffoli
device.j12 = 0.42
device.j23 = 0.42
device.b_ac = 4e-3
sweep.start = 0.15
sweep.stop = 0.45
sweep.points = 2
sweep.fixed_fields = 0.25
"""

RANGES_CFG = """\
mode = ranges
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
sweep.start = 1.6
sweep.stop = 2.4
sweep.points = 2
sweep.fixed_fields = 1.0
sweep.refine = true
"""

SIMULATE_CFG = """\
mode = simulate
device.gate = cnot
device.j = 0.42
device.b_ac = 4e-3
device.b_control = 1.5
device.b_target = 1.0
simulate.initial_state = uu
simulate.samples = 5
"""

RUN_PATH = """\
import contextlib, io, sys
import qdgates.operators
def off_run_path(*args, **kwargs):
    raise AssertionError("partial_trace called on the run path")
# swapping the code, not the name, also reaches copies bound by `from` imports
qdgates.operators.partial_trace.__code__ = off_run_path.__code__
from qdgates.calibration import calibrate_upsilon
from qdgates.cli import main
from qdgates.noise import NoiseConfig
with contextlib.redirect_stdout(io.StringIO()):
    for mode, cfg, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
        assert main([mode, "--config", cfg, "--out", out]) == 0
calibrate_upsilon(NoiseConfig(), log10_lo=4.19, log10_hi=4.2075, tol=1e-2)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_runs_and_calibration_leave_scipy_unloaded(tmp_path):
    # `propagate` exponentiates in numpy; only `expm_oracle` and the
    # lab-frame `evolve` load scipy, and no CLI mode or calibration calls
    # them.  Running the modes, not just importing them, also catches an
    # import made lazily on the run path.  `partial_trace` is the tests'
    # reference for `populations_up` and is stubbed to raise if called.
    args = []
    for mode, cfg in (("simulate", SIMULATE_CFG), ("sweep", SWEEP_CFG),
                      ("ranges", RANGES_CFG)):
        path = tmp_path / f"{mode}.cfg"
        path.write_text(cfg, encoding="utf-8")
        args += [mode, str(path), str(tmp_path / mode)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", RUN_PATH, *args], env=env,
                            check=True, capture_output=True, text=True)
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "simulate" / "trajectory.csv").is_file()
    assert (tmp_path / "sweep" / "sweep_row0.csv").is_file()
    assert (tmp_path / "ranges" / "ranges.csv").is_file()


CACHE_SIZES = """\
import json, sys
import qdgates.calibration, qdgates.cli
print(json.dumps({f"{name}.{attr}": fn.cache_info().currsize
                  for name, module in sorted(sys.modules.items()) if name.startswith("qdgates")
                  for attr, fn in vars(module).items()
                  if hasattr(fn, "cache_info") and fn.__module__ == name}))
"""

# every cached function of the package, with arguments that build its tables
CACHED = {
    "qdgates.analysis._basis_states": [(4,), (8,)],
    "qdgates.analysis.expected_up": [("cnot",), ("toffoli",)],
    "qdgates.cli.build_parser": [()],
    "qdgates.device._chain_terms": [(2,), (3,)],
    "qdgates.device._pauli_sum": [("x", 2), ("y", 3)],
    "qdgates.lindblad._hermitian_gathers": [(4,), (8,)],
    "qdgates.noise._level_pairs": [(4,), (8,)],
    "qdgates.noise._row_layout": [(4, ("hyperfine", "phonon"), True), (8, ("phonon",), False)],
    "qdgates.noise.sigma_z_string": [(4,), (8,)],
    "qdgates.operators.basis_labels": [(2,), (3,)],
    "qdgates.operators.embed_pauli": [("x", 0, 2), ("z", 2, 3)],
    "qdgates.operators.up_mask": [(2,), (3,)],
}


def cached_functions() -> dict:
    """Dotted name -> function of every `functools.cache` function the package defines."""
    found = {}
    for path in sorted(ROOT.glob("src/qdgates/*.py")):
        if path.stem not in ("__init__", "__main__"):     # __main__ runs the CLI
            name = f"qdgates.{path.stem}"
            found.update({f"{name}.{attr}": fn
                          for attr, fn in vars(importlib.import_module(name)).items()
                          if hasattr(fn, "cache_info") and fn.__module__ == name})
    return found


def test_import_fills_no_cache():
    # the benchmark's setup_s times this import in a fresh interpreter:
    # every cached table is built by its first call, none at import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", CACHE_SIZES], env=env,
                            check=True, capture_output=True, text=True)
    sizes = json.loads(result.stdout)
    assert set(sizes) == set(CACHED)
    assert {name: size for name, size in sizes.items() if size} == {}


def test_cached_tables_are_read_only():
    # every caller shares a cached result, so none of its arrays may be written
    functions = cached_functions()
    assert set(functions) == set(CACHED)
    writable = []
    for name, calls in CACHED.items():
        for args in calls:
            result = functions[name](*args)
            parts = result if isinstance(result, tuple) else (result,)
            writable += [f"{name}{args}" for part in parts
                         if isinstance(part, np.ndarray) and part.flags.writeable]
    assert writable == []
