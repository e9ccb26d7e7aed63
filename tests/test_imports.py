"""Import hygiene: every name a package module imports is used in it, and
every name it exports exists."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chernlab

MODULES = sorted(p for p in Path(chernlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _all_values(tree) -> list:
    """The value nodes of the module's `__all__` assignments."""
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module, as the root of a dotted name, or as a string in `__all__`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for value in _all_values(tree):
        used.update(c.value for c in ast.walk(value) if isinstance(c, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "import scipy.sparse.csgraph as csgraph\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["csgraph (line 1)"]


def imports_scalars(source: str) -> bool:
    """Whether a module imports chernlab.scalars or a name from it, in any
    import form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[-1] == "scalars" for name in names):
            return True
    return False


@pytest.mark.parametrize("module", ["operators", "tracemean", "metric"])
def test_float_layers_do_not_import_scalars(module):
    # one operator representation: the exact scalars serve the chain algebra
    # and the exact finite-rank traces (series, chains, cocycles), never the
    # operator, diagonal or metric layers
    source = (Path(chernlab.__file__).parent / f"{module}.py").read_text()
    assert not imports_scalars(source)


def test_scalars_import_detector():
    for line in ("from .scalars import QGauss", "from . import scalars",
                 "from chernlab.scalars import QGauss", "import chernlab.scalars",
                 "from chernlab import scalars"):
        assert imports_scalars(line), line
    assert not imports_scalars("from .series import FourierSeries\nimport numpy as np\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_resolve(path):
    # the unused-import check counts an __all__ string as a use, so a name
    # left in __all__ after its definition is deleted is caught only here
    module = importlib.import_module(f"chernlab.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_bench_spans_resolve():
    # bench/run.py --trace 1 wraps chernlab.<layer>.<path> for every entry in
    # SPANS; a deleted or renamed entry point would break only that run
    spans_py = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    tree = ast.parse(spans_py.read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets))
    assert spans
    missing = []
    for layer, path, _ in spans:
        obj = importlib.import_module(f"chernlab.{layer}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{layer}.{path}")
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]


def test_a_pass_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; a lazy `import scipy` inside an
    # operator would only move the import's cost into the first pass
    script = ("import sys, chernlab\n"
              "report = chernlab.run_experiment('szego-diagonal-dense-check', {}, sys.argv[1])\n"
              "assert all(a.passed for a in report.assertions)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(chernlab.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("workload, also_called", [
    ("holder-grid", []),
    ("commutator-spectrum", []),
    ("operator-diagonals", []),
    # the circle seminorm path; its span is pinned to holder-grid
    ("small-catalog", ["metric.estimate_holder_seminorm"]),
], ids=["holder-grid", "commutator-spectrum", "operator-diagonals", "small-catalog"])
def test_bench_spans_are_called(workload, also_called):
    # a span that no pass calls (a renamed call path, an entry point the
    # program stopped using) shows only in a traced benchmark run
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    assert info["silent_spans"] == []
    result = json.loads(lines[-1])
    assert result["correct"] is True
    for span in also_called:
        assert result["metrics"][f"{span}.calls"]["value"] > 0


def _is_register_runner(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "register" for d in node.decorator_list)


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in node.decorator_list)


def dead_definitions(package: dict, sources: list) -> list:
    """Module-level functions and classes of `package` ({module: source})
    that no source names, and methods that no source reads as an attribute.

    Definitions, imports and `__all__` strings are not references.  A
    dotted string such as a bench span name counts for each of its parts.
    A static method counts only where it is named with its own class,
    `Class.name` or a dotted string ending in it, so a same-named method
    of another class does not keep it alive.  Dunders and `@register`
    experiment runners are skipped.
    """
    names, attrs, qualified = set(), set(), set()
    for source in sources:
        tree = ast.parse(source)
        exports = {id(c) for value in _all_values(tree) for c in ast.walk(value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add(f"{node.value.id}.{node.attr}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exports):
                parts = node.value.split(".")
                attrs.update(parts)
                qualified.add(".".join(parts[-2:]))
    dead = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _is_register_runner(node):
                continue
            if node.name not in names | attrs:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not (item.name.startswith("__") and item.name.endswith("__"))
                         and (f"{node.name}.{item.name}" not in qualified
                              if _is_static(item) else item.name not in attrs)]
    return sorted(dead)


def test_no_dead_definitions():
    # only the program and the benchmark count as references: a definition
    # that just the tests name belongs in the tests, as an oracle
    package = {p.stem: p.read_text() for p in MODULES}
    sources = [p.read_text() for d in ("src", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_definitions(package, sources) == []


def test_dead_definition_detector():
    package = {"m": (
        "def used(): pass\n"
        "def unused(): pass\n"
        "def spanned(): pass\n"
        "class K:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    def __repr__(self): return ''\n"
        "@register('x')\n"
        "def runner(): pass\n"
        "class A:\n"
        "    @staticmethod\n"
        "    def zero(): pass\n"
        "    @staticmethod\n"
        "    def spanned_static(): pass\n"
        "class B:\n"
        "    @staticmethod\n"
        "    def zero(): pass\n")}
    # A.zero() is the only call of a `zero`; it must not keep B.zero alive
    caller = ("from m import unused, K\n__all__ = ['unused', 'unread']\n"
              "used()\nK().read()\nSPANS = (('m', 'K.spanned'), ('m', 'A.spanned_static'))\n"
              "A.zero()\nB()\n")
    assert dead_definitions(package, [package["m"], caller]) == [
        "m.B.zero", "m.K.unread", "m.unused"]
