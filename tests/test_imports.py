"""Import hygiene: every name a package module imports is used in it, and
every name it exports exists."""
import ast
import importlib
from pathlib import Path

import pytest

import chernlab

MODULES = sorted(p for p in Path(chernlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "import scipy.sparse.csgraph as csgraph\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(source) == ["csgraph (line 1)"]


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
