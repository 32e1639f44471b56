"""Every exported name has a caller, and the package exports exactly
what its modules list.

``zxfactor.__all__`` is the sorted union of the modules' ``__all__``
lists, and every other public name of the package is one of its six
submodules.  The README's library example runs.

A name in ``zxfactor.__all__`` or in a package module's ``__all__`` must
be used somewhere outside its own definition: in the package, in the
benchmark harness (``bench/``) or in the README's library example.  A use
is a name or attribute read; inside the package, a string equal to the
name also counts, because the classifier picks its engines by name
(``getattr(engines, engine)``).  Tests do not count: a name only tests
use is not part of the library.  The check goes by name alone, so an
attribute of the same name read from another object (a field such as
``SquareClass.valuation``) also counts as a use.  The layers' exports
must also keep the shape that the benchmark's tracer (``bench/spans.py``)
wraps: plain functions and classes, looked up where they are defined.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import zxfactor
from oracles import spy

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zxfactor"
MODULES = [
    module
    for module in (importlib.import_module(f"zxfactor.{path.stem}") for path in sorted(PACKAGE.glob("[a-z]*.py")))
    if hasattr(module, "__all__")
]
SUBMODULES = ("classify", "factor", "limits", "oracle", "padics", "series")


def _library_example() -> str:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _trees():
    """(module name, tree) for every source a caller may sit in; the
    module name is None outside the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield f"zxfactor.{path.stem}", ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "bench").glob("*.py")):
        yield None, ast.parse(path.read_text(encoding="utf-8"))
    yield None, ast.parse(_library_example())


def _defined_names(statement) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _references():
    """(top-level names the enclosing statement defines, referenced name)
    for every reference in every source, leaving out ``__all__`` lists."""
    for module, tree in _trees():
        for statement in tree.body:
            defines = _defined_names(statement)
            if "__all__" in defines:
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    yield defines, node.id
                elif isinstance(node, ast.Attribute):
                    yield defines, node.attr
                elif module and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    yield defines, node.value


def test_every_package_export_comes_from_a_module_export():
    assert [module.__name__ for module in MODULES] == [f"zxfactor.{name}" for name in SUBMODULES]
    assert zxfactor.__all__ == sorted({name for module in MODULES for name in module.__all__})


def test_every_public_name_of_the_package_is_exported():
    # in a fresh interpreter, since importing zxfactor.cli here binds it too
    names = subprocess.run(
        [sys.executable, "-c", "import zxfactor; print(*sorted(vars(zxfactor)))"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    public = {name for name in names if not name.startswith("_")}
    assert sorted(public - set(zxfactor.__all__)) == sorted(SUBMODULES)
    assert "__version__" in names and set(zxfactor.__all__) <= public


def test_library_example_runs():
    exec(compile(_library_example(), "README.md", "exec"), {})


def test_every_export_has_a_caller():
    # a reference inside the name's own definition (a recursive call, an
    # error message naming the function) is no caller
    callers = {name for defines, name in _references() if name not in defines}
    uncalled = [f"{module.__name__}.{name}" for module in MODULES for name in module.__all__ if name not in callers]
    assert uncalled == []


def test_layer_exports_are_plain_functions_or_classes():
    # the benchmark's tracer wraps each exported callable of these layers
    # and refuses anything else, such as a functools.lru_cache wrapper
    for layer in ("padics", "series", "classify", "factor", "oracle"):
        module = importlib.import_module(f"zxfactor.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            assert not callable(obj) or inspect.isfunction(obj) or inspect.isclass(obj), f"{layer}.{name}"


def test_classifier_looks_its_engine_up_at_call_time(monkeypatch):
    # a wrapper bound in zxfactor.factor, as the tracer binds one, sees the call
    from zxfactor import factor
    from zxfactor.classify import QuadInput, classify_quadratic

    calls = spy(monkeypatch, "factor_simple_root", factor)
    classify_quadratic(QuadInput(3, 5, 2, 2, 1), terms=8)
    assert len(calls) == 1
