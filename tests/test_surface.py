"""The package's public surface: every public definition has a caller, every
private one is named in the package, bad input has one exception type, the
search names no ``Metrics`` field, and README's library example runs as written."""
from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

from diagopt.core import Metrics

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagopt"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted(d.glob("*.py"))}


def _definitions(body: list[ast.stmt]) -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _public(body: list[ast.stmt]) -> list[ast.FunctionDef | ast.ClassDef]:
    return [node for node in _definitions(body) if not node.name.startswith("_")]


def _private(body: list[ast.stmt]) -> list[ast.FunctionDef | ast.ClassDef]:
    """The private definitions; a dunder method is named by the language."""
    return [n for n in _definitions(body) if n.name.startswith("_") and not n.name.endswith("__")]


def _named(*dirs: Path) -> set[str]:
    """Every name a ``Name``, an ``Attribute`` or an import in ``dirs`` gives."""
    used = set()
    for tree in _trees(*dirs).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_definition_has_a_caller():
    """A public top-level function or class of ``src/diagopt``, and a public
    method or property of a public class, is named by a ``Name``, an
    ``Attribute`` or an import in the package or the benchmark; one only
    tests call is API to delete."""
    defined = set()
    for path, tree in _trees(PACKAGE).items():
        for node in _public(tree.body):
            defined.add((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body):
                    defined.add((path.name, f"{node.name}.{member.name}", member.name))
    used = _named(PACKAGE, ROOT / "perfbench")
    assert sorted((mod, qual) for mod, qual, name in defined if name not in used) == []


def test_every_private_definition_is_named_in_the_package():
    """A private top-level function or class of ``src/diagopt``, and a private
    method of any class there, is named by a ``Name``, an ``Attribute`` or an
    import in the package itself; one that only tests or nothing names is
    dead code."""
    defined = set()
    for path, tree in _trees(PACKAGE).items():
        for node in _private(tree.body):
            defined.add((path.name, node.name, node.name))
        for cls in _definitions(tree.body):
            if isinstance(cls, ast.ClassDef):
                for member in _private(cls.body):
                    defined.add((path.name, f"{cls.name}.{member.name}", member.name))
    used = _named(PACKAGE)
    assert sorted((mod, qual) for mod, qual, name in defined if name not in used) == []


def test_one_exception_type_for_bad_input():
    """``core.InputError`` is the one exception class the package defines,
    and ``cli.main`` reports it and ``OSError`` as one ``error:`` line, so a
    new error class cannot escape the CLI as a traceback."""
    defined = []
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"diagopt.{info.name}")
        defined += [
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        ]
    assert defined == ["core.InputError"]
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    handlers = [ast.unparse(n.type) for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert handlers == ["(InputError, OSError)"]


def test_search_names_no_metrics_field():
    """The search reads the side rows from ``Goal.rows`` by ``FIELDS`` index,
    so no string constant in the solver names a ``Metrics`` field: a row
    special-cased by name would be a second definition of the rows."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    named = [
        f"{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in Metrics._fields
    ]
    assert named == []


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports the package from ``src``."""
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout


def test_file_formats_do_not_import_the_search():
    """Reading and writing documents loads no search code."""
    code = "import sys, diagopt.fileio, diagopt.instances; print('diagopt.solver' in sys.modules)"
    assert _fresh_stdout(code) == "False\n"


def test_package_does_not_import_scipy():
    """numpy is the one runtime dependency: every module loaded, scipy is not."""
    modules = [f"diagopt.{info.name}" for info in pkgutil.iter_modules([str(PACKAGE)])]
    assert "diagopt.encoder" in modules and "diagopt.cli" in modules
    code = (
        f"import sys, {', '.join(modules)}; "
        "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    )
    assert _fresh_stdout(code) == "[]\n"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert (tmp_path / "model3.lp").read_text().startswith("Maximize")
