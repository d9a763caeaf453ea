"""No function, class or method in the package that the package never refers to.

A definition counts as used when some Name or Attribute node in
src/fiscalforge carries its name; a string in __all__ does not count.
Dunder methods are called by Python itself. The names the benchmark's
tracer wraps (perfbench/tracer.py's SPANNED and PROBED tables) are the
only others allowed: the tracer and its contract test refer to them.
"""

import ast
import importlib.util

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "fiscalforge"


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{layer}.{qualname}" for table in (tracer.SPANNED, tracer.PROBED)
            for layer, names in table.items() for qualname in names}


def _definitions(tree: ast.Module, module: str):
    """(module.qualname, name) of each top-level definition and each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_definition_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = {qualname for module, tree in trees.items()
              for qualname, name in _definitions(tree, module)
              if name not in used and not (name.startswith("__") and name.endswith("__"))}
    assert unused <= _traced(), sorted(unused - _traced())
