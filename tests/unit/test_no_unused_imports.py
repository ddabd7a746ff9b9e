"""No module under ``src/repro`` imports a name it never uses.

The repo has no linter, so this AST scan stands in for one, in the
spirit of ``test_no_process_pool.py``.  A name counts as used when the
module references it anywhere (string annotations included, which is
how ``TYPE_CHECKING``-only imports are used) or lists it in
``__all__``.  Package ``__init__.py`` files are skipped: importing
there is how a package re-exports its API.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _annotations(node: ast.AST) -> List[ast.expr]:
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    found = [arg.annotation for arg in every if arg.annotation is not None]
    if node.returns is not None:
        found.append(node.returns)
    return found


def _names_in_string_annotation(annotation: ast.expr) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)
            }
    return names


def _assigns_all(node: ast.stmt) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


def unused_imports(source: str) -> List[str]:
    """Names the module's import statements bind but nothing uses."""
    tree = ast.parse(source)
    bound: Dict[str, int] = {}
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in _annotations(node):
            used |= _names_in_string_annotation(annotation)
    for node in tree.body:
        if _assigns_all(node):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return sorted(
        f"{name} (line {line})"
        for name, line in bound.items()
        if name not in used and name != "*"
    )


def test_scan_sees_string_annotations_and_all():
    source = (
        "from typing import TYPE_CHECKING, Optional\n"
        "import numpy as np\n"
        "from os import path, sep\n"
        "if TYPE_CHECKING:\n"
        "    from x import Hidden\n"
        "__all__ = ['sep']\n"
        "def f(a: 'Optional[Hidden]') -> None: ...\n"
    )
    assert unused_imports(source) == ["np (line 2)", "path (line 3)"]


def test_no_unused_imports_in_src():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for found in [unused_imports(path.read_text(encoding="utf-8"))]
        if found
    }
    assert not offenders, f"unused imports: {offenders}"
