"""No public API that only the tests call.

Every public function or class defined in ``src/xmodal`` must be used by
the program: referenced by the package's own code (the package
``__init__`` re-exports do not count), by a script in ``scripts/``, or
imported by the acceptance gate, ``tests/test_acceptance.py``. A helper
that only unit tests call belongs in the tests. References are matched
by name, the way the source spells them: a bare name, an attribute or an
imported name.
"""

import ast
from pathlib import Path
from typing import Iterable, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xmodal"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(trees: Iterable[ast.Module]) -> Set[str]:
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def imported_from_package(tree: ast.Module) -> Set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xmodal"
        for alias in node.names
    }


def test_every_public_function_and_class_is_used_outside_the_tests():
    modules = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    used = referenced_names(modules.values())
    used |= referenced_names(parse(path) for path in sorted((ROOT / "scripts").glob("*.py")))
    used |= imported_from_package(parse(ROOT / "tests" / "test_acceptance.py"))
    test_only = [
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert test_only == [], f"public API that only the tests call: {test_only}"


def test_no_module_declares_all():
    # The underscore rule above is the one record of the public surface;
    # an ``__all__`` list would be a second one that nothing reads.
    declaring = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]
    assert declaring == [], f"modules that assign __all__: {declaring}"
