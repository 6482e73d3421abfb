"""Every module-level private function and constant of the package is used.

A private name (one leading underscore, not a dunder) defined at module level
by ``def`` or by assignment must be read somewhere in the package: as a bare
name, as an attribute (``geometry._siou``), or through an import.  Tests and
benchmarks do not count, so a helper that only they call is reported.
"""

import ast
from pathlib import Path

import spheredet

MODULES = sorted(Path(spheredet.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree):
    """Names of the module-level private functions and constants of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return {name for name in names if _private(name)}


def references(tree):
    """Names ``tree`` reads: loaded names, attributes, and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_private(sources):
    """(module, name) for each private definition no source references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*(references(tree) for tree in trees.values()))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in used
    )


def test_checker_flags_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 3\n_UNUSED = 4\ndef _helper():\n    return _LIMIT\ndef _dead():\n    pass\n",
        "b": "from .a import _helper\nfrom . import a\nx = _helper() + a.__name__\n",
    }
    assert unused_private(sources) == [("a", "_UNUSED"), ("a", "_dead")]


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_private(sources) == []
