"""Every name a package module imports is used in that module.

``__init__.py`` is exempt: its imports are the public API it re-exports.
"""

import ast
from pathlib import Path

import pytest

import spheredet

MODULES = sorted(
    path for path in Path(spheredet.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str):
    """Names bound by import statements in ``source`` that no expression reads."""
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import List, Tuple\nimport numpy as np\nx: List[int] = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (2, "Tuple")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
