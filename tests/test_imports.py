"""Every module of the package reads each name it imports.

No linter is a dependency, so this reads the modules' syntax trees
(pyflakes' F401).  An import kept on purpose says why on its own line:
`# noqa: F401 -- reason`.  `__init__.py` imports to re-export and is not
checked.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eventready"
EXCUSED = re.compile(r"#\s*noqa:\s*F401\b\W*\w")  # the code, then a reason


def _unused_imports(source: str) -> list:
    """(line, name) of each name source imports and never reads, unless
    the line that imports it carries `# noqa: F401` and a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and not EXCUSED.search(lines[alias.lineno - 1]):
                    unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_honours_a_reason():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import (\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "from json import dumps  # noqa: F401 -- re-bound by a caller\n"
        "from json import loads  # noqa: F401\n"
        "from re import compile as _compile\n"
        "np = None\n"
        "print(os.path.sep, pi)\n"
    )
    assert _unused_imports(source) == [(3, "np"), (6, "tau"), (9, "loads"), (10, "_compile")]
