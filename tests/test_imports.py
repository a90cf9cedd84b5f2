"""Every module of the package reads each name it imports.

No linter is a dependency, so this reads the modules' syntax trees
(pyflakes' F401).  An import kept on purpose says why on its own line:
`# noqa: F401 -- reason`, and an excuse on an import that its module
reads is stale.  `__init__.py` imports to re-export and is not checked.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eventready"
EXCUSED = re.compile(r"#\s*noqa:\s*F401\b\W*\w")  # the code, then a reason


def _imports(source: str):
    """(line, name, read, excused) of each name source imports: whether
    the module reads it, and whether the line that imports it carries
    `# noqa: F401` and a reason."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield alias.lineno, name, name in read, bool(EXCUSED.search(lines[alias.lineno - 1]))


def _unused_imports(source: str) -> list:
    """(line, name) of each name source imports and never reads, unless excused."""
    return [(line, name) for line, name, read, excused in _imports(source) if not read and not excused]


def _stale_excuses(source: str) -> list:
    """(line, name) of each excused import that source reads after all."""
    return [(line, name) for line, name, read, excused in _imports(source) if read and excused]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _unused_imports(source) == []
    assert _stale_excuses(source) == []


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
        "from json import JSONDecoder  # noqa: F401 -- stale: read below\n"
        "np = None\n"
        "print(os.path.sep, pi, JSONDecoder)\n"
    )
    assert _unused_imports(source) == [(3, "np"), (6, "tau"), (9, "loads"), (10, "_compile")]
    assert _stale_excuses(source) == [(11, "JSONDecoder")]
