"""Every third-party module the tests and the benchmark import is declared
in pyproject.toml, so that `pip install -e .[test]` is enough to run them."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_third_party_import_of_tests_and_bench_is_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + [r for extra in project["optional-dependencies"].values() for r in extra]
    declared = {r.split(";")[0].split("[")[0].split("<")[0].split(">")[0].split("=")[0].strip() for r in requirements}
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    # The package itself and the modules of tests/ and bench/, which import each other by name.
    local = {"eventready", *(path.stem for path in files)}
    imported = set().union(*map(_top_level_imports, files))
    assert imported - set(sys.stdlib_module_names) - local - declared == set()
    assert {"pytest", "hypothesis"} <= declared
