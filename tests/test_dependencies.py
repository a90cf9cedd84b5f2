"""Every third-party module the tests and the benchmark import is declared
in pyproject.toml, so that `pip install -e .[test]` is enough to run them;
the runtime dependencies are exactly what the package imports."""

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


def _names(requirements) -> set:
    return {r.split(";")[0].split("[")[0].split("<")[0].split(">")[0].split("=")[0].strip() for r in requirements}


def _project() -> dict:
    import tomllib

    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_every_third_party_import_of_tests_and_bench_is_declared():
    project = _project()
    declared = _names(project["dependencies"] + [r for extra in project["optional-dependencies"].values() for r in extra])
    files = [*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    # The package itself and the modules of tests/ and bench/, which import each other by name.
    local = {"eventready", *(path.stem for path in files)}
    imported = set().union(*map(_top_level_imports, files))
    assert imported - set(sys.stdlib_module_names) - local - declared == set()
    assert {"pytest", "hypothesis"} <= declared


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_runtime_dependencies_are_what_the_package_imports():
    """A test-only library in `dependencies`, or a dependency the package
    no longer imports, fails; so does an undeclared import in src/."""
    files = list((ROOT / "src" / "eventready").glob("*.py"))
    imported = set().union(*map(_top_level_imports, files)) - set(sys.stdlib_module_names) - {"eventready"}
    assert imported == _names(_project()["dependencies"])
