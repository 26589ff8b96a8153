"""The runtime needs nothing beyond the standard library: every import in
`src/nilgrade` is relative or of a standard module, and `pyproject.toml`
declares no runtime dependency (numpy is a test and bench extra).  And
the library carries no dead code: every top-level function and class is
named somewhere besides its own definition.  Every module parses at the
Python floor that `pyproject.toml` declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nilgrade").glob("*.py"))


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "matrices.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_standard(path):
    foreign = [(line, name) for line, name in imported_modules(path) if name not in sys.stdlib_module_names]
    assert foreign == [], f"{path.name} imports outside the standard library"


def declared_floor() -> tuple[int, int]:
    """The least Python version that `pyproject.toml` declares."""
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_at_the_declared_python_floor(path):
    # the grammar of the floor release: a newer construct (except*, a type
    # parameter list) fails here even when the running Python accepts it
    assert declared_floor() == (3, 10)
    ast.parse(path.read_text(), str(path), feature_version=declared_floor())


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
    assert "numpy" in " ".join(project["optional-dependencies"]["test"])


def test_every_top_level_definition_is_named_elsewhere():
    """Each top-level function and class in `src/nilgrade` is named, as a
    whole word, outside its own def line in src/, tests/ or demos/.
    `cli.cmd_*` is exempt: `main` dispatches it by subcommand name."""
    texts = {
        path: path.read_text().splitlines()
        for folder in ("src", "tests", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    unnamed = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if path.name == "cli.py" and node.name.startswith("cmd_"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(
                word.search(line)
                for other, lines in texts.items()
                for i, line in enumerate(lines, 1)
                if (other, i) != (path, node.lineno)
            ):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == [], "defined but never named elsewhere"
