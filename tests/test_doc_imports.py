"""Every ``repro`` import the examples and docs show resolves.

The packages re-export nothing, so ``from repro.sim import run_all``
fails where ``from repro.sim.driver import run_all`` works.  This reads
the imports out of ``examples/*.py`` and the Python code blocks of the
README, the API tour, the FAQ and the architecture notes without running
them, imports each module, and looks each name up on it.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/api_tour.md", "docs/faq.md", "docs/architecture.md")

_CODE_BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def sources() -> List[Tuple[str, str]]:
    found = [(str(path.relative_to(ROOT)), path.read_text()) for path in
             sorted((ROOT / "examples").glob("*.py"))]
    for doc in DOCS:
        for index, block in enumerate(_CODE_BLOCK.findall((ROOT / doc).read_text())):
            found.append((f"{doc} block {index}", block))
    return found


def repro_imports(code: str) -> List[Tuple[str, str]]:
    """``(module, name)`` per imported name; ``name`` is ``""`` for ``import m``."""
    imports = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            imports.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.extend(
                (alias.name, "") for alias in node.names if alias.name.split(".")[0] == "repro"
            )
    return imports


SOURCES = sources()


def test_sources_are_found():
    names = [name for name, _ in SOURCES]
    assert "examples/quickstart.py" in names
    assert any(name.startswith("docs/api_tour.md") for name in names)
    assert any(name.startswith("README.md") for name in names)


@pytest.mark.parametrize("where, code", SOURCES, ids=[name for name, _ in SOURCES])
def test_repro_imports_resolve(where, code):
    imports = repro_imports(code)
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if not name or hasattr(module, name):
            continue
        # ``from package import submodule`` imports the submodule.
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{where}: cannot import {name!r} from {module_name!r}")
