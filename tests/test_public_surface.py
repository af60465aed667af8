"""Nothing ships in ``src/repro`` that the program does not run.

A module or a public top-level name that only its own tests reach is
code the program carries, documents and keeps in step for nothing.  This
reads every file of the program trees without importing any of them and
fails on:

* a module of ``src/repro`` that no file of those trees imports, and
* a public top-level name, or a public method or property of a
  top-level class, of ``src/repro`` whose identifier appears in no file
  of those trees outside its own definition,

unless ``KEEP`` names it with the reason it stays.  It also fails on an
import that nothing in its file uses, in every tree CI's ``ruff check``
reads (pyflakes' F401), so that class cannot regrow where ruff is not
installed.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The trees whose files count as the program: what a user or a
#: benchmark runs.  Tests are not in it.
PROGRAM_TREES = ("src", "scripts", "benchmarks", "perfbench", "examples")

#: The trees CI lints with ``ruff check``.
LINTED_TREES = ("src", "tests", "benchmarks")

#: A ``# noqa`` comment that silences F401: bare, or naming F401.
NOQA_F401 = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b", re.IGNORECASE)

#: Modules run as entry points rather than imported.
ENTRY_POINTS = {"repro.__main__"}

#: Modules and public names the program does not reach that stay, each
#: with the one-line reason it stays.
KEEP: Dict[str, str] = {
    "repro.geoloc.sanity": (
        "the Section V speed-of-light refutation of the geo database "
        "(docs/paper_mapping.md), run by tests/test_geoloc_sanity.py"
    ),
    "repro.geoloc.sanity.audit_claims": (
        "the batch form of the Section V check_claim audit that "
        "tests/test_geoloc_sanity.py runs over a simulated study"
    ),
    "repro.artifacts.store.reset_default_store": (
        "test seam: forgets the default store after a test changes REPRO_CACHE_DIR"
    ),
    "repro.core.pipeline.StudyPipeline.hot_server": (
        "Figure 16's session-pattern view of the hot video's server, checked "
        "against the paper by tests/test_paper_integration.py"
    ),
    "repro.net.latency.LatencyModel.measure_min_rtt_ms": (
        "one min-filtered measurement, held to the per-probe spec of "
        "tests/oracle/cbg.py by tests/test_geoloc_cbg_oracle.py"
    ),
    "repro.geoloc.probing.CampaignJob.cache_fingerprint": (
        "a campaign's cache-key identity, read through getattr by "
        "repro.artifacts.keys.canonicalize when the geoloc/campaign stage is keyed"
    ),
    "repro.net.latency.LatencyModel.cache_fingerprint": (
        "the delay model's cache-key identity, read through getattr by "
        "repro.artifacts.keys.canonicalize inside every campaign key"
    ),
    "repro.obs.metrics.MetricsRegistry.counter_total": (
        "test seam: one counter summed over its label sets, read in-process "
        "by the obs, faults and stream tests; the program reads the trace's snapshot"
    ),
}


def program_files() -> List[Path]:
    return sorted(
        path for tree in PROGRAM_TREES for path in (ROOT / tree).rglob("*.py")
    )


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@lru_cache(maxsize=None)
def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_modules(path: Path) -> Iterator[str]:
    """Every dotted name an import in ``path`` may load, relative ones resolved."""
    package = module_name(path) if path.is_relative_to(SRC) else ""
    if package and path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            # ``from package import submodule`` loads the submodule.
            for alias in node.names:
                yield f"{base}.{alias.name}"


@lru_cache(maxsize=None)
def identifiers(path: Path) -> Tuple[Tuple[int, str], ...]:
    """``(line, identifier)`` per identifier ``path`` uses."""
    found = []
    for node in ast.walk(parsed(path)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            found.append((line, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((line, node.attr))
        elif isinstance(node, ast.alias):
            found.extend((line, part) for part in node.name.split("."))
    return tuple(found)


def _span(node: ast.AST) -> Tuple[int, int]:
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return start, node.end_lineno


def public_definitions(path: Path) -> Iterator[Tuple[str, str, int, int]]:
    """``(qualified name, identifier, first line, last line)`` per public
    top-level definition and per public method or property of a
    top-level class (``Class.method``)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in parsed(path).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield (name, name) + _span(node)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield (f"{node.name}.{item.name}", item.name) + _span(item)


def unimported_modules() -> List[str]:
    imported: Set[str] = set()
    for path in program_files():
        for name in imported_modules(path):
            # Importing ``a.b.c`` imports the packages ``a`` and ``a.b`` too.
            parts = name.split(".")
            imported.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    return sorted(
        name for name in map(module_name, PACKAGE.rglob("*.py"))
        if name not in imported and name not in ENTRY_POINTS
    )


def unreferenced_names() -> List[str]:
    used: Dict[Path, Set[str]] = {
        path: {name for _, name in identifiers(path)} for path in program_files()
    }
    missing = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualified, name, start, end in public_definitions(path):
            elsewhere = any(name in ids for other, ids in used.items() if other != path)
            in_module = any(
                used_name == name and not start <= line <= end
                for line, used_name in identifiers(path)
            )
            if not (elsewhere or in_module):
                missing.append(f"{module_name(path)}.{qualified}")
    return missing


def annotation_names(node: ast.AST) -> Iterator[str]:
    """Names a quoted annotation (``x: "ScenarioSpec"``) uses."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                quoted = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from (n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))


def unused_imports(path: Path) -> Iterator[str]:
    """``path:line name`` per imported name nothing in ``path`` uses.

    An ``import x as x`` re-export, a ``__future__`` import and a line
    marked ``# noqa: F401`` are skipped, as pyflakes skips them.
    """
    tree = parsed(path)
    lines = path.read_text().splitlines()
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(annotation_names(node.value))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.asname is not None and alias.asname == alias.name.split(".")[-1]:
                if isinstance(node, ast.ImportFrom) or "." not in alias.name:
                    continue  # explicit re-export
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if bound in used or NOQA_F401.search(lines[line - 1]):
                continue
            if NOQA_F401.search(lines[node.lineno - 1]):
                continue
            yield f"{path.relative_to(ROOT)}:{line} {bound}"


def test_every_module_is_imported_by_the_program():
    missing = [name for name in unimported_modules() if name not in KEEP]
    assert missing == []


def test_every_public_name_is_referenced_by_the_program():
    missing = [name for name in unreferenced_names() if name not in KEEP]
    assert missing == []


def test_every_keep_entry_is_still_needed_and_says_why():
    unreferenced = set(unreferenced_names()) | set(unimported_modules())
    for name, reason in KEEP.items():
        assert name in unreferenced, f"{name} is referenced now; drop it from KEEP"
        assert reason.strip() and "\n" not in reason, name


def test_every_import_is_used():
    unused = [
        finding
        for tree in LINTED_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for finding in unused_imports(path)
    ]
    assert unused == []


def test_only_the_trace_package_names_flow_record():
    """``FlowRecord`` is the flow-log reader's line type.

    Every other module of ``src/repro`` reads flows as
    :class:`~repro.trace.columnar.FlowTable` columns, so none of them
    imports or otherwise names the record class.
    """
    naming = sorted(
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE.rglob("*.py")
        if not (module_name(path) + ".").startswith("repro.trace.")
        for line, name in identifiers(path)
        if name == "FlowRecord"
    )
    assert naming == []
