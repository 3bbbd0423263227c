#!/usr/bin/env python
"""Docstring lint for the public observability/sweep/verify/service APIs.

Walks every module under the default roots (``src/repro/observe/``,
``src/repro/sweep/``, ``src/repro/verify/``, ``src/repro/service/``,
``src/repro/fleet/``, ``src/repro/elastic/``, ``src/repro/hetero/``,
``src/repro/replay/``, ``src/repro/trace/``, ``src/repro/jobs/`` and
``src/repro/sim/``)
and fails (exit 1) if any *public*
definition — module, class, function, or method whose name does not
start with an underscore — lacks a docstring. Dunders (including
``__init__``) are exempt: constructor arguments are documented on the
class.

Usage::

    python tools/check_docstrings.py [package_dir ...]

With no arguments, lints the default roots above.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_public(name: str) -> bool:
    """A name is public when it has no leading underscore (dunders are
    handled separately by the walker)."""
    return not name.startswith("_")


def _walk_definitions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(dotted_name, node)`` for every public def/class,
    recursing into public classes for their methods."""
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _DEF_NODES):
                continue
            if not _is_public(child.name):
                continue
            dotted = f"{prefix}{child.name}"
            yield dotted, child
            if isinstance(child, ast.ClassDef):
                stack.append((f"{dotted}.", child))


def missing_docstrings(path: Path) -> List[str]:
    """Return dotted names of public definitions in ``path`` that lack
    a docstring (the module itself included, listed as ``<module>``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    for dotted, node in _walk_definitions(tree):
        if ast.get_docstring(node) is None:
            missing.append(dotted)
    return sorted(missing)


def main(argv: List[str]) -> int:
    """Lint the given package directories; print offenders, return 1
    if any public definition lacks a docstring."""
    roots = [Path(a) for a in argv] or [
        Path("src/repro/observe"), Path("src/repro/sweep"),
        Path("src/repro/verify"), Path("src/repro/service"),
        Path("src/repro/fleet"), Path("src/repro/elastic"),
        Path("src/repro/hetero"), Path("src/repro/replay"),
        Path("src/repro/trace"), Path("src/repro/jobs"),
        Path("src/repro/sim"),
    ]
    failures = 0
    checked = 0
    for root in roots:
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
        for path in sorted(root.rglob("*.py")):
            checked += 1
            for name in missing_docstrings(path):
                print(f"{path}: missing docstring: {name}")
                failures += 1
    if failures:
        print(f"\n{failures} public definition(s) without docstrings.")
        return 1
    print(f"docstring lint: {checked} file(s) clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
