#!/usr/bin/env python3
"""Repo documentation checks (CI: the docs-check step).

Two cheap, dependency-free invariants:

1. **Intra-repo links resolve.**  Every relative markdown link in
   ``README.md``, ``docs/*.md``, and ``perfbench/README.md`` must
   point at an existing file or directory; fragment-only links
   (``#section``) and ``file.md#section`` fragments must match a
   heading in the target document (GitHub slug rules, simplified).
   External links (``http(s)://``, ``mailto:``) are not touched —
   CI must not depend on the network.  A ``LINKED_DOCS`` entry that
   does not exist is itself a problem, so a moved document cannot
   drop out of the check unnoticed.

2. **Module docstrings in the scheduler core.**  Every ``*.py`` under
   the ``DOCSTRING_TREES`` (``sched``, ``service``, ``audit`` and
   ``cluster``) carries a module docstring — the architecture book
   leans on them, and the bit-identity contracts live there (placement
   and the profile rely on the cluster's free-mask contract).

Exit status 0 when clean; 1 with one line per violation otherwise.
Run locally as ``python tools/check_docs.py`` from the repo root (or
anywhere — paths are anchored to this file's location).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose relative links must resolve.
LINKED_DOCS = ("README.md", "docs", "perfbench/README.md")

#: Python trees whose modules must carry docstrings.
DOCSTRING_TREES = (
    "src/repro/sched", "src/repro/service", "src/repro/audit", "src/repro/cluster",
)

# [text](target) — good enough for the hand-written markdown here;
# skips images' alt-text edge cases by accepting them identically.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slug(heading: str) -> str:
    """GitHub's anchor slug, simplified: lowercase, punctuation out,
    each space to a hyphen (inline code/links stripped first).
    Spaces are NOT collapsed — "Fault tolerance & recovery" slugs to
    ``fault-tolerance--recovery`` on GitHub, double hyphen and all."""
    text = re.sub(r"[`*_\[\]()]", "", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    return {_slug(m.group(1)) for m in _HEADING.finditer(path.read_text())}


def _markdown_files() -> list:
    files = []
    for entry in LINKED_DOCS:
        path = REPO / entry
        if path.is_dir():
            files.extend(sorted(path.glob("*.md")))
        elif path.is_file():
            files.append(path)
    return files


def check_linked_docs() -> list:
    return [
        f"{entry}: listed in LINKED_DOCS but missing"
        for entry in LINKED_DOCS
        if not (REPO / entry).exists()
    ]


def check_links() -> list:
    errors = []
    for md in _markdown_files():
        for match in _LINK.finditer(md.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (md.parent / path_part).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{md.relative_to(REPO)}: broken link -> {target}"
                    )
                    continue
                if fragment and resolved.suffix == ".md":
                    if fragment not in _anchors(resolved):
                        errors.append(
                            f"{md.relative_to(REPO)}: missing anchor "
                            f"-> {target}"
                        )
            elif fragment and fragment not in _anchors(md):
                errors.append(
                    f"{md.relative_to(REPO)}: missing anchor -> #{fragment}"
                )
    return errors


def check_module_docstrings() -> list:
    errors = []
    for tree in DOCSTRING_TREES:
        for py in sorted((REPO / tree).rglob("*.py")):
            try:
                module = ast.parse(py.read_text())
            except SyntaxError as exc:  # pragma: no cover - tier-1 would fail
                errors.append(f"{py.relative_to(REPO)}: unparseable ({exc})")
                continue
            if ast.get_docstring(module) is None:
                errors.append(
                    f"{py.relative_to(REPO)}: missing module docstring"
                )
    return errors


def main() -> int:
    errors = check_linked_docs() + check_links() + check_module_docstrings()
    for error in errors:
        print(f"docs-check: {error}", file=sys.stderr)
    if errors:
        print(f"docs-check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"docs-check: OK ({len(_markdown_files())} markdown files, "
        f"{sum(1 for t in DOCSTRING_TREES for _ in (REPO / t).rglob('*.py'))} "
        "modules)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
