"""Documentation link and doctest gate.

Walks every Markdown page the repository publishes (``README.md`` and
``docs/*.md``), checks that each relative link points at a file that
exists and each ``#fragment`` at a heading that exists, then runs the
``>>>`` code blocks in ``docs/symexec.md`` as doctests.  Run by the
``docs-check`` CI job::

    PYTHONPATH=src python benchmarks/docs_check.py

External (``http``/``https``/``mailto``) links are deliberately not
fetched -- CI must not depend on the internet -- but everything the
repository can verify about itself is verified, so a renamed file, a
reworded heading, or an API drift in a documented example fails the
build instead of rotting quietly.
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Pages whose links are checked.
PAGES = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))

#: Pages whose ``>>>`` blocks are executed.
DOCTEST_PAGES = [
    REPO / "docs" / "symexec.md",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)
_PY_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(page: Path) -> set:
    """Every anchor a page exposes (its heading slugs)."""
    source = _CODE_FENCE.sub("", page.read_text())
    return {github_slug(m.group(1)) for m in _HEADING.finditer(source)}


def check_links(page: Path) -> list:
    """Problems with a page's relative links, as readable strings."""
    problems = []
    source = _CODE_FENCE.sub("", page.read_text())
    for match in _LINK.finditer(source):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (
            page if not path_part else (page.parent / path_part)
        )
        if not resolved.exists():
            problems.append(
                "%s: broken link %r (no such file)"
                % (page.relative_to(REPO), target)
            )
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                problems.append(
                    "%s: broken anchor %r (no such heading in %s)"
                    % (page.relative_to(REPO), target,
                       resolved.relative_to(REPO))
                )
    return problems


def orphaned_docs() -> list:
    """``docs/*.md`` pages not reachable from README's docs index.

    Every documentation page must be linked (directly or transitively)
    from ``README.md``; an orphan is invisible to readers and rots.
    """
    reachable = set()
    frontier = [REPO / "README.md"]
    while frontier:
        page = frontier.pop()
        if page in reachable or not page.exists():
            continue
        reachable.add(page)
        source = _CODE_FENCE.sub("", page.read_text())
        for match in _LINK.finditer(source):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.partition("#")[0]
            if path_part and path_part.endswith(".md"):
                frontier.append((page.parent / path_part).resolve())
    return [
        "%s: orphaned (not reachable from README.md)"
        % page.relative_to(REPO)
        for page in sorted((REPO / "docs").glob("*.md"))
        if page.resolve() not in reachable
    ]


def run_doctests(page: Path) -> tuple:
    """``(attempted, failed)`` over a page's ``>>>`` python blocks."""
    runner = doctest.DocTestRunner(
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS
    )
    parser = doctest.DocTestParser()
    globs: dict = {}
    attempted = 0
    for index, match in enumerate(_PY_BLOCK.finditer(page.read_text())):
        block = match.group(1)
        if ">>>" not in block:
            continue  # illustrative snippet, not an executable session
        test = parser.get_doctest(
            block, globs, "%s[block %d]" % (page.name, index),
            str(page), 0,
        )
        runner.run(test, clear_globs=False)
        attempted += len(test.examples)
        globs = test.globs  # blocks build on earlier blocks
    return attempted, runner.failures


def main() -> int:
    problems = []
    for page in PAGES:
        problems.extend(check_links(page))
    problems.extend(orphaned_docs())
    for line in problems:
        print("FAIL:", line, file=sys.stderr)
    total_examples = 0
    total_failures = 0
    for page in DOCTEST_PAGES:
        attempted, failed = run_doctests(page)
        total_examples += attempted
        total_failures += failed
        print("%s: %d doctest examples, %d failures"
              % (page.relative_to(REPO), attempted, failed))
    print("%d pages, %d link problems, %d doctest failures"
          % (len(PAGES), len(problems), total_failures))
    if problems or total_failures:
        return 1
    if total_examples == 0:
        print("FAIL: no doctest examples found (extraction broken?)",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
