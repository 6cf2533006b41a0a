#!/usr/bin/env python
"""Docs reference checker (``make check-docs``).

Walks every tracked Markdown file and fails on:

* **dead relative links** — ``[text](path)`` whose target (resolved
  against the file's directory, anchors stripped) does not exist, and
* **stale module paths** — inline-code path tokens (backticked strings
  like ``src/repro/core/generator.py``) that no longer resolve against
  the file's directory, the repository root, ``src/`` or ``src/repro/``.

Fenced code blocks are ignored (they hold program text, not references);
absolute URLs and pure anchors are ignored.  The goal is cheap CI
protection for the READMEs' paper-section → module maps: renaming a
module must fail the docs job until the maps are updated.

In the package READMEs (``*/README.md``) a third check catches **stale
symbols**: an inline-code span that is ``CamelCase``, ``ALL_CAPS`` or
``UPPER_SNAKE`` (each also as ``.member`` or ``()``), or a dotted
``repro.…`` path, fails when some part of it is a
word in no ``.py`` file under the code directories (:data:`CODE_DIRS`),
so deleting or renaming a class, method or constant fails the docs job
until the READMEs stop naming it.  Inside fences the same check reads
the symbol-shaped words of module-map rows: lines that start with a
``*.py`` path or a ``dir/``.

Two facts the top-level ``README.md`` states about the code are checked
against the code itself (:func:`readme_problems`):

* its seeded-defect count must equal ``len(BUG_CATALOG)``, and
* every ``.PHONY`` target of the ``Makefile`` must have a row in its
  make-target table.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``[text](target)`` markdown links (images share the syntax).
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Inline code spans (fenced blocks are stripped before this runs).
_INLINE_CODE = re.compile(r"`([^`]+)`")
#: A path-like token inside an inline code span: contains a slash and a
#: known documentation-relevant suffix, built from path characters only.
_PATH_TOKEN = re.compile(r"(?<![\w./-])([\w.-]+(?:/[\w.-]+)+\.(?:py|md|json|yml))\b")
_FENCE = re.compile(r"^(```|~~~)")
#: A defect count in prose: ``34 defects`` / ``34 seeded defects``.
_DEFECT_COUNT = re.compile(r"\b(\d+) (?:seeded )?defects\b")
_PHONY = re.compile(r"^\.PHONY:(.*)$", re.MULTILINE)
#: A symbol-shaped inline code span: ``CamelCase``, ``ALL_CAPS`` (one
#: word or snake case) or a dotted ``repro.…`` path, each with an optional
#: ``.member`` and a trailing ``()``.
_SYMBOL = re.compile(
    r"(?:[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)*|[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+"
    r"|[A-Z][A-Z0-9]+|repro(?:\.\w+)+)(?:\.\w+)?(?:\(\))?"
)
_WORD = re.compile(r"\w+")
#: A fenced module-map row: it starts with a ``*.py`` path or a ``dir/``.
_MAP_ROW = re.compile(r"^\s*[\w./-]*(?:\.py|/)(?=\s|$)")
#: The dotted words of a map row (``ConcreteInterpreter(TargetSemantics)``
#: holds two).
_MAP_WORD = re.compile(r"[\w.]+")
#: Spans that look like symbols but are Python literals.
_LITERALS = {"None", "True", "False"}
#: Directories whose ``.py`` files define the symbols READMEs may name.
CODE_DIRS = ("src", "tests", "benchmarks", "perfbench", "examples", "tools")

#: Roots a bare module path may be relative to (checked in order).
_PATH_ROOTS = ("", "src", os.path.join("src", "repro"))

#: Directories never scanned by the walk fallback (untracked trees a
#: developer checkout commonly grows).
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".pytest_cache",
    ".hypothesis",
    ".venv",
    "venv",
    "node_modules",
    ".claude",
}


def markdown_files(root: str):
    """Tracked ``*.md`` files (git), or a filtered walk outside a checkout.

    ``git ls-files`` keeps local clutter (virtualenvs, editor caches,
    vendored trees) out of the check; the walk fallback exists so the
    script still works on an exported tarball.
    """

    try:
        listed = subprocess.run(
            [
                "git", "-C", root, "ls-files", "-z",
                "--cached", "--others", "--exclude-standard",
                "--", "*.md",
            ],
            capture_output=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        listed = None
    if listed is not None:
        for name in listed.stdout.decode("utf-8").split("\0"):
            path = os.path.join(root, name)
            if name and os.path.exists(path):  # skip deletions not yet staged
                yield path
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [name for name in dirnames if name not in _SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def strip_fences(text: str) -> str:
    """Blank out fenced code blocks, keeping line numbers stable."""

    lines = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else line)
    return "\n".join(lines)


def check_file(path: str, words: set):
    """Yield ``(line_number, problem)`` pairs for one Markdown file.

    A package README (``*/README.md``) is also checked for symbols that
    are not among ``words`` (see :func:`code_words`).
    """

    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    text = strip_fences(raw)
    directory = os.path.dirname(path)

    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if "://" in target or target.startswith(("mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(directory, target))
            if not os.path.exists(resolved):
                yield line_number, f"dead link: ({match.group(1)})"
        for span in _INLINE_CODE.finditer(line):
            for token in _PATH_TOKEN.finditer(span.group(1)):
                candidate = token.group(1)
                if candidate.startswith(("http", "www.")):
                    continue
                anchored = [os.path.normpath(os.path.join(directory, candidate))]
                anchored += [
                    os.path.normpath(os.path.join(ROOT, prefix, candidate))
                    for prefix in _PATH_ROOTS
                ]
                if not any(os.path.exists(entry) for entry in anchored):
                    yield line_number, f"stale module path: `{candidate}`"
    if os.path.basename(path) == "README.md" and directory != ROOT:
        yield from symbol_problems(raw, words)


def code_words(root: str = ROOT) -> set:
    """Every word (``\\w+`` run) of the ``.py`` files under :data:`CODE_DIRS`."""

    words = set()
    for name in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, name)):
            dirnames[:] = [entry for entry in dirnames if entry not in _SKIP_DIRS]
            for filename in filenames:
                if filename.endswith(".py"):
                    with open(os.path.join(dirpath, filename), encoding="utf-8") as handle:
                        words.update(_WORD.findall(handle.read()))
    return words


def symbol_candidates(text: str):
    """Yield ``(line_number, name)`` for every name a README shows as code.

    Outside fences those are the inline-code spans; inside them, the words
    of module-map rows (other fenced lines hold program text).
    """

    in_fence = False
    for line_number, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
        elif not in_fence:
            for span in _INLINE_CODE.finditer(line):
                yield line_number, span.group(1)
        elif _MAP_ROW.match(line):
            for word in _MAP_WORD.findall(line):
                yield line_number, word


def symbol_problems(text: str, words: set):
    """Yield ``(line_number, problem)`` for shown symbols no code file names."""

    for line_number, symbol in symbol_candidates(text):
        if symbol in _LITERALS or not _SYMBOL.fullmatch(symbol):
            continue
        if any(part not in words for part in _WORD.findall(symbol)):
            yield line_number, f"stale symbol: `{symbol}`"


def readme_problems(readme: str, makefile: str, defect_count: int):
    """Yield the README's statements that have drifted from the code."""

    text = strip_fences(readme)
    counts = [int(match.group(1)) for match in _DEFECT_COUNT.finditer(text)]
    if not counts:
        yield "states no seeded-defect count"
    for count in counts:
        if count != defect_count:
            yield f"says {count} defects, but the catalog has {defect_count}"
    for line in _PHONY.findall(makefile):
        for target in line.split():
            row = re.compile(rf"^\|\s*`make {re.escape(target)}`", re.MULTILINE)
            if not row.search(text):
                yield f"make target {target!r} is missing from the make-target table"


def catalog_size() -> int:
    """``len(BUG_CATALOG)`` of the checked-out sources."""

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.compiler.bugs import BUG_CATALOG

    return len(BUG_CATALOG)


def main() -> int:
    problems = []
    checked = 0
    words = code_words()
    for path in markdown_files(ROOT):
        checked += 1
        relative = os.path.relpath(path, ROOT)
        for line_number, problem in check_file(path, words):
            problems.append(f"{relative}:{line_number}: {problem}")
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    with open(os.path.join(ROOT, "Makefile"), encoding="utf-8") as handle:
        makefile = handle.read()
    for problem in readme_problems(readme, makefile, catalog_size()):
        problems.append(f"README.md: {problem}")
    for problem in problems:
        print(problem)
    status = "FAILED" if problems else "ok"
    print(f"check-docs: {checked} markdown files, {len(problems)} problem(s) — {status}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
