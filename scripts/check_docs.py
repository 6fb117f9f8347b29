#!/usr/bin/env python
"""Smoke-execute the fenced python blocks in the documentation.

Documentation code rots silently: APIs move on, imports change, and the
first person to notice is a user pasting a dead example.  This script makes
the docs part of the test surface:

* every ````` ```python ````` block in ``docs/*.md`` (and any files given on
  the command line) is extracted and executed;
* blocks in one file run **cumulatively in a shared namespace**, top to
  bottom, so later blocks may use names defined by earlier ones -- exactly
  how a reader works through a guide;
* a block fenced as ````` ```python no-run ````` is syntax-checked but not
  executed (use this for snippets that need a live server or are
  intentionally illustrative);
* each file executes in its own temporary working directory, so examples
  may create files without polluting the repository.

It also holds ``docs/protocol.md`` to the server's command table: the set of
command names in that file's command tables must equal the keys of
``repro.net.server.COMMANDS``, in both directions.

Run it directly or via ``make check-docs``.  Exit status is non-zero if any
block fails, with the offending file, block number, and source line printed.
"""

from __future__ import annotations

import io
import re
import sys
import tempfile
import traceback
from contextlib import chdir, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

def _display(path: Path) -> str:
    """Repo-relative when possible; files given from elsewhere keep their path."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


_FENCE = re.compile(
    r"^```python[ \t]*(?P<tag>no-run)?[ \t]*\n(?P<body>.*?)^```[ \t]*$",
    re.MULTILINE | re.DOTALL,
)


def extract_blocks(text: str) -> list[tuple[int, bool, str]]:
    """``(start_line, runnable, source)`` for every python fence in *text*."""
    blocks = []
    for match in _FENCE.finditer(text):
        line = text.count("\n", 0, match.start()) + 2  # code starts after fence
        blocks.append((line, match.group("tag") is None, match.group("body")))
    return blocks


def check_file(path: Path) -> list[str]:
    """Execute *path*'s blocks; returns a list of failure descriptions."""
    failures: list[str] = []
    blocks = extract_blocks(path.read_text(encoding="utf-8"))
    if not blocks:
        return failures
    namespace: dict[str, object] = {"__name__": "__docs__"}
    with tempfile.TemporaryDirectory(prefix="check-docs-") as workdir:
        with chdir(workdir):
            for index, (line, runnable, source) in enumerate(blocks, start=1):
                label = f"{_display(path)} block {index} (line {line})"
                try:
                    code = compile(source, f"<{label}>", "exec")
                except SyntaxError:
                    failures.append(f"{label}: syntax error\n{traceback.format_exc()}")
                    continue
                if not runnable:
                    continue
                output = io.StringIO()
                try:
                    with redirect_stdout(output):
                        exec(code, namespace)
                except Exception:
                    printed = output.getvalue()
                    shown = f"--- output ---\n{printed}" if printed else ""
                    failures.append(
                        f"{label}: raised\n{shown}{traceback.format_exc()}"
                    )
    return failures


_COMMAND_ROW = re.compile(r"^\| `(?P<name>[A-Z]+)[ `]", re.MULTILINE)


def check_command_tables(path: Path) -> list[str]:
    """The command tables of *path* (``docs/protocol.md``) vs ``COMMANDS``."""
    from repro.net.server import COMMANDS

    text = path.read_text(encoding="utf-8")
    section = text[text.index("\n## Commands"):text.index("\n## Pipelining")]
    documented = set(_COMMAND_ROW.findall(section))
    served = {name.decode("ascii") for name in COMMANDS}
    failures = []
    if served - documented:
        failures.append(f"{_display(path)}: no table row for {sorted(served - documented)}")
    if documented - served:
        failures.append(f"{_display(path)}: documents {sorted(documented - served)}, "
                        "which the server's command table does not have")
    return failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(REPO_ROOT / "src"))
    paths = [Path(arg).resolve() for arg in args] or sorted(DOCS_DIR.glob("*.md"))
    all_failures: list[str] = []
    for path in paths:
        failures = check_file(path)
        if path == DOCS_DIR / "protocol.md":
            failures += check_command_tables(path)
        status = "FAIL" if failures else "ok"
        count = len(extract_blocks(path.read_text(encoding="utf-8")))
        print(f"{status:4}  {_display(path)}  ({count} python blocks)")
        all_failures.extend(failures)
    if all_failures:
        print(f"\n{len(all_failures)} failure(s):", file=sys.stderr)
        for failure in all_failures:
            print(f"\n{failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
