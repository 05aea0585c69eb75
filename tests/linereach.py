"""Every statement of ``src/qwalg`` is run by a test or is on the allowlist.

Run from the repository root::

    python tests/linereach.py [pytest arguments]

It runs tier-1 in this process with a line tracer (``sys.monitoring`` on
Python 3.12+, ``sys.settrace`` before), then lists every AST statement of
``src/qwalg`` that has code and that no test executed.  A statement is keyed
by its file, the function or class it sits in and its text (the header of a
compound statement), never by its line number.  The list is compared with
``tests/unreached.txt``, where each entry is a key line::

    cli.py :: <module> :: sys.exit(main())

followed by one indented line ``<kind>: <reason>``, the kind being
``self-check`` (a check of the program's own work that no input can make
fail) or ``main-guard``.  The same key listed k times allows k unreached
statements.  It exits non-zero, naming each statement, on an unreached
statement that is not listed and on a stale entry: one whose statement is
now reached or is no longer in the code.  Pytest does not collect this file;
extra arguments go to pytest (``--deselect`` a slow test, say).
"""
import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qwalg"
ALLOWLIST = Path(__file__).with_name("unreached.txt")
KINDS = ("self-check", "main-guard")


def code_lines(path: Path) -> set[int]:
    """The lines that the compiled module has an instruction on."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement that is its own: all of a simple
    statement, the header of a compound one."""
    starts = [part[0].lineno for f in ("body", "orelse", "finalbody", "handlers")
              if (part := getattr(node, f, None))]
    return min(starts) - 1 if starts else node.end_lineno


def statements(path: Path):
    """(first line, own lines, scope, text) of every statement of the file
    but ``try`` (its header has no code; its parts are statements)."""
    source = path.read_text().splitlines()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not isinstance(child, ast.Try):
                first = min([d.lineno for d in getattr(child, "decorator_list", [])]
                            + [child.lineno])
                last = max(_header_end(child), child.lineno)
                text = " ".join(ln.strip() for ln in source[first - 1:last]
                                if not ln.strip().startswith("#"))
                yield first, range(first, last + 1), scope, text
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            yield from walk(child, inner)

    yield from walk(ast.parse("\n".join(source)), "<module>")


def unreached(hits: dict[str, set[int]]) -> list[tuple[str, int, str, str]]:
    """(file, line, scope, text) of every statement that has code and that
    no line event reached, in file and line order."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        lines, hit = code_lines(path), hits.get(str(path), set())
        for first, own, scope, text in statements(path):
            if lines.intersection(own) and not hit.intersection(own):
                out.append((path.name, first, scope, text))
    return out


def read_allowlist() -> list[tuple[tuple[str, str, str], str]]:
    """((file, scope, text), kind) of every entry, in file order."""
    entries, key = [], None
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line[0].isspace():
            if key is not None:
                sys.exit(f"{ALLOWLIST.name}:{n}: the entry above has no reason")
            parts = line.split(" :: ", 2)
            if len(parts) != 3:
                sys.exit(f"{ALLOWLIST.name}:{n}: expected 'file :: scope :: statement'")
            key = tuple(p.strip() for p in parts)
            continue
        kind, _, reason = line.strip().partition(":")
        if key is None or kind not in KINDS or not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{n}: expected one '<kind>: <reason>' line "
                     f"after a key, kind one of {', '.join(KINDS)}")
        entries.append((key, kind))
        key = None
    if key is not None:
        sys.exit(f"{ALLOWLIST.name}: the last entry has no reason")
    return entries


def _monitor(seen):
    """Start and stop of a tracer on sys.monitoring: each line reports once,
    then its event is disabled."""
    mon = sys.monitoring
    tool = mon.COVERAGE_ID

    def on_line(code, line):
        seen(code.co_filename, line)
        return mon.DISABLE

    def start():
        mon.use_tool_id(tool, "linereach")
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)

    def stop():
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return start, stop


def _settrace(seen, src: str):
    """Start and stop of a tracer on sys.settrace, in this thread and new
    ones.  Only frames of ``src`` code objects with lines not yet seen are
    traced."""
    left: dict = {}

    def local(frame, event, arg):
        if event == "line":
            seen(frame.f_code.co_filename, frame.f_lineno)
            left[frame.f_code].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        if code not in left:
            left[code] = {ln for _, _, ln in code.co_lines() if ln is not None}
        return local if left[code] else None

    def start():
        threading.settrace(call)
        sys.settrace(call)

    def stop():
        sys.settrace(None)
        threading.settrace(None)
    return start, stop


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit code on tier-1 and the lines of ``src/qwalg`` that ran,
    by file name as the code objects carry it."""
    src = str(SRC) + "/"
    hits: dict[str, set[int]] = {}

    def seen(filename, line):
        if filename.startswith(src):
            hits.setdefault(filename, set()).add(line)

    start, stop = _monitor(seen) if hasattr(sys, "monitoring") else _settrace(seen, src)
    start()
    try:
        rc = pytest.main(["-q", *args])
    finally:
        stop()
    return rc, hits


def main(args: list[str]) -> int:
    allowed = read_allowlist()
    rc, hits = trace_tests([str(ROOT / "tests"), *args])
    if rc != 0:
        print(f"linereach: tier-1 failed (pytest exit {rc}); no verdict", file=sys.stderr)
        return 1
    import qwalg  # only now: its module-level lines must run traced
    if not qwalg.__file__.startswith(str(SRC) + "/"):
        print(f"linereach: tests imported qwalg from {qwalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    found = unreached(hits)
    budget = Counter(key for key, _ in allowed)
    unlisted = []
    for name, line, scope, text in found:
        key = (name, scope, text)
        if budget[key]:
            budget[key] -= 1
        else:
            unlisted.append(f"src/qwalg/{name}:{line}: {scope} :: {text}")
    stale = [f"{ALLOWLIST.name}: {' :: '.join(key)}" for key, k in budget.items()
             for _ in range(k)]
    kinds = Counter(kind for _, kind in allowed)
    print(f"linereach: {len(found)} unreached statements; allowlist "
          + ", ".join(f"{k} {kind}" for kind, k in sorted(kinds.items())))
    for line in unlisted:
        print(f"unreached and not listed: {line}")
    for line in stale:
        print(f"stale entry (reached or gone): {line}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
