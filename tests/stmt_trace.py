"""List the statements of `src/lflp` that no tier-1 test executes.

Run from the repository root:

    PYTHONPATH=src python tests/stmt_trace.py [pytest arguments]

It runs pytest in this process (on `tests/` by default, quietly) under a
`sys.settrace` hook that records the line events of library frames, and
then prints, module by module, each statement with bytecode that never
ran, as `file:line: source`.  Only the standard library is used.  Code
that tests reach only in a subprocess, such as `lflp` run as a command,
counts as unexecuted.  Pytest does not collect this file: its name does
not start with `test_`.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "lflp"


def statement_lines(path: Path) -> dict[int, int]:
    """The first line of each statement of `path`, mapped to its last
    line, for the statements that hold bytecode of their own: a
    function's docstring, say, holds none."""
    source = path.read_text(encoding="utf-8")
    code_lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno in code_lines:
            spans[node.lineno] = node.end_lineno
    return spans


def traced_run(args: list[str]
               ) -> tuple[int, dict[str, set[int]], list[str]]:
    """Pytest's exit status on `args`, the lines each library file
    executed meanwhile, and the tests before which the hook was lost."""
    prefix = str(LIBRARY)
    seen: dict[str, set[int]] = {}
    restored: list[str] = []

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    class Retrace:
        # Python drops a trace hook that raises, as one does when a test
        # runs into the recursion limit; each test starts with it again
        @staticmethod
        def pytest_runtest_setup(item):
            if sys.gettrace() is not on_call:
                restored.append(item.nodeid)
                sys.settrace(on_call)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, seen, restored


def main(argv: list[str]) -> int:
    status, seen, restored = traced_run(
        argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total = 0
    for path in sorted(LIBRARY.glob("*.py")):
        ran = seen.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for first, last in sorted(statement_lines(path).items()):
            if first not in ran:
                total += 1
                rel = path.relative_to(ROOT)
                print(f"{rel}:{first}: {source[first - 1].strip()}"
                      + (" ..." if last > first else ""))
    for nodeid in restored:
        print(f"trace hook restored before {nodeid}")
    print(f"{total} statements not executed (pytest exit status {status})")
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
