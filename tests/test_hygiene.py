"""Source hygiene: no module-level import goes unused.

The check reads each file with the standard `ast` module, so it needs
no linter.  A name counts as used when the module mentions it anywhere
outside the import itself, annotations included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "lflp").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0]
            for alias in node.names if alias.name != "*"]


def unused_imports(path: Path) -> list[str]:
    """`file:line: name` for each module-level import `path` never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{node.lineno}: {name}"
            for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _bound_names(node) if name not in used]


def test_files_are_found():
    names = {p.name for p in FILES}
    assert {"translator.py", "cli.py", "oracles.py", "test_hygiene.py"} <= names


def test_no_unused_module_level_imports():
    unused = [line for path in FILES for line in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
