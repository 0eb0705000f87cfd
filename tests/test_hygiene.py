"""Source hygiene: no module-level import goes unused, the library
imports nothing outside the standard library, no library module
imports another's private (underscore-prefixed) names or has a `global`
statement, every module-level function and class of the library is
named by library code, and no two module-level functions of the library
and the tests have one body up to the names of their parameters and
locals.

The checks read each file with the standard `ast` module, so they need
no linter.  A name counts as used when the module mentions it anywhere
outside the import itself, annotations included.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "lflp").glob("*.py"))
FILES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


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


def outside_stdlib(path: Path) -> list[str]:
    """`file:line: module` for each top-level import in `path` that is
    neither relative nor of a standard-library module (`__future__`
    among them)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(ROOT)
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [f"{rel}:{node.lineno}: {m}" for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_library_imports_only_the_standard_library():
    assert outside_stdlib(ROOT / "tests" / "test_cli.py"), \
        "the check must see the tests' own imports of lflp and pytest"
    found = [line for path in LIBRARY for line in outside_stdlib(path)]
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


def private_imports(path: Path) -> list[str]:
    """`file:line: name` for each underscore-prefixed name `path` imports
    from a module of the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "lflp")
            for alias in node.names if alias.name.startswith("_")]


def test_library_imports_no_private_names():
    assert private_imports(ROOT / "tests" / "oracles.py"), \
        "the check must see the oracles' import of strictness._why_obj"
    found = [line for path in LIBRARY for line in private_imports(path)]
    assert not found, "private names imported:\n" + "\n".join(found)


def global_statements(path: Path) -> list[str]:
    """`file:line: names` for each `global` statement in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: {', '.join(node.names)}"
            for node in ast.walk(tree) if isinstance(node, ast.Global)]


def test_library_has_no_global_statement(tmp_path):
    # A table that speeds one call, such as the export's sharing tables,
    # lives in an object that call makes and passes down, so `solve` and
    # `check_object` stay re-entrant and no call sees another's state.
    probe = tmp_path / "probe.py"
    probe.write_text("n = 0\n\n\ndef bump():\n    global n\n    n += 1\n")
    assert global_statements(probe) == ["probe.py:5: n"]
    found = [line for path in LIBRARY for line in global_statements(path)]
    assert not found, "global statements:\n" + "\n".join(found)


# The public parser entry point for objects: the tests and users call
# it, the pipeline itself reads only signatures and queries.
ENTRY_POINTS = {"lf_syntax.parse_object"}


def unnamed_definitions(paths: list[Path]) -> list[str]:
    """`module.name` for each module-level function or class in `paths`
    that no code of `paths` names, as a name or an attribute, outside
    its own definition.  Docstrings and comments do not count."""
    defs = []
    # name -> the top-level statements, as (module, index), that name it
    named: dict[str, set[tuple[str, int]]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, stmt in enumerate(tree.body):
            where = (path.stem, i)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, where))
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    named.setdefault(n.id, set()).add(where)
                elif isinstance(n, ast.Attribute):
                    named.setdefault(n.attr, set()).add(where)
    return [qual for qual, name, where in defs
            if not named.get(name, set()) - {where}]


def test_every_library_definition_is_named_by_the_library():
    found = unnamed_definitions(LIBRARY)
    assert ENTRY_POINTS <= set(found), \
        "the check must see that no library code names the entry points"
    found = [q for q in found if q not in ENTRY_POINTS]
    assert not found, "defined but never named:\n" + "\n".join(found)


def _local_names(fn: ast.FunctionDef) -> list[str]:
    """The parameters of `fn`, in order, then the other names it binds,
    in order of first binding: assignment and loop targets, the captures
    of match patterns, exception names, and the names and parameters of
    nested functions and lambdas."""
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    for n in ast.walk(fn):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.append(n.id)
        elif isinstance(n, (ast.MatchAs, ast.MatchStar, ast.ExceptHandler,
                            ast.FunctionDef)) and n is not fn:
            names.append(n.name)
        elif isinstance(n, ast.arg):
            names.append(n.arg)
    return list(dict.fromkeys(x for x in names if x is not None))


def module_globals(tree: ast.Module, module: str) -> dict[str, str]:
    """Each global name of a module, qualified by the module that defines
    it: `module.name` for its own top-level definitions and assignments,
    the source module's name for an imported module, and
    `source.name` for a name imported from one.  Module names drop their
    package (`lflp.lf_syntax` and `.lf_syntax` are both `lf_syntax`)."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names[stmt.name] = f"{module}.{stmt.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    names[n.id] = f"{module}.{n.id}"
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names[alias.asname or alias.name] = alias.name.split(".")[-1]
        elif isinstance(stmt, ast.ImportFrom):
            source = (stmt.module or "").split(".")[-1]
            for alias in stmt.names:
                names[alias.asname or alias.name] = (
                    f"{source}.{alias.name}" if source else alias.name)
    return names


def body_shape(fn: ast.FunctionDef, qualified: dict[str, str]) -> str:
    """The body of `fn` without its docstring, each parameter and local
    name replaced by its position in `_local_names` and each global name
    by its `qualified` name, so that two modules' private helpers of one
    name stay apart.  Builtins and attributes stay.  Renames `fn` in
    place."""
    places = {name: f"_{i}" for i, name in enumerate(_local_names(fn))}
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    for n in ast.walk(fn):
        if isinstance(n, ast.Name):
            n.id = places.get(n.id) or qualified.get(n.id, n.id)
        elif isinstance(n, ast.arg):
            n.arg = places[n.arg]
        elif isinstance(n, (ast.MatchAs, ast.MatchStar, ast.ExceptHandler,
                            ast.FunctionDef)) and n is not fn:
            n.name = places.get(n.name, n.name)
    return "\n".join(ast.dump(stmt) for stmt in body)


def duplicate_functions(paths: list[Path]) -> list[str]:
    """`module.f = module.g` for each module-level function g in `paths`
    whose body has the shape of an earlier function f's."""
    first: dict[str, str] = {}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        qualified = module_globals(tree, path.stem)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                qual = f"{path.stem}.{stmt.name}"
                shape = body_shape(stmt, qualified)
                if shape in first:
                    found.append(f"{first[shape]} = {qual}")
                else:
                    first[shape] = qual
    return found


_SHAPES = {
    "a": "from .x import helper\n\ndef _aeq(a):\n    return a\n\n"
         "def f(p, q):\n    return _aeq(p) + helper(q)\n",
    "b": "from lflp.x import helper\nfrom a import _aeq\n\n"
         "def g(u, v):\n    return _aeq(u) + helper(v)\n",
    "c": "from .x import helper\n\ndef _aeq(a):\n    return -a\n\n"
         "def h(s, t):\n    return _aeq(s) + helper(t)\n",
}


def test_no_two_library_functions_share_a_body(tmp_path):
    # the check sees through local names and tells apart two modules'
    # globals of one name: b.g calls a's `_aeq` as a.f does, c.h its own
    for module, text in _SHAPES.items():
        (tmp_path / f"{module}.py").write_text(text, encoding="utf-8")
    assert duplicate_functions(sorted(tmp_path.glob("*.py"))) == ["a.f = b.g"]
    found = duplicate_functions(FILES)
    assert not found, "functions with one body:\n" + "\n".join(found)
