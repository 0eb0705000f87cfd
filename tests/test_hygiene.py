"""Source hygiene: no module-level import goes unused, the library
imports nothing outside the standard library and neither `dataclasses`
nor `inspect`, no library module imports another's private
(underscore-prefixed) names or has a `global` statement, every
module-level function and class of the library is named by library
code, and no two module-level functions of the library and the tests
have one body up to the names of their parameters and locals, nor two
of one library module up to every name, nor two of one library module
are near twins, their bodies' node kinds too alike by `difflib`.  The
term and formula node classes, marked by `lf_syntax.nodeclass`, are
immutable by rule: the library writes no field of a node, calls
`object.__setattr__` nowhere and writes a signature's slots only in
the methods of `Signature`, and no node instance has a dict.  The
parser builds every node it hash-conses through one helper.
Every target the benchmark's tracer wraps names a library callable,
but for the one known to be gone.

The checks read each file with the standard `ast` module, so they need
no linter.  A name counts as used when the module mentions it anywhere
outside the import itself, annotations included.
"""

import ast
import difflib
import importlib
import sys
from pathlib import Path

from lflp import hterms, lf_syntax, unify

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


def absolute_imports(path: Path, nodes) -> list[tuple[str, str]]:
    """`(file:line, module)` for each module imported, not relatively,
    by an import statement among `nodes`, statements of `path`."""
    rel = path.relative_to(ROOT)
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(f"{rel}:{node.lineno}", m) for m in modules]
    return found


def outside_stdlib(path: Path) -> list[str]:
    """`file:line: module` for each top-level import in `path` that is
    neither relative nor of a standard-library module (`__future__`
    among them)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{where}: {m}" for where, m in absolute_imports(path, tree.body)
            if m.split(".")[0] not in sys.stdlib_module_names]


def test_library_imports_only_the_standard_library():
    assert outside_stdlib(ROOT / "tests" / "test_cli.py"), \
        "the check must see the tests' own imports of lflp and pytest"
    found = [line for path in LIBRARY for line in outside_stdlib(path)]
    assert not found, "imports outside the standard library:\n" + "\n".join(found)


# `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, and it
# builds each slotted class twice: it cost about a third of `import
# lflp.cli`, which every command pays.  `lf_syntax.nodeclass` and
# `typing.NamedTuple` build the classes instead.
SLOW_TO_IMPORT = frozenset(("dataclasses", "inspect"))


def slow_imports(path: Path) -> list[str]:
    """`file:line: module` for each import anywhere in `path`, function
    bodies included, of a module in `SLOW_TO_IMPORT` or one inside it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{where}: {m}" for where, m in absolute_imports(path, ast.walk(tree))
            if m.split(".")[0] in SLOW_TO_IMPORT]


def test_library_imports_neither_dataclasses_nor_inspect():
    assert slow_imports(ROOT / "tests" / "lpreader.py"), \
        "the check must see the test reader's import of dataclasses"
    found = [line for path in LIBRARY for line in slow_imports(path)]
    assert not found, "slow imports:\n" + "\n".join(found)


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


def name_blind_shape(fn: ast.FunctionDef, qualified: dict[str, str]) -> str:
    """The body of `fn` without its docstring, each name (a local, a
    global or an attribute) and each constant replaced by its place in
    order of first appearance, so two bodies agree when one is the other
    with its names and constants consistently changed.  `qualified` is
    not read.  Renames `fn` in place."""
    places: dict[object, str] = {}
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    for n in (n for stmt in body for n in ast.walk(stmt)):
        for field, value in ast.iter_fields(n):
            if isinstance(n, ast.Constant) and field == "value":
                value = (type(value), value)
            elif not isinstance(value, str):
                continue
            setattr(n, field, places.setdefault(value, f"_{len(places)}"))
    return "\n".join(ast.dump(stmt) for stmt in body)


def duplicate_functions(paths: list[Path], shape_of) -> list[str]:
    """`module.f = module.g` for each module-level function g in `paths`
    whose body has the shape of an earlier function f's, each shape
    taken by `shape_of`."""
    first: dict[str, str] = {}
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        qualified = module_globals(tree, path.stem)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                qual = f"{path.stem}.{stmt.name}"
                shape = shape_of(stmt, qualified)
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
    assert duplicate_functions(sorted(tmp_path.glob("*.py")),
                               body_shape) == ["a.f = b.g"]
    found = duplicate_functions(FILES, body_shape)
    assert not found, "functions with one body:\n" + "\n".join(found)


_LOOPS = """\
def f(m):
    while isinstance(m, A):
        m = m.fn
    return m, 0


def g(a):
    while isinstance(a, B):
        a = a.fam
    return a, 1


def h(a):
    while isinstance(a, B):
        a = a.a
    return a, 1
"""


def test_no_two_functions_of_one_library_module_share_a_body(tmp_path):
    # g is f with every name and constant changed, so the two are one
    # loop; h reads the attribute named like its local, so it is not,
    # and f's copy in another module is the cross-module rule's concern
    (tmp_path / "loops.py").write_text(_LOOPS, encoding="utf-8")
    (tmp_path / "other.py").write_text(_LOOPS.split("\n\n\n")[0],
                                       encoding="utf-8")
    assert [line for path in sorted(tmp_path.glob("*.py"))
            for line in duplicate_functions([path], name_blind_shape)] \
        == ["loops.f = loops.g"]
    found = [line for path in LIBRARY
             for line in duplicate_functions([path], name_blind_shape)]
    assert not found, "functions with one body up to names:\n" + "\n".join(found)


def body_kinds(fn: ast.FunctionDef) -> list[str]:
    """The class names of the nodes of `fn`'s body without its
    docstring, statement by statement in the order `ast.walk` meets
    them."""
    body = fn.body
    if ast.get_docstring(fn, clean=False) is not None:
        body = body[1:]
    return [type(n).__name__ for stmt in body for n in ast.walk(stmt)]


TWIN_RATIO = 0.8  # the likeness of two bodies' node kinds that is too much
TWIN_NODES = 60  # a body of fewer nodes is too short to judge


def near_twins(path: Path) -> list[str]:
    """`module.f ~ module.g` for each two module-level functions of
    `path` whose bodies, each of at least `TWIN_NODES` nodes, have
    `body_kinds` at least `TWIN_RATIO` alike by `difflib`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bodies = [(stmt.name, kinds) for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef)
              for kinds in [body_kinds(stmt)] if len(kinds) >= TWIN_NODES]
    found = []
    for i, (f, a) in enumerate(bodies):
        for g, b in bodies[i + 1:]:
            # the quick ratios are upper bounds of the ratio
            m = difflib.SequenceMatcher(None, a, b, autojunk=False)
            if (m.real_quick_ratio() >= TWIN_RATIO
                    and m.quick_ratio() >= TWIN_RATIO
                    and m.ratio() >= TWIN_RATIO):
                found.append(f"{path.stem}.{f} ~ {path.stem}.{g}")
    return found


_TWINS = """\
def kind_of(sig, ctx, a):
    '''The kind of `a`.'''
    match a:
        case FConst(name):
            k = sig.get(name)
            if k is None:
                raise KeyError(f"unknown type constant {name!r}")
            return k, True
        case FPi(var, dom, body):
            ctx[var] = dom
            try:
                k, normal = kind_of(sig, ctx, body)
            finally:
                del ctx[var]
            return k, normal
    raise TypeError(a)


def type_of(sig, ctx, m):
    match m:
        case OConst(name):
            t = sig.get(name)
            if t is None:
                raise KeyError(f"unknown constant {name!r}")
            return t, True
        case OVar(name):
            return ctx[name], True
        case OLam(var, dom, body):
            ctx[var] = dom
            try:
                t, normal = type_of(sig, ctx, body)
            finally:
                del ctx[var]
            return (var, dom, t), normal
    raise TypeError(m)


def size(sig, ctx, e):
    n = 0
    for name, a in sig.items():
        if name in ctx and a is not None:
            n += len(str(a)) + len(name) * 2 - sum(map(len, ctx))
        elif isinstance(a, (list, tuple)):
            n += sum(size(sig, ctx, x) for x in a if x)
    return {k: v for k, v in ctx.items() if v} or [e, n, n + 1, -n]


def one(x):
    return x + 1


def two(y):
    return y + 1
"""


def test_no_two_functions_of_one_library_module_are_near_twins(tmp_path):
    # kind_of and type_of state one rule twice; `size` is as long but
    # unlike them, and the one-line twins are too short to judge
    probe = tmp_path / "probe.py"
    probe.write_text(_TWINS, encoding="utf-8")
    assert near_twins(probe) == ["probe.kind_of ~ probe.type_of"]
    found = [line for path in LIBRARY for line in near_twins(path)]
    assert not found, "functions too alike:\n" + "\n".join(found)


# The records built once per operation are NamedTuples, so the run time
# refuses a write to them.  The node classes are built by
# `lf_syntax.nodeclass`, which marks them: slotted and not frozen, built
# by the thousand, and immutable only by the rule below.
RECORDS = {"Program", "UnifyResult"}
NODE_CLASSES = [c for m in (lf_syntax, hterms, unify) for c in vars(m).values()
                if isinstance(c, type) and c.__module__ == m.__name__
                and getattr(c, "_is_node", False)]
NODE_FIELDS = frozenset(n for c in NODE_CLASSES for n in c.__slots__)


def test_node_classes_and_fields_are_pinned():
    # the field-write rule below is exactly as strict as the field set
    assert sorted(c.__name__ for c in NODE_CLASSES) == sorted(
        "KType KPi FConst FPi FApp OConst OVar OLam OApp KindDecl ObjDecl "
        "TBase TArrow Const EVar LVar BVar Lam App Top Atom Imp ForAll "
        "Eq".split())
    assert NODE_FIELDS == frozenset(
        "var dom body name fn arg kind fam cod ty level index pred args "
        "left right lhs rhs".split())


def _is_self(e: ast.expr) -> bool:
    return isinstance(e, ast.Name) and e.id == "self"


def node_field_writes(path: Path) -> list[str]:
    """`file:line: code` for each write in `path` to an attribute named
    like a node-class field on an object other than `self` (an
    assignment, augmented or annotated too, or a `setattr`, whose name
    must then be a string constant that is no field name), and for each
    `object.__setattr__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            bad = n.attr in NODE_FIELDS and not _is_self(n.value)
        elif isinstance(n, ast.Call) and ast.unparse(n.func) == "setattr":
            name = n.args[1] if len(n.args) > 1 else None
            bad = not _is_self(n.args[0]) and not (
                isinstance(name, ast.Constant) and name.value not in NODE_FIELDS)
        elif isinstance(n, ast.Call) and ast.unparse(n.func) == "object.__setattr__":
            bad = True
        else:
            continue
        if bad:
            found.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
    return found


_WRITES = """\
def f(t, u, k):
    t.body = u
    t.level += 1
    t.ty: int = 0
    t.pos = t.body
    setattr(t, "var", k)
    setattr(t, k, 0)
    setattr(t, "pos", 0)
    object.__setattr__(t, "pos", 0)


class C:
    def g(self, u):
        self.body = u
        setattr(self, "var", u)


class Signature:
    def h(self):
        object.__setattr__(self, "decls", ())
"""


def test_library_writes_no_node_field(tmp_path):
    assert {"body", "level", "ty", "var", "args"} <= NODE_FIELDS
    probe = tmp_path / "probe.py"
    probe.write_text(_WRITES)
    assert node_field_writes(probe) == [
        "probe.py:2: t.body", "probe.py:3: t.level", "probe.py:4: t.ty",
        "probe.py:6: setattr(t, 'var', k)", "probe.py:7: setattr(t, k, 0)",
        "probe.py:9: object.__setattr__(t, 'pos', 0)",
        "probe.py:20: object.__setattr__(self, 'decls', ())"]
    found = [line for path in LIBRARY for line in node_field_writes(path)]
    assert not found, "node fields written:\n" + "\n".join(found)


# A signature is built once and its prefixes and views share its tables,
# so only the class's own methods store its slots.
SIGNATURE_SLOTS = frozenset(lf_syntax.Signature.__slots__)


def signature_slot_writes(path: Path) -> list[str]:
    """`file:line: code` for each store in `path` to an attribute named
    like a slot of `Signature` (an assignment, augmented or annotated
    too, or a `setattr` with that name as a string constant) outside the
    top-level class `Signature`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owned = {id(n) for stmt in tree.body
             if isinstance(stmt, ast.ClassDef) and stmt.name == "Signature"
             for n in ast.walk(stmt)}
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            name = n.attr
        elif (isinstance(n, ast.Call) and ast.unparse(n.func) == "setattr"
              and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
            name = n.args[1].value
        else:
            continue
        if name in SIGNATURE_SLOTS and id(n) not in owned:
            found.append(f"{path.name}:{n.lineno}: {ast.unparse(n)}")
    return found


_SLOT_WRITES = """\
def f(sig, prog):
    sig.clauses = {}
    prog.clauses += ()
    sig.normal_forms: dict = {}
    setattr(sig, "_index", {})
    sig.lookup = None
    setattr(sig, "name", 0)


class Signature:
    def g(self, other):
        self.clauses = {}
        other._index = self._index
        setattr(other, "decls", ())


class Program:
    def __init__(self):
        self.clauses = ()
"""


def test_library_writes_signature_slots_only_in_signature(tmp_path):
    assert {"decls", "normal_forms", "clauses"} <= SIGNATURE_SLOTS
    assert not hasattr(lf_syntax.Signature(), "__dict__")
    probe = tmp_path / "probe.py"
    probe.write_text(_SLOT_WRITES)
    assert signature_slot_writes(probe) == [
        "probe.py:2: sig.clauses", "probe.py:3: prog.clauses",
        "probe.py:4: sig.normal_forms", "probe.py:5: setattr(sig, '_index', {})",
        "probe.py:19: self.clauses"]
    found = [line for path in LIBRARY for line in signature_slot_writes(path)]
    assert not found, "signature slots written:\n" + "\n".join(found)


# The parser hash-conses: equal constant, variable and application nodes
# of one parse are one object, which the kernel's and the encoder's
# identity tables turn into work done once.  So no method of `_Parser`
# but its interning helper `node` names those classes, except inside the
# class argument of a call to the helper.
INTERNED = frozenset(("OApp", "FApp", "OConst", "FConst", "OVar"))


def unshared_node_builds(path: Path) -> list[str]:
    """`file:line: name` for each mention of a class in `INTERNED` in a
    method of the top-level class `_Parser` other than `node`, outside
    the first argument of a `self.node(...)` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "_Parser"):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "node":
                continue
            allowed = {id(n) for call in ast.walk(fn)
                       if isinstance(call, ast.Call) and call.args
                       and ast.unparse(call.func) == "self.node"
                       for n in ast.walk(call.args[0])}
            found += [f"{path.name}:{n.lineno}: {n.id}" for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and n.id in INTERNED
                      and id(n) not in allowed]
    return found


_BUILDS = """\
class _Parser:
    def node(self, cls, a):
        return OApp(a, a)

    def atom(self, t):
        app = OApp
        x = self.node(OConst, "c")
        y = self.node(OApp if t else FApp, x, [x])
        return OVar("v"), app(x, y), self.node(FConst, OConst("d"))


def build(a):
    return OApp(a, a)
"""


def test_parser_builds_shared_nodes_only_through_its_helper(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(_BUILDS)
    assert unshared_node_builds(probe) == [
        "probe.py:6: OApp", "probe.py:9: OVar", "probe.py:9: OConst"]
    path = ROOT / "src" / "lflp" / "lf_syntax.py"
    assert "    def node(self" in path.read_text(encoding="utf-8")
    found = unshared_node_builds(path)
    assert not found, "nodes built past `_Parser.node`:\n" + "\n".join(found)


class _Dicted:
    pass


@lf_syntax.nodeclass
class _Leaky(_Dicted):
    x: int


def test_node_instances_have_no_dict():
    # a base class without `__slots__ = ()` brings the dict back
    assert hasattr(_Leaky(0), "__dict__")
    names = {c.__name__ for c in NODE_CLASSES}
    assert {"KType", "OApp", "ObjDecl", "TArrow", "App",
            "ForAll", "Eq"} <= names
    assert not names & RECORDS
    dicted = [c.__name__ for c in NODE_CLASSES
              if hasattr(c(*[None] * len(c.__slots__)), "__dict__")]
    assert not dicted, "node classes with an instance dict: " + ", ".join(dicted)


# The benchmark's tracer wraps library callables it names as
# `(module, attribute)` pairs; a rename in the library leaves such a
# span silently unrecorded.  `translator.strict_in_type` is known gone.
TRACING = ROOT / "perfbench" / "tracing.py"
GONE_TRACE_TARGETS = ["lflp.translator.strict_in_type"]


def trace_targets(path: Path) -> list[tuple[str, str]]:
    """The `(module, attribute)` pairs of the `TARGETS` list in `path`,
    read with `ast`, so the benchmark package is never imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and [ast.unparse(t) for t in stmt.targets] == ["TARGETS"]):
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1]))
                    for e in stmt.value.elts]
    raise AssertionError(f"no TARGETS list in {path}")


def missing_trace_targets(pairs: list[tuple[str, str]]) -> list[str]:
    """`module.attribute` for each pair that names no callable defined
    in the library."""
    missing = []
    for module, attribute in pairs:
        obj = (importlib.import_module(module)
               if module.split(".")[0] == "lflp" else None)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not (callable(obj)
                and getattr(obj, "__module__", "").startswith("lflp.")):
            missing.append(f"{module}.{attribute}")
    return missing


def test_every_trace_target_names_a_library_callable():
    # a method, a missing method or name, a constant, a callable the
    # library imports from the standard library, a module outside it
    assert missing_trace_targets([
        ("lflp.unify", "Subst.extend"), ("lflp.unify", "Subst.gone"),
        ("lflp.cli", "gone"), ("lflp.engine", "_LEVEL_CAP"),
        ("lflp.engine", "chain"), ("os", "getcwd"),
    ]) == ["lflp.unify.Subst.gone", "lflp.cli.gone", "lflp.engine._LEVEL_CAP",
           "lflp.engine.chain", "os.getcwd"]
    targets = trace_targets(TRACING)
    assert ("lflp.cli", "solve") in targets
    assert missing_trace_targets(targets) == GONE_TRACE_TARGETS
