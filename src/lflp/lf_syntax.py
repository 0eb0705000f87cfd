"""Abstract syntax, parsing, and printing for LF expressions.

The concrete syntax is a Twelf-like subset: declarations are written
``name : expr.``, dependent function types ``{x:A} B``, abstractions
``[x:A] M``, non-dependent arrows ``A -> B`` (right associative),
application by juxtaposition (left associative), and ``%`` starts a
comment running to end of line.

Kinds, type families, and objects are separate node families.  After
parsing, binder names are pairwise distinct along any scope path (the
parser renames shadowed binders), and the head of a base type is always
a type constant.  Equality of expressions is alpha-equivalence, provided
by :func:`alpha_eq`; the structural ``==`` of the dataclasses compares
names literally and is only suitable for hashing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Container, Iterator, NamedTuple, Optional, Union


class LFError(Exception):
    """Base class for everything this package raises on bad input."""


class LFSyntaxError(LFError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class _Pretty:
    def __str__(self) -> str:
        return print_lf(self)


# ---------------------------------------------------------------------------
# Kinds

@dataclass(frozen=True)
class KType(_Pretty):
    """The base kind classifying types."""


@dataclass(frozen=True)
class KPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Kind"


Kind = Union[KType, KPi]


# ---------------------------------------------------------------------------
# Type families

@dataclass(frozen=True)
class FConst(_Pretty):
    name: str


@dataclass(frozen=True)
class FPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Fam"


@dataclass(frozen=True)
class FApp(_Pretty):
    fam: "Fam"
    arg: "Obj"


Fam = Union[FConst, FPi, FApp]


# ---------------------------------------------------------------------------
# Objects

@dataclass(frozen=True)
class OConst(_Pretty):
    name: str


@dataclass(frozen=True)
class OVar(_Pretty):
    name: str


@dataclass(frozen=True)
class OLam(_Pretty):
    var: str
    dom: Fam
    body: "Obj"


@dataclass(frozen=True)
class OApp(_Pretty):
    fn: "Obj"
    arg: "Obj"


Obj = Union[OConst, OVar, OLam, OApp]

Expr = Union[Kind, Fam, Obj]


# ---------------------------------------------------------------------------
# Signatures and contexts

@dataclass(frozen=True)
class KindDecl:
    """``a : K`` declaring a type-family constant."""
    name: str
    kind: Kind

    def __str__(self) -> str:
        return f"{self.name} : {print_lf(self.kind)}."


@dataclass(frozen=True)
class ObjDecl:
    """``c : A`` declaring an object constant."""
    name: str
    fam: Fam

    def __str__(self) -> str:
        return f"{self.name} : {print_lf(self.fam)}."


Decl = Union[KindDecl, ObjDecl]


@dataclass(frozen=True)
class Signature:
    """Declarations in source order, indexed by name once.

    `lookup` reads the index; a name declared twice resolves to its first
    declaration; a `SignaturePrefix` sees only the first declarations
    through the same index.  Two per-constant tables travel with the signature and
    are filled on demand by the layers that own them: `normal_forms` (the
    kernel's beta-normal classifiers) and `simple_types` (the translator's
    flattened types).
    """
    decls: tuple[Decl, ...] = ()

    def __post_init__(self) -> None:
        index: dict[str, tuple[int, Union[Kind, Fam]]] = {}
        for i, d in enumerate(self.decls):
            if d.name not in index:
                index[d.name] = (i, d.kind if isinstance(d, KindDecl) else d.fam)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "normal_forms", {})
        object.__setattr__(self, "simple_types", {})

    def lookup(self, name: str) -> Optional[Union[Kind, Fam]]:
        entry = self._index.get(name)
        return None if entry is None else entry[1]

    def names(self) -> frozenset[str]:
        return frozenset(self._index)

    def __iter__(self) -> Iterator[Decl]:
        return iter(self.decls)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.decls)


class SignaturePrefix:
    """The first `limit` declarations of a signature, read through its
    index: later declarations are invisible and nothing is copied."""

    __slots__ = ("_index", "_limit", "normal_forms")

    def __init__(self, sig: Signature, limit: int):
        self._index = sig._index
        self._limit = limit
        self.normal_forms = sig.normal_forms

    def lookup(self, name: str) -> Optional[Union[Kind, Fam]]:
        entry = self._index.get(name)
        if entry is None or entry[0] >= self._limit:
            return None
        return entry[1]


@dataclass(frozen=True)
class Context:
    bindings: tuple[tuple[str, Fam], ...] = ()

    def lookup(self, name: str) -> Optional[Fam]:
        # innermost binding wins, though names are distinct by invariant
        for x, a in reversed(self.bindings):
            if x == name:
                return a
        return None

    def extend(self, name: str, fam: Fam) -> "Context":
        return Context(self.bindings + ((name, fam),))

    def names(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.bindings)

    def __iter__(self) -> Iterator[tuple[str, Fam]]:
        return iter(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)


# ---------------------------------------------------------------------------
# Name supply and free variables

def fresh_name(base: str, avoid: Container[str]) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def free_vars(e: Expr) -> frozenset[str]:
    """Free object-variable names of a kind, family, or object."""
    match e:
        case KType() | FConst() | OConst():
            return frozenset()
        case OVar(name):
            return frozenset((name,))
        case KPi(var, dom, body) | FPi(var, dom, body) | OLam(var, dom, body):
            return free_vars(dom) | (free_vars(body) - {var})
        case FApp(fam, arg):
            return free_vars(fam) | free_vars(arg)
        case OApp(fn, arg):
            return free_vars(fn) | free_vars(arg)
    raise TypeError(f"not an LF expression: {e!r}")


def occurs_free(x: str, e: Expr) -> bool:
    """Whether `x` is free in `e`; `x in free_vars(e)` without the sets."""
    match e:
        case OVar(name):
            return name == x
        case KPi(var, dom, body) | FPi(var, dom, body) | OLam(var, dom, body):
            return occurs_free(x, dom) or (var != x and occurs_free(x, body))
        case FApp(fn, arg) | OApp(fn, arg):
            return occurs_free(x, fn) or occurs_free(x, arg)
    return False


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to renaming of bound variables."""
    return _aeq(a, b, (), ())


def _aeq(a: Expr, b: Expr, ea: tuple[str, ...], eb: tuple[str, ...]) -> bool:
    match a, b:
        case KType(), KType():
            return True
        case (KPi(x, d1, b1), KPi(y, d2, b2)) | (FPi(x, d1, b1), FPi(y, d2, b2)) \
                | (OLam(x, d1, b1), OLam(y, d2, b2)):
            return _aeq(d1, d2, ea, eb) and _aeq(b1, b2, ea + (x,), eb + (y,))
        case FConst(m), FConst(n):
            return m == n
        case OConst(m), OConst(n):
            return m == n
        case OVar(m), OVar(n):
            ia = _rindex(ea, m)
            ib = _rindex(eb, n)
            if ia is None and ib is None:
                return m == n
            return ia == ib
        case (FApp(f1, a1), FApp(f2, a2)) | (OApp(f1, a1), OApp(f2, a2)):
            return _aeq(f1, f2, ea, eb) and _aeq(a1, a2, ea, eb)
    return False


def _rindex(env: tuple[str, ...], name: str) -> Optional[int]:
    for i in range(len(env) - 1, -1, -1):
        if env[i] == name:
            return i
    return None


# ---------------------------------------------------------------------------
# Spine helpers shared by the kernel and the translator

def obj_spine(m: Obj) -> tuple[Obj, list[Obj]]:
    args: list[Obj] = []
    while isinstance(m, OApp):
        args.append(m.arg)
        m = m.fn
    args.reverse()
    return m, args


def fam_spine(a: Fam) -> tuple[Fam, list[Obj]]:
    args: list[Obj] = []
    while isinstance(a, FApp):
        args.append(a.arg)
        a = a.fam
    args.reverse()
    return a, args


def obj_app(head: Obj, args: list[Obj]) -> Obj:
    for x in args:
        head = OApp(head, x)
    return head


def split_fam_pis(a: Fam) -> tuple[list[tuple[str, Fam]], Fam]:
    """Peel `{x1:A1}...{xn:An} B` into the binder list and the base B."""
    binders: list[tuple[str, Fam]] = []
    while isinstance(a, FPi):
        binders.append((a.var, a.dom))
        a = a.body
    return binders, a


# ---------------------------------------------------------------------------
# Lexer

class _Token(NamedTuple):
    kind: str  # 'ident', 'type', '->', one of "{}[]():.", or 'eof'
    text: str
    line: int
    col: int


# One match per token, with the whitespace and `%` comments before it, on
# one line at a time.  Group 1 is a word, group 2 punctuation, group 3 any
# other character; none matches only at the end of the line.  `\w` is
# exactly str.isalnum() plus "_" and `\s` exactly str.isspace(), on every
# code point.
_LEXEME = re.compile(r"(?:\s+|%.*)*(?:([\w']+)|(->|[{}\[\]():.])|(.))?")

# _Token(...) runs a Python-level __new__; this builds the same tuple in C
_new_token = tuple.__new__


def tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    append = toks.append
    for line, src in enumerate(text.split("\n"), 1):
        for m in _LEXEME.finditer(src):
            group = m.lastindex
            if group is None:
                continue
            word = m.group(group)
            col = m.start(group) + 1
            # no word starts with a digit, '²' included, which `\d` misses
            if group == 1 and not word[0].isdigit():
                kind = "type" if word == "type" else "ident"
            elif group == 2:
                kind = word
            else:
                raise LFSyntaxError(f"unexpected character {word[0]!r}", line, col)
            append(_new_token(_Token, (kind, word, line, col)))
    # a comment running to the end of input leaves the column at its `%`
    comment = src.find("%")
    append(_Token("eof", "", line, (comment if comment >= 0 else len(src)) + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser: tokens -> untyped pre-terms -> classified expressions

@dataclass(frozen=True)
class _PName:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class _PType:
    line: int
    col: int


@dataclass(frozen=True)
class _PPi:
    var: str
    dom: "_PTerm"
    body: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PLam:
    var: str
    dom: "_PTerm"
    body: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PArrow:
    dom: "_PTerm"
    cod: "_PTerm"
    line: int
    col: int


@dataclass(frozen=True)
class _PApp:
    fn: "_PTerm"
    arg: "_PTerm"
    line: int
    col: int


_PTerm = Union[_PName, _PType, _PPi, _PLam, _PArrow, _PApp]


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def names_since(self, start: int) -> set[str]:
        """Every identifier among the tokens read since `start`: the binder
        names and name occurrences of the pre-term parsed from them."""
        return {t.text for t in self.toks[start:self.pos] if t.kind == "ident"}

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            shown = t.text if t.kind != "eof" else "end of input"
            raise LFSyntaxError(f"expected {kind!r}, found {shown!r}", t.line, t.col)
        return self.next()

    def expr(self) -> _PTerm:
        t = self.peek()
        if t.kind in ("{", "["):
            open_kind = self.next()
            name = self.expect("ident")
            self.expect(":")
            dom = self.expr()
            self.expect("}" if open_kind.kind == "{" else "]")
            body = self.expr()
            cls = _PPi if open_kind.kind == "{" else _PLam
            return cls(name.text, dom, body, open_kind.line, open_kind.col)
        left = self.app()
        if self.peek().kind == "->":
            arrow = self.next()
            right = self.expr()
            return _PArrow(left, right, arrow.line, arrow.col)
        return left

    def app(self) -> _PTerm:
        t = self.peek()
        e = self.atom()
        while self.peek().kind in ("ident", "type", "(", "{", "["):
            # binders may appear as the final argument position in
            # parentheses only; a bare `{`/`[` here is a syntax error
            nxt = self.peek()
            if nxt.kind in ("{", "["):
                raise LFSyntaxError("binder must be parenthesized in argument position",
                                    nxt.line, nxt.col)
            a = self.atom()
            e = _PApp(e, a, t.line, t.col)
        return e

    def atom(self) -> _PTerm:
        t = self.next()
        if t.kind == "ident":
            return _PName(t.text, t.line, t.col)
        if t.kind == "type":
            return _PType(t.line, t.col)
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        shown = t.text if t.kind != "eof" else "end of input"
        raise LFSyntaxError(f"expected an expression, found {shown!r}", t.line, t.col)


def _tail_is_type(e: _PTerm) -> bool:
    while True:
        match e:
            case _PType():
                return True
            case _PPi(_, _, body, _, _) | _PArrow(_, body, _, _):
                e = body
            case _:
                return False


class _Elab:
    """Turns pre-terms into Kind/Fam/Obj, resolving scope.

    `env` maps a source binder name to its possibly renamed form; `used`
    accumulates every name in the declaration so freshening cannot collide.
    Query free variables are recognized here when `free_ok` holds.
    """

    def __init__(self, used: set[str], sig: Optional[Signature] = None,
                 free_ok: bool = False):
        self.used = used
        self.sig = sig
        self.free_ok = free_ok
        self.free_order: list[str] = []

    def bind(self, var: str, env: dict[str, str]) -> tuple[str, dict[str, str]]:
        new = var
        if var in env:
            new = fresh_name(var, self.used)
        self.used.add(new)
        env2 = dict(env)
        env2[var] = new
        return new, env2

    def kind(self, e: _PTerm, env: dict[str, str]) -> Kind:
        match e:
            case _PType():
                return KType()
            case _PPi(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return KPi(v, d, self.kind(body, env2))
            case _PArrow(dom, cod, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(fresh_name("x", self.used), env)
                return KPi(v, d, self.kind(cod, env2))
        raise LFSyntaxError("expected a kind", _line(e), _col(e))

    def fam(self, e: _PTerm, env: dict[str, str]) -> Fam:
        match e:
            case _PPi(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return FPi(v, d, self.fam(body, env2))
            case _PArrow(dom, cod, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(fresh_name("x", self.used), env)
                return FPi(v, d, self.fam(cod, env2))
            case _PName(name, line, col):
                if name in env:
                    raise LFSyntaxError(
                        f"bound variable {name!r} used as a type", line, col)
                return FConst(name)
            case _PApp(fn, arg, _, _):
                return FApp(self.fam(fn, env), self.obj(arg, env))
            case _PType(line, col):
                raise LFSyntaxError("'type' cannot appear inside a type", line, col)
        raise LFSyntaxError("expected a type", _line(e), _col(e))

    def obj(self, e: _PTerm, env: dict[str, str]) -> Obj:
        match e:
            case _PName(name, line, col):
                if name in env:
                    return OVar(env[name])
                if self.free_ok and name[0].isupper() and (
                        self.sig is None or self.sig.lookup(name) is None):
                    if name not in self.free_order:
                        self.free_order.append(name)
                    return OVar(name)
                return OConst(name)
            case _PLam(var, dom, body, _, _):
                d = self.fam(dom, env)
                v, env2 = self.bind(var, env)
                return OLam(v, d, self.obj(body, env2))
            case _PApp(fn, arg, _, _):
                return OApp(self.obj(fn, env), self.obj(arg, env))
        raise LFSyntaxError("expected an object", _line(e), _col(e))


def _line(e: _PTerm) -> int:
    return getattr(e, "line", 0)


def _col(e: _PTerm) -> int:
    return getattr(e, "col", 0)


def parse_signature(text: str) -> Signature:
    """Parse a sequence of ``name : expr.`` declarations in source order."""
    parser = _Parser(tokenize(text))
    decls: list[Decl] = []
    seen: set[str] = set()
    while parser.peek().kind != "eof":
        name_tok = parser.expect("ident")
        parser.expect(":")
        start = parser.pos
        body = parser.expr()
        parser.expect(".")
        if name_tok.text in seen:
            raise LFSyntaxError(f"duplicate declaration of {name_tok.text!r}",
                                name_tok.line, name_tok.col)
        seen.add(name_tok.text)
        elab = _Elab(parser.names_since(start) | {name_tok.text})
        if _tail_is_type(body):
            decls.append(KindDecl(name_tok.text, elab.kind(body, {})))
        else:
            decls.append(ObjDecl(name_tok.text, elab.fam(body, {})))
    return Signature(tuple(decls))


def parse_query(text: str, sig: Optional[Signature] = None) -> tuple[tuple[str, ...], Fam]:
    """Parse a query type.

    Capitalized identifiers not declared in `sig` are collected as free
    (existential) variables, returned in first-use order.  The body must be
    a base type; when `sig` is given its head must be a declared type
    constant.
    """
    parser = _Parser(tokenize(text))
    body = parser.expr()
    if parser.peek().kind == ".":
        parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        raise LFSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    elab = _Elab(parser.names_since(0), sig=sig, free_ok=True)
    fam = elab.fam(body, {})
    head, _ = fam_spine(fam)
    if not isinstance(head, FConst):
        raise LFSyntaxError("query must be a base type")
    if sig is not None and not isinstance(sig.lookup(head.name), (KType, KPi)):
        raise LFSyntaxError(f"query head {head.name!r} is not a declared type constant")
    return tuple(elab.free_order), fam


def parse_object(text: str, sig: Optional[Signature] = None) -> Obj:
    """Parse a single object term.  Identifiers bound by an enclosing
    lambda are variables; everything else is read as a constant."""
    parser = _Parser(tokenize(text))
    body = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise LFSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    elab = _Elab(parser.names_since(0), sig=sig)
    return elab.obj(body, {})


# ---------------------------------------------------------------------------
# Printing

def print_lf(e: Expr) -> str:
    """Concrete syntax for an expression; re-parses to an alpha-equal term."""
    return _pp(e, 0)


def _pp(e: Expr, prec: int) -> str:
    # prec 0: whole expressions; 1: arrow operands / application; 2: atoms
    match e:
        case KType():
            return "type"
        case KPi(var, dom, body) | FPi(var, dom, body):
            if not occurs_free(var, body):
                s = f"{_pp(dom, 1)} -> {_pp(body, 0)}"
            else:
                s = f"{{{var}:{_pp(dom, 0)}}} {_pp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case OLam(var, dom, body):
            s = f"[{var}:{_pp(dom, 0)}] {_pp(body, 0)}"
            return f"({s})" if prec > 0 else s
        case FConst(name) | OConst(name) | OVar(name):
            return name
        case FApp(fn, arg) | OApp(fn, arg):
            s = f"{_pp(fn, 1)} {_pp(arg, 2)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not an LF expression: {e!r}")
