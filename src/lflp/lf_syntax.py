"""Abstract syntax, parsing, and printing for LF expressions.

The concrete syntax is a Twelf-like subset: declarations are written
``name : expr.``, dependent function types ``{x:A} B``, abstractions
``[x:A] M``, non-dependent arrows ``A -> B`` (right associative),
application by juxtaposition (left associative), and ``%`` starts a
comment running to end of line.

Kinds, type families, and objects are separate node families.  The
parser builds them straight from the tokens in one left-to-right pass,
each expression read in the category its context demands; a
declaration's classifier is a kind exactly when its tail is ``type``.
Nodes are shared: the parser hash-conses constants, variables and
applications with one table per parse, so equal subterms of one parse
built of those nodes are one object, and the kernel and the encoder,
which keep tables keyed by identity, do their work once per distinct
subterm.  Sharing is safe because nodes are immutable (see below).
After parsing, binder names are pairwise distinct along any scope path
(the parser renames shadowed binders), and no bound variable stands as
a type.  Equality of expressions is alpha-equivalence, provided by
:func:`alpha_eq`; the structural ``==`` of the dataclasses compares
names literally and is only suitable for hashing.

The node classes (kinds, families, objects, declarations) are slotted
dataclasses with the generated field-wise ``==`` and ``hash``.  They are
not frozen, since a frozen instance is several times dearer to build,
and are immutable by rule instead: no code writes a node's field after
building it, which ``tests/test_hygiene.py`` checks.  A `Signature` is
a slotted class whose slots only its own methods write, and a context
is a plain dict from variable names to their types.

The lexer matches one pattern over the whole input.  A token records
which match it is, and its line and column are found again, by matching
once more, only when an error message reports them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from typing import Container, NamedTuple, Optional, Sequence, Union


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
    __slots__ = ()

    def __str__(self) -> str:
        return print_lf(self)


# ---------------------------------------------------------------------------
# Kinds

@dataclass(slots=True, unsafe_hash=True)
class KType(_Pretty):
    """The base kind classifying types."""


@dataclass(slots=True, unsafe_hash=True)
class KPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Kind"


Kind = Union[KType, KPi]


# ---------------------------------------------------------------------------
# Type families

@dataclass(slots=True, unsafe_hash=True)
class FConst(_Pretty):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class FPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Fam"


@dataclass(slots=True, unsafe_hash=True)
class FApp(_Pretty):
    fn: "Fam"
    arg: "Obj"


Fam = Union[FConst, FPi, FApp]


# ---------------------------------------------------------------------------
# Objects

@dataclass(slots=True, unsafe_hash=True)
class OConst(_Pretty):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class OVar(_Pretty):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class OLam(_Pretty):
    var: str
    dom: Fam
    body: "Obj"


@dataclass(slots=True, unsafe_hash=True)
class OApp(_Pretty):
    fn: "Obj"
    arg: "Obj"


Obj = Union[OConst, OVar, OLam, OApp]

Expr = Union[Kind, Fam, Obj]


# ---------------------------------------------------------------------------
# Signatures and contexts

@dataclass(slots=True, unsafe_hash=True)
class KindDecl:
    """``a : K`` declaring a type-family constant."""
    name: str
    kind: Kind


@dataclass(slots=True, unsafe_hash=True)
class ObjDecl:
    """``c : A`` declaring an object constant."""
    name: str
    fam: Fam


Decl = Union[KindDecl, ObjDecl]


class Signature:
    """Declarations in source order, indexed by name once.

    `lookup` reads the index; a name declared twice resolves to its first
    declaration.  `prefix(n)` sees only the first `n` declarations, and
    `view(decls)` sees every name but iterates only `decls`, a subset of
    the declarations in source order; both read the same index.  Four
    per-constant tables travel with the signature, shared with its
    prefixes and views, and are filled on demand by the layers that own
    them: `normal_forms` (the kernel's beta-normal classifiers),
    `dependencies` (for each Pi binder of a normal classifier, whether
    the rest of it mentions the binder), `simple_types` (the
    translator's flattened types) and `clauses` (the translator's clause
    per constant and mode).
    """

    __slots__ = ("decls", "_index", "_limit", "normal_forms", "dependencies",
                 "simple_types", "clauses")

    def __init__(self, decls: tuple[Decl, ...] = ()):
        index: dict[str, tuple[int, Union[Kind, Fam]]] = {}
        for i, d in enumerate(decls):
            if d.name not in index:
                index[d.name] = (i, d.kind if isinstance(d, KindDecl) else d.fam)
        self.decls, self._index, self._limit = decls, index, len(decls)
        self.normal_forms, self.dependencies = {}, {}
        self.simple_types, self.clauses = {}, {}

    def _share(self, decls: tuple[Decl, ...], limit: int) -> Signature:
        # built without `__init__`, since a prefix is made per declaration
        s = Signature.__new__(Signature)
        s.decls, s._index, s._limit = decls, self._index, limit
        s.normal_forms, s.dependencies = self.normal_forms, self.dependencies
        s.simple_types, s.clauses = self.simple_types, self.clauses
        return s

    def prefix(self, n: int) -> Signature:
        """The first `n` declarations: a later name looks up as None."""
        return self._share(self.decls[:n], n)

    def view(self, decls: tuple[Decl, ...]) -> Signature:
        """Every name of this signature, iterating only `decls`."""
        return self._share(decls, self._limit)

    def lookup(self, name: str) -> Optional[Union[Kind, Fam]]:
        i, a = self._index.get(name, (0, None))
        return a if i < self._limit else None


# A context maps each variable it binds to its type, beta-normal.  The
# kernel extends one in place and restores it after the binder's body.
Context = dict[str, Fam]


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
        case FApp(fn, arg) | OApp(fn, arg):
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
        case (FConst(m), FConst(n)) | (OConst(m), OConst(n)):
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
# Spine helpers.  An object and a type family application have one
# shape, `fn` applied to the object `arg`, so one `spine` reads both.

def spine(e: Union[Fam, Obj]) -> tuple[Union[Fam, Obj], list[Obj]]:
    """The head of an application and its arguments, in order."""
    args: list[Obj] = []
    # exact types, since no class derives from either: the fastest test
    while type(e) is OApp or type(e) is FApp:
        args.append(e.arg)
        e = e.fn
    args.reverse()
    return e, args


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


def pi_dependencies(a: Union[Kind, Fam]) -> tuple[bool, ...]:
    """For each leading Pi binder of `a`, whether the rest of `a` after
    it mentions the binder."""
    deps: list[bool] = []
    while isinstance(a, (KPi, FPi)):
        deps.append(occurs_free(a.var, a.body))
        a = a.body
    return tuple(deps)


# ---------------------------------------------------------------------------
# Lexer

class _Token(NamedTuple):
    kind: str  # 'ident', 'type', '->', one of "{}[]():.", or 'eof'
    text: str
    source: str  # the whole input, shared by every token read from it
    index: int  # which match of _LEXEME in `source`; past the last for eof

    # Positions are found only for an error message, by matching again.
    @property
    def line(self) -> int:
        return _position(self.source, self.index)[0]

    @property
    def col(self) -> int:
        return _position(self.source, self.index)[1]


# One match per word, punctuation mark, `%` comment or other non-space
# character; whitespace lies between matches.  `\w` is exactly
# str.isalnum() plus "_" and `\s` exactly str.isspace(), on every code
# point.
_LEXEME = re.compile(r"[\w']+|->|[{}\[\]():.]|%[^\n]*|\S")

# the kind of every lexeme that is its own kind
_KINDS = {p: p for p in ("->", "{", "}", "[", "]", "(", ")", ":", ".", "type")}


def _kind(lexeme: str) -> Optional[str]:
    """'ident', '' for a comment, or None for a lexeme that is no token."""
    c = lexeme[0]
    if c == "%":
        return ""
    # no word starts with a digit, '²' included, which `\d` misses
    if (c.isalnum() or c in "_'") and not c.isdigit():
        return "ident"
    return None


def _position(source: str, index: int) -> tuple[int, int]:
    """Line and column of the `index`-th match of _LEXEME in `source`,
    or of the end of input when there is no such match."""
    m = next(islice(_LEXEME.finditer(source), index, None), None)
    if m is not None:
        at = m.start()
    else:
        # a comment running to the end of input leaves the column at its `%`
        comment = source.find("%", source.rfind("\n") + 1)
        at = comment if comment >= 0 else len(source)
    return source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)


def tokenize(text: str) -> list[_Token]:
    lexemes = _LEXEME.findall(text)
    kinds = _KINDS.copy()
    # each distinct lexeme is classified once, in order of first
    # appearance, so the first bad one is the first in the text
    for w in dict.fromkeys(lexemes):
        if w not in kinds:
            kind = kinds[w] = _kind(w)
            if kind is None:
                raise LFSyntaxError(f"unexpected character {w[0]!r}",
                                    *_position(text, lexemes.index(w)))
    # the tokens are built in C: each (kind, lexeme, text, index) becomes
    # a _Token through tuple.__new__, and comments (kind '') are dropped
    ks = list(map(kinds.__getitem__, lexemes))
    toks = list(map(tuple.__new__, repeat(_Token),
                    compress(zip(ks, lexemes, repeat(text), count()), ks)))
    toks.append(_Token("eof", "", text, len(lexemes)))
    return toks


# ---------------------------------------------------------------------------
# Parser: tokens -> kinds, types and objects in one left-to-right pass

# The category an expression is read in, passed down by its caller.  A
# declaration's classifier is a kind when its tail is `type`, possibly in
# parentheses, and a type otherwise; its binder and arrow domains are types.
_CLASSIFIER, _TYPE, _OBJECT = 0, 1, 2

# the tokens that start an application argument; a binder must be
# parenthesized there
_ARG_START = frozenset(("ident", "type", "(", "{", "["))


class _Parser:
    """Recursive descent from tokens straight to Kind/Fam/Obj.

    `env` maps each source binder name in scope to its possibly renamed
    form.  `used` holds every name of the current declaration, collected
    from its tokens on the first renaming, so fresh names avoid them all.
    An elaboration error (a construct of the wrong category, a bound
    variable used as a type) is held in `err`, the first one wins, and is
    raised only once the declaration's syntax has been read.  Query free
    variables are recognized when the parser is given a signature.

    Every constant, variable and application node is built by `node`,
    which hash-conses it in `nodes`, the one table of the parse: equal
    subterms built of those nodes are one object.
    """

    def __init__(self, toks: list[_Token], sig: Optional[Signature] = None):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self.free_order: list[str] = []
        self.env: dict[str, str] = {}
        self.nodes: dict[tuple, Expr] = {}
        self.begin(None)

    def begin(self, name: Optional[str]) -> None:
        """Start a declaration body, of the constant `name`, at `pos`."""
        self.name = name
        self.body_start = self.pos
        self.used: Optional[set[str]] = None
        self.err: Optional[LFSyntaxError] = None
        # the tail `type` of the last classifier read as a kind
        self.type_tok: Optional[_Token] = None

    def node(self, cls: type, a, args: Sequence[Obj] = ()) -> Expr:
        """The one node of this parse of class `cls`: the leaf (`OConst`,
        `FConst`, `OVar`) named `a`, keyed by its name, or with `args`
        the applications (`OApp`, `FApp`) of `a` to each in turn, each
        keyed by the ids of its two children, which the node in the
        table keeps alive."""
        nodes = self.nodes
        if not args:
            e = nodes.get((cls, a))
            if e is None:
                e = nodes[cls, a] = cls(a)
            return e
        for b in args:
            key = (cls, id(a), id(b))
            e = nodes.get(key)
            if e is None:
                e = nodes[key] = cls(a, b)
            a = e
        return a

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def expect(self, kind: str) -> _Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            shown = t.text if t.kind != "eof" else "end of input"
            raise LFSyntaxError(f"expected {kind!r}, found {shown!r}", t.line, t.col)
        self.pos += 1
        return t

    def hold(self, message: str, t: _Token) -> None:
        if self.err is None:
            self.err = LFSyntaxError(message, t.line, t.col)

    def fresh(self, base: str) -> str:
        """A name none of the declaration's names, which it then joins."""
        used = self.used
        if used is None:
            # the body ends at its `.`; a query or object has none before eof
            used = self.used = set() if self.name is None else {self.name}
            toks, i = self.toks, self.body_start
            while toks[i].kind not in (".", "eof"):
                if toks[i].kind == "ident":
                    used.add(toks[i].text)
                i += 1
        new = fresh_name(base, used)
        used.add(new)
        return new

    def as_type(self, e: Union[Kind, Fam]) -> Fam:
        """`e`, read as a classifier, stands where a type must."""
        if isinstance(e, (KType, KPi)):
            self.hold("'type' cannot appear inside a type", self.type_tok)
        return e

    def expr(self, cat: int) -> Expr:
        """Binders and arrows, read in a loop, around an application.

        Held errors keep the order of a walk that checks each construct
        before its parts: a binder's error comes before any in its
        domain, and so does an arrow's, though its domain is read first.
        """
        toks = self.toks
        env = self.env
        binders: list[tuple[str, Fam]] = []
        shadowed: list[tuple[str, Optional[str]]] = []
        while True:
            t = toks[self.pos]
            if t.kind == "{" or t.kind == "[":
                # `{x:A} B` is a kind or a type, `[x:A] M` an object
                if (t.kind == "{") == (cat == _OBJECT):
                    self.hold("expected an object" if cat == _OBJECT
                              else "expected a type", t)
                self.pos += 1
                var = self.expect("ident").text
                self.expect(":")
                dom = self.expr(_TYPE)
                self.expect("}" if t.kind == "{" else "]")
                shadowed.append((var, env.get(var)))
                env[var] = var if var not in env else self.fresh(var)
                binders.append((env[var], dom))
                continue
            held = self.err
            e = self.atom(cat)
            t = toks[self.pos]
            if t.kind in _ARG_START:
                if cat != _OBJECT:
                    e = self.as_type(e)
                args = []
                while t.kind in _ARG_START:
                    if t.kind == "{" or t.kind == "[":
                        raise LFSyntaxError("binder must be parenthesized in "
                                            "argument position", t.line, t.col)
                    args.append(self.atom(_OBJECT))
                    t = toks[self.pos]
                e = self.node(OApp if cat == _OBJECT else FApp, e, args)
            if t.kind != "->":
                break
            if cat == _OBJECT:
                if held is None:
                    self.err = LFSyntaxError("expected an object", t.line, t.col)
            else:
                e = self.as_type(e)
            self.pos += 1
            binders.append((self.fresh("x"), e))
        for var, old in reversed(shadowed):
            if old is None:
                del env[var]
            else:
                env[var] = old
        pi = OLam if cat == _OBJECT else KPi if isinstance(e, (KType, KPi)) else FPi
        for var, dom in reversed(binders):
            e = pi(var, dom, e)
        return e

    def atom(self, cat: int) -> Expr:
        t = self.toks[self.pos]
        self.pos += 1
        if t.kind == "ident":
            name = t.text
            if cat != _OBJECT:
                if name in self.env:
                    self.hold(f"bound variable {name!r} used as a type", t)
                return self.node(FConst, name)
            if name in self.env:
                return self.node(OVar, self.env[name])
            if (self.sig is not None and name[0].isupper()
                    and self.sig.lookup(name) is None):
                if name not in self.free_order:
                    self.free_order.append(name)
                return self.node(OVar, name)
            return self.node(OConst, name)
        if t.kind == "(":
            e = self.expr(cat)
            self.expect(")")
            return e
        if t.kind == "type":
            if cat == _CLASSIFIER:
                self.type_tok = t
            else:
                self.hold("expected an object" if cat == _OBJECT
                          else "'type' cannot appear inside a type", t)
            return KType()
        shown = t.text if t.kind != "eof" else "end of input"
        raise LFSyntaxError(f"expected an expression, found {shown!r}", t.line, t.col)


def parse_signature(text: str) -> Signature:
    """Parse a sequence of ``name : expr.`` declarations in source order."""
    parser = _Parser(tokenize(text))
    decls: list[Decl] = []
    seen: set[str] = set()
    while parser.peek().kind != "eof":
        name_tok = parser.expect("ident")
        name = name_tok.text
        parser.expect(":")
        parser.begin(name)
        body = parser.expr(_CLASSIFIER)
        parser.expect(".")
        if name in seen:
            raise LFSyntaxError(f"duplicate declaration of {name!r}",
                                name_tok.line, name_tok.col)
        seen.add(name)
        if parser.err is not None:
            raise parser.err
        decls.append(KindDecl(name, body) if isinstance(body, (KType, KPi))
                     else ObjDecl(name, body))
    return Signature(tuple(decls))


def _end(parser: _Parser) -> None:
    """Reject input after the expression, then raise a held error."""
    tok = parser.peek()
    if tok.kind != "eof":
        raise LFSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    if parser.err is not None:
        raise parser.err


def parse_query(text: str, sig: Signature) -> tuple[tuple[str, ...], Fam]:
    """Parse a query type.

    Capitalized identifiers not declared in `sig` are collected as free
    (existential) variables, returned in first-use order.  The body must be
    a base type whose head is a type constant `sig` declares.
    """
    parser = _Parser(tokenize(text), sig=sig)
    fam = parser.expr(_TYPE)
    if parser.peek().kind == ".":
        parser.pos += 1
    _end(parser)
    head, _ = spine(fam)
    if not isinstance(head, FConst):
        raise LFSyntaxError("query must be a base type")
    if not isinstance(sig.lookup(head.name), (KType, KPi)):
        raise LFSyntaxError(f"query head {head.name!r} is not a declared type constant")
    return tuple(parser.free_order), fam


def parse_object(text: str) -> Obj:
    """Parse a single object term.  Identifiers bound by an enclosing
    lambda are variables; everything else is read as a constant."""
    parser = _Parser(tokenize(text))
    obj = parser.expr(_OBJECT)
    _end(parser)
    return obj


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
