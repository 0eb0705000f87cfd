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
It reads an expression in one loop that keeps the enclosing
expressions on a stack of its own, so nesting costs no Python frames.
Nodes are shared: the parser hash-conses constants, variables and
applications with one table per parse, so equal subterms of one parse
built of those nodes are one object, and the kernel and the encoder,
which keep tables keyed by identity, do their work once per distinct
subterm.  Sharing is safe because nodes are immutable (see below).
After parsing, binder names are pairwise distinct along any scope path
(the parser renames shadowed binders), and no bound variable stands as
a type.  Equality of expressions is alpha-equivalence, provided by
:func:`alpha_eq`; the structural ``==`` of the nodes compares names
literally and is only suitable for hashing.

The node classes (kinds, families, objects, declarations, and the
terms and formulas of `hterms`) are built by `nodeclass`: slotted, with
a field-wise ``__init__``, ``__repr__``, ``==`` and ``hash`` generated
once per class, as a slotted dataclass has them, but without the cost
of importing and running `dataclasses` at start-up.  They are not
frozen, since a frozen instance is several times dearer to build, and
are immutable by rule instead: no code writes a node's field after
building it, which ``tests/test_hygiene.py`` checks.  A `Signature` is
a slotted class whose slots only its own methods write, and a context
is a plain dict from variable names to their types.

The lexer matches one pattern over the whole input and returns the
tokens as parallel lists of kinds and texts, and keeps nothing else per
token.  A token's match, and from it its line and column, is found
again, by matching once more, only when an error message reports it.
"""

from __future__ import annotations

import re
from itertools import compress, islice
from typing import Container, Optional, Sequence, Union


class LFError(Exception):
    """Base class for everything this package raises on bad input."""


class LFSyntaxError(LFError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


def nodeclass(cls: type) -> type:
    """`cls` rebuilt once as a node class: its own annotated fields, in
    order, are its `__slots__` and `__match_args__`, and one `exec`
    gives it the field-wise `__init__`, `__repr__`, `__eq__` (between
    instances of one class only) and `__hash__` of the field tuple, as
    a slotted dataclass with `unsafe_hash` has.  `_is_node` marks it."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    assert all(n.isidentifier() for n in names), names
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    ns = {k: v for k, v in vars(cls).items()
          if k not in ("__dict__", "__weakref__")}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         f"    {'; '.join(f'self.{n} = {n}' for n in names) or 'pass'}\n"
         f"def __repr__(self):\n"
         f"    return self.__class__.__qualname__ + f'({shown})'\n"
         f"def __eq__(self, other):\n"
         f"    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         f"    return NotImplemented\n"
         f"def __hash__(self):\n"
         f"    return hash(({mine}))\n", {}, ns)
    ns["__slots__"] = ns["__match_args__"] = names
    ns["__qualname__"], ns["_is_node"] = cls.__qualname__, True
    return type(cls.__name__, cls.__bases__, ns)


class _Pretty:
    __slots__ = ()

    def __str__(self) -> str:
        return print_lf(self)


# ---------------------------------------------------------------------------
# Kinds

@nodeclass
class KType(_Pretty):
    """The base kind classifying types."""


@nodeclass
class KPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Kind"


Kind = Union[KType, KPi]


# ---------------------------------------------------------------------------
# Type families

@nodeclass
class FConst(_Pretty):
    name: str


@nodeclass
class FPi(_Pretty):
    var: str
    dom: "Fam"
    body: "Fam"


@nodeclass
class FApp(_Pretty):
    fn: "Fam"
    arg: "Obj"


Fam = Union[FConst, FPi, FApp]


# ---------------------------------------------------------------------------
# Objects

@nodeclass
class OConst(_Pretty):
    name: str


@nodeclass
class OVar(_Pretty):
    name: str


@nodeclass
class OLam(_Pretty):
    var: str
    dom: Fam
    body: "Obj"


@nodeclass
class OApp(_Pretty):
    fn: "Obj"
    arg: "Obj"


Obj = Union[OConst, OVar, OLam, OApp]

Expr = Union[Kind, Fam, Obj]


# ---------------------------------------------------------------------------
# Signatures and contexts

@nodeclass
class KindDecl:
    """``a : K`` declaring a type-family constant."""
    name: str
    kind: Kind


@nodeclass
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


# The walks below dispatch on the exact class, since no node class
# derives from another: one identity test per case tried.

def free_vars(e: Expr) -> frozenset[str]:
    """Free object-variable names of a kind, family, or object."""
    cls = type(e)
    if cls is OApp or cls is FApp:
        return free_vars(e.fn) | free_vars(e.arg)
    if cls is OVar:
        return frozenset((e.name,))
    if cls is OConst or cls is FConst or cls is KType:
        return frozenset()
    if cls is FPi or cls is OLam or cls is KPi:
        return free_vars(e.dom) | (free_vars(e.body) - {e.var})
    raise TypeError(f"not an LF expression: {e!r}")


def occurs_free(x: str, e: Expr) -> bool:
    """Whether `x` is free in `e`; `x in free_vars(e)` without the sets."""
    cls = type(e)
    if cls is OApp or cls is FApp:
        return occurs_free(x, e.fn) or occurs_free(x, e.arg)
    if cls is OVar:
        return e.name == x
    if cls is FPi or cls is OLam or cls is KPi:
        return occurs_free(x, e.dom) or (e.var != x and occurs_free(x, e.body))
    return False


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to renaming of bound variables."""
    return _aeq(a, b, (), ())


def _aeq(a: Expr, b: Expr, ea: tuple[str, ...], eb: tuple[str, ...]) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is OApp or cls is FApp:
        return _aeq(a.fn, b.fn, ea, eb) and _aeq(a.arg, b.arg, ea, eb)
    if cls is OConst or cls is FConst:
        return a.name == b.name
    if cls is OVar:
        ia = _rindex(ea, a.name)
        ib = _rindex(eb, b.name)
        if ia is None and ib is None:
            return a.name == b.name
        return ia == ib
    if cls is FPi or cls is OLam or cls is KPi:
        return (_aeq(a.dom, b.dom, ea, eb)
                and _aeq(a.body, b.body, ea + (a.var,), eb + (b.var,)))
    return cls is KType


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


def _position(source: str, at: int) -> tuple[int, int]:
    """Line and column of offset `at` of `source`."""
    return source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)


class _Tokens:
    """The tokens of `source` as parallel lists, the last one 'eof': their
    `kinds` and `texts`.  A token's position is found only for an error
    message, by `position`."""

    __slots__ = ("kinds", "texts", "source")

    def __init__(self, kinds: list[str], texts: list[str], source: str):
        self.kinds, self.texts, self.source = kinds, texts, source

    def __len__(self) -> int:
        return len(self.kinds)

    def position(self, i: int) -> tuple[int, int]:
        """Line and column of the `i`-th token, found by matching again:
        the start of the i-th match that is no comment, or for 'eof' the
        end of input, where a comment running to the end leaves the
        column at its `%`."""
        source = self.source
        starts = (m.start() for m in _LEXEME.finditer(source)
                  if source[m.start()] != "%")
        at = next(islice(starts, i, None), None)
        if at is None:
            at = source.find("%", source.rfind("\n") + 1)
            if at < 0:
                at = len(source)
        return _position(source, at)


def tokenize(text: str) -> _Tokens:
    lexemes = _LEXEME.findall(text)
    kinds = _KINDS.copy()
    # each distinct lexeme is classified once, in order of first
    # appearance, so the first bad one is the first in the text
    for w in dict.fromkeys(lexemes):
        if w not in kinds:
            kind = kinds[w] = _kind(w)
            if kind is None:
                at = next(m.start() for m in _LEXEME.finditer(text)
                          if m.group() == w)
                raise LFSyntaxError(f"unexpected character {w[0]!r}",
                                    *_position(text, at))
    # the lists are built in C; comments (kind '') are dropped
    ks = list(map(kinds.__getitem__, lexemes))
    return _Tokens([*compress(ks, ks), "eof"], [*compress(lexemes, ks), ""], text)


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
    """Tokens straight to Kind/Fam/Obj, in one loop per expression.

    `env` maps each source binder name in scope to its possibly renamed
    form.  `used` holds every name of the current declaration, collected
    from its tokens on the first renaming, so fresh names avoid them all.
    An elaboration error (a construct of the wrong category, a bound
    variable used as a type) is held in `err`, the first one wins, and is
    raised only once the declaration's syntax has been read.  Query free
    variables are recognized when the parser is given a signature.
    Tokens are read by position from `kinds` and `texts`; an error
    message alone asks for a token's line and column.

    Every constant, variable and application node is built by `node`,
    which hash-conses it in `nodes`, the one table of the parse: equal
    subterms built of those nodes are one object.
    """

    def __init__(self, toks: _Tokens, sig: Optional[Signature] = None):
        self.toks = toks
        self.kinds, self.texts = toks.kinds, toks.texts
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
        # the position of the tail `type` of the last classifier read as a kind
        self.type_at: Optional[int] = None

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

    def error(self, message: str, i: int) -> LFSyntaxError:
        return LFSyntaxError(message, *self.toks.position(i))

    def expected(self, what: str, i: int) -> LFSyntaxError:
        shown = self.texts[i] if self.kinds[i] != "eof" else "end of input"
        return self.error(f"expected {what}, found {shown!r}", i)

    def expect(self, kind: str, i: int) -> int:
        """The position after the `i`-th token, which must be a `kind`."""
        if self.kinds[i] != kind:
            raise self.expected(repr(kind), i)
        return i + 1

    def hold(self, message: str, i: int) -> None:
        if self.err is None:
            self.err = self.error(message, i)

    def fresh(self, base: str) -> str:
        """A name none of the declaration's names, which it then joins."""
        used = self.used
        if used is None:
            # the body ends at its `.`; a query or object has none before eof
            used = self.used = set() if self.name is None else {self.name}
            kinds, i = self.kinds, self.body_start
            while kinds[i] not in (".", "eof"):
                if kinds[i] == "ident":
                    used.add(self.texts[i])
                i += 1
        new = fresh_name(base, used)
        used.add(new)
        return new

    def as_type(self, e: Union[Kind, Fam]) -> None:
        """`e`, read as a classifier, stands where a type must."""
        if isinstance(e, (KType, KPi)):
            self.hold("'type' cannot appear inside a type", self.type_at)

    def expr(self, cat: int) -> Expr:
        """An expression: binders and arrows around an application of a
        head to arguments, each an identifier, `type` or a parenthesized
        expression.

        One loop reads it all.  A parenthesized head or argument, or a
        binder's domain, is an expression of its own: the loop suspends
        the one enclosing it on `stack` and resumes it when the inner one
        ends.  Held errors keep the order of a walk that checks each
        construct before its parts: a binder's error comes before any in
        its domain, and so does an arrow's, though its domain is read
        first.
        """
        kinds, texts, env, sig = self.kinds, self.texts, self.env, self.sig
        pos = self.pos
        # each suspended expression's state, and for a binder's domain
        # the binder's opening token and name, else None
        stack: list[tuple] = []
        binders: list[tuple[str, Fam]] = []
        shadowed: list[tuple[str, Optional[str]]] = []
        # the application being read, and the error held before it
        head: Optional[Expr] = None
        args: list[Obj] = []
        held: Optional[LFSyntaxError] = None
        while True:
            k = kinds[pos]
            if head is None and (k == "{" or k == "["):
                # `{x:A} B` is a kind or a type, `[x:A] M` an object
                if (k == "{") == (cat == _OBJECT):
                    self.hold("expected an object" if cat == _OBJECT
                              else "expected a type", pos)
                stack.append((cat, binders, shadowed, head, args, held,
                              (k, texts[pos + 1])))
                pos = self.expect(":", self.expect("ident", pos + 1))
                cat, binders, shadowed, args = _TYPE, [], [], []
                continue
            if head is None or k in _ARG_START:
                # an atom: the head, read in the expression's category,
                # or an argument, an object
                if head is None:
                    held = self.err
                    acat = cat
                elif k == "{" or k == "[":
                    raise self.error("binder must be parenthesized in "
                                     "argument position", pos)
                else:
                    acat = _OBJECT
                at = pos
                pos += 1
                if k == "ident":
                    name = texts[at]
                    if acat != _OBJECT:
                        if name in env:
                            self.hold(f"bound variable {name!r} used as a type", at)
                        a = self.node(FConst, name)
                    elif name in env:
                        a = self.node(OVar, env[name])
                    elif (sig is not None and name[0].isupper()
                            and sig.lookup(name) is None):
                        if name not in self.free_order:
                            self.free_order.append(name)
                        a = self.node(OVar, name)
                    else:
                        a = self.node(OConst, name)
                elif k == "(":
                    stack.append((cat, binders, shadowed, head, args, held, None))
                    cat, binders, shadowed, head, args = acat, [], [], None, []
                    continue
                elif k == "type":
                    if acat == _CLASSIFIER:
                        self.type_at = at
                    else:
                        self.hold("expected an object" if acat == _OBJECT
                                  else "'type' cannot appear inside a type", at)
                    a = KType()
                else:
                    raise self.expected("an expression", at)
            else:
                # the application ends here
                e = head
                if args:
                    e = self.node(OApp if cat == _OBJECT else FApp, head, args)
                if k == "->":
                    if cat == _OBJECT:
                        if held is None:
                            self.err = self.error("expected an object", pos)
                    else:
                        self.as_type(e)
                    pos += 1
                    binders.append((self.fresh("x"), e))
                    head, args = None, []
                    continue
                # and so does the expression
                for var, old in reversed(shadowed):
                    if old is None:
                        del env[var]
                    else:
                        env[var] = old
                pi = (OLam if cat == _OBJECT
                      else KPi if isinstance(e, (KType, KPi)) else FPi)
                for var, dom in reversed(binders):
                    e = pi(var, dom, e)
                if not stack:
                    self.pos = pos
                    return e
                cat, binders, shadowed, head, args, held, binder = stack.pop()
                if binder is not None:
                    k, var = binder
                    pos = self.expect("}" if k == "{" else "]", pos)
                    shadowed.append((var, env.get(var)))
                    env[var] = var if var not in env else self.fresh(var)
                    binders.append((env[var], e))
                    continue
                pos = self.expect(")", pos)
                a = e
            if head is None:
                head = a
                if cat != _OBJECT and kinds[pos] in _ARG_START:
                    self.as_type(a)
            else:
                args.append(a)


def parse_signature(text: str) -> Signature:
    """Parse a sequence of ``name : expr.`` declarations in source order."""
    parser = _Parser(tokenize(text))
    kinds, texts = parser.kinds, parser.texts
    decls: list[Decl] = []
    seen: set[str] = set()
    while kinds[parser.pos] != "eof":
        at = parser.pos
        name = texts[at]
        parser.pos = parser.expect(":", parser.expect("ident", at))
        parser.begin(name)
        body = parser.expr(_CLASSIFIER)
        parser.pos = parser.expect(".", parser.pos)
        if name in seen:
            raise parser.error(f"duplicate declaration of {name!r}", at)
        seen.add(name)
        if parser.err is not None:
            raise parser.err
        decls.append(KindDecl(name, body) if isinstance(body, (KType, KPi))
                     else ObjDecl(name, body))
    return Signature(tuple(decls))


def _end(parser: _Parser) -> None:
    """Reject input after the expression, then raise a held error."""
    at = parser.pos
    if parser.kinds[at] != "eof":
        raise parser.error(f"trailing input {parser.texts[at]!r}", at)
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
    if parser.kinds[parser.pos] == ".":
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
    cls = type(e)
    if cls is OApp or cls is FApp:
        s = f"{_pp(e.fn, 1)} {_pp(e.arg, 2)}"
        return f"({s})" if prec > 1 else s
    if cls is OConst or cls is OVar or cls is FConst:
        return e.name
    if cls is FPi or cls is KPi:
        if not occurs_free(e.var, e.body):
            s = f"{_pp(e.dom, 1)} -> {_pp(e.body, 0)}"
        else:
            s = f"{{{e.var}:{_pp(e.dom, 0)}}} {_pp(e.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is OLam:
        s = f"[{e.var}:{_pp(e.dom, 0)}] {_pp(e.body, 0)}"
        return f"({s})" if prec > 0 else s
    if cls is KType:
        return "type"
    raise TypeError(f"not an LF expression: {e!r}")
