"""A reader for the lambdaProlog subset that `lflp.translator` emits.

`parse_lambdaprolog` reads emitted text back into a Program, inferring
the simple type of each quantifier and lambda binder, so tests can
compare emitted text with a golden file structurally (up to alpha, see
`oracles.alpha_eq_formula`) instead of byte by byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from lflp.hterms import (
    PROP, App, Atom, BVar, Const, Formula, ForAll, Imp, Lam, Program,
    SimpleType, TArrow, TBase, Term, Top,
)


class LPSyntaxError(Exception):
    pass


@dataclass
class _RName:
    name: str


@dataclass
class _RApp:
    fn: "._RAst"
    arg: "._RAst"


@dataclass
class _RLam:
    var: str
    body: "._RAst"


@dataclass
class _RImp:
    left: "._RAst"
    right: "._RAst"


_RAst = Union[_RName, _RApp, _RLam, _RImp]


def _lp_tokens(text: str) -> list[str]:
    toks: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "%":
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("->", i):
            toks.append("->")
            i += 2
        elif text.startswith("=>", i):
            toks.append("=>")
            i += 2
        elif c in "().\\":
            toks.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise LPSyntaxError(f"unexpected character {c!r}")
    return toks


class _LPReader:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise LPSyntaxError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, t: str):
        got = self.next()
        if got != t:
            raise LPSyntaxError(f"expected {t!r}, found {got!r}")

    def parse_ty(self) -> SimpleType:
        left = self.parse_ty_atom()
        if self.peek() == "->":
            self.next()
            return TArrow(left, self.parse_ty())
        return left

    def parse_ty_atom(self) -> SimpleType:
        t = self.next()
        if t == "(":
            ty = self.parse_ty()
            self.expect(")")
            return ty
        if not (t[0].isalpha() or t[0] == "_"):
            raise LPSyntaxError(f"bad type token {t!r}")
        return TBase(t)

    def parse_expr(self) -> _RAst:
        left = self.parse_app()
        if self.peek() == "=>":
            self.next()
            return _RImp(left, self.parse_expr())
        return left

    def parse_app(self) -> _RAst:
        out = self.parse_atom_or_lam()
        while True:
            nxt = self.peek()
            if nxt in (None, ")", ".", "=>"):
                return out
            out = _RApp(out, self.parse_atom_or_lam())

    def parse_atom_or_lam(self) -> _RAst:
        t = self.peek()
        if t == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        name = self.next()
        if not (name[0].isalpha() or name[0] == "_"):
            raise LPSyntaxError(f"unexpected token {name!r}")
        if self.peek() == "\\":
            self.next()
            return _RLam(name, self.parse_expr())
        return _RName(name)


class _TyMeta:
    __slots__ = ("link",)

    def __init__(self):
        self.link: Optional[object] = None


def _ty_resolve(ty):
    while isinstance(ty, _TyMeta) and ty.link is not None:
        ty = ty.link
    return ty


def _ty_unify(a, b):
    a, b = _ty_resolve(a), _ty_resolve(b)
    if a is b:
        return
    if isinstance(a, _TyMeta):
        a.link = b
        return
    if isinstance(b, _TyMeta):
        b.link = a
        return
    if isinstance(a, TBase) and isinstance(b, TBase) and a.name == b.name:
        return
    if isinstance(a, TArrow) and isinstance(b, TArrow):
        _ty_unify(a.dom, b.dom)
        _ty_unify(a.cod, b.cod)
        return
    raise LPSyntaxError(f"type mismatch: {a} vs {b}")


def _ty_final(ty) -> SimpleType:
    ty = _ty_resolve(ty)
    if isinstance(ty, _TyMeta):
        raise LPSyntaxError("could not infer a binder type")
    if isinstance(ty, TArrow):
        return TArrow(_ty_final(ty.dom), _ty_final(ty.cod))
    return ty


def _formulize(ast: _RAst, xi: dict[str, SimpleType]) -> Formula:
    binder_tys: dict[int, object] = {}

    def infer(a: _RAst, env: dict[str, object]):
        match a:
            case _RName(name):
                if name in env:
                    return env[name]
                if name == "true":
                    return PROP
                if name in xi:
                    return xi[name]
                raise LPSyntaxError(f"unknown identifier {name!r}")
            case _RImp(l, r):
                _ty_unify(infer(l, env), PROP)
                _ty_unify(infer(r, env), PROP)
                return PROP
            case _RApp(_RName("pi"), _RLam(var, body)) if "pi" not in env:
                tv = _TyMeta()
                binder_tys[id(a)] = tv
                inner = dict(env)
                inner[var] = tv
                _ty_unify(infer(body, inner), PROP)
                return PROP
            case _RApp(fn, arg):
                tf = infer(fn, env)
                ta = infer(arg, env)
                tr = _TyMeta()
                _ty_unify(tf, TArrow(ta, tr))
                return tr
            case _RLam(var, body):
                tv = _TyMeta()
                binder_tys[id(a)] = tv
                inner = dict(env)
                inner[var] = tv
                return TArrow(tv, infer(body, inner))
        raise LPSyntaxError(f"cannot type {a!r}")

    top_ty = infer(ast, {})
    _ty_unify(top_ty, PROP)

    # `scope` holds the name and type of each binder around the node being
    # built, innermost first; a bound name becomes the index of the
    # nearest binder of that name
    def bound(scope, name: str) -> Optional[BVar]:
        return next((BVar(i, ty) for i, (n, ty) in enumerate(scope)
                     if n == name), None)

    def build_formula(a: _RAst, scope: tuple) -> Formula:
        match a:
            case _RName("true"):
                return Top()
            case _RImp(l, r):
                return Imp(build_formula(l, scope), build_formula(r, scope))
            case _RApp(_RName("pi"), _RLam(var, body)) if not bound(
                    scope, "pi"):
                ty = _ty_final(binder_tys[id(a)])
                return ForAll(var, ty,
                              build_formula(body, ((var, ty),) + scope))
            case _:
                head, args = _rast_spine(a)
                if not isinstance(head, _RName) or bound(scope, head.name):
                    raise LPSyntaxError(f"bad atomic formula head: {a!r}")
                return Atom(head.name,
                            tuple(build_term(x, scope) for x in args))

    def build_term(a: _RAst, scope: tuple) -> Term:
        match a:
            case _RName(name):
                return bound(scope, name) or Const(name, xi[name])
            case _RApp(fn, arg):
                return App(build_term(fn, scope), build_term(arg, scope))
            case _RLam(var, body) as lam:
                ty = _ty_final(binder_tys[id(lam)])
                return Lam(var, ty, build_term(body, ((var, ty),) + scope))
        raise LPSyntaxError(f"cannot build term from {a!r}")

    return build_formula(ast, ())


def _rast_spine(a: _RAst):
    args = []
    while isinstance(a, _RApp):
        args.append(a.arg)
        a = a.fn
    args.reverse()
    return a, args


def parse_lambdaprolog(text: str) -> Program:
    """Read the subset of lambdaProlog this module emits."""
    reader = _LPReader(_lp_tokens(text))
    xi: list[tuple[str, SimpleType]] = []
    xi_map: dict[str, SimpleType] = {"o": PROP}
    clauses: list[Formula] = []
    while reader.peek() is not None:
        tok = reader.peek()
        if tok == "kind":
            reader.next()
            reader.next()  # sort name
            reader.expect("type")
            reader.expect(".")
        elif tok == "type":
            reader.next()
            name = reader.next()
            ty = reader.parse_ty()
            reader.expect(".")
            xi.append((name, ty))
            xi_map[name] = ty
        elif tok in ("sig", "module"):
            reader.next()
            reader.next()
            reader.expect(".")
        else:
            ast = reader.parse_expr()
            reader.expect(".")
            clauses.append(_formulize(ast, xi_map))
    return Program(tuple(xi), tuple(clauses))
