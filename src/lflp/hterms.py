"""Simply typed lambda terms and hereditary Harrop formulas.

This is the target language of the translation and the working language
of the proof-search engine.  Terms are intrinsically typed: every leaf
carries its simple type, so ``type_of`` is total and never consults an
environment.  Two flavors of free variable exist, both named by a
single global clock and both carrying a level:

* ``EVar``: an eigenvariable, introduced by universal goals.  Rigid.
  Its level is its creation time on the clock.
* ``LVar``: a logic variable, introduced by universal program clauses
  or by a query.  Flexible; unification may bind it.  Its level is its
  universe: one above the newest eigenvariable in scope where it was
  made, or 0 outside every universal goal.

The clock makes names unique program-wide.  A logic variable may only
be instantiated with eigenvariables of a lower level, the ones in scope
in its universe, which is all the scope checking proof search needs.

Formulas cover goals ``true | A | D => G | pi x\\ G`` and clauses
``A | G => D | pi x\\ D``; conjunction never arises here.

Types, terms and formulas are slotted dataclasses with the generated
field-wise ``==`` and ``hash``, not frozen ones, since proof search
builds them by the thousand and a frozen instance is several times
dearer to build.  They are immutable by rule: no code writes a field
after building a node, which ``tests/test_hygiene.py`` checks.  A
`Program` is built once per command and stays frozen.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Iterator, Union

from .lf_syntax import fresh_name

# ---------------------------------------------------------------------------
# Simple types


@dataclass(slots=True, unsafe_hash=True)
class TBase:
    name: str

    def __str__(self):
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class TArrow:
    dom: "SimpleType"
    cod: "SimpleType"

    def __str__(self):
        d = f"({self.dom})" if isinstance(self.dom, TArrow) else str(self.dom)
        return f"{d} -> {self.cod}"


SimpleType = Union[TBase, TArrow]

LF_OBJ = TBase("lf_obj")
LF_TYPE = TBase("lf_type")
PROP = TBase("o")


def arrow(doms: Iterable[SimpleType], cod: SimpleType) -> SimpleType:
    ty = cod
    for d in reversed(list(doms)):
        ty = TArrow(d, ty)
    return ty


def split_arrow(ty: SimpleType) -> tuple[list[SimpleType], SimpleType]:
    doms = []
    while isinstance(ty, TArrow):
        doms.append(ty.dom)
        ty = ty.cod
    return doms, ty


# ---------------------------------------------------------------------------
# Terms


@dataclass(slots=True, unsafe_hash=True)
class Const:
    name: str
    ty: SimpleType

    def __str__(self):
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class EVar:
    """Eigenvariable: rigid, scoped by its creation level."""

    name: str
    level: int
    ty: SimpleType

    def __str__(self):
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class LVar:
    """Logic variable: a hole unification may fill."""

    name: str
    level: int
    ty: SimpleType

    def __str__(self):
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class BVar:
    """Occurrence of a lambda- or quantifier-bound name."""

    name: str
    ty: SimpleType

    def __str__(self):
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class Lam:
    var: str
    ty: SimpleType  # type of the bound variable
    body: "Term"

    def __str__(self):
        return f"({self.var}\\ {self.body})"


@dataclass(slots=True, unsafe_hash=True)
class App:
    fn: "Term"
    arg: "Term"

    def __str__(self):
        head, args = term_spine(self)
        inner = " ".join(str(t) for t in (head, *args))
        return f"({inner})"


Term = Union[Const, EVar, LVar, BVar, Lam, App]


def type_of(t: Term) -> SimpleType:
    match t:
        case Const(_, ty) | EVar(_, _, ty) | LVar(_, _, ty) | BVar(_, ty):
            return ty
        case Lam(_, ty, body):
            return TArrow(ty, type_of(body))
        case App(fn, _):
            fty = type_of(fn)
            if not isinstance(fty, TArrow):
                raise TypeError(f"application of non-function {fn}")
            return fty.cod
    raise TypeError(f"not a term: {t!r}")


def mk_app(head: Term, args: Iterable[Term]) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


def term_spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# The creation clock

_clock = itertools.count(1)


def fresh_level() -> int:
    return next(_clock)


def fresh_evar(prefix: str, ty: SimpleType) -> EVar:
    n = fresh_level()
    return EVar(f"{prefix}#{n}", n, ty)


def fresh_lvar_at(prefix: str, ty: SimpleType, level: int) -> LVar:
    """A fresh logic variable at a caller-chosen level.

    The clock supplies a unique name; the level is the universe the
    variable lives in: proof search passes the current one, and
    unification passes the level a pruned or lowered variable inherits.
    """
    n = fresh_level()
    return LVar(f"{prefix}_{n}", level, ty)


# ---------------------------------------------------------------------------
# Substitution and normalization

def free_bvars(t: Term) -> frozenset[str]:
    match t:
        case BVar(name, _):
            return frozenset([name])
        case Lam(var, _, body):
            return free_bvars(body) - {var}
        case App(fn, arg):
            return free_bvars(fn) | free_bvars(arg)
        case _:
            return frozenset()


def subst_term(t: Term, m: dict[str, Term]) -> Term:
    """Replace free BVar occurrences; capture-avoiding."""
    if not m:
        return t
    match t:
        case BVar(name, _):
            return m.get(name, t)
        case App(fn, arg):
            return App(subst_term(fn, m), subst_term(arg, m))
        case Lam(var, ty, body):
            inner = {k: v for k, v in m.items() if k != var and k in free_bvars(body)}
            if not inner:
                return Lam(var, ty, body)
            clash = frozenset().union(*[free_bvars(v) for v in inner.values()])
            var, body = rename_apart(var, ty, body, clash)
            return Lam(var, ty, subst_term(body, inner))
        case _:
            return t


def rename_apart(var: str, ty: SimpleType, body: Term,
                 avoid: AbstractSet[str]) -> tuple[str, Term]:
    """The binder `var` : `ty` of `body`, renamed when `avoid` holds its
    name: the new name is neither in `avoid` nor free in `body`, and the
    body follows, as in `lf_kernel.rename_apart`."""
    if var in avoid:
        var2 = fresh_name(var, avoid | free_bvars(body))
        return var2, subst_term(body, {var: BVar(var2, ty)})
    return var, body


def beta_norm(t: Term) -> Term:
    match t:
        case App(fn, arg):
            fn = beta_norm(fn)
            if isinstance(fn, Lam):
                return beta_norm(subst_term(fn.body, {fn.var: arg}))
            return App(fn, beta_norm(arg))
        case Lam(var, ty, body):
            return Lam(var, ty, beta_norm(body))
        case _:
            return t


# ---------------------------------------------------------------------------
# Formulas


@dataclass(slots=True, unsafe_hash=True)
class Top:
    """The goal that always holds."""


@dataclass(slots=True, unsafe_hash=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(slots=True, unsafe_hash=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(slots=True, unsafe_hash=True)
class ForAll:
    var: str
    ty: SimpleType
    body: "Formula"


Formula = Union[Top, Atom, Imp, ForAll]


def subst_formula(f: Formula, m: dict[str, Term]) -> Formula:
    """Replace the free bound names `m` maps.

    Every range in `m` is closed: an eigenvariable, a logic variable or
    a beta-normal goal subterm filling a clause slot.  So no binder of
    `f` captures a name of a range, and none is renamed.  No range is a
    lambda, so none makes a redex in place of a bound name, and a
    beta-normal formula stays beta-normal."""
    if not m:
        return f
    match f:
        case Top():
            return f
        case Atom(pred, args):
            return Atom(pred, tuple(subst_term(a, m) for a in args))
        case Imp(left, right):
            return Imp(subst_formula(left, m), subst_formula(right, m))
        case ForAll(var, ty, body):
            inner = {k: v for k, v in m.items() if k != var}
            return ForAll(var, ty, subst_formula(body, inner)) if inner else f
    raise TypeError(f"not a formula: {f!r}")


def term_leaves(items: Iterable[Union[Term, Formula, None]]) -> Iterator[Term]:
    """The constants and variables of `items`, terms or formulas read
    left to right.  None items are skipped."""
    stack = list(items)
    stack.reverse()
    while stack:
        x = stack.pop()
        match x:
            case Const() | EVar() | LVar() | BVar():
                yield x
            case App(fn, arg):
                stack += (arg, fn)
            case Imp(left, right):
                stack += (right, left)
            case Lam(body=body) | ForAll(body=body):
                stack.append(body)
            case Atom(_, args):
                stack.extend(reversed(args))


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Program:
    """A signature of typed constants plus an ordered clause list."""

    xi: tuple[tuple[str, SimpleType], ...]
    clauses: tuple[Formula, ...]
