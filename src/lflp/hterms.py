"""Simply typed lambda terms and hereditary Harrop formulas.

This is the target language of the translation and the working language
of the proof-search engine.  Terms are intrinsically typed: every leaf
carries its simple type, so ``type_of`` is total and never consults an
environment.

A bound variable is a de Bruijn index, as in Teyjus: ``BVar(i)`` names
the i-th binder above it, lambda or quantifier, 0 the nearest; a binder
keeps its name only as a hint for printing.  So substitution never
captures and never renames, and `subst_term` is the one substitution.
Equality stays field-wise: terms that differ only in a hint are not
``==``.

Two flavors of free variable exist, both named by a single global clock
and both carrying a level:

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

Types, terms and formulas are node classes built by
`lf_syntax.nodeclass`: slotted, with the field-wise ``==`` and
``hash``, and not frozen, since proof search builds them by the
thousand and a frozen instance is several times dearer to build.  They
are immutable by rule: no code writes a field after building a node,
which ``tests/test_hygiene.py`` checks.  A `Program` is built once per
command and is a `NamedTuple`, which refuses a write.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .lf_syntax import nodeclass

# ---------------------------------------------------------------------------
# Simple types


@nodeclass
class TBase:
    name: str

    def __str__(self):
        return self.name


@nodeclass
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


@nodeclass
class Const:
    name: str
    ty: SimpleType

    def __str__(self):
        return self.name


@nodeclass
class EVar:
    """Eigenvariable: rigid, scoped by its creation level."""

    name: str
    level: int
    ty: SimpleType

    def __str__(self):
        return self.name


@nodeclass
class LVar:
    """Logic variable: a hole unification may fill."""

    name: str
    level: int
    ty: SimpleType

    def __str__(self):
        return self.name


@nodeclass
class BVar:
    """Occurrence of a bound variable: the `index`-th binder above it."""

    index: int
    ty: SimpleType

    def __str__(self):
        return f"#{self.index}"


@nodeclass
class Lam:
    var: str  # a name for printing only
    ty: SimpleType  # type of the bound variable
    body: "Term"

    def __str__(self):
        return f"({self.var}\\ {self.body})"


@nodeclass
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

def subst_term(t: Term, vals: Sequence[Term] = (), lift: int = 0,
               depth: int = 0) -> Term:
    """`t`, under `depth` binders of its own, with each loose index
    ``depth + j`` replaced by ``vals[j]``, lifted over those binders, and
    each loose index past `vals` moved down by ``len(vals)`` and up by
    `lift`.  ``subst_term(t, (), n)`` lifts `t` over n new binders.
    Rebuilds only what changes."""
    if not vals and not lift:
        return t
    match t:
        case BVar(i, ty):
            j = i - depth
            if j < 0:
                return t
            if j < len(vals):
                return subst_term(vals[j], (), depth) if depth else vals[j]
            return BVar(i - len(vals) + lift, ty)
        case App(fn, arg):
            fn2 = subst_term(fn, vals, lift, depth)
            arg2 = subst_term(arg, vals, lift, depth)
            return t if fn2 is fn and arg2 is arg else App(fn2, arg2)
        case Lam(var, ty, body):
            body2 = subst_term(body, vals, lift, depth + 1)
            return t if body2 is body else Lam(var, ty, body2)
    return t


def beta_norm(t: Term) -> Term:
    match t:
        case App(fn, arg):
            fn = beta_norm(fn)
            if isinstance(fn, Lam):
                return beta_norm(subst_term(fn.body, (arg,)))
            return App(fn, beta_norm(arg))
        case Lam(var, ty, body):
            return Lam(var, ty, beta_norm(body))
        case _:
            return t


# ---------------------------------------------------------------------------
# Formulas


@nodeclass
class Top:
    """The goal that always holds."""


@nodeclass
class Atom:
    pred: str
    args: tuple[Term, ...]


@nodeclass
class Imp:
    left: "Formula"
    right: "Formula"


@nodeclass
class ForAll:
    var: str  # a name for printing only
    ty: SimpleType
    body: "Formula"


Formula = Union[Top, Atom, Imp, ForAll]


def subst_formula(f: Formula, vals: Sequence[Term],
                  depth: int = 0) -> Formula:
    """`f` with each loose index replaced as `subst_term` replaces it.
    Proof search passes closed values, none a lambda: eigenvariables,
    logic variables and goal subterms filling clause slots.  Lifting one
    changes nothing, and a beta-normal formula stays beta-normal."""
    if not vals:
        return f
    match f:
        case Top():
            return f
        case Atom(pred, args):
            return Atom(pred, tuple(subst_term(a, vals, 0, depth)
                                    for a in args))
        case Imp(left, right):
            return Imp(subst_formula(left, vals, depth),
                       subst_formula(right, vals, depth))
        case ForAll(var, ty, body):
            return ForAll(var, ty, subst_formula(body, vals, depth + 1))
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


class Program(NamedTuple):
    """A signature of typed constants plus an ordered clause list."""

    xi: tuple[tuple[str, SimpleType], ...]
    clauses: tuple[Formula, ...]
