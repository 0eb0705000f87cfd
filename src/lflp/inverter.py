"""Reconstruction of LF objects from answer terms.

Type erasure is not injective on its own, but relative to a known LF
type every simply typed answer determines at most one LF object: a Pi
dictates a lambda whose annotation it supplies, and an application
head names a signature constant or context variable whose classifier
types the arguments in one loop over the spine, each at its binder's
domain instantiated by the objects inverted before it.  A constant
head takes its arity, and which arguments its target depends on, from
the signature's table (`classifier_dependencies`); a variable head
walks its classifier.  The objects built here are beta-normal, so an
instantiation normalizes only when it puts a lambda in place.  An
answer that is not a lambda at a Pi type is eta-expanded on the fly, as
the unifier does: `t` stands for `[x:A] t x`, so eta-short answers
invert to canonical LF objects.

The inverter only builds; the kernel's re-check of what it builds is
the judge.  It refuses only what the kernel cannot phrase:
eigenvariables, unknown heads, an arity mismatch, and the free
variables below.  A logic variable the search left unsolved reads as a
free LF variable, named and typed where the walk first meets it:
unapplied, at the type expected there; applied to distinct variables
bound in the answer (a pattern), at the Pi type over theirs.  Any other
first occurrence, or a type that mentions a bound variable outside
those arguments, is refused.  One `FreeVars` serves every answer of a
solution, so each variable keeps one name and one type.

A `FreeVars` also holds the objects inverted so far, so an answer that
shares a subterm, as the engine's answers do, is inverted once per
distinct subterm rather than once per occurrence.  The table is read
only for an argument in the root context at a type that is not a Pi.
There the object depends on the answer alone: the head's classifier
decides every type below it, and a free variable keeps the name and
type it was first met with.  Only a lambda's name inside it could come
out otherwise, were a free variable named after the first inversion
given its Pi binder's name; the reused object keeps the first name,
which captures nothing, since every free variable inside it was named
before or during that inversion.  At a Pi type the lambda's name and
the eta-expansion depend on the type, and under a binder the context
names the variables, so those are inverted afresh.
"""

from __future__ import annotations

from typing import Iterable

from . import lf_syntax as lf
from .hterms import (
    App, BVar, Const, EVar, LVar, Lam, TArrow, Term, subst_term, term_spine,
    type_of,
)
from .lf_kernel import (
    classifier_dependencies, instantiate_normal, normal_classifier,
)


class InversionError(lf.LFError):
    pass


class FreeVars:
    """The unsolved logic variables met so far, in order of first
    occurrence, each with its LF name and type.  A name avoids `reserved`,
    the signature, the other names and the binders in scope where it is
    picked; lambda binders picked later avoid it.  `inverted` maps each
    answer subterm inverted in the root context at a non-Pi type, by
    identity, to the subterm itself, which keeps its id unique, and its
    LF object."""

    def __init__(self, reserved: Iterable[str]):
        self.reserved = frozenset(reserved)
        self.types: dict[LVar, tuple[str, lf.Fam]] = {}
        self.names: set[str] = set()
        self.inverted: dict[int, tuple[Term, lf.Obj]] = {}

    def meet(self, sig: lf.Signature, ctx: lf.Context, v: LVar,
             args: list[Term], ty: lf.Fam) -> tuple[str, lf.Fam]:
        """Name and type `v`, met first applied to `args` at `ty`."""
        names = list(ctx)
        bound = [names[-1 - a.index] if isinstance(a, BVar) else None
                 for a in args]
        if None in bound or len(set(bound)) < len(args):
            raise InversionError(
                f"free {v.name} is not applied to distinct bound variables")
        for name in reversed(bound):
            ty = lf.FPi(name, ctx[name], ty)
        if not lf.free_vars(ty) <= self.names:
            raise InversionError(
                f"type of free {v.name} mentions a variable bound in the answer")
        taken, n = _Taken(ctx, sig, self), 0
        # A, B, ..., Z, A1, B1, ...
        while ((name := chr(ord("A") + n % 26) + str(n // 26 or ""))
               in taken or name in self.reserved):
            n += 1
        self.types[v] = (name, ty)
        self.names.add(name)
        return name, ty


class _Taken:
    """The names bound in `ctx`, declared in `sig` or given to a free
    variable, tested through their lookups."""

    __slots__ = ("ctx", "sig", "frees")

    def __init__(self, ctx: lf.Context, sig: lf.Signature, frees: FreeVars):
        self.ctx = ctx
        self.sig = sig
        self.frees = frees

    def __contains__(self, name: str) -> bool:
        return (name in self.ctx
                or self.sig.lookup(name) is not None
                or name in self.frees.names)


def invert(sig: lf.Signature, ctx: lf.Context, t: Term, ty: lf.Fam,
           frees: FreeVars) -> lf.Obj:
    """The LF object of type `ty` in `ctx` that the answer `t` stands for,
    its unsolved logic variables read as the ones `frees` names.  `ctx`
    binds the lambdas of the answer above `t`, outermost first.  `ty`
    and the types in `ctx` are beta-normal."""
    if isinstance(ty, lf.FPi):
        # the lambda takes the name of the Pi binder it inhabits, so the
        # same answer always reads the same
        var = lf.fresh_name(ty.var, _Taken(ctx, sig, frees))
        body_ty = (ty.body if var == ty.var
                   else instantiate_normal(ty.body, {ty.var: lf.OVar(var)}))
        if isinstance(t, Lam):
            tbody = t.body
        else:
            # eta-expanded on the fly, as the unifier does: under the new
            # binder, `t`'s own indices move up one
            simple = type_of(t)
            if not isinstance(simple, TArrow):
                raise InversionError(
                    f"answer of simple type {simple} at a Pi type")
            tbody = App(subst_term(t, (), 1), BVar(0, simple.dom))
        body = invert(sig, {**ctx, var: ty.dom}, tbody, body_ty, frees)
        return lf.OLam(var, ty.dom, body)
    head, args = term_spine(t)
    match head:
        case Const(name, _):
            classifier = normal_classifier(sig, name)
            if classifier is None or isinstance(classifier, (lf.KType, lf.KPi)):
                raise InversionError(f"unknown object constant {name}")
            lf_head, deps = (lf.OConst(name),
                              classifier_dependencies(sig, name, classifier))
        case BVar(index, _):
            name = list(ctx)[-1 - index]
            classifier = ctx[name]
            lf_head, deps = lf.OVar(name), lf.pi_dependencies(classifier)
        case EVar(name, _, _):
            raise InversionError(f"eigenvariable {name} in answer")
        case LVar():
            name, classifier = (frees.types.get(head)
                                or frees.meet(sig, ctx, head, args, ty))
            lf_head, deps = lf.OVar(name), lf.pi_dependencies(classifier)
        case _:
            raise InversionError(f"cannot invert head {head!r}")
    if len(args) != len(deps):
        raise InversionError(
            f"{name} takes {len(deps)} arguments, got {len(args)}")
    sub: dict[str, lf.Obj] = {}
    inv_args: list[lf.Obj] = []
    rest = classifier
    root = not ctx
    for arg, dep in zip(args, deps):
        shared = root and not isinstance(rest.dom, lf.FPi)
        known = frees.inverted.get(id(arg)) if shared else None
        if known is None:
            inv = invert(sig, ctx, arg,
                         instantiate_normal(rest.dom, sub) if sub
                         else rest.dom, frees)
            if shared:
                frees.inverted[id(arg)] = (arg, inv)
        else:
            inv = known[1]
        inv_args.append(inv)
        if dep:
            sub[rest.var] = inv
        rest = rest.body
    return lf.obj_app(lf_head, inv_args)

