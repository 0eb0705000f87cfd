"""Reconstruction of LF objects from answer terms.

Type erasure is not injective on its own, but relative to a known LF
type every simply typed answer determines at most one LF object: a Pi
dictates a lambda whose annotation it supplies, and an application
head names a signature constant or a variable whose classifier types
the arguments in one loop over the spine, each at its binder's domain
instantiated by the objects inverted before it (a constant reads which
arguments its target depends on from `classifier_dependencies`).  Both
sides index bound variables alike, so an answer's index is the LF
index, typed by its lambda's domain lifted over the lambdas between.
The objects built here are beta-normal, so an instantiation normalizes
only where it puts a lambda in place.  An answer that is not a lambda
at a Pi type is eta-expanded on the fly, as the unifier does, so
eta-short answers invert to canonical LF objects.  A lambda takes the
name of the Pi binder it inhabits unless a lambda in scope, a constant
or a free variable has it, so the same answer always reads the same.

The inverter only builds; the kernel's re-check is the judge.  It
refuses only what the kernel cannot phrase: eigenvariables, unknown
heads, an arity mismatch, and the free variables below.  A logic
variable the search left unsolved reads as a free LF variable, named
and typed where the walk first meets it: unapplied, at the type
expected there; applied to distinct bound variables (a pattern), at
the Pi type over theirs.  Any other first occurrence, or a type that
mentions a bound variable outside those arguments, is refused.  One
`FreeVars` serves every answer of a solution, so each variable keeps
one name and one type.

A `FreeVars` also holds the objects inverted so far, so an answer that
shares a subterm is inverted once per distinct subterm.  The table is
read only for an argument in the root context at a type that is not a
Pi, where the object depends on the answer alone; only a lambda's name
inside it could differ, were a free variable named later given its Pi
binder's name, and the first name captures nothing, since every free
variable inside was named before or during that inversion.
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
    substitute,
)


class InversionError(lf.LFError):
    pass


class FreeVars:
    """The unsolved logic variables met so far, in order of first
    occurrence, each with its type and LF name, which avoids `reserved`,
    the signature, the other names and the binders in scope, and which
    lambdas named later avoid.  `inverted` maps each answer subterm
    inverted in the root context at a non-Pi type, by identity, to
    itself, which keeps its id unique, and its LF object."""

    def __init__(self, reserved: Iterable[str]):
        self.reserved = frozenset(reserved)
        self.types: dict[LVar, tuple[str, lf.Fam]] = {}
        self.names: set[str] = set()
        self.inverted: dict[int, tuple[Term, lf.Obj]] = {}

    def meet(self, sig: lf.Signature, ctx: lf.Binders, v: LVar,
             args: list[Term], ty: lf.Fam) -> tuple[str, lf.Fam]:
        """Name and type `v`, met first applied to `args` at `ty`."""
        at = [a.index for a in args if isinstance(a, BVar)]
        if len(at) < len(args) or len(set(at)) < len(at):
            raise InversionError(
                f"free {v.name} is not applied to distinct bound variables")

        def over(e: lf.Fam, k: int, skip: int = 0) -> lf.Fam:
            # `e`, under the lambdas of `ctx` but the `skip` innermost,
            # under the Pi binders of the first k arguments instead; any
            # other lambda reads as a name no free variable has
            vals = [lf.OVar("")] * len(ctx)
            for j in range(k):
                vals[at[j]] = lf.OBVar(k - 1 - j)
            return substitute(e, vals[skip:])
        ty = over(ty, len(at))
        for k in reversed(range(len(at))):
            name, dom = ctx[-1 - at[k]]
            ty = lf.FPi(name, over(dom, k, at[k] + 1), ty)
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

    def __init__(self, ctx: lf.Binders, sig: lf.Signature, frees: FreeVars):
        self.ctx, self.sig, self.frees = ctx, sig, frees

    def __contains__(self, name: str) -> bool:
        return (any(name == n for n, _ in self.ctx)
                or self.sig.lookup(name) is not None
                or name in self.frees.names)


def invert(sig: lf.Signature, ctx: lf.Binders, t: Term, ty: lf.Fam,
           frees: FreeVars) -> lf.Obj:
    """The LF object of type `ty` that the answer `t` stands for, its
    unsolved logic variables read as the ones `frees` names, under `ctx`,
    the answer's lambdas above `t` with distinct names and normal types;
    `ty` is beta-normal too."""
    if isinstance(ty, lf.FPi):
        # the lambda takes the name of the Pi binder it inhabits, so the
        # same answer always reads the same
        var = lf.fresh_name(ty.var, _Taken(ctx, sig, frees))
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
        body = invert(sig, ctx + ((var, ty.dom),), tbody, ty.body, frees)
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
            name, classifier = ctx[-1 - index]
            classifier = substitute(classifier, (), index + 1)
            lf_head, deps = lf.OBVar(index), lf.pi_dependencies(classifier)
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
    # a constant's or free variable's classifier mentions no lambda of
    # the answer, so it changes only past a dependent argument
    vals: list[lf.Obj] = []
    moves = type(lf_head) is lf.OBVar
    rest = classifier
    root = not ctx
    for arg, dep in zip(args, deps):
        shared = root and not isinstance(rest.dom, lf.FPi)
        known = frees.inverted.get(id(arg)) if shared else None
        if known is None:
            inv = invert(sig, ctx, arg, instantiate_normal(rest.dom, vals)
                         if moves else rest.dom, frees)
            if shared:
                frees.inverted[id(arg)] = (arg, inv)
        else:
            inv = known[1]
        vals.insert(0, inv)
        moves = moves or dep
        rest = rest.body
    return lf.obj_app(lf_head, vals[::-1])
