"""Reconstruction of LF objects from answer terms.

Type erasure is not injective on its own, but relative to a known LF
type every simply typed answer determines at most one LF object: a Pi
dictates a lambda whose annotation it supplies, and an application
head names a signature constant or context variable whose classifier
types the arguments in one loop over the spine, each at its binder's
domain instantiated by the objects inverted before it.  The objects
built here are beta-normal, so an instantiation normalizes only when it
puts a lambda in place.  An answer that is not a lambda at a Pi type is
eta-expanded on the fly, as the unifier does: `t` stands for
`[x:A] t x`, so eta-short answers invert to canonical LF objects.  The
reconstruction checks its own work: after the spine is rebuilt, the
instantiated target of the head's classifier must be beta-eta equal to
the expected type.

Answers still containing logic variables are refused outright; there
is no LF counterpart to report for them.
"""

from __future__ import annotations

from . import lf_syntax as lf
from .hterms import (
    App, BVar, Const, EVar, LVar, Lam, TArrow, Term, subst_term, term_spine,
    type_of,
)
from .lf_kernel import (
    beta_eta_equal, beta_normalize, instantiate_normal, normal_classifier,
)


class InversionError(Exception):
    pass


def invert(sig: lf.Signature, ctx: lf.Context, term: Term, ty: lf.Fam) -> lf.Obj:
    """The LF object of type `ty` in `ctx` that the closed answer `term`
    stands for.  An answer with a logic variable left in it is refused
    where the walk meets one."""
    return _invert(sig, ctx, term, beta_normalize(ty))


class _Taken:
    """The names bound in `ctx` or declared in `sig`, tested through
    their lookups."""

    __slots__ = ("ctx", "sig")

    def __init__(self, ctx: lf.Context, sig: lf.Signature):
        self.ctx = ctx
        self.sig = sig

    def __contains__(self, name: str) -> bool:
        return self.ctx.lookup(name) is not None or self.sig.lookup(name) is not None


def _invert(sig: lf.Signature, ctx: lf.Context, t: Term, ty: lf.Fam) -> lf.Obj:
    if isinstance(ty, lf.FPi):
        # the lambda takes the name of the Pi binder it inhabits, so the
        # same answer always reads the same
        taken = _Taken(ctx, sig)
        var = ty.var
        if var in taken:
            var = lf.fresh_name(var, taken)
        body_ty = (ty.body if var == ty.var
                   else instantiate_normal(ty.body, {ty.var: lf.OVar(var)}))
        if not isinstance(t, Lam):
            # eta-expanded on the fly, as the unifier does
            simple = type_of(t)
            if not isinstance(simple, TArrow):
                raise InversionError(
                    f"answer of simple type {simple} at a Pi type")
            t = Lam(var, simple.dom, App(t, BVar(var, simple.dom)))
        tbody = t.body
        if var != t.var:
            tbody = subst_term(tbody, {t.var: BVar(var, t.ty)})
        body = _invert(sig, ctx.extend(var, ty.dom), tbody, body_ty)
        return lf.OLam(var, ty.dom, body)
    head, args = term_spine(t)
    match head:
        case Const(name, _):
            classifier = normal_classifier(sig, name)
            if classifier is None or isinstance(classifier, (lf.KType, lf.KPi)):
                raise InversionError(f"unknown object constant {name}")
            lf_head: lf.Obj = lf.OConst(name)
        case BVar(name, _):
            found = ctx.lookup(name)
            if found is None:
                raise InversionError(f"unknown variable {name}")
            classifier = beta_normalize(found)
            lf_head = lf.OVar(name)
        case EVar(name, _, _):
            raise InversionError(f"eigenvariable {name} in answer")
        case LVar(name, _, _):
            raise InversionError(f"answer not closed: free {name}")
        case _:
            raise InversionError(f"cannot invert head {head!r}")
    arity = len(lf.split_fam_pis(classifier)[0])
    if len(args) != arity:
        raise InversionError(
            f"{_head_name(lf_head)} takes {arity} arguments, got {len(args)}")
    sub: dict[str, lf.Obj] = {}
    inv_args: list[lf.Obj] = []
    rest = classifier
    for arg in args:
        inv = _invert(sig, ctx, arg,
                      instantiate_normal(rest.dom, sub) if sub else rest.dom)
        inv_args.append(inv)
        if lf.occurs_free(rest.var, rest.body):
            sub[rest.var] = inv
        rest = rest.body
    final = instantiate_normal(rest, sub) if sub else rest
    if final != ty and not beta_eta_equal(final, ty):
        raise InversionError(
            f"head {_head_name(lf_head)} yields {lf.print_lf(final)}, "
            f"expected {lf.print_lf(ty)}")
    return lf.obj_app(lf_head, inv_args)


def _head_name(h: lf.Obj) -> str:
    return h.name if isinstance(h, (lf.OConst, lf.OVar)) else str(h)
