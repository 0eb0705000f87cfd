"""Substitution, normalization, conversion, and the LF judgments.

Checking is algorithmic: the judgment rules are syntax-directed, so each
check synthesizes a beta-normal classifier and compares against expected
types using beta-eta-equality.  Conversion needs no types: two
beta-normal forms are compared up to alpha, and when that fails, their
eta-short forms are; on well-typed LF this agrees with comparing typed
eta-long canonical forms.  A fuel bound guards normalization so that
ill-formed input fed directly to the normalizer cannot loop; well-typed
terms never hit it.

A constant's classifier is normalized once per signature, by
`normal_classifier`, and every rule reads it from there.  The checker
accepts a `Signature` or a `SignaturePrefix`: `check_signature` checks each
declaration against a prefix view of the declarations before it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .lf_syntax import (
    Context, Expr, Fam, FApp, FConst, FPi, Kind, KindDecl, KPi, KType,
    LFError, Obj, OApp, OConst, OLam, OVar, Signature, SignaturePrefix,
    alpha_eq, fam_spine, free_vars, fresh_name, occurs_free, print_lf,
)

DEFAULT_FUEL = 100000


class LFTypeError(LFError):
    """A judgment failed; carries the rule name and a location string."""

    def __init__(self, message: str, rule: str = "", loc: str = ""):
        self.message = message
        self.rule = rule
        self.loc = loc
        text = f"[{rule}] {message}" if rule else message
        if loc:
            text += f" (in {loc})"
        super().__init__(text)


class LFFuelError(LFError):
    """Normalization exceeded its step budget."""


# ---------------------------------------------------------------------------
# Substitution

def substitute(e: Expr, bindings: Mapping[str, Obj]) -> Expr:
    """Capture-avoiding simultaneous substitution of objects for variables.

    The result may contain beta-redexes; callers normalize when needed.
    """
    return _subst(e, dict(bindings), {})


def _subst(e: Expr, b: dict[str, Obj], placed: dict[int, Obj]) -> Expr:
    # `placed` collects, by identity, every value put in place of a
    # variable
    if not b:
        return e
    match e:
        case KType() | FConst() | OConst():
            return e
        case OVar(name):
            v = b.get(name)
            if v is None:
                return e
            placed[id(v)] = v
            return v
        case KPi(var, dom, body) | FPi(var, dom, body) | OLam(var, dom, body):
            dom2 = _subst(dom, b, placed)
            inner = {k: v for k, v in b.items()
                     if k != var and occurs_free(k, body)}
            if not inner:
                return type(e)(var, dom2, body)
            if any(occurs_free(var, v) for v in inner.values()):
                # the binder would capture a free name of a range
                ranges_fv: set[str] = set()
                for v in inner.values():
                    ranges_fv |= free_vars(v)
                var2 = fresh_name(var,
                                  ranges_fv | free_vars(body) | set(inner))
                body = _subst(body, {var: OVar(var2)}, placed)
                var = var2
            return type(e)(var, dom2, _subst(body, inner, placed))
        case FApp(fn, arg):
            return FApp(_subst(fn, b, placed), _subst(arg, b, placed))
        case OApp(fn, arg):
            return OApp(_subst(fn, b, placed), _subst(arg, b, placed))
    raise TypeError(f"not an LF expression: {e!r}")


def instantiate(e: Expr, bindings: Mapping[str, Obj]) -> Expr:
    """`beta_normalize(substitute(e, bindings))` for a beta-normal `e`.

    A value that is beta-normal and not a lambda makes no redex where it
    is put, so when every value put in place is one, the substitution is
    already normal and no second pass is made."""
    placed: dict[int, Obj] = {}
    e = _subst(e, dict(bindings), placed)
    if all(not isinstance(v, OLam) and _is_normal(v)
           for v in placed.values()):
        return e
    return beta_normalize(e)


def _is_normal(e: Expr) -> bool:
    # an explicit stack: arguments nest as deep as the input's spines
    stack = [e]
    while stack:
        match stack.pop():
            case KPi(_, dom, body) | FPi(_, dom, body) | OLam(_, dom, body):
                stack += (dom, body)
            case FApp(fn, arg):
                stack += (fn, arg)
            case OApp(fn, arg):
                if isinstance(fn, OLam):
                    return False
                stack += (fn, arg)
    return True


# ---------------------------------------------------------------------------
# Beta-normalization

def beta_normalize(e: Expr, fuel: int = DEFAULT_FUEL) -> Expr:
    """Contract all beta-redexes; unique result up to alpha for typed input."""
    cell = [fuel]
    return _norm(e, cell)


def _spend(cell: list[int]) -> None:
    cell[0] -= 1
    if cell[0] < 0:
        raise LFFuelError("normalization fuel exhausted")


def _norm(e: Expr, cell: list[int]) -> Expr:
    match e:
        case KType() | FConst() | OConst() | OVar():
            return e
        case KPi(var, dom, body):
            return KPi(var, _norm(dom, cell), _norm(body, cell))
        case FPi(var, dom, body):
            return FPi(var, _norm(dom, cell), _norm(body, cell))
        case OLam(var, dom, body):
            return OLam(var, _norm(dom, cell), _norm(body, cell))
        case FApp(fn, arg):
            return FApp(_norm(fn, cell), _norm(arg, cell))
        case OApp(fn, arg):
            fn2 = _norm(fn, cell)
            if isinstance(fn2, OLam):
                _spend(cell)
                return _norm(substitute(fn2.body, {fn2.var: arg}), cell)
            return OApp(fn2, _norm(arg, cell))
    raise TypeError(f"not an LF expression: {e!r}")


def normal_classifier(sig: Signature, name: str) -> Optional[Union[Kind, Fam]]:
    """The beta-normal classifier of constant `name`, or None when `sig`
    does not declare it.  Normalized once per signature."""
    a = sig.lookup(name)
    if a is None:
        return None
    memo = sig.normal_forms
    nf = memo.get(name)
    if nf is None:
        nf = memo[name] = beta_normalize(a)
    return nf


# ---------------------------------------------------------------------------
# Conversion

def beta_eta_equal(a: Expr, b: Expr) -> bool:
    """Beta-eta-equality of well-typed expressions: their beta-normal
    forms are alpha-equal, or else the eta-short forms of those are."""
    a_n = beta_normalize(a)
    b_n = beta_normalize(b)
    return alpha_eq(a_n, b_n) or alpha_eq(_eta_short(a_n), _eta_short(b_n))


def _eta_short(e: Expr) -> Expr:
    # contracts [x:A] M x to M when x is not free in M, innermost first;
    # a beta-normal input stays beta-normal
    match e:
        case KType() | FConst() | OConst() | OVar():
            return e
        case KPi(var, dom, body) | FPi(var, dom, body):
            return type(e)(var, _eta_short(dom), _eta_short(body))
        case OLam(var, dom, body):
            body = _eta_short(body)
            if (isinstance(body, OApp) and body.arg == OVar(var)
                    and not occurs_free(var, body.fn)):
                return body.fn
            return OLam(var, _eta_short(dom), body)
        case FApp(fn, arg):
            return FApp(_eta_short(fn), _eta_short(arg))
        case OApp(fn, arg):
            return OApp(_eta_short(fn), _eta_short(arg))
    raise TypeError(f"not an LF expression: {e!r}")


# ---------------------------------------------------------------------------
# The judgment checker

def check_signature(sig: Signature) -> None:
    """Accept iff `sig` is derivable as a valid signature; raise otherwise."""
    seen: set[str] = set()
    for i, d in enumerate(sig.decls):
        rule = "kind-sig" if isinstance(d, KindDecl) else "type-sig"
        if d.name in seen:
            raise LFTypeError(f"duplicate declaration of {d.name!r}",
                              rule=rule, loc=d.name)
        seen.add(d.name)
        prefix = SignaturePrefix(sig, i)
        try:
            if isinstance(d, KindDecl):
                check_kind(prefix, Context(), d.kind)
            else:
                k = check_type(prefix, Context(), d.fam)
                if not isinstance(k, KType):
                    raise LFTypeError(
                        f"classifier of {d.name!r} has kind {k}, not type",
                        rule="type-sig")
        except LFTypeError as err:
            if err.loc:
                raise
            raise LFTypeError(err.message, rule=err.rule,
                              loc=f"declaration {d.name!r}") from None


def check_kind(sig: Signature, ctx: Context, k: Kind) -> None:
    """Accept iff `ctx |- k kind` is derivable."""
    match k:
        case KType():
            return
        case KPi(var, dom, body):
            dk = check_type(sig, ctx, dom)
            if not isinstance(dk, KType):
                raise LFTypeError(f"Pi domain {dom} has kind {dk}, not type",
                                  rule="pi-kind")
            var, body = _freshen_binder(var, body, ctx)
            check_kind(sig, ctx.extend(var, beta_normalize(dom)), body)
            return
    raise TypeError(f"not a kind: {k!r}")


def check_type(sig: Signature, ctx: Context, a: Fam) -> Kind:
    """Synthesize the beta-normal kind of `a` (error if not well-formed)."""
    match a:
        case FConst(name):
            k = normal_classifier(sig, name)
            if k is None:
                raise LFTypeError(f"unknown type constant {name!r}", rule="var-fam")
            if not isinstance(k, (KType, KPi)):
                raise LFTypeError(f"object constant {name!r} used as a type",
                                  rule="var-fam")
            return k
        case FPi(var, dom, body):
            dk = check_type(sig, ctx, dom)
            if not isinstance(dk, KType):
                raise LFTypeError(f"Pi domain {dom} has kind {dk}, not type",
                                  rule="pi-fam")
            var, body = _freshen_binder(var, body, ctx)
            bk = check_type(sig, ctx.extend(var, beta_normalize(dom)), body)
            if not isinstance(bk, KType):
                raise LFTypeError(f"Pi body {body} has kind {bk}, not type",
                                  rule="pi-fam")
            return KType()
        case FApp(fn, arg):
            k = check_type(sig, ctx, fn)
            if not isinstance(k, KPi):
                head, _ = fam_spine(fn)
                name = head.name if isinstance(head, FConst) else str(head)
                raise LFTypeError(f"too many arguments to {name!r}", rule="app-fam")
            check_object(sig, ctx, arg, expected=k.dom, _rule="app-fam")
            return _instantiate(k, arg)
    raise TypeError(f"not a type family: {a!r}")


def check_object(sig: Signature, ctx: Context, m: Obj,
                 expected: Optional[Fam] = None, _rule: str = "app-obj") -> Fam:
    """Synthesize the beta-normal type of `m`; compare to `expected` if given."""
    t = _synth_obj(sig, ctx, m)
    if expected is not None and t != expected:
        want = beta_normalize(expected)
        if not beta_eta_equal(t, want):
            raise LFTypeError(f"{print_brief(m)} has type {t}, expected {want}",
                              rule=_rule)
    return t


def _synth_obj(sig: Signature, ctx: Context, m: Obj) -> Fam:
    match m:
        case OConst(name):
            a = normal_classifier(sig, name)
            if a is None:
                raise LFTypeError(f"unknown constant {name!r}", rule="var-obj")
            if not isinstance(a, (FConst, FPi, FApp)):
                raise LFTypeError(f"type constant {name!r} used as an object",
                                  rule="var-obj")
            return a
        case OVar(name):
            a = ctx.lookup(name)
            if a is None:
                raise LFTypeError(f"unbound variable {name!r}", rule="var-obj")
            return beta_normalize(a)
        case OLam(var, dom, body):
            dk = check_type(sig, ctx, dom)
            if not isinstance(dk, KType):
                raise LFTypeError(f"binder type {dom} has kind {dk}, not type",
                                  rule="abs-obj")
            dom_n = beta_normalize(dom)
            var, body = _freshen_binder(var, body, ctx)
            bt = _synth_obj(sig, ctx.extend(var, dom_n), body)
            return FPi(var, dom_n, bt)
        case OApp(fn, arg):
            ft = _synth_obj(sig, ctx, fn)
            if not isinstance(ft, FPi):
                raise LFTypeError(f"{print_brief(fn)} of type {ft} applied to an argument",
                                  rule="app-obj")
            check_object(sig, ctx, arg, expected=ft.dom, _rule="app-obj")
            return _instantiate(ft, arg)
    raise TypeError(f"not an object: {m!r}")


def _instantiate(pi: Union[KPi, FPi], arg: Obj) -> Union[Kind, Fam]:
    # the body of a beta-normal Pi is normal; a binder it does not use
    # leaves it as it is
    if not occurs_free(pi.var, pi.body):
        return pi.body
    return instantiate(pi.body, {pi.var: arg})


def _freshen_binder(var: str, body: Expr, ctx: Context) -> tuple[str, Expr]:
    # contexts bind distinct names; rename when input shadows one
    if var in ctx.names():
        var2 = fresh_name(var, ctx.names() | free_vars(body))
        return var2, substitute(body, {var: OVar(var2)})
    return var, body


def print_brief(e: Expr, limit: int = 40) -> str:
    s = print_lf(e)
    return s if len(s) <= limit else s[:limit] + "..."
