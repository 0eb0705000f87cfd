"""Substitution, normalization, conversion, and the LF judgments.

Checking is algorithmic: the judgment rules are syntax-directed, so each
check synthesizes a beta-normal classifier and compares against expected
types using beta-eta-equality.  Conversion needs no types: two
beta-normal forms are compared up to alpha, and when that fails, their
eta-short forms are; on well-typed LF this agrees with comparing typed
eta-long canonical forms.  A fuel bound, `_FUEL` beta steps, caps one
normalization.  It bounds cost, not divergence: the rules refuse an
ill-typed term before they normalize it, while a well-typed term may
need more steps, as ``([y:t] y) d`` inside nine nested
``([x:t] c x x x x) (...)`` does (about 4^9).  A caller that normalizes
unchecked input, as `translate_query` does, meets Python's recursion
limit on a diverging term long before the fuel runs out.

A constant's classifier is normalized once per signature, by
`normal_classifier`, and every rule reads it from there; which of its
Pi binders the rest of it mentions is recorded once too, by
`classifier_dependencies`, for the spine loop below.  `check_signature`
checks each declaration against the prefix of the declarations before
it.  A context maps each variable to its beta-normal type, so a
variable's occurrence is typed as the context holds it.

An application `c M1 ... Mn`, of an object or of a type family, is typed
in one loop over its spine: each Mi is checked against its binder's
domain instantiated by M1 ... M(i-1), all held in one simultaneous map,
and the target is instantiated once at the end.  Synthesis also reports
whether the object is beta-normal, so each argument's normality is
decided once, when it is checked, and an instantiation by normal
arguments normalizes only when it puts a lambda in place.  An error
message prints the classifiers the failed check already holds, so a
binder renamed to avoid capture is printed with the name the one
simultaneous map chose.

`check_object` synthesizes each argument object of its root context
once, however often the object occurs: a table keyed by identity, made
for the one call and passed down the application spines, holds each
argument's type, and a later occurrence of the same object reads it
there.  This is sound because synthesis is a function of the signature,
the context and the object, and the table records only successes: an
occurrence that fails raises before anything is recorded, so the first
occurrence fails as it would unshared.  Under a binder the context
differs, so the table is not passed into a lambda's body.  An answer
exported by `lflp solve` shares its subterms, so its check costs the
number of distinct subobjects, not of occurrences; `check_type` and
`check_signature` keep no table.

The binder rules (Pi in a kind or a type, lambda in an object) share
one premise, `_binder`.  `rename_apart` renames a binder there, when it
shadows the context, and in substitution, when it would capture.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Optional, Union

from .lf_syntax import (
    Context, Expr, Fam, FApp, FConst, FPi, Kind, KindDecl, KPi, KType,
    LFError, Obj, OApp, OConst, OLam, OVar, Signature,
    alpha_eq, free_vars, fresh_name, obj_app, occurs_free, pi_dependencies,
    print_lf, spine,
)

_FUEL = 100000  # the beta-steps one normalization may take
_BRIEF = 40  # the characters of an expression a message prints

# an argument object checked in the root context of one `check_object`
# call, by identity: the object itself, which keeps its id unique, its
# beta-normal type, and whether it is beta-normal
_Shared = dict[int, tuple[Obj, Fam, bool]]


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
    return _subst(e, bindings, {})


def _subst(e: Expr, b: Mapping[str, Obj], placed: dict[int, Obj]) -> Expr:
    # `placed` collects, by identity, every value put in place of a
    # variable; a subterm that mentions no key is returned as it is
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
                return e if dom2 is dom else type(e)(var, dom2, body)
            if any(occurs_free(var, v) for v in inner.values()):
                # the binder would capture a free name of a range
                var, body = rename_apart(var, body, set(inner).union(
                    *map(free_vars, inner.values())))
            return type(e)(var, dom2, _subst(body, inner, placed))
        case FApp(fn, arg) | OApp(fn, arg):
            fn2 = _subst(fn, b, placed)
            arg2 = _subst(arg, b, placed)
            if fn2 is fn and arg2 is arg:
                return e
            return type(e)(fn2, arg2)
    raise TypeError(f"not an LF expression: {e!r}")


def instantiate_normal(e: Expr, bindings: Mapping[str, Obj]) -> Expr:
    """`beta_normalize(substitute(e, bindings))` for a beta-normal `e` and
    beta-normal values: only a lambda put in place can make a redex, so
    no value is walked to find out."""
    placed: dict[int, Obj] = {}
    e = _subst(e, bindings, placed)
    if any(isinstance(v, OLam) for v in placed.values()):
        return beta_normalize(e)
    return e


# ---------------------------------------------------------------------------
# Beta-normalization

def beta_normalize(e: Expr) -> Expr:
    """Contract all beta-redexes; unique result up to alpha for typed input."""
    return _norm(e, [_FUEL])


def _spend(cell: list[int]) -> None:
    cell[0] -= 1
    if cell[0] < 0:
        raise LFFuelError("normalization fuel exhausted")


def _norm(e: Expr, cell: list[int]) -> Expr:
    # a subterm that is already normal is returned as it is
    match e:
        case KType() | FConst() | OConst() | OVar():
            return e
        case KPi(var, dom, body) | FPi(var, dom, body) | OLam(var, dom, body):
            dom2 = _norm(dom, cell)
            body2 = _norm(body, cell)
            if dom2 is dom and body2 is body:
                return e
            return type(e)(var, dom2, body2)
        case FApp(fn, arg) | OApp(fn, arg):
            fn2 = _norm(fn, cell)
            if isinstance(fn2, OLam):
                _spend(cell)
                return _norm(substitute(fn2.body, {fn2.var: arg}), cell)
            arg2 = _norm(arg, cell)
            return e if fn2 is fn and arg2 is arg else type(e)(fn2, arg2)
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


def classifier_dependencies(sig: Signature, name: str,
                            a: Union[Kind, Fam]) -> tuple[bool, ...]:
    """For each Pi binder of `a`, the normal classifier of the declared
    constant `name`, whether the rest of `a` mentions it.  Computed once
    per signature, so a spine headed by a constant decides which
    arguments its target depends on without walking the classifier, and
    its caller, which has just looked the classifier up, does not look
    it up again."""
    deps = sig.dependencies.get(name)
    if deps is None:
        deps = sig.dependencies[name] = pi_dependencies(a)
    return deps


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
        case KPi(var, dom, body) | FPi(var, dom, body) | OLam(var, dom, body):
            body = _eta_short(body)
            if (isinstance(e, OLam) and isinstance(body, OApp)
                    and body.arg == OVar(var) and not occurs_free(var, body.fn)):
                return body.fn
            return type(e)(var, _eta_short(dom), body)
        case FApp(fn, arg) | OApp(fn, arg):
            return type(e)(_eta_short(fn), _eta_short(arg))
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
        prefix = sig.prefix(i)
        try:
            if isinstance(d, KindDecl):
                check_kind(prefix, {}, d.kind)
            else:
                k = check_type(prefix, {}, d.fam)
                if not isinstance(k, KType):
                    raise LFTypeError(
                        f"classifier of {d.name!r} has kind {k}, not type",
                        rule="type-sig")
        except LFTypeError as err:
            raise LFTypeError(err.message, rule=err.rule,
                              loc=f"declaration {d.name!r}") from None


def check_kind(sig: Signature, ctx: Context, k: Kind) -> None:
    """Accept iff `ctx |- k kind` is derivable."""
    match k:
        case KType():
            return
        case KPi():
            inner, _, _, body = _binder(sig, ctx, k, "pi-kind")
            check_kind(sig, inner, body)
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
        case FPi():
            inner, _, _, body = _binder(sig, ctx, a, "pi-fam")
            bk = check_type(sig, inner, body)
            if not isinstance(bk, KType):
                raise LFTypeError(f"Pi body {body} has kind {bk}, not type",
                                  rule="pi-fam")
            return KType()
        case FApp():
            head, args = spine(a)
            k = check_type(sig, ctx, head)
            return _check_spine(sig, ctx, head, k, args, "app-fam", None)[0]
    raise TypeError(f"not a type family: {a!r}")


def check_object(sig: Signature, ctx: Context, m: Obj,
                 expected: Optional[Fam] = None) -> Fam:
    """Synthesize the beta-normal type of `m`; compare to `expected` if given."""
    t, _ = _synth_obj(sig, ctx, m, {})
    if expected is not None and t != expected:
        want = beta_normalize(expected)
        if not beta_eta_equal(t, want):
            raise _mismatch(m, t, want, "app-obj")
    return t


def _synth_obj(sig: Signature, ctx: Context, m: Obj,
               shared: Optional[_Shared]) -> tuple[Fam, bool]:
    # the beta-normal type of `m`, and whether `m` is itself beta-normal;
    # `shared` is the table of the context `check_object` was given, or
    # None under a binder
    match m:
        case OConst(name):
            a = normal_classifier(sig, name)
            if a is None:
                raise LFTypeError(f"unknown constant {name!r}", rule="var-obj")
            if not isinstance(a, (FConst, FPi, FApp)):
                raise LFTypeError(f"type constant {name!r} used as an object",
                                  rule="var-obj")
            return a, True
        case OVar(name):
            a = ctx.get(name)
            if a is None:
                raise LFTypeError(f"unbound variable {name!r}", rule="var-obj")
            return a, True
        case OLam():
            inner, var, dom_n, body = _binder(sig, ctx, m, "abs-obj")
            bt, normal = _synth_obj(sig, inner, body, None)
            return FPi(var, dom_n, bt), normal and dom_n is m.dom
        case OApp():
            head, args = spine(m)
            ht, normal = _synth_obj(sig, ctx, head, None)
            t, args_normal = _check_spine(sig, ctx, head, ht, args, "app-obj",
                                          shared)
            return t, normal and args_normal and not isinstance(head, OLam)
    raise TypeError(f"not an object: {m!r}")


def _binder(sig: Signature, ctx: Context, e: Union[KPi, FPi, OLam],
            rule: str) -> tuple[Context, str, Fam, Expr]:
    # The domain of `e` has kind type.  Returns the context extended by
    # the binder, renamed apart from `ctx`, at the normal domain; the
    # binder's name; that domain; and the body under that name.
    dk = check_type(sig, ctx, e.dom)
    if not isinstance(dk, KType):
        what = "binder type" if rule == "abs-obj" else "Pi domain"
        raise LFTypeError(f"{what} {e.dom} has kind {dk}, not type", rule=rule)
    dom = beta_normalize(e.dom)
    var, body = rename_apart(e.var, e.body, ctx.keys())
    return {**ctx, var: dom}, var, dom, body


def _check_spine(sig: Signature, ctx: Context, head: Expr,
                 pi: Union[Kind, Fam], args: list[Obj], rule: str,
                 shared: Optional[_Shared]) -> tuple[Union[Kind, Fam], bool]:
    # The application of `head`, of classifier `pi`, to `args`: each
    # argument is checked against its binder's domain instantiated by the
    # arguments before it, all held in one map, and the rest of `pi` is
    # instantiated once at the end.  A non-normal argument is placed as
    # its normal form, so every instantiation may skip the normality
    # walk.  Only arguments whose binder the rest of `pi` mentions are
    # held: a constant head reads which from its signature's table, a
    # variable or lambda head walks its classifier.  An argument found in
    # `shared` is not synthesized again.  Returns the instantiated rest
    # and whether every argument is beta-normal.
    deps = (classifier_dependencies(sig, head.name, pi)
            if isinstance(head, (OConst, FConst)) else pi_dependencies(pi))
    sub: dict[str, Obj] = {}
    normal = True
    rest = pi
    for i, arg in enumerate(args):
        if not isinstance(rest, (KPi, FPi)):
            raise _too_many(head, args[:i], instantiate_normal(rest, sub),
                            rule)
        dom = instantiate_normal(rest.dom, sub) if sub else rest.dom
        known = shared.get(id(arg)) if shared is not None else None
        if known is None:
            t, arg_normal = _synth_obj(sig, ctx, arg, shared)
            if shared is not None:
                shared[id(arg)] = (arg, t, arg_normal)
        else:
            _, t, arg_normal = known
        if t != dom and not beta_eta_equal(t, dom):
            raise _mismatch(arg, t, dom, rule)
        if not arg_normal:
            normal = False
            arg = beta_normalize(arg)
        if deps[i]:
            sub[rest.var] = arg
        rest = rest.body
    return (instantiate_normal(rest, sub) if sub else rest), normal


def _mismatch(m: Obj, t: Fam, want: Fam, rule: str) -> LFTypeError:
    return LFTypeError(f"{print_brief(m)} has type {t}, expected {want}",
                       rule=rule)


def _too_many(head: Expr, args: list[Obj], t: Union[Kind, Fam],
              rule: str) -> LFTypeError:
    # `head` applied to `args` has type `t`, which is no Pi type
    if rule == "app-fam":
        name = head.name if isinstance(head, FConst) else str(head)
        return LFTypeError(f"too many arguments to {name!r}", rule=rule)
    fn = obj_app(head, args)
    return LFTypeError(f"{print_brief(fn)} of type {t} "
                       "applied to an argument", rule=rule)


def rename_apart(var: str, body: Expr,
                 avoid: AbstractSet[str]) -> tuple[str, Expr]:
    """The binder `var` of `body`, renamed when `avoid` holds its name:
    the new name is neither in `avoid` nor free in `body`, and the body
    follows.  Contexts bind distinct names, so a binder that shadows one
    is renamed apart from the context's names."""
    if var in avoid:
        var2 = fresh_name(var, avoid | free_vars(body))
        return var2, substitute(body, {var: OVar(var2)})
    return var, body


def print_brief(e: Expr) -> str:
    s = print_lf(e)
    return s if len(s) <= _BRIEF else s[:_BRIEF] + "..."
