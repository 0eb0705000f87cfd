"""Substitution, normalization, conversion, and the LF judgments.

Checking is algorithmic: the judgment rules are syntax-directed, so each
check synthesizes a beta-normal classifier and compares it against the
expected type, also held beta-normal, by `convertible`.  Conversion
needs no types and normalizes nothing: two beta-normal forms are
compared up to alpha, and when that fails, their eta-short forms are;
on well-typed LF this agrees with comparing typed eta-long canonical
forms.  A fuel bound, `_FUEL` beta steps, caps one normalization.  It
bounds cost, not divergence: the rules refuse an ill-typed term before
they normalize it, while a well-typed term may need more steps, as
``([y:t] y) d`` inside nine nested ``([x:t] c x x x x) (...)`` does
(about 4^9).  Every caller checks before it normalizes, a query too, so
a diverging term is refused as ill-typed.

A constant's classifier is normalized once per signature, by
`normal_classifier`, and every rule reads it from there; which of its
Pi binders the rest of it mentions is recorded once too, by
`classifier_dependencies`, for the spine loop below.  `check_signature`
checks each declaration against the prefix of the declarations before
it, and records a classifier it finds beta-normal as its own normal
form, so `normal_classifier` does not walk it again.  A context maps
each variable to its beta-normal type, so a variable's occurrence is
typed as the context holds it.  `check_query` types a query's free
variables as local type inference does: each starts as a placeholder,
a type constant no signature declares, met only where an argument fails
its domain; there it takes the domain, or what a lambda's Pi domain
ends in, unless that mentions a binder, and it is never applied.

One synthesis, `_synth`, types objects and type families alike, one
case per construct: a variable, a constant, an application, and a
binder, whose body's classifier makes a lambda's Pi type and must be
type under a Pi.  An error's rule name is read from the construct:
`var-fam` or `var-obj` from the constant, `app-fam` or `app-obj` from
the head of the spine, `pi-kind`, `pi-fam` or `abs-obj` from the binder.

An application `c M1 ... Mn` is typed in one loop over its spine: each
Mi is checked against its binder's domain instantiated by M1 ...
M(i-1), all held in one simultaneous map, and the target is
instantiated once at the end.  Synthesis also reports whether its input
is beta-normal, so each argument's normality is decided once, when it
is checked, and `instantiate_normal`, an instantiation by normal
arguments, normalizes only when it changes its input and one of its
values is a lambda.  An error message prints the
classifiers the failed check already holds, so a binder renamed to
avoid capture is printed with the name the one simultaneous map chose.

`check_object` and `check_type` synthesize each argument object of
their root context once, however often the object occurs: a table keyed
by identity, made for the one call and passed down the application
spines, holds each argument's type, and a later occurrence of the same
object reads it there.  This is sound because synthesis is a function
of the signature, the context and the object, and the table records
only successes: an occurrence that fails raises before anything is
recorded, so the first occurrence fails as it would unshared.  Under a
binder the context differs, so the table is not passed into the body
of a lambda or a Pi.  An answer exported by `lflp solve` shares its
subterms, and the parser builds equal subterms of a signature or a
query as one object, so `check_signature`, the query's check and the
export's each cost the number of distinct subobjects, not of
occurrences.

The binder rules (Pi in a kind or a type, lambda in an object) share
one premise, `_binder`.  It extends the caller's context dict in place,
and the rule checks the body in its own frame and takes the binder out
again when that check returns or raises, so a binder costs O(1)
however large the context and one frame of Python's stack, and a
caller finds its context as it was.  `rename_apart` renames a binder
there, when it shadows the context, and in substitution, when it would
capture.
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
# or `check_type` call, by identity: the object itself, which keeps its
# id unique, its beta-normal type, and whether it is beta-normal
_Shared = dict[int, tuple[Obj, Fam, bool]]


class LFTypeError(LFError):
    """A judgment failed; carries the rule name and a location string.
    An error of no rule is a query's free variable that has no type."""

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


class _QueryContext(dict):
    __slots__ = ("free",)  # the free variables of `check_query`'s query


# ---------------------------------------------------------------------------
# Substitution

def substitute(e: Expr, bindings: Mapping[str, Obj]) -> Expr:
    """Capture-avoiding simultaneous substitution of objects for variables.

    The result may contain beta-redexes; callers normalize when needed.
    A subterm that mentions no key is returned as it is.
    """
    if not bindings:
        return e
    cls = type(e)
    if cls is OApp or cls is FApp:
        fn, arg = e.fn, e.arg
        fn2 = substitute(fn, bindings)
        arg2 = substitute(arg, bindings)
        if fn2 is fn and arg2 is arg:
            return e
        return cls(fn2, arg2)
    if cls is OVar:
        return bindings.get(e.name, e)
    if cls is OConst or cls is FConst or cls is KType:
        return e
    if cls is OLam or cls is FPi or cls is KPi:
        var, dom, body = e.var, e.dom, e.body
        dom2 = substitute(dom, bindings)
        inner = {k: v for k, v in bindings.items()
                 if k != var and occurs_free(k, body)}
        if not inner:
            return e if dom2 is dom else cls(var, dom2, body)
        if any(occurs_free(var, v) for v in inner.values()):
            # the binder would capture a free name of a range
            var, body = rename_apart(var, body, set(inner).union(
                *map(free_vars, inner.values())))
        return cls(var, dom2, substitute(body, inner))
    raise TypeError(f"not an LF expression: {e!r}")


def instantiate_normal(e: Expr, bindings: Mapping[str, Obj]) -> Expr:
    """`beta_normalize(substitute(e, bindings))` for a beta-normal `e` and
    beta-normal values: only a lambda put in place can make a redex, so
    the result is normalized only when it is not `e` itself and some
    value is a lambda."""
    out = substitute(e, bindings)
    if out is not e and any(isinstance(v, OLam) for v in bindings.values()):
        return beta_normalize(out)
    return out


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
    cls = type(e)
    if cls is OApp or cls is FApp:
        fn, arg = e.fn, e.arg
        fn2 = _norm(fn, cell)
        if type(fn2) is OLam:
            _spend(cell)
            return _norm(substitute(fn2.body, {fn2.var: arg}), cell)
        arg2 = _norm(arg, cell)
        return e if fn2 is fn and arg2 is arg else cls(fn2, arg2)
    if cls is OConst or cls is OVar or cls is FConst or cls is KType:
        return e
    if cls is OLam or cls is FPi or cls is KPi:
        dom, body = e.dom, e.body
        dom2 = _norm(dom, cell)
        body2 = _norm(body, cell)
        if dom2 is dom and body2 is body:
            return e
        return cls(e.var, dom2, body2)
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

def convertible(a: Expr, b: Expr) -> bool:
    """Beta-eta-equality of well-typed beta-normal expressions: they are
    alpha-equal, or else their eta-short forms are."""
    return alpha_eq(a, b) or alpha_eq(_eta_short(a), _eta_short(b))


def _eta_short(e: Expr) -> Expr:
    # contracts [x:A] M x to M when x is not free in M, innermost first;
    # a beta-normal input stays beta-normal
    cls = type(e)
    if cls is OApp or cls is FApp:
        return cls(_eta_short(e.fn), _eta_short(e.arg))
    if cls is OConst or cls is OVar or cls is FConst or cls is KType:
        return e
    if cls is OLam or cls is FPi or cls is KPi:
        var = e.var
        body = _eta_short(e.body)
        if (cls is OLam and type(body) is OApp
                and body.arg == OVar(var) and not occurs_free(var, body.fn)):
            return body.fn
        return cls(var, _eta_short(e.dom), body)
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
                k, normal = _synth(prefix, {}, d.fam, {})
                if not isinstance(k, KType):
                    raise LFTypeError(
                        f"classifier of {d.name!r} has kind {k}, not type",
                        rule="type-sig")
                if normal:
                    # its own normal form, so `normal_classifier` need
                    # not walk it
                    sig.normal_forms[d.name] = d.fam
        except LFTypeError as err:
            raise LFTypeError(err.message, rule=err.rule,
                              loc=f"declaration {d.name!r}") from None


def check_kind(sig: Signature, ctx: Context, k: Kind) -> None:
    """Accept iff `ctx |- k kind` is derivable."""
    match k:
        case KType():
            return
        case KPi():
            var, _, body = _binder(sig, ctx, k)
            try:
                check_kind(sig, ctx, body)
            finally:
                del ctx[var]
            return
    raise TypeError(f"not a kind: {k!r}")


def check_type(sig: Signature, ctx: Context, a: Fam) -> Kind:
    """Synthesize the beta-normal kind of `a` (error if not well-formed)."""
    return _synth(sig, ctx, a, {})[0]


def check_query(sig: Signature, free: tuple[str, ...],
                a: Fam) -> tuple[Kind, bool, dict[str, Fam]]:
    """The kind of the query type `a`, whether `a` is beta-normal, and
    the context that types its free variables `free` at first use."""
    ctx = _QueryContext((x, FConst("?" + x)) for x in free)
    ctx.free = frozenset(free)
    k, normal = _synth(sig, ctx, a, {})
    return k, normal, dict(ctx)


def check_object(sig: Signature, ctx: Context, m: Obj,
                 expected: Optional[Fam] = None) -> Fam:
    """Synthesize the beta-normal type of `m`; compare to `expected` if given."""
    t, _ = _synth(sig, ctx, m, {})
    if expected is not None and t != expected:
        want = beta_normalize(expected)
        if not convertible(t, want):
            raise _mismatch(m, t, want, "app-obj")
    return t


def _synth(sig: Signature, ctx: Context, e: Union[Fam, Obj],
           shared: Optional[_Shared] = None) -> tuple[Union[Kind, Fam], bool]:
    # The beta-normal classifier of the object or family `e`, and
    # whether `e` is itself beta-normal; `shared` is the table of the
    # context `check_object` or `check_type` was given, or None under a
    # binder.  Dispatch is on the exact class, the fastest test, since
    # no class derives from a node class.
    cls = type(e)
    if cls is OApp or cls is FApp:
        head, args = spine(e)
        k, _ = _synth(sig, ctx, head, shared)
        t, normal = _check_spine(sig, ctx, head, k, args, shared)
        return t, normal and type(head) is not OLam
    if cls is OConst or cls is FConst:
        c = normal_classifier(sig, e.name)
        if c is not None and isinstance(c, (KType, KPi)) is (cls is FConst):
            return c, True
        if cls is FConst:
            raise LFTypeError(f"unknown type constant {e.name!r}" if c is None
                              else f"object constant {e.name!r} used as a type",
                              rule="var-fam")
        raise LFTypeError(f"unknown constant {e.name!r}" if c is None
                          else f"type constant {e.name!r} used as an object",
                          rule="var-obj")
    if cls is OVar:
        a = ctx.get(e.name)
        if a is None:
            raise LFTypeError(f"unbound variable {e.name!r}", rule="var-obj")
        return a, True
    if cls is OLam or cls is FPi:
        var, dom, body = _binder(sig, ctx, e)
        try:
            bt, normal = _synth(sig, ctx, body)
        finally:
            del ctx[var]
        normal = normal and dom is e.dom
        if cls is OLam:
            return FPi(var, dom, bt), normal
        if not isinstance(bt, KType):
            raise LFTypeError(f"Pi body {body} has kind {bt}, not type",
                              rule="pi-fam")
        return bt, normal
    raise TypeError(f"not an object or a type family: {e!r}")


def _binder(sig: Signature, ctx: Context,
            e: Union[KPi, FPi, OLam]) -> tuple[str, Fam, Expr]:
    # The domain of `e` has kind type.  Extends `ctx` itself, in O(1),
    # by the binder, renamed apart from `ctx`, at the normal domain, and
    # returns the binder's name, that domain and the body under that
    # name.  The caller checks the body in its own frame, so a binder
    # costs one frame of Python's stack, and deletes the name from `ctx`
    # in a `finally` however that check ends.
    dk, normal = _synth(sig, ctx, e.dom)
    if not isinstance(dk, KType):
        what = "binder type" if type(e) is OLam else "Pi domain"
        rule = {OLam: "abs-obj", KPi: "pi-kind", FPi: "pi-fam"}[type(e)]
        raise LFTypeError(f"{what} {e.dom} has kind {dk}, not type", rule=rule)
    dom = e.dom if normal else beta_normalize(e.dom)
    var, body = rename_apart(e.var, e.body, ctx.keys())
    ctx[var] = dom
    return var, dom, body


def _check_spine(sig: Signature, ctx: Context, head: Expr,
                 pi: Union[Kind, Fam], args: list[Obj],
                 shared: Optional[_Shared]) -> tuple[Union[Kind, Fam], bool]:
    # The application of `head`, of classifier `pi`, to `args`: each
    # argument is checked against its binder's domain instantiated by the
    # arguments before it, all held in one map, and the rest of `pi` is
    # instantiated once at the end.  A non-normal argument is held as
    # its normal form, so every instantiation may skip the normality
    # walk.  Only arguments whose binder the rest of `pi` mentions are
    # held: a constant head reads which from its signature's table, a
    # variable or lambda head walks its classifier.  An argument found in
    # `shared` is not synthesized again.  Returns the instantiated rest
    # and whether every argument is beta-normal.
    if isinstance(head, (OConst, FConst)):
        deps = classifier_dependencies(sig, head.name, pi)
    elif type(ctx) is _QueryContext and getattr(head, "name", 0) in ctx.free:
        raise _applied(head.name)
    else:
        deps = pi_dependencies(pi)
    sub: dict[str, Obj] = {}
    normal = True
    rest = pi
    for i, arg in enumerate(args):
        if not isinstance(rest, (KPi, FPi)):
            raise _too_many(head, args[:i], instantiate_normal(rest, sub))
        dom = instantiate_normal(rest.dom, sub) if sub else rest.dom
        known = shared.get(id(arg)) if shared is not None else None
        if known is None:
            t, arg_normal = _synth(sig, ctx, arg, shared)
            if shared is not None:
                shared[id(arg)] = (arg, t, arg_normal)
        else:
            _, t, arg_normal = known
        if t != dom and not convertible(t, dom):
            # the head of a family's spine is a constant or a Pi
            _reconcile(sig, ctx, arg, t, dom, "app-fam" if isinstance(
                head, (FConst, FPi)) else "app-obj")
        if not arg_normal:
            normal = False
            arg = beta_normalize(arg)
        if deps[i]:
            sub[rest.var] = arg
        rest = rest.body
    return (instantiate_normal(rest, sub) if sub else rest), normal


def _reconcile(sig: Signature, ctx: Context, arg: Obj, t: Fam, dom: Fam,
               rule: str) -> None:
    # `arg` of type `t` fails `dom`.  In a query, an untyped variable whose
    # placeholder ends `t` takes what `dom` ends in, unless that has a binder
    tail, want, bound = t, dom, set()
    while type(tail) is FPi:  # `want` is None past the Pi types of `dom`
        bound.add(getattr(want, "var", None))
        tail, want = tail.body, getattr(want, "body", None)
    if type(ctx) is _QueryContext and getattr(tail, "name", "")[:1] == "?":
        name = tail.name[1:]
        if ctx[name] is tail:
            if want is None or not free_vars(want) <= ctx.free - bound:
                raise LFTypeError(
                    f"cannot infer a type for query variable {name}")
            ctx[name] = want
        t, _ = _synth(sig, ctx, arg)
    if not convertible(t, dom):
        raise _mismatch(arg, t, dom, rule)


def _mismatch(m: Obj, t: Fam, want: Fam, rule: str) -> LFTypeError:
    return LFTypeError(f"{print_brief(m)} has type {t}, expected {want}",
                       rule=rule)


def _applied(name: str) -> LFTypeError:
    return LFTypeError(f"cannot infer a type for {name}: "
                       "free query variables may not be applied")


def _too_many(head: Expr, args: list[Obj],
              t: Union[Kind, Fam]) -> LFTypeError:
    # `head` applied to `args` has type `t`, which is no Pi type
    if type(t) is FConst and t.name[:1] == "?":  # an untyped query variable
        return _applied(t.name[1:])
    if isinstance(head, (FConst, FPi)):
        name = head.name if isinstance(head, FConst) else str(head)
        return LFTypeError(f"too many arguments to {name!r}", rule="app-fam")
    fn = obj_app(head, args)
    return LFTypeError(f"{print_brief(fn)} of type {t} "
                       "applied to an argument", rule="app-obj")


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
