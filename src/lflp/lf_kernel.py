"""Substitution, normalization, conversion, and the LF judgments.

Bound variables are de Bruijn indices (see `lf_syntax`): `substitute` is
one index substitution, as `hterms.subst_term` is for hohh terms, so it
never captures and nothing here renames a binder.  Each rule synthesizes
a beta-normal classifier and compares it with the expected one by
`convertible`, which normalizes nothing: equal up to hints, or else
their eta-short forms are, which on well-typed LF agrees with comparing
canonical forms.  One normalization takes at most `_FUEL` beta steps.
That bounds cost, not divergence: every caller checks a term before it
normalizes it, while a well-typed term may need more, as ``([y:t] y) d``
inside nine nested ``([x:t] c x x x x) (...)`` does (about 4^9).

`normal_classifier` normalizes a constant's classifier once per
signature, and `classifier_dependencies` records which of its Pi
binders the rest of it mentions.  A context maps each free variable to
its normal type.  `check_query` types a query's free variables as local
type inference does: each starts as a placeholder, a type constant no
signature declares, and where an argument fails its domain it takes
that domain, or what a lambda's Pi domain ends in, unless that mentions
a binder; it is never applied.

One synthesis, `_synth`, types objects and families, one case per
construct, from which an error's rule name is read; it also reports
whether its input is beta-normal, so `instantiate_normal` normalizes
only where a lambda is put in place.  A spine ``c M1 ... Mn`` is typed
in one loop, each Mi against its binder's domain instantiated by the
arguments before it, held by position.  `check_object` and `check_type`
synthesize each argument object of their root context once, in a table
keyed by identity that records only successes and is not passed under a
binder, so a shared answer costs its distinct subobjects; `check_object`
checks its expected type first, in the same table.  A binder
(`_binder`) pushes its hint and normal domain onto the check's stack,
and its rule pops it however the body's check ends: O(1) and one frame
of Python's stack.  A bound variable's type is its binder's domain
lifted over the binders between; a domain that mentions no binder comes
back as it is, so identity tests still hold.  An error message prints
the classifiers the failed check holds, under the stack's hints.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Mapping, Optional, Sequence, Union

from .lf_syntax import (
    Binders, Context, Expr, Fam, FApp, FConst, FPi, Kind, KindDecl, KPi, KType,
    LFError, Obj, OApp, OBVar, OConst, OLam, OVar, Signature,
    alpha_eq, free_vars, obj_app, occurs_free, pi_dependencies, print_lf,
    spine,
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
    __slots__ = ()  # the context of `check_query`: its free variables


# ---------------------------------------------------------------------------
# Substitution

def substitute(e: Expr, vals: Sequence[Obj] = (), lift: int = 0,
               depth: int = 0, free: Optional[Mapping[str, Obj]] = None
               ) -> Expr:
    """`e`, under `depth` binders of its own, with loose index ``depth +
    j`` replaced by ``vals[j]`` lifted over those binders, any later one
    moved by ``lift - len(vals)``, and each free variable `free` names
    replaced by its value, which mentions no binder: ``substitute(e, (),
    n)`` lifts `e` over n binders.  A subterm nothing changes is returned
    as it is; the result may hold redexes."""
    if not vals and not lift and not free:
        return e
    cls = type(e)
    if cls is OApp or cls is FApp:
        fn, arg = e.fn, e.arg
        fn2 = substitute(fn, vals, lift, depth, free)
        arg2 = substitute(arg, vals, lift, depth, free)
        if fn2 is fn and arg2 is arg:
            return e
        return cls(fn2, arg2)
    if cls is OBVar:
        j = e.index - depth
        if j < 0:
            return e
        if j < len(vals):
            return substitute(vals[j], (), depth) if depth else vals[j]
        return OBVar(e.index - len(vals) + lift) if lift != len(vals) else e
    if cls is OVar:
        return free.get(e.name, e) if free else e
    if cls is OConst or cls is FConst or cls is KType:
        return e
    if cls is OLam or cls is FPi or cls is KPi:
        dom, body = e.dom, e.body
        dom2 = substitute(dom, vals, lift, depth, free)
        body2 = substitute(body, vals, lift, depth + 1, free)
        if dom2 is dom and body2 is body:
            return e
        return cls(e.var, dom2, body2)
    raise TypeError(f"not an LF expression: {e!r}")


def instantiate_normal(e: Expr, vals: Sequence[Obj] = (),
                       free: Optional[Mapping[str, Obj]] = None) -> Expr:
    """`beta_normalize(substitute(e, vals, free=free))` for a beta-normal
    `e` and beta-normal values: only a lambda put in place can make a
    redex, so the result is normalized only when it is not `e` itself
    and some value is a lambda."""
    out = substitute(e, vals, 0, 0, free)
    if out is not e and any(type(v) is OLam
                            for v in (*vals, *(free or {}).values())):
        return beta_normalize(out)
    return out


# ---------------------------------------------------------------------------
# Beta-normalization

def beta_normalize(e: Expr) -> Expr:
    """Contract all beta-redexes; unique result up to hints for typed input."""
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
            return _norm(substitute(fn2.body, (arg,)), cell)
        arg2 = _norm(arg, cell)
        return e if fn2 is fn and arg2 is arg else cls(fn2, arg2)
    if (cls is OConst or cls is OVar or cls is OBVar or cls is FConst
            or cls is KType):
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
    constant `name`, whether the rest of `a` mentions it: computed once
    per signature, so a spine does not walk its head's classifier."""
    deps = sig.dependencies.get(name)
    if deps is None:
        deps = sig.dependencies[name] = pi_dependencies(a)
    return deps


# ---------------------------------------------------------------------------
# Conversion

def convertible(a: Expr, b: Expr) -> bool:
    """Beta-eta-equality of well-typed beta-normal expressions: they are
    equal up to hints, or else their eta-short forms are."""
    return alpha_eq(a, b) or alpha_eq(_eta_short(a), _eta_short(b))


def _eta_short(e: Expr) -> Expr:
    # contracts [x:A] M x to M when x is not free in M, innermost first;
    # a beta-normal input stays beta-normal
    cls = type(e)
    if cls is OApp or cls is FApp:
        return cls(_eta_short(e.fn), _eta_short(e.arg))
    if (cls is OConst or cls is OVar or cls is OBVar or cls is FConst
            or cls is KType):
        return e
    if cls is OLam or cls is FPi or cls is KPi:
        body = _eta_short(e.body)
        if (cls is OLam and type(body) is OApp and body.arg == OBVar(0)
                and not occurs_free(body.fn)):
            # M moves out from under the binder: its loose indices down one
            return substitute(body.fn, (), -1)
        return cls(e.var, _eta_short(e.dom), body)
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
                k, normal = _synth(prefix, {}, [], d.fam, {})
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
    bound: Binders = []
    while type(k) is KPi:
        _binder(sig, ctx, bound, k)
        k = k.body
    if type(k) is not KType:
        raise TypeError(f"not a kind: {k!r}")


def check_type(sig: Signature, ctx: Context, a: Fam) -> Kind:
    """Synthesize the beta-normal kind of `a` (error if not well-formed)."""
    return _synth(sig, ctx, [], a, {})[0]


def check_query(sig: Signature, free: tuple[str, ...],
                a: Fam) -> tuple[Kind, bool, dict[str, Fam]]:
    """The kind of the query type `a`, whether `a` is beta-normal, and
    the context that types its free variables `free` at first use."""
    ctx = _QueryContext((x, FConst("?" + x)) for x in free)
    k, normal = _synth(sig, ctx, [], a, {})
    return k, normal, dict(ctx)


def check_object(sig: Signature, ctx: Context, m: Obj,
                 expected: Optional[Fam] = None) -> Fam:
    """Synthesize the beta-normal type of `m`.  Given `expected`, check
    that first, as it is given, and compare its normal form."""
    shared: _Shared = {}
    if expected is not None:
        _, normal = _synth(sig, ctx, [], expected, shared)
        want = expected if normal else beta_normalize(expected)
    t, _ = _synth(sig, ctx, [], m, shared)
    if expected is not None and not convertible(t, want):
        raise _mismatch(m, t, want, "app-obj", ctx, [])
    return t


def _synth(sig: Signature, ctx: Context, bound: Binders, e: Union[Fam, Obj],
           shared: Optional[_Shared] = None) -> tuple[Union[Kind, Fam], bool]:
    # The beta-normal classifier of the object or family `e` under the
    # binders `bound`, and whether `e` is beta-normal; `shared` is the
    # table of the root context, or None under a binder.  Dispatch is on
    # the exact class, the fastest test: no class derives from another.
    cls = type(e)
    if cls is OApp or cls is FApp:
        head, args = spine(e)
        k, _ = _synth(sig, ctx, bound, head, shared)
        t, normal = _check_spine(sig, ctx, bound, head, k, args, shared)
        return t, normal and type(head) is not OLam
    if cls is OBVar:
        return substitute(bound[-1 - e.index][1], (), e.index + 1), True
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
        dom = _binder(sig, ctx, bound, e)
        try:
            bt, normal = _synth(sig, ctx, bound, e.body)
            if cls is FPi and not isinstance(bt, KType):
                raise LFTypeError(
                    f"Pi body {print_lf(e.body, bound, ctx)} has kind "
                    f"{print_lf(bt, bound, ctx)}, not type", rule="pi-fam")
        finally:
            bound.pop()
        normal = normal and dom is e.dom
        return (FPi(e.var, dom, bt) if cls is OLam else bt), normal
    raise TypeError(f"not an object or a type family: {e!r}")


def _binder(sig: Signature, ctx: Context, bound: Binders,
            e: Union[KPi, FPi, OLam]) -> Fam:
    # The domain of `e` has kind type: pushes the binder onto `bound` at
    # its normal domain, in O(1), and returns that domain.  The caller
    # checks the body in its own frame and pops the binder in a `finally`.
    dk, normal = _synth(sig, ctx, bound, e.dom)
    if not isinstance(dk, KType):
        what = "binder type" if type(e) is OLam else "Pi domain"
        rule = {OLam: "abs-obj", KPi: "pi-kind", FPi: "pi-fam"}[type(e)]
        raise LFTypeError(f"{what} {print_lf(e.dom, bound, ctx)} has kind "
                          f"{print_lf(dk, bound, ctx)}, not type", rule=rule)
    dom = e.dom if normal else beta_normalize(e.dom)
    bound.append((e.var, dom))
    return dom


def _check_spine(sig: Signature, ctx: Context, bound: Binders, head: Expr,
                 pi: Union[Kind, Fam], args: list[Obj],
                 shared: Optional[_Shared]) -> tuple[Union[Kind, Fam], bool]:
    # The application of `head`, of classifier `pi`, to `args`: each
    # argument is checked against its binder's domain instantiated by the
    # arguments before it, held by position, innermost first, as normal
    # forms, and the rest of `pi` is instantiated once at the end.  The
    # classifier of a constant or a free variable mentions no binder, so
    # it changes only past an argument its rest depends on (`deps`).  An
    # argument found in `shared` is not synthesized again.  Returns the
    # instantiated rest and whether every argument is beta-normal.
    if isinstance(head, (OConst, FConst)):
        deps = classifier_dependencies(sig, head.name, pi)
    elif type(ctx) is _QueryContext and type(head) is OVar:
        raise _applied(head.name)
    else:
        deps = pi_dependencies(pi)
    vals: list[Obj] = []
    moves = type(head) is not OVar and not isinstance(head, (OConst, FConst))
    normal = True
    rest = pi
    for i, arg in enumerate(args):
        if not isinstance(rest, (KPi, FPi)):
            raise _too_many(head, args[:i], instantiate_normal(rest, vals),
                            ctx, bound)
        dom = instantiate_normal(rest.dom, vals) if moves else rest.dom
        known = shared.get(id(arg)) if shared is not None else None
        if known is None:
            t, arg_normal = _synth(sig, ctx, bound, arg, shared)
            if shared is not None:
                shared[id(arg)] = (arg, t, arg_normal)
        else:
            _, t, arg_normal = known
        if t != dom and not convertible(t, dom):
            # the head of a family's spine is a constant or a Pi
            _reconcile(sig, ctx, bound, arg, t, dom, "app-fam" if isinstance(
                head, (FConst, FPi)) else "app-obj")
        if not arg_normal:
            normal = False
            arg = beta_normalize(arg)
        vals.insert(0, arg)
        moves = moves or deps[i]
        rest = rest.body
    return (instantiate_normal(rest, vals) if moves else rest), normal


def _reconcile(sig: Signature, ctx: Context, bound: Binders, arg: Obj,
               t: Fam, dom: Fam, rule: str) -> None:
    # `arg` of type `t` fails `dom`.  In a query, an untyped variable whose
    # placeholder ends `t` takes what `dom` ends in, unless that mentions
    # a binder
    tail, want = t, dom
    while type(tail) is FPi:  # `want` is None past the Pi types of `dom`
        tail, want = tail.body, getattr(want, "body", None)
    if type(ctx) is _QueryContext and getattr(tail, "name", "")[:1] == "?":
        name = tail.name[1:]
        if ctx[name] is tail:
            if (want is None or occurs_free(want, 0, inf)
                    or not free_vars(want) <= ctx.keys()):
                raise LFTypeError(
                    f"cannot infer a type for query variable {name}")
            ctx[name] = want
        t, _ = _synth(sig, ctx, bound, arg)
    if not convertible(t, dom):
        raise _mismatch(arg, t, dom, rule, ctx, bound)


def _mismatch(m: Obj, t: Fam, want: Fam, rule: str, ctx: Context,
              bound: Binders) -> LFTypeError:
    return LFTypeError(f"{print_brief(m, bound, ctx)} has type "
                       f"{print_lf(t, bound, ctx)}, expected "
                       f"{print_lf(want, bound, ctx)}", rule=rule)


def _applied(name: str) -> LFTypeError:
    return LFTypeError(f"cannot infer a type for {name}: "
                       "free query variables may not be applied")


def _too_many(head: Expr, args: list[Obj], t: Union[Kind, Fam], ctx: Context,
              bound: Binders) -> LFTypeError:
    # `head` applied to `args` has type `t`, which is no Pi type
    if type(t) is FConst and t.name[:1] == "?":  # an untyped query variable
        return _applied(t.name[1:])
    if isinstance(head, (FConst, FPi)):
        name = (head.name if isinstance(head, FConst)
                else print_lf(head, bound, ctx))
        return LFTypeError(f"too many arguments to {name!r}", rule="app-fam")
    return LFTypeError(f"{print_brief(obj_app(head, args), bound, ctx)} of "
                       f"type {print_lf(t, bound, ctx)} applied to an "
                       "argument", rule="app-obj")


def print_brief(e: Expr, bound: Binders = (), taken: Iterable[str] = ()
                ) -> str:
    """`e` as `print_lf(e, bound, taken)` prints it, cut to `_BRIEF`
    characters."""
    s = print_lf(e, bound, taken)
    return s if len(s) <= _BRIEF else s[:_BRIEF] + "..."
