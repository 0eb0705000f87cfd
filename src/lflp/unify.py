"""Unification for simply typed terms, complete on the pattern fragment.

A flexible term is a pattern when its logic variable is applied to
distinct universal variables it may not mention itself: locally bound
ones, or eigenvariables no older than the variable.  On such problems
unification is decidable and most general unifiers exist; the solver
commits only there.  Anything outside the fragment is set aside as a
residual equation and retried whenever the substitution grows; a
residual that survives to the end of a proof leaves the branch
undecided rather than successful.

Scope discipline rides on levels.  An eigenvariable's level is its
creation time, a logic variable's the universe it lives in, and a
logic variable may only be instantiated with eigenvariables of a lower
level.  When a right-hand side mentions later eigenvariables under
another logic variable, that variable is pruned (the offending
argument dropped) or lowered (rebuilt at the older level); under a
rigid head the equation simply fails.  Variables of one universe share
a level, so neither applies between them.

A flexible variable gets bound by one of two rules.  The copy solves
``K x1..xn = t`` for a pattern ``K x1..xn`` and any ``t`` whose head is
not ``K``, another pattern included: ``K := \\z1..zn. t'``, where ``t'``
is ``t`` with each ``xi`` replaced by ``zi``.  Each logic variable
``M y1..ym`` met on the way is pruned to the arguments ``K`` can express,
lowered to ``K``'s level, and raised over the ``xi`` it may mention
itself, so a solution that reaches them through ``K``'s binders is not
lost.  Same-head pruning solves ``K x1..xn = K y1..yn`` by keeping only
the positions where ``xi`` and ``yi`` agree.

Substitutions are immutable and triangular: extending one stores the
binding as given, so a range may mention variables bound elsewhere in
the map.  ``apply`` resolves such variables on demand and reduces the
redexes a resolved lambda creates where they arise; every term the
engine builds is beta-normal, and so is every applied term.  The
occurs check keeps the map acyclic, so the resolution always ends.
Within one call the map only grows, so a subterm resolved when the map
had n bindings is still resolved while it has n: the arguments of a
rigid-rigid split are queued with that count and not walked again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .hterms import (
    App, BVar, Const, EVar, LVar, Lam, SimpleType, Term, arrow, beta_norm,
    fresh_evar, fresh_level, fresh_lvar_at, mk_app, rename_apart, split_arrow,
    subst_term, term_spine,
)


@dataclass(slots=True, unsafe_hash=True)
class Eq:
    lhs: Term
    rhs: Term


class Subst:
    """Triangular map from logic variables to terms."""

    __slots__ = ("_m",)

    def __init__(self, m: Optional[dict[LVar, Term]] = None):
        self._m = m or {}

    def __len__(self):
        return len(self._m)

    def apply(self, t: Term) -> Term:
        """The beta-normal `t` with every bound variable resolved.  Each
        call resolves afresh; `apply_all` resolves terms that share
        variables together."""
        if not self._m:
            return t
        return self._walk(t, {})

    def apply_all(self, ts: Iterable[Term]) -> tuple[Term, ...]:
        """`apply` of each of `ts` through one resolution memo: a variable
        they share is resolved once, and each result holds the very
        object it stands for, so the results share what their variables
        share."""
        if not self._m:
            return tuple(ts)
        memo: dict[LVar, Term] = {}
        return tuple(self._walk(t, memo) for t in ts)

    def _walk(self, t: Term, memo: dict[LVar, Term]) -> Term:
        # Rebuilds only what changes.  A binding that puts a lambda in
        # head position is reduced where it lands, so a beta-normal
        # term comes back beta-normal.
        match t:
            case App(fn, arg):
                fn2, arg2 = self._walk(fn, memo), self._walk(arg, memo)
                if fn2 is fn and arg2 is arg:
                    return t
                if isinstance(fn2, Lam):
                    return beta_norm(App(fn2, arg2))
                return App(fn2, arg2)
            case LVar():
                return self._resolve(t, memo)
            case Lam(var, ty, body):
                body2 = self._walk(body, memo)
                return t if body2 is body else Lam(var, ty, body2)
            case _:
                return t

    def _resolve(self, v: LVar, memo: dict[LVar, Term]) -> Term:
        # Variable-to-variable links are followed in a loop, so a long
        # chain costs no stack; every variable on it is memoized.
        m = self._m
        chain = []
        t: Term = v
        while isinstance(t, LVar) and t not in memo and t in m:
            chain.append(t)
            t = m[t]
        if isinstance(t, LVar):
            t = memo.get(t, t)
        else:
            t = self._walk(t, memo)
        for u in chain:
            memo[u] = t
        return t

    def extend(self, v: LVar, t: Term) -> "Subst":
        """Bind the unbound `v` to `t` as given.  `t` must not reach `v`
        through the map; unification binds only resolved terms that
        passed its occurs check, which keeps the map acyclic."""
        m = self._m.copy()
        m[v] = t
        return Subst(m)


@dataclass(frozen=True)
class UnifyResult:
    status: str  # "ok" | "residual" | "fail"
    subst: Subst
    residuals: tuple[Eq, ...] = ()


class _Fail(Exception):
    pass


class _Residual(Exception):
    pass


def unify(eqs: Iterable[Eq], subst: Optional[Subst] = None) -> UnifyResult:
    """Solve a list of equations, threading and extending `subst`."""
    sigma = subst or Subst()
    # A work item is (lhs, rhs, n): n is len(sigma) when both sides were
    # resolved, or -1 when they were not.
    work = deque((eq.lhs, eq.rhs, -1) for eq in eqs)
    residuals: list[Eq] = []
    try:
        while True:
            progressed_len = len(sigma)
            while work:
                t, u, n = work.popleft()
                if n != len(sigma):
                    t, u = sigma.apply(t), sigma.apply(u)
                sigma = _step(sigma, t, u, work, residuals)
            if residuals and len(sigma) > progressed_len:
                work.extend((eq.lhs, eq.rhs, -1) for eq in residuals)
                residuals.clear()
                continue
            break
    except _Fail:
        return UnifyResult("fail", sigma)
    if residuals:
        return UnifyResult("residual", sigma, tuple(residuals))
    return UnifyResult("ok", sigma)


def _open(t: Term, e: EVar) -> Term:
    # A variable in place of a bound name makes no redex, and neither
    # does applying a beta-normal non-lambda to one.
    if isinstance(t, Lam):
        return subst_term(t.body, {t.var: e})
    return App(t, e)


def _step(sigma: Subst, t: Term, u: Term, work: deque, residuals: list) -> Subst:
    # Strip binders in lock step, eta-expanding the side without one;
    # the bound variable becomes a shared fresh eigenvariable.
    while isinstance(t, Lam) or isinstance(u, Lam):
        e = fresh_evar("u", (t if isinstance(t, Lam) else u).ty)
        t, u = _open(t, e), _open(u, e)

    if t == u:
        return sigma

    th, targs = term_spine(t)
    uh, uargs = term_spine(u)
    tflex = isinstance(th, LVar)
    uflex = isinstance(uh, LVar)

    if tflex and uflex:
        return _flex_flex(sigma, th, targs, uh, uargs, t, u, residuals)
    if tflex:
        return _flex_rigid(sigma, th, targs, u, t, residuals)
    if uflex:
        return _flex_rigid(sigma, uh, uargs, t, u, residuals)
    if th != uh or len(targs) != len(uargs):
        raise _Fail
    n = len(sigma)
    for a, b in zip(targs, uargs):
        work.append((a, b, n))
    return sigma


def _is_pattern(m: LVar, args: list[Term]) -> bool:
    # An eigenvariable older than m is one m may mention directly, so as
    # an argument it does not make m a pattern.
    seen = set()
    for a in args:
        if not (isinstance(a, BVar) or (isinstance(a, EVar) and a.level >= m.level)):
            return False
        key = (type(a).__name__, a.name)
        if key in seen:
            return False
        seen.add(key)
    return True


def _fresh_binders(tys: Iterable[SimpleType]) -> list[BVar]:
    return [BVar(f"z{fresh_level()}", ty) for ty in tys]


def _lams(zs: list[BVar], body: Term) -> Term:
    for z in reversed(zs):
        body = Lam(z.name, z.ty, body)
    return body


def _rebuild(m: LVar, arity: int, keep: list[int], extras: list[EVar],
             level: int) -> tuple[LVar, Term]:
    """A fresh variable m2 at `level` and the binding
    ``m := \\z1..z_arity. m2 (z_i for i in keep) extras``: m pruned to
    the kept positions, raised over `extras`, and lowered to `level`."""
    alldoms, cod = split_arrow(m.ty)
    doms = alldoms[:arity]
    cod = arrow(alldoms[arity:], cod)
    m2 = fresh_lvar_at(m.name.split("_")[0],
                       arrow([doms[i] for i in keep] + [e.ty for e in extras],
                             cod), level)
    zs = _fresh_binders(doms)
    return m2, _lams(zs, mk_app(m2, [zs[i] for i in keep] + extras))


def _flex_rigid(sigma: Subst, k: LVar, kargs: list[Term], rhs: Term,
                flex_side: Term, residuals: list) -> Subst:
    if not _is_pattern(k, kargs):
        residuals.append(Eq(flex_side, rhs))
        return sigma
    zs = _fresh_binders(a.ty for a in kargs)
    extra: dict[LVar, Term] = {}
    try:
        body = _copy(rhs, k, dict(zip(kargs, zs)), k.level, True, extra)
    except _Residual:
        residuals.append(Eq(flex_side, rhs))
        return sigma
    for v, t in extra.items():
        sigma = sigma.extend(v, t)
    return sigma.extend(k, _lams(zs, body))


def _copy(t: Term, k: LVar, pi: dict, level: int, rigid: bool,
          extra: dict[LVar, Term]) -> Term:
    match t:
        case Lam(var, ty, body):
            # the copy's own binders, pi's values, must not be captured
            var, body = rename_apart(var, ty, body,
                                     {z.name for z in pi.values()})
            return Lam(var, ty, _copy(body, k, pi, level, rigid, extra))
    head, args = term_spine(t)
    match head:
        case Const() | BVar():
            return mk_app(head, [_copy(a, k, pi, level, rigid, extra)
                                 for a in args])
        case EVar():
            if head in pi:
                h: Term = pi[head]
            elif head.level < level:
                h = head
            elif rigid:
                raise _Fail
            else:
                raise _Residual
            return mk_app(h, [_copy(a, k, pi, level, rigid, extra)
                              for a in args])
        case LVar():
            if head == k:
                if rigid:
                    raise _Fail
                raise _Residual
            return _copy_flex(head, args, k, pi, level, extra)
    raise AssertionError(f"unexpected term {t!r}")


def _raise_over(m: LVar, pi: dict, skip: set) -> list[EVar]:
    # Eigenvariables bound in pi that m's eventual instantiation may
    # legitimately mention; they must become explicit arguments when m
    # is rebuilt, or a solution that reaches them through k's binders
    # would be lost.  Those in `skip`, m's own arguments, are reached
    # through their argument positions instead.
    return [e for e in pi if isinstance(e, EVar) and e.level < m.level
            and e not in skip]


def _copy_flex(m: LVar, args: list[Term], k: LVar, pi: dict, level: int,
               extra: dict[LVar, Term]) -> Term:
    if m in extra:
        # m was already rebuilt earlier in this copy: every occurrence
        # must go through that one replacement, or the copies of m
        # would come apart.
        return _copy(beta_norm(mk_app(extra[m], args)), k, pi, level, False,
                     extra)

    def expressible(a: Term) -> bool:
        return isinstance(a, BVar) or a in pi or (isinstance(a, EVar)
                                                  and a.level < level)

    if _is_pattern(m, args):
        # Rebuild m at the older scope unless it already fits: prune
        # inexpressible argument positions, and raise over the pi-bound
        # eigenvariables it may depend on.
        keep = [i for i, a in enumerate(args) if expressible(a)]
        extras = _raise_over(m, pi, set(args))
        if len(keep) == len(args) and m.level <= level and not extras:
            return mk_app(m, [pi.get(a, a) for a in args])
        m2, extra[m] = _rebuild(m, len(args), keep, extras,
                                min(level, m.level))
        return mk_app(m2, [pi.get(args[i], args[i]) for i in keep]
                      + [pi[e] for e in extras])
    # Non-pattern arguments: keep the subterm when everything in it is
    # already expressible, raising and lowering the head if needed;
    # otherwise give up on this equation for now (a _Residual escapes
    # from the argument copy).
    copied = [_copy(a, k, pi, level, False, extra) for a in args]
    if m.level > level:
        extras = _raise_over(m, pi, set())
        m2, extra[m] = _rebuild(m, 0, [], extras, level)
        return mk_app(mk_app(m2, [pi[e] for e in extras]), copied)
    return mk_app(m, copied)


def _flex_flex(sigma: Subst, k: LVar, kargs: list[Term], m: LVar,
               margs: list[Term], t: Term, u: Term, residuals: list) -> Subst:
    if not (_is_pattern(k, kargs) and _is_pattern(m, margs)):
        residuals.append(Eq(t, u))
        return sigma
    if k != m:
        return _flex_rigid(sigma, k, kargs, u, t, residuals)
    # Same head: k keeps only the positions where the arguments agree.
    same = [i for i, (a, b) in enumerate(zip(kargs, margs)) if a == b]
    _, binding = _rebuild(k, len(kargs), same, [], k.level)
    return sigma.extend(k, binding)
