"""Strict occurrence analysis for Pi-bound variables of LF classifiers.

A binder occurs strictly when every instance of the target type pins down
a well-typed instantiation for it: the occurrence sits on a rigid path and
is applied only to distinct locally bound variables.  Such binders need no
inhabitation premise in the translated clause.

Three judgments, mirrored by the code below:

* object level (``_why_obj``): the tracked variable applied to
  distinct local variables (INIT_o); a rigid head with some strict
  argument (APP_o); descent under abstraction extends the local set
  (ABS_o).  A head drawn from the candidate binders, including the
  tracked variable itself, blocks APP_o: substitution could erase or
  rearrange anything beneath it.
* type level (``_chains``): after descent under Pi (PI_t) a judgment is a
  problem, the candidate binders with the base type.  Binder x is strict
  when it is strict in some argument of the constant-headed base (APP_t,
  with an empty local set), or transitively (CTX_t): some candidate y is
  strict in the base and x is strict in y's type, judged in the prefix
  preceding y.  Every binder of the problem, x included, stays a
  candidate in every judgment.
* whole classifiers (``explain_strictness``, whose verdicts
  ``strict_binders`` reads): binder i is strict in ``{x1:A1}...{xn:An} B``
  iff it is strict in the problem of all n binders with base B.

``_peel`` renames each binder apart (by ``lf_kernel.rename_apart``) from
the names bound before it and the names free in their types or its own,
so a binder's type mentions only earlier binders and never captures a
free name.  A CTX_t pivot therefore always follows the binder it
justifies, and one pass from the last binder to the first decides each
binder once: its APP_t chain if it has one, else the first later strict
pivot in prefix order whose type it is strict in.  Each problem is
solved once per classifier and memoized.
"""

from __future__ import annotations

from typing import Optional

from .lf_kernel import rename_apart, substitute
from .lf_syntax import (
    Fam, FConst, FPi, Obj, OLam, OVar, free_vars, fresh_name, spine,
    split_fam_pis,
)

_Gamma = tuple[tuple[str, Fam], ...]
_Memo = dict[tuple[_Gamma, Fam], tuple[Optional[str], ...]]


def strict_binders(a: Fam) -> frozenset[int]:
    """Indices of the Pi binders of `a` that occur strictly."""
    return frozenset(i for i, (_, strict, _) in enumerate(explain_strictness(a))
                     if strict)


def explain_strictness(a: Fam) -> list[tuple[str, bool, str]]:
    """Per binder: (name, strict?, justifying rule chain or reason)."""
    names = [name for name, _ in split_fam_pis(a)[0]]
    pi = f"PI_t^{len(names) - 1}; " if len(names) > 1 else ""
    return [(name, False, "no strict occurrence") if why is None
            else (name, True, pi + why)
            for name, why in zip(names, _chains((), a, {}))]


def _peel(gamma: _Gamma, a: Fam) -> tuple[_Gamma, Fam]:
    """Move the Pi binders of `a` onto gamma, renaming any whose name is
    bound in gamma or free in a type of gamma or in `a`."""
    if not isinstance(a, FPi):
        return gamma, a
    taken = {n for n, _ in gamma}.union(free_vars(a),
                                        *(free_vars(b) for _, b in gamma))
    while isinstance(a, FPi):
        dom = a.dom
        var, a = rename_apart(a.var, a.body, taken)
        gamma = gamma + ((var, dom),)
        taken.add(var)
    return gamma, a


# ---------------------------------------------------------------------------
# Derivations; each rule returns its chain or None

def _why_obj(candidates: frozenset[str], delta: frozenset[str],
             x: str, m: Obj) -> Optional[str]:
    if isinstance(m, OLam):
        var, body = m.var, m.body
        # renamed here, not by rename_apart, whose avoid set would be
        # built for every lambda rather than only on a clash
        if var in candidates or var == x:
            var = fresh_name(var, candidates | delta | {x} | free_vars(body))
            body = substitute(body, {m.var: OVar(var)})
        inner = _why_obj(candidates, delta | {var}, x, body)
        return None if inner is None else f"ABS_o; {inner}"
    head, args = spine(m)
    if isinstance(head, OVar) and head.name == x:
        names = [a.name for a in args if isinstance(a, OVar)]
        if (len(names) == len(args) and len(set(names)) == len(names)
                and all(n in delta for n in names)):
            return "INIT_o"
        return None
    if isinstance(head, OVar) and head.name in candidates:
        return None
    for i, arg in enumerate(args):
        inner = _why_obj(candidates, delta, x, arg)
        if inner is not None:
            return f"APP_o(arg {i + 1}); {inner}"
    return None


def _chains(prefix: _Gamma, a: Fam, memo: _Memo) -> tuple[Optional[str], ...]:
    """Per binder of the problem `_peel(prefix, a)`, its chain or None;
    `memo` holds the problems of the binder types already solved."""
    gamma, base = _peel(prefix, a)
    names = frozenset(n for n, _ in gamma)
    head, args = spine(base)
    if not isinstance(head, FConst):
        args = []
    chains: list[Optional[str]] = [None] * len(gamma)
    for j in reversed(range(len(gamma))):
        x = gamma[j][0]
        for i, arg in enumerate(args):
            inner = _why_obj(names, frozenset(), x, arg)
            if inner is not None:
                chains[j] = f"APP_t(arg {i + 1}); {inner}"
                break
        if chains[j] is not None:
            continue
        for k in range(j + 1, len(gamma)):
            if chains[k] is None:
                continue
            pivot, dom = gamma[k]
            in_dom = memo.get((gamma[:k], dom))
            if in_dom is None:
                in_dom = memo[gamma[:k], dom] = _chains(gamma[:k], dom, memo)
            through = in_dom[j]
            if through is not None:
                if len(in_dom) > k:
                    through = f"PI_t^{len(in_dom) - k}; {through}"
                chains[j] = (f"CTX_t(pivot {pivot}) "
                             f"{{{pivot} in target: {chains[k]}}} "
                             f"{{{x} in type of {pivot}: {through}}}")
                break
    return tuple(chains)
