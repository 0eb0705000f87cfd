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

Bound variables are de Bruijn indices, so a binder's type mentions only
the binders before it and nothing is renamed: a CTX_t pivot always
follows the binder it justifies, and one pass from the last binder to
the first decides each binder once, by its APP_t chain or else the
first later strict pivot in prefix order whose type it is strict in.
Each problem is solved once per classifier and memoized.  The object
judgment tracks indices too: one bound below the base is local, one
bound by the problem a candidate, and one bound outside the classifier
rigid.  Only a chain's text names binders, each apart from the names
before it and the free variables around, so no name in it is ambiguous.
"""

from __future__ import annotations

from typing import Optional

from .lf_syntax import (
    Binders, Fam, FConst, Obj, OBVar, OLam, free_vars, names_apart, spine,
    split_fam_pis,
)

_Memo = dict[tuple[Binders, Fam], tuple[Optional[str], ...]]


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


# ---------------------------------------------------------------------------
# Derivations; each rule returns its chain or None

def _why_obj(x: int, local: int, top: int, m: Obj) -> Optional[str]:
    """The chain of the tracked binder, index `x` at `m`, in `m`, which
    lies under `local` lambdas below the base: an index below `local`
    is a local variable, one below `top` a candidate, and one past the
    problem's binders is rigid, as a constant is."""
    if type(m) is OLam:
        inner = _why_obj(x + 1, local + 1, top + 1, m.body)
        return None if inner is None else f"ABS_o; {inner}"
    head, args = spine(m)
    if type(head) is OBVar and head.index == x:
        indices = [a.index for a in args if type(a) is OBVar]
        if (len(indices) == len(args) and len(set(indices)) == len(indices)
                and all(i < local for i in indices)):
            return "INIT_o"
        return None
    if type(head) is OBVar and local <= head.index < top:
        return None
    for i, arg in enumerate(args):
        inner = _why_obj(x, local, top, arg)
        if inner is not None:
            return f"APP_o(arg {i + 1}); {inner}"
    return None


def _chains(prefix: Binders, a: Fam, memo: _Memo) -> tuple[Optional[str], ...]:
    """Per binder of the problem of `prefix` and `a`'s Pi binders, with
    `a`'s base, its chain or None; `memo` holds the problems of the
    binder types already solved.  A chain names `a`'s binders apart from
    the prefix's names and from the free variables of `a` and of the
    prefix's types."""
    binders, base = split_fam_pis(a)
    if binders:
        taken = {n for n, _ in prefix}.union(
            free_vars(a), *(free_vars(t) for _, t in prefix))
        names = names_apart([hint for hint, _ in binders], taken)
        binders = [(n, t) for n, (_, t) in zip(names, binders)]
    gamma = prefix + tuple(binders)
    head, args = spine(base)
    if not isinstance(head, FConst):
        args = []
    chains: list[Optional[str]] = [None] * len(gamma)
    for j in reversed(range(len(gamma))):
        x = gamma[j][0]
        for i, arg in enumerate(args):
            inner = _why_obj(len(gamma) - 1 - j, 0, len(gamma), arg)
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
