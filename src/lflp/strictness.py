"""Strict occurrence analysis for Pi-bound variables of LF classifiers.

A binder occurs strictly when every instance of the target type pins down
a well-typed instantiation for it: the occurrence sits on a rigid path and
is applied only to distinct locally bound variables.  Such binders need no
inhabitation premise in the translated clause.

Three judgments, mirrored by the code below:

* object level (``strict_in_object``): the tracked variable applied to
  distinct local variables (INIT_o); a rigid head with some strict
  argument (APP_o); descent under abstraction extends the local set
  (ABS_o).  A head drawn from the candidate binders, including the
  tracked variable itself, blocks APP_o: substitution could erase or
  rearrange anything beneath it.
* type level (``_Solver.why_type``): some argument of the constant-headed
  target strict (APP_t, with an empty local set); descent under Pi
  accumulates candidates (PI_t); and the transitive case (CTX_t): x is
  strict when some candidate y is strict in the target and x is strict
  in y's type, judged in the prefix preceding y.
* whole classifiers (``explain_strictness``, whose verdicts
  ``strict_binders`` reads): binder i is strict in ``{x1:A1}...{xn:An} B``
  iff it is strict in the type with its own binder removed, starting from
  no candidates.  The binders are renamed apart first, so removing one
  never hands its occurrences to another binder of the same name.

CTX_t is a relation, not an algorithm.  After PI_t a judgment is a
problem, the candidate prefix with its base type, plus the name asked
about.  Checking x against a pivot's type is a strictly smaller problem:
it drops the base and the candidates after the pivot.  So problems never
depend on each other in a cycle; only the candidates of one problem do,
through CTX_t.  Their strict set is a least fixpoint, seeded by APP_t and
grown by CTX_t, solved once per problem and memoized.  An explanation is
the minimal derivation that takes, at each CTX_t step, the first pivot in
prefix order that is still derivable without the judgments already on
the chain (a minimal derivation never repeats one).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .lf_kernel import substitute
from .lf_syntax import (
    Fam, FConst, FPi, Obj, OLam, OVar, fam_spine, free_vars, fresh_name,
    obj_spine, split_fam_pis,
)

_Gamma = tuple[tuple[str, Fam], ...]


def strict_in_object(candidates: Iterable[str], delta: Iterable[str],
                     x: str, m: Obj) -> bool:
    """True iff x occurs strictly in the beta-normal object `m`."""
    return _why_obj(frozenset(candidates), frozenset(delta), x, m) is not None


def strict_binders(a: Fam) -> frozenset[int]:
    """Indices of the Pi binders of `a` that occur strictly."""
    return frozenset(i for i, (_, strict, _) in enumerate(explain_strictness(a))
                     if strict)


def explain_strictness(a: Fam) -> list[tuple[str, bool, str]]:
    """Per binder: (name, strict?, justifying rule chain or reason)."""
    names = [name for name, _ in split_fam_pis(a)[0]]
    binders, base = _peel((), set(), a)
    solver = _Solver()
    report = []
    for i, name in enumerate(names):
        why = solver.why_type((), binders[i][0], _remove_binder(binders, base, i))
        if why is None:
            report.append((name, False, "no strict occurrence"))
        else:
            report.append((name, True, why))
    return report


def _peel(gamma: _Gamma, taken: set[str], a: Fam) -> tuple[_Gamma, Fam]:
    """Move the Pi binders of `a` onto gamma, renaming any already taken."""
    taken = set(taken)
    while isinstance(a, FPi):
        var, body = a.var, a.body
        if var in taken:
            var = fresh_name(var, taken | free_vars(body))
            body = substitute(body, {a.var: OVar(var)})
        gamma = gamma + ((var, a.dom),)
        taken.add(var)
        a = body
    return gamma, a


def _remove_binder(binders: _Gamma, base: Fam, i: int) -> Fam:
    rest: Fam = base
    for j in range(len(binders) - 1, -1, -1):
        if j != i:
            rest = FPi(binders[j][0], binders[j][1], rest)
    return rest


# ---------------------------------------------------------------------------
# Derivations; each rule returns its chain or None

def _why_obj(candidates: frozenset[str], delta: frozenset[str],
             x: str, m: Obj) -> Optional[str]:
    if isinstance(m, OLam):
        var, body = m.var, m.body
        if var in candidates or var == x:
            var = fresh_name(var, candidates | delta | {x} | free_vars(body))
            body = substitute(body, {m.var: OVar(var)})
        inner = _why_obj(candidates, delta | {var}, x, body)
        return None if inner is None else f"ABS_o; {inner}"
    head, args = obj_spine(m)
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


class _Solver:
    """The problems of one classifier, each solved once."""

    def __init__(self):
        self.problems: dict[tuple[_Gamma, Fam], _Problem] = {}

    def why_type(self, gamma: _Gamma, x: str, a: Fam) -> Optional[str]:
        """x strict in the type `a` under the candidates gamma (PI_t)."""
        inner, base = _peel(gamma, {n for n, _ in gamma} | {x}, a)
        problem = self.problems.get((inner, base))
        if problem is None:
            problem = self.problems[inner, base] = _Problem(self, inner, base)
        why = problem.explain(x, frozenset())
        steps = len(inner) - len(gamma)
        if why is None or not steps:
            return why
        return f"PI_t^{steps}; {why}"


class _Problem:
    """A candidate prefix and a base type: which names are strict in it."""

    def __init__(self, solver: _Solver, gamma: _Gamma, base: Fam):
        self.solver = solver
        self.gamma = gamma
        self.base = base
        self.names = frozenset(n for n, _ in gamma)
        self._app: dict[str, Optional[str]] = {}
        self._through: dict[tuple[int, str], Optional[str]] = {}
        self._strict: dict[frozenset[str], frozenset[str]] = {}

    def app(self, x: str) -> Optional[str]:
        """APP_t: x strict in an argument of the constant-headed base."""
        if x not in self._app:
            self._app[x] = None
            head, args = fam_spine(self.base)
            if isinstance(head, FConst):
                for i, arg in enumerate(args):
                    inner = _why_obj(self.names | {x}, frozenset(), x, arg)
                    if inner is not None:
                        self._app[x] = f"APP_t(arg {i + 1}); {inner}"
                        break
        return self._app[x]

    def through(self, j: int, x: str) -> Optional[str]:
        """x strict in the type of candidate j, judged in the prefix before it."""
        if (j, x) not in self._through:
            self._through[j, x] = self.solver.why_type(
                self.gamma[:j], x, self.gamma[j][1])
        return self._through[j, x]

    def strict(self, avoid: frozenset[str]) -> frozenset[str]:
        """The least set of candidates outside `avoid` closed under APP_t
        and CTX_t."""
        found = self._strict.get(avoid)
        if found is not None:
            return found
        work = [j for j, (y, _) in enumerate(self.gamma)
                 if y not in avoid and self.app(y) is not None]
        seen = {self.gamma[j][0] for j in work}
        while work:
            pivot = work.pop()
            for j, (y, _) in enumerate(self.gamma):
                if (y not in seen and y not in avoid
                        and self.through(pivot, y) is not None):
                    seen.add(y)
                    work.append(j)
        found = self._strict[avoid] = frozenset(seen)
        return found

    def explain(self, x: str, avoid: frozenset[str]) -> Optional[str]:
        """Rule chain for x, using no pivot in `avoid`; None if x is not strict."""
        why = self.app(x)
        if why is not None:
            return why
        avoid = avoid | {x}
        live = self.strict(avoid)
        for j, (pivot, _) in enumerate(self.gamma):
            if pivot not in live:
                continue
            through = self.through(j, x)
            if through is not None:
                return (f"CTX_t(pivot {pivot}) "
                        f"{{{pivot} in target: {self.explain(pivot, avoid)}}} "
                        f"{{{x} in type of {pivot}: {through}}}")
        return None
