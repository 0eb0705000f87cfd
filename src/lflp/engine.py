"""Goal-directed proof search for hereditary Harrop programs.

Search follows the uniform-proof discipline: ``true`` succeeds, an
implication goal moves its antecedent into the clause list (at the
end, so program order stays meaningful), a universal goal introduces a
fresh eigenvariable, and an atomic goal backchains.  Each clause is
compiled once: its universal variables become numbered slots in a
template of its head and premises.  A backchain resolves the goal's
arguments once and matches the compiled head against them, as a
Prolog machine's get instructions do: a rigid head is compared in
place, a slot takes the goal subterm it meets, and whatever the match
cannot settle (lambdas, flexible terms, a slot met twice) is deferred
to one unification call.  Slots left unfilled become fresh logic
variables; only then are the premises instantiated and proved left
to right under the extended substitution.

Each goal is proved in a universe: the level of the logic variables
its backchains create, one above the newest eigenvariable in scope.
A universal goal opens the universe above its eigenvariable; a search
starts above the eigenvariables free in its goal and no lower than its
logic variables, or at 0.  Variables of one universe share a level, so
binding one to a term built from others needs no lowered copy, and a
resolved goal mentions nothing out of its universe's scope, so a slot
may take a goal subterm as it is.

The only source of nondeterminism is clause choice, so iterative
deepening counts backchain steps.  Each round accepts only proofs
using exactly the round's bound, which keeps rounds disjoint; a round
that never hits the bound proves the search space finite and stops the
iteration early.  Equations outside the pattern fragment ride along as
residuals and are retried whenever the substitution grows; a branch
that otherwise succeeds but still carries residuals is remembered as
suspended, never reported as a solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .hterms import (
    App, Atom, BVar, Const, EVar, Formula, ForAll, Imp, Lam, LVar, Program,
    SimpleType, Term, Top, fresh_evar, fresh_lvar_at, lvars_in_order,
    subst_formula, subst_term, term_leaves, term_spine,
)
from .unify import Eq, Subst, unify


@dataclass(frozen=True)
class Limits:
    depth: int = 32          # max backchain steps per proof
    max_solutions: int = 1   # 0 means enumerate all within depth


@dataclass(frozen=True)
class Solution:
    bindings: tuple[tuple[LVar, Term], ...]
    free: tuple[LVar, ...]
    backchains: int

    def value(self, v: LVar) -> Optional[Term]:
        for k, t in self.bindings:
            if k == v:
                return t
        return None


@dataclass(frozen=True)
class SolveRun:
    status: str  # "ok" | "no" | "suspended" | "exhausted"
    solutions: tuple[Solution, ...]


class _State:
    __slots__ = ("cut", "susp")

    def __init__(self):
        self.cut = False
        self.susp = False


def solve(program: Program, goal: Formula, limits: Limits = Limits(),
          query_vars: Optional[tuple[LVar, ...]] = None) -> SolveRun:
    if query_vars is None:
        query_vars = tuple(lvars_in_order([goal]))
    clauses = [_compile(c) for c in program.clauses]
    solutions: list[Solution] = []
    seen: set[str] = set()
    susp_ever = False
    last_round_cut = False
    univ = _root_universe(goal)
    for bound in range(limits.depth + 1):
        state = _State()
        for sigma, residuals, left in _prove(goal, clauses, univ, Subst(),
                                             (), bound, state):
            if left != 0:
                continue
            if residuals:
                state.susp = True
                continue
            sol = _extract(sigma, query_vars, bound)
            key = _canon_key(sol)
            if key in seen:
                continue
            seen.add(key)
            solutions.append(sol)
            if limits.max_solutions and len(solutions) >= limits.max_solutions:
                return SolveRun("ok", tuple(solutions))
        susp_ever = susp_ever or state.susp
        last_round_cut = state.cut
        if not state.cut:
            break
    if solutions:
        return SolveRun("ok", tuple(solutions))
    if last_round_cut:
        return SolveRun("exhausted", ())
    if susp_ever:
        return SolveRun("suspended", ())
    return SolveRun("no", ())


class _Clause(NamedTuple):
    """A definite clause compiled once for backchaining.

    Its quantified variables are numbered slots: ``slots[i]`` holds the
    reserved bound name ``#i`` that stands for slot i in ``head`` (the
    head's arguments) and in ``premises``, and the name prefix and simple
    type of the logic variable the slot becomes when no goal subterm
    fills it.  No lambda binder is named ``#i``, so a slot value never
    needs renaming apart.  ``keys`` has one entry per head argument: the
    name of the argument's rigid head (a constant or an eigenvariable),
    or None when the head is a slot, a logic variable or a lambda, which
    any goal argument may match.  ``pred`` is None for a formula that is
    not a definite clause."""

    pred: Optional[str]
    keys: tuple[Optional[str], ...]
    slots: tuple[tuple[str, str, SimpleType], ...]
    head: tuple[Term, ...]
    premises: tuple[Formula, ...]


def _compile(clause: Formula) -> _Clause:
    slots: list[tuple[str, str, SimpleType]] = []
    ren: dict[str, Term] = {}
    premises: list[Formula] = []
    f = clause
    while True:
        match f:
            case ForAll(var, ty, body):
                name = f"#{len(slots)}"
                ren[var] = BVar(name, ty)
                slots.append((name, var.upper() if var else "X", ty))
                f = body
            case Imp(g, d):
                premises.append(subst_formula(g, ren))
                f = d
            case Atom(pred, args):
                head = tuple(subst_term(a, ren) for a in args)
                return _Clause(pred, tuple(_key(term_spine(a)[0])
                                           for a in head),
                               tuple(slots), head, tuple(premises))
            case _:
                return _Clause(None, (), (), (), ())


def _key(head: Term) -> Optional[str]:
    return head.name if isinstance(head, (Const, EVar)) else None


def _root_universe(goal: Formula) -> int:
    """The universe a search for `goal` starts in: one above the newest
    eigenvariable free in `goal`, so its logic variables may mention
    them all, and no lower than the level of any of its logic variables,
    so a clause variable may stand for any of its subterms; 0 when it
    has neither."""
    univ = 0
    for x in term_leaves([goal]):
        if isinstance(x, EVar):
            univ = max(univ, x.level + 1)
        elif isinstance(x, LVar):
            univ = max(univ, x.level)
    return univ


def _prove(goal: Formula, clauses: list[_Clause], univ: int, sigma: Subst,
           residuals: tuple[Eq, ...], budget: int,
           state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    # `univ` is the level of the logic variables a backchain creates:
    # they may mention exactly the eigenvariables in scope.  Resolved, a
    # goal mentions only eigenvariables below `univ` and logic variables
    # at or below it.
    match goal:
        case Top():
            yield sigma, residuals, budget
        case Imp(d, g):
            yield from _prove(g, clauses + [_compile(d)], univ, sigma,
                              residuals, budget, state)
        case ForAll(var, ty, body):
            e = fresh_evar(var, ty)
            yield from _prove(subst_formula(body, {var: e}), clauses,
                              e.level + 1, sigma, residuals, budget, state)
        case Atom() as atom:
            yield from _backchain(atom, clauses, univ, sigma, residuals,
                                  budget, state)
        case _:
            raise TypeError(f"not a goal formula: {goal!r}")


def _match(t: Term, g: Term, inst: dict[str, Term],
           defer: list[tuple[Term, Term]]) -> bool:
    """Match the template `t` against the resolved goal term `g`.

    An unfilled slot takes `g` itself when `g` is neither a lambda nor a
    flexible application, which is the binding unification would make.
    Rigid heads are compared and their arguments matched in turn; False
    means they differ, so the clause cannot apply.  Every other pair is
    left to unification: it goes on `defer` as (goal side, template)."""
    if isinstance(t, BVar):
        if t.name not in inst and not isinstance(g, Lam):
            h = g
            while isinstance(h, App):
                h = h.fn
            if h is g or not isinstance(h, LVar):
                inst[t.name] = g
                return True
        defer.append((g, t))
        return True
    th, targs = term_spine(t)
    if isinstance(th, (Const, EVar)):
        gh, gargs = term_spine(g)
        if isinstance(gh, (Const, EVar)):
            return (gh == th and len(gargs) == len(targs)
                    and all(_match(a, b, inst, defer)
                            for a, b in zip(targs, gargs)))
    defer.append((g, t))
    return True


def _backchain(atom: Atom, clauses: list[_Clause], univ: int, sigma: Subst,
               residuals: tuple[Eq, ...], budget: int,
               state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    # The goal's arguments are resolved once and matched against each
    # candidate's compiled head; a clause is skipped outright when an
    # index key already differs.  Slots the match leaves unfilled become
    # fresh logic variables, the deferred pairs go to one unification
    # with the residuals, and premises are instantiated last.  Out of
    # budget, the loop only finds out whether some clause could still
    # engage, so exhaustion is distinguishable from finite failure.
    args = [sigma.apply(a) for a in atom.args]
    keys = [_key(term_spine(a)[0]) for a in args]
    for clause in clauses:
        if clause.pred != atom.pred or len(clause.keys) != len(args):
            continue
        if any(k is not None and g is not None and k != g
               for k, g in zip(clause.keys, keys)):
            continue
        inst: dict[str, Term] = {}
        defer: list[tuple[Term, Term]] = []
        if not all(_match(t, a, inst, defer)
                   for t, a in zip(clause.head, args)):
            continue
        for name, prefix, ty in clause.slots:
            if name not in inst:
                inst[name] = fresh_lvar_at(prefix, ty, univ)
        sigma2, residuals2 = sigma, residuals
        if defer or residuals:
            res = unify([Eq(g, subst_term(t, inst)) for g, t in defer]
                        + list(residuals), sigma)
            if res.status == "fail":
                continue
            sigma2, residuals2 = res.subst, res.residuals
        if budget <= 0:
            state.cut = True
            return
        yield from _conj([subst_formula(p, inst) for p in clause.premises],
                         clauses, univ, sigma2, residuals2, budget - 1, state)


def _conj(goals: list[Formula], clauses: list[_Clause], univ: int,
          sigma: Subst, residuals: tuple[Eq, ...], budget: int,
          state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    if not goals:
        yield sigma, residuals, budget
        return
    for sigma2, residuals2, left in _prove(goals[0], clauses, univ, sigma,
                                           residuals, budget, state):
        yield from _conj(goals[1:], clauses, univ, sigma2, residuals2, left,
                         state)


def _extract(sigma: Subst, query_vars: tuple[LVar, ...],
             backchains: int) -> Solution:
    bindings = tuple((v, sigma.apply(v)) for v in query_vars)
    free = tuple(lvars_in_order(t for _, t in bindings))
    return Solution(bindings, free, backchains)


def _canon_key(sol: Solution) -> str:
    lnames: dict[str, int] = {}
    parts = []

    def render(t: Term, env: tuple[str, ...]) -> str:
        match t:
            case Const(name, _):
                return name
            case EVar(name, _, _):
                return f"!{name}"
            case LVar(name, _, _):
                if name not in lnames:
                    lnames[name] = len(lnames)
                return f"?{lnames[name]}"
            case BVar(name, _):
                for i in range(len(env) - 1, -1, -1):
                    if env[i] == name:
                        return f"#{len(env) - 1 - i}"
                return f"#?{name}"
            case Lam(var, _, body):
                return f"(\\ {render(body, env + (var,))})"
            case App():
                head, args = term_spine(t)
                inner = " ".join(render(x, env) for x in [head] + args)
                return f"({inner})"
        raise TypeError

    for v, t in sol.bindings:
        parts.append(f"{v.name}={render(t, ())}")
    return ";".join(parts)
