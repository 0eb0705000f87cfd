"""Goal-directed proof search for hereditary Harrop programs.

Search follows the uniform-proof discipline: ``true`` succeeds, an
implication goal moves its antecedent into the clause list (at the
end, so program order stays meaningful), a universal goal introduces a
fresh eigenvariable, and an atomic goal backchains.  Backchaining
walks a clause's quantifier/implication prefix, instantiating each
universal variable with a fresh logic variable, unifies the exposed
head with the goal, then proves the collected premises left to right
under the extended substitution.

Each goal is proved in a universe: the level of the logic variables
its backchains create, one above the newest eigenvariable in scope.
A universal goal opens the universe above its eigenvariable; a search
starts above the eigenvariables free in its goal, or at 0.  Variables
of one universe share a level, so binding one to a term built from
others needs no lowered copy.

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
    Term, Top, fresh_evar, fresh_lvar_at, lvars_in_order, subst_formula,
    term_leaves, term_spine,
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
    """A clause with its head's index keys, computed once.

    ``keys`` has one entry per head argument: the name of the
    argument's rigid head (a constant or an eigenvariable), or None
    when the head is a quantified variable, a logic variable or a
    lambda, which any goal argument may match.  ``pred`` is None for a
    formula that is not a definite clause."""

    formula: Formula
    pred: Optional[str]
    keys: tuple[Optional[str], ...]


def _compile(clause: Formula) -> _Clause:
    f = clause
    while isinstance(f, (ForAll, Imp)):
        f = f.body if isinstance(f, ForAll) else f.right
    if not isinstance(f, Atom):
        return _Clause(clause, None, ())
    return _Clause(clause, f.pred, tuple(_key(term_spine(a)[0])
                                         for a in f.args))


def _key(head: Term) -> Optional[str]:
    return head.name if isinstance(head, (Const, EVar)) else None


def _root_universe(goal: Formula) -> int:
    """The universe a search for `goal` starts in: one above the newest
    eigenvariable free in `goal`, so its logic variables may mention
    them all, or 0 when there is none."""
    return 1 + max((x.level for x in term_leaves([goal])
                    if isinstance(x, EVar)), default=-1)


def _prove(goal: Formula, clauses: list[_Clause], univ: int, sigma: Subst,
           residuals: tuple[Eq, ...], budget: int,
           state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    # `univ` is the level of the logic variables a backchain creates:
    # they may mention exactly the eigenvariables in scope.
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


def _clause_parts(clause: Formula, univ: int) -> tuple[Atom, list[Formula]]:
    """Instantiate a definite clause's quantifiers with fresh logic
    variables of universe `univ`; return its head and its premises in
    order."""
    premises: list[Formula] = []
    inst: dict[str, Term] = {}
    f = clause
    while True:
        match f:
            case ForAll(var, ty, body):
                inst[var] = fresh_lvar_at(var.upper() if var else "X", ty,
                                          univ)
                f = body
            case Imp(g, d):
                premises.append(subst_formula(g, inst))
                f = d
            case _:
                return subst_formula(f, inst), premises


def _backchain(atom: Atom, clauses: list[_Clause], univ: int, sigma: Subst,
               residuals: tuple[Eq, ...], budget: int,
               state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    # A clause is instantiated only when no head argument has a rigid
    # head that differs from the goal's: any such pair fails to unify.
    # Out of budget, the loop only finds out whether some clause could
    # still engage, so exhaustion is distinguishable from finite failure.
    arity = len(atom.args)
    keys = [_key(sigma.head(a)) for a in atom.args]
    for clause in clauses:
        if clause.pred != atom.pred or len(clause.keys) != arity:
            continue
        if any(k is not None and g is not None and k != g
               for k, g in zip(clause.keys, keys)):
            continue
        head, premises = _clause_parts(clause.formula, univ)
        res = unify([Eq(a, b) for a, b in zip(atom.args, head.args)]
                    + list(residuals), sigma)
        if res.status == "fail":
            continue
        if budget <= 0:
            state.cut = True
            return
        yield from _conj(premises, clauses, univ, res.subst, res.residuals,
                         budget - 1, state)


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
