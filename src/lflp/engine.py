"""Goal-directed proof search for hereditary Harrop programs.

Search follows the uniform-proof discipline: ``true`` succeeds, an
implication goal adds its antecedent to the clauses (after those of
its predicate, so program order stays meaningful), a universal goal
introduces a fresh eigenvariable, and an atomic goal backchains.  Each
clause is compiled once: its universal variables become numbered slots
in a template of its head and premises.  The compiled clauses form a
database keyed by predicate and arity and, within that, by the rigid
head of the last argument (for ``hastype M A``, the type family of A),
so a backchain visits only the clauses whose last key agrees with the
goal's, in program order.

A backchain resolves the goal's arguments once and matches each
candidate's compiled head against them, as a Prolog machine's get
instructions do.  In read mode a rigid head is compared in place, a
slot takes the goal subterm it meets, and a slot met again accepts a
goal subterm equal to its first value.  In write mode an unbound goal
variable meets a rigid template or a filled slot and is bound to the
instance of that template once the slots are filled, without
unification.  Write mode applies only where the binding is the one
unification would make with no occurs check or scope check to do: the
variable is unapplied, lives at the universe's level and occurs once
in the goal, and the clause's head mentions no logic variable.  What
the match cannot settle (lambdas, flexible terms, a slot met twice
with different subterms, a goal variable that may not be written) is
deferred to one unification call.  Slots left unfilled become fresh logic variables;
only then are the premises instantiated and proved left to right
under the extended substitution.

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
from typing import Iterable, Iterator, NamedTuple, Optional

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
    db = _database(_compile(c) for c in program.clauses)
    solutions: list[Solution] = []
    seen: set[str] = set()
    susp_ever = False
    last_round_cut = False
    univ = _root_universe(goal)
    for bound in range(limits.depth + 1):
        state = _State()
        for sigma, residuals, left in _prove(goal, db, univ, Subst(),
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
    templates of the head's arguments) and in ``premises``, and the name
    prefix and simple type of the logic variable the slot becomes when
    no goal subterm fills it.  No lambda binder is named ``#i``, so a
    slot value never needs renaming apart.  ``keys`` has one entry per
    head argument: the name of the argument's rigid head (a constant or
    an eigenvariable), or None when the head is a slot, a logic variable
    or a lambda, which any goal argument may match; the last one files
    the clause in the database.  ``pred`` is None for a formula that is
    not a definite clause.  ``writable`` says that the head mentions no
    logic variable (every program clause, and a hypothesis built from
    eigenvariables alone): an instance of its subterms then mentions
    only goal subterms and fresh variables, so a goal variable that
    occurs once may be bound to one directly, in write mode."""

    pred: Optional[str]
    keys: tuple[Optional[str], ...]
    slots: tuple[tuple[str, str, SimpleType], ...]
    head: tuple["_Template", ...]
    premises: tuple[Formula, ...]
    writable: bool


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
                head = tuple(_template(subst_term(a, ren)) for a in args)
                return _Clause(pred, tuple(_key(t.head) for t in head),
                               tuple(slots), head, tuple(premises),
                               not any(isinstance(x, LVar) for x in
                                       term_leaves(t.term for t in head)))
            case _:
                return _Clause(None, (), (), (), (), False)


class _Template(NamedTuple):
    """A head argument of a compiled clause, split once into its head
    and argument templates.  ``head`` is the rigid head (a constant or an
    eigenvariable), or None for a slot, a lambda or a flexible term;
    ``args`` are then empty.  ``term`` is the template itself, which a
    write or a deferred pair instantiates."""

    term: Term
    head: Optional[Term]
    args: tuple["_Template", ...]


def _template(t: Term) -> _Template:
    h, args = term_spine(t)
    if isinstance(h, (Const, EVar)):
        return _Template(t, h, tuple(_template(a) for a in args))
    return _Template(t, None, ())


def _key(head: Term) -> Optional[str]:
    return head.name if isinstance(head, (Const, EVar)) else None


class _Entry(NamedTuple):
    """The clauses of one predicate and arity, each list in program
    order: all of them, those whose last head argument has no key, and
    for each key the clauses whose last key is that one or None."""

    every: tuple[_Clause, ...]
    unkeyed: tuple[_Clause, ...]
    by_key: dict[str, tuple[_Clause, ...]]


_Database = dict[tuple[str, int], _Entry]


def _database(clauses: Iterable[_Clause]) -> _Database:
    db: _Database = {}
    for c in clauses:
        db = _assume(db, c)
    return db


def _assume(db: _Database, clause: _Clause) -> _Database:
    """`db` with `clause` after every clause of its predicate: appended to
    each list of the entry that a goal it may match reads."""
    if clause.pred is None:
        return db
    k = (clause.pred, len(clause.keys))
    old = db.get(k, _Entry((), (), {}))
    key = clause.keys[-1] if clause.keys else None
    if key is None:
        entry = _Entry(old.every + (clause,), old.unkeyed + (clause,),
                       {g: cs + (clause,) for g, cs in old.by_key.items()})
    else:
        entry = _Entry(old.every + (clause,), old.unkeyed,
                       {**old.by_key,
                        key: old.by_key.get(key, old.unkeyed) + (clause,)})
    return {**db, k: entry}


def _candidates(db: _Database, pred: str,
                keys: list[Optional[str]]) -> tuple[_Clause, ...]:
    """The clauses a goal with these argument keys may backchain on."""
    entry = db.get((pred, len(keys)))
    if entry is None:
        return ()
    if not keys or keys[-1] is None:
        return entry.every
    return entry.by_key.get(keys[-1], entry.unkeyed)


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


def _prove(goal: Formula, db: _Database, univ: int, sigma: Subst,
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
            yield from _prove(g, _assume(db, _compile(d)), univ, sigma,
                              residuals, budget, state)
        case ForAll(var, ty, body):
            e = fresh_evar(var, ty)
            yield from _prove(subst_formula(body, {var: e}), db,
                              e.level + 1, sigma, residuals, budget, state)
        case Atom() as atom:
            yield from _backchain(atom, db, univ, sigma, residuals,
                                  budget, state)
        case _:
            raise TypeError(f"not a goal formula: {goal!r}")


def _match(t: _Template, g: Term, inst: dict[str, Term],
           defer: list[tuple[Term, Term]], writes: list[tuple[LVar, Term]],
           once: frozenset[str]) -> bool:
    """Match the template `t` against the resolved goal term `g`.

    An unfilled slot takes `g` itself when `g` is neither a lambda nor a
    flexible application, which is the binding unification would make;
    a filled slot accepts a `g` equal to its value.  Rigid heads are
    compared and their arguments matched in turn; False means they
    differ, so the clause cannot apply.  A logic variable named in
    `once` that meets a rigid template or a filled slot is a write: it
    goes on `writes` as (variable, template).  Every other pair is left
    to unification: it goes on `defer` as (goal side, template)."""
    term, th, targs = t
    if isinstance(term, BVar):
        prev = inst.get(term.name)
        if prev is None:
            if not isinstance(g, Lam):
                h = g
                while isinstance(h, App):
                    h = h.fn
                if h is g or not isinstance(h, LVar):
                    inst[term.name] = g
                    return True
        elif prev is g or prev == g:
            return True
        elif isinstance(g, LVar) and g.name in once:
            writes.append((g, term))
            return True
        defer.append((g, term))
        return True
    if th is not None:
        if isinstance(g, LVar) and g.name in once:
            writes.append((g, term))
            return True
        gh, gargs = term_spine(g)
        if isinstance(gh, (Const, EVar)):
            return (gh == th and len(gargs) == len(targs)
                    and all(_match(a, b, inst, defer, writes, once)
                            for a, b in zip(targs, gargs)))
    defer.append((g, term))
    return True


def _writable_vars(args: list[Term], univ: int) -> frozenset[str]:
    """The names of the logic variables at level `univ` that occur
    exactly once in the resolved goal arguments `args`.  Bound to an
    instance of a clause head that mentions no logic variable, such a
    variable needs no occurs check (it lies in no slot value and no
    other write) and no lowering (fresh variables live at `univ` too)."""
    seen: set[str] = set()
    again: set[str] = set()
    stack = list(args)
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack += (t.fn, t.arg)
        elif isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, LVar) and t.level == univ:
            (again if t.name in seen else seen).add(t.name)
    return frozenset(seen - again)


def _backchain(atom: Atom, db: _Database, univ: int, sigma: Subst,
               residuals: tuple[Eq, ...], budget: int,
               state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    # The goal's arguments are resolved once.  The database hands over
    # the clauses filed under the goal's last key; a clause is skipped
    # outright when another index key differs, and otherwise its
    # compiled head is matched against the goal.  Slots the match
    # leaves unfilled become fresh logic variables, each write extends
    # the substitution, the deferred pairs go to one unification with
    # the residuals, and premises are instantiated last.  Out of budget,
    # the loop only finds out whether some clause could still engage, so
    # exhaustion is distinguishable from finite failure.
    args = [sigma.apply(a) for a in atom.args]
    keys = [_key(term_spine(a)[0]) for a in args]
    candidates = _candidates(db, atom.pred, keys)
    once = _writable_vars(args, univ) if candidates else frozenset()
    for clause in candidates:
        if any(k is not None and g is not None and k != g
               for k, g in zip(clause.keys, keys)):
            continue
        inst: dict[str, Term] = {}
        defer: list[tuple[Term, Term]] = []
        writes: list[tuple[LVar, Term]] = []
        allowed = once if clause.writable else frozenset()
        if not all(_match(t, a, inst, defer, writes, allowed)
                   for t, a in zip(clause.head, args)):
            continue
        for name, prefix, ty in clause.slots:
            if name not in inst:
                inst[name] = fresh_lvar_at(prefix, ty, univ)
        sigma2, residuals2 = sigma, residuals
        for v, t in writes:
            sigma2 = sigma2.extend(v, subst_term(t, inst))
        if defer or residuals:
            res = unify([Eq(g, subst_term(t, inst)) for g, t in defer]
                        + list(residuals), sigma2)
            if res.status == "fail":
                continue
            sigma2, residuals2 = res.subst, res.residuals
        if budget <= 0:
            state.cut = True
            return
        yield from _conj([subst_formula(p, inst) for p in clause.premises],
                         db, univ, sigma2, residuals2, budget - 1, state)


def _conj(goals: list[Formula], db: _Database, univ: int,
          sigma: Subst, residuals: tuple[Eq, ...], budget: int,
          state: _State) -> Iterator[tuple[Subst, tuple[Eq, ...], int]]:
    if not goals:
        yield sigma, residuals, budget
        return
    for sigma2, residuals2, left in _prove(goals[0], db, univ, sigma,
                                           residuals, budget, state):
        yield from _conj(goals[1:], db, univ, sigma2, residuals2, left,
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
