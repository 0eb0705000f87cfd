"""Goal-directed proof search for hereditary Harrop programs.

Search follows the uniform-proof discipline: ``true`` succeeds, an
implication goal adds its antecedent to the clauses (after those of
its predicate, so program order stays meaningful), a universal goal
introduces a fresh eigenvariable, and an atomic goal backchains.  Each
clause is compiled once, in one walk: its binders are the slots its
head's templates read by index, and its premises are kept as they are.
The compiled clauses form a database keyed by predicate and arity and,
within that, by the rigid head of the last argument (for ``hastype M
A``, the type family of A), so a backchain visits only the clauses
whose last key agrees with the goal's, in program order.

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
using exactly the round's bound, which keeps rounds disjoint, so each
proof is reported once, in the round of its size; a round that never
hits the bound proves the search space finite and stops the iteration
early.  Equations outside the pattern fragment ride along as
residuals and are retried whenever the substitution grows; a branch
that otherwise succeeds but still carries residuals is remembered as
suspended, never reported as a solution.

A round does not start again from the root.  Round B stops a path on
an atom it has no budget left to backchain on, once it has found the
first clause that engages there; the stopped paths, in search order,
are its frontier.  Each one is saved whole: the goal continuation
(every goal with its own database and universe), the substitution,
the residuals and that first step.  While a frontier holds at most
``_LEVEL_CAP`` states it is kept as level B, and round B + 1 takes its
states in order, each with its saved step and then the clauses after
it.  In general a round with bound B is a depth-first search with
budget B - C from each state of the last level kept, C (the root is
level 0).  Every path that takes more than C backchains passes through
exactly one of those states, and depth-first search visits them in the
order they were saved, so the round finds the same proofs in the same
order as a search from the root; a proof of a deterministic goal d
backchains deep costs about d backchains instead of d^2 / 2.  A larger
frontier is dropped, which bounds memory, and later rounds search from
the older level until a frontier fits again.  Within a round, the
continuation is a linked list and the open choice points sit on an
explicit stack, so no derivation depth reaches Python's recursion
limit.  A saved path resumes in a later round, after other paths have
made eigenvariables of their own, but the eigenvariables of one path
are still made in the order the path introduces them, so their levels
keep the scope order the universes rely on.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional

from .hterms import (
    App, Atom, BVar, Const, EVar, Formula, ForAll, Imp, Lam, LVar, Program,
    SimpleType, Term, Top, fresh_evar, fresh_lvar_at, subst_formula,
    subst_term, term_leaves, term_spine,
)
from .unify import Eq, Subst, unify


class Limits(NamedTuple):
    depth: int = 32          # max backchain steps per proof
    max_solutions: int = 1   # 0 means enumerate all within depth


class Solution(NamedTuple):
    bindings: tuple[tuple[LVar, Term], ...]
    backchains: int

    def value(self, v: LVar) -> Optional[Term]:
        return next((t for k, t in self.bindings if k == v), None)


class SolveRun(NamedTuple):
    status: str  # "ok" | "no" | "suspended" | "exhausted"
    solutions: tuple[Solution, ...]


# The most states a saved level holds.  A round whose frontier is larger
# keeps none of it, and later rounds resume from the last level saved.
_LEVEL_CAP = 4096


def solve(program: Program, goal: Formula, limits: Limits,
          query_vars: tuple[LVar, ...]) -> SolveRun:
    """Search for proofs of `goal` from `program`, fewest backchains
    first, and report the values of `query_vars` in each.

    A solution is a proof, as in lambdaProlog: two proofs give two
    solutions even when their values agree, so a program that states a
    clause twice proves its head twice.  On a translated LF program the
    values never repeat, because the subject M of ``hastype M A`` records
    the proof.  Every atom a proof meets is ``hastype N B`` with N an
    instance of a subterm of M, and a backchain on the clause of a
    constant puts that constant at the head of N; a backchain on a
    hypothesis puts its eigenvariable there, and each hypothesis has its
    own.  So two proofs
    that part at one atom give M different heads at one position.  Each
    proof is found once: a round takes only proofs of exactly its bound,
    and a round resumed from a saved level finds the same proofs as a
    search from the root."""
    db = _database(_compile(c) for c in program.clauses)
    root: _Goals = (goal, db, _root_universe(goal), None)
    solutions: list[Solution] = []
    susp_ever = False
    cut = False
    level: Optional[list[_Saved]] = None  # None: search from the root
    base = 0
    for bound in range(limits.depth + 1):
        rnd = _Round()
        starts = ([(iter((_START,)), db, 0, root, bound)] if level is None
                  else (_resume(s, bound - base) for s in level))
        for start in starts:
            for sigma, residuals in _search(start, rnd):
                if residuals:
                    rnd.susp = True
                    continue
                solutions.append(_extract(sigma, query_vars, bound))
                if (limits.max_solutions
                        and len(solutions) >= limits.max_solutions):
                    return SolveRun("ok", tuple(solutions))
        susp_ever = susp_ever or rnd.susp
        cut = rnd.cut
        if not cut:
            break
        if rnd.frontier is not None:
            level, base = rnd.frontier, bound
    if solutions:
        return SolveRun("ok", tuple(solutions))
    if cut:
        return SolveRun("exhausted", ())
    if susp_ever:
        return SolveRun("suspended", ())
    return SolveRun("no", ())


class _Clause(NamedTuple):
    """A definite clause compiled once for backchaining.

    Its quantified variables are slots, numbered as the head's indices
    number them, 0 the innermost binder; a backchain fills a list
    ``inst`` of their values, which ``head`` (the templates of the
    head's arguments) reads by index.  ``slots`` holds, outermost binder
    first, each slot's number and the name prefix and simple type of the
    logic variable it becomes when no goal subterm fills it.
    ``premises`` pairs each of the clause's own subformulas with the
    number of the outermost slot not above it: one under k of the n
    binders reads ``inst[n - k:]``.  ``key`` files the clause in the
    database: the name of the rigid head (a constant or an
    eigenvariable) of its last head argument, or None when that head is
    a slot, a logic variable or a lambda, which any goal argument may
    match, or when the head has no argument.  ``pred`` is None for a
    formula that is not a definite clause.  ``writable`` says that the
    head mentions no logic variable (every program clause, and a
    hypothesis built from eigenvariables alone): an instance of its
    subterms then mentions only goal subterms and fresh variables, so a
    goal variable that occurs once may be bound to one directly, in
    write mode."""

    pred: Optional[str]
    key: Optional[str]
    slots: tuple[tuple[int, str, SimpleType], ...]
    head: tuple["_Template", ...]
    premises: tuple[tuple[Formula, int], ...]
    writable: bool


def _compile(clause: Formula) -> _Clause:
    binders: list[tuple[str, SimpleType]] = []
    premises: list[tuple[Formula, int]] = []
    f = clause
    while True:
        match f:
            case ForAll(var, ty, body):
                binders.append((var.upper() if var else "X", ty))
                f = body
            case Imp(g, d):
                premises.append((g, len(binders)))
                f = d
            case Atom(pred, args):
                n = len(binders)
                head = tuple(_template(a) for a in args)
                slots = tuple((n - 1 - j, prefix, ty)
                              for j, (prefix, ty) in enumerate(binders))
                return _Clause(pred, _key(head[-1].head) if head else None,
                               slots, head,
                               tuple((g, n - k) for g, k in premises),
                               not any(isinstance(x, LVar)
                                       for x in term_leaves(args)))
            case _:
                return _Clause(None, None, (), (), (), False)


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
    k = (clause.pred, len(clause.head))
    old = db.get(k, _Entry((), (), {}))
    key = clause.key
    if key is None:
        entry = _Entry(old.every + (clause,), old.unkeyed + (clause,),
                       {g: cs + (clause,) for g, cs in old.by_key.items()})
    else:
        entry = _Entry(old.every + (clause,), old.unkeyed,
                       {**old.by_key,
                        key: old.by_key.get(key, old.unkeyed) + (clause,)})
    return {**db, k: entry}


def _candidates(db: _Database, pred: str, arity: int,
                key: Optional[str]) -> tuple[_Clause, ...]:
    """The clauses a goal of `arity` arguments, the last of key `key`
    (None for a goal without arguments), may backchain on."""
    entry = db.get((pred, arity))
    if entry is None:
        return ()
    if key is None:
        return entry.every
    return entry.by_key.get(key, entry.unkeyed)


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


# A goal continuation: the goals left to prove, first one first, each
# with the database and universe it is proved in; None when none is left.
_Goals = Optional[tuple[Formula, _Database, int, "_Goals"]]
# One way to backchain on an atom: the clause's position among the
# atom's candidates, its premises with the slot values that instantiate
# them, and the substitution and residuals they are proved under.
_Step = tuple[int, tuple[tuple[Formula, int], ...], list[Term], Subst,
              tuple[Eq, ...]]
# An atom's pending steps, with the database, universe and continuation
# they share and the budget left once one is taken.
_Choice = tuple[Iterator[_Step], _Database, int, _Goals, int]
# A path stopped on the atom that starts its continuation, with the
# substitution and residuals there and the first step it could take.
_Saved = tuple[_Goals, Subst, tuple[Eq, ...], _Step]

# The step a search from the root starts with: no premise to prove.
_START: _Step = (0, (), [], Subst(), ())


class _Round:
    """What one deepening round has found out besides its solutions.

    ``cut`` says that some path stopped on an atom that a clause could
    still backchain on, ``susp`` that a proof was left with residuals.
    ``frontier`` holds the stopped paths in search order, or None once
    they outnumber ``_LEVEL_CAP``."""

    __slots__ = ("cut", "susp", "frontier")

    def __init__(self):
        self.cut = False
        self.susp = False
        self.frontier: Optional[list[_Saved]] = []

    def stop(self, goals: _Goals, sigma: Subst, residuals: tuple[Eq, ...],
             steps: Iterator[_Step]) -> None:
        """Note a path stopped, with no budget left, on the atom that
        starts `goals`, whose steps are `steps`.  Once the round is known
        to be cut and keeps no frontier, this costs nothing."""
        if self.frontier is None and self.cut:
            return
        step = next(steps, None)
        if step is None:
            return
        self.cut = True
        if self.frontier is not None:
            if len(self.frontier) < _LEVEL_CAP:
                self.frontier.append((goals, sigma, residuals, step))
            else:
                self.frontier = None


def _resume(saved: _Saved, budget: int) -> _Choice:
    """The choice point of a saved path with `budget` backchains left:
    the step the round that stopped it found, then the later clauses."""
    (goal, db, univ, rest), sigma, residuals, step = saved
    later = _backchain(goal, db, univ, sigma, residuals, step[0] + 1)
    return chain((step,), later), db, univ, rest, budget - 1


def _search(start: _Choice,
            rnd: _Round) -> Iterator[tuple[Subst, tuple[Eq, ...]]]:
    """The substitution and residuals of every proof that continues from
    a step of `start` and takes exactly its budget of backchains, depth
    first, clauses in program order.  A path that reaches an atom with
    no budget left is handed to `rnd`.

    The continuation is a linked list and every open choice point sits
    on `stack`, so a derivation of any depth takes no Python recursion."""
    stack = [start]
    while stack:
        steps, db, univ, goals, budget = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            continue
        _, premises, inst, sigma, residuals = step
        for p, k in reversed(premises):
            goals = (subst_formula(p, inst[k:]), db, univ, goals)
        while goals is not None:
            goal, db, univ, rest = goals
            # `univ` is the level of the logic variables a backchain
            # creates: they may mention exactly the eigenvariables in
            # scope.  Resolved, a goal mentions only eigenvariables below
            # `univ` and logic variables at or below it.
            if isinstance(goal, Atom):
                steps = _backchain(goal, db, univ, sigma, residuals, 0)
                if budget:
                    stack.append((steps, db, univ, rest, budget - 1))
                else:
                    rnd.stop(goals, sigma, residuals, steps)
                break
            if isinstance(goal, Top):
                goals = rest
            elif isinstance(goal, Imp):
                goals = (goal.right, _assume(db, _compile(goal.left)), univ,
                         rest)
            elif isinstance(goal, ForAll):
                e = fresh_evar(goal.var, goal.ty)
                goals = (subst_formula(goal.body, (e,)), db, e.level + 1,
                         rest)
            else:
                raise TypeError(f"not a goal formula: {goal!r}")
        else:
            if not budget:
                yield sigma, residuals


def _match(t: _Template, g: Term, inst: list[Optional[Term]],
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
        prev = inst[term.index]
        if prev is None:
            if not isinstance(g, Lam):
                h = g
                while isinstance(h, App):
                    h = h.fn
                if h is g or not isinstance(h, LVar):
                    inst[term.index] = g
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
               residuals: tuple[Eq, ...], start: int) -> Iterator[_Step]:
    """The steps of `atom` through its candidates from position `start`
    on, in program order."""
    # The goal's arguments are resolved once.  The database hands over
    # the clauses filed under the goal's last key, and each one's
    # compiled head is matched against the goal; the match fails at the
    # first rigid head that differs, before any fresh variable is made.
    # Slots the match leaves unfilled become fresh logic variables, each
    # write extends the substitution, and the deferred pairs go to one
    # unification with the residuals.  Premises are instantiated by the
    # caller, and only for an alternative it takes.
    args = sigma.apply_all(atom.args)
    candidates = _candidates(db, atom.pred, len(args),
                             _key(term_spine(args[-1])[0]) if args else None)
    once = _writable_vars(args, univ) if candidates else frozenset()
    for i, clause in enumerate(candidates[start:], start):
        inst: list[Optional[Term]] = [None] * len(clause.slots)
        defer: list[tuple[Term, Term]] = []
        writes: list[tuple[LVar, Term]] = []
        allowed = once if clause.writable else frozenset()
        if not all(_match(t, a, inst, defer, writes, allowed)
                   for t, a in zip(clause.head, args)):
            continue
        for j, prefix, ty in clause.slots:
            if inst[j] is None:
                inst[j] = fresh_lvar_at(prefix, ty, univ)
        sigma2, residuals2 = sigma, residuals
        for v, t in writes:
            sigma2 = sigma2.extend(v, subst_term(t, inst))
        if defer or residuals:
            res = unify([Eq(g, subst_term(t, inst)) for g, t in defer]
                        + list(residuals), sigma2)
            if res.status == "fail":
                continue
            sigma2, residuals2 = res.subst, res.residuals
        yield i, clause.premises, inst, sigma2, residuals2


def _extract(sigma: Subst, query_vars: tuple[LVar, ...],
             backchains: int) -> Solution:
    """The values of `query_vars` under `sigma`, resolved through one
    memo: each variable is resolved once, so a subterm that two values
    share, such as part of a query variable's value that is also an
    argument of the inhabitant, is one object in both, and the export
    can walk it once."""
    return Solution(tuple(zip(query_vars, sigma.apply_all(query_vars))),
                    backchains)

