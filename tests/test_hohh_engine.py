import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lflp import cli, engine, lf_syntax as lf, unify
from lflp.engine import Limits, Solution, solve
from lflp.hterms import (
    LF_OBJ, LF_TYPE, Atom, BVar, Const, ForAll, Imp, Program, Top, arrow,
    fresh_evar, mk_app, type_of,
)
from lflp.translator import (
    reachable_signature, translate_query, translate_signature,
)

import oracles
from oracles import evars_of, fresh_lvar, lvars_in_order, validate_solution

OBJ = LF_OBJ


def _setup(sigfile, qtext, mode="optimized"):
    sig = oracles.load_signature(sigfile)
    prog = translate_signature(sig, mode=mode)
    free, fam = lf.parse_query(qtext, sig)
    qt = translate_query(sig, free, fam)
    qvars = tuple(v for _, v in qt.var_lvars) + (qt.subject,)
    return prog, qt, qvars


def _run(sigfile, qtext, depth, n=1, mode="optimized"):
    prog, qt, qvars = _setup(sigfile, qtext, mode=mode)
    run = solve(prog, qt.goal, Limits(depth=depth, max_solutions=n),
                query_vars=qvars)
    return prog, qt, run


# --- worked queries -------------------------------------------------------

def test_ground_append_query():
    prog, qt, run = _run("append.elf", "append (cons z nil) nil (cons z nil)", 8)
    assert run.status == "ok"
    sol = run.solutions[0]
    assert str(sol.value(qt.subject)) == "(appCons z nil nil nil (appNil nil))"
    assert validate_solution(prog, qt.goal, sol)


def test_append_with_output_variable():
    prog, qt, run = _run("append.elf", "append (cons (s z) nil) (cons z nil) L", 8)
    assert run.status == "ok"
    sol = run.solutions[0]
    (name, lv), = qt.var_lvars
    assert name == "L"
    assert str(sol.value(lv)) == "(cons (s z) (cons z nil))"
    expect = "(appCons (s z) nil (cons z nil) (cons z nil) (appNil (cons z nil)))"
    assert str(sol.value(qt.subject)) == expect
    assert validate_solution(prog, qt.goal, sol)


def test_finite_failure():
    _, _, run = _run("foo1.elf", "bar z", 8)
    assert run.status == "no"
    assert not run.solutions


def test_unsolvable_ground_query():
    _, _, run = _run("append.elf", "append nil nil (cons z nil)", 8)
    assert run.status == "no"


def test_depth_exhaustion_reported():
    _, _, run = _run("append.elf", "append (cons z nil) nil (cons z nil)", 1)
    assert run.status == "exhausted"
    assert not run.solutions


def test_flex_instantiation_enumerated():
    import re
    prog, qt, run = _run("fy.elf", "bar z", 4, n=0)
    assert run.status == "ok"
    subjects = {str(s.value(qt.subject)) for s in run.solutions}
    # both the constant function and the identity instantiate F at Y = z
    assert any(re.fullmatch(r"\(foo z \((\w+)\\ z\)\)", k) for k in subjects)
    assert any(re.fullmatch(r"\(foo z \((\w+)\\ \1\)\)", k) for k in subjects)
    for sol in run.solutions:
        assert validate_solution(prog, qt.goal, sol)


def test_solution_with_free_variable():
    prog, qt, run = _run("foo2.elf", "bar Y", 4)
    assert run.status == "ok"
    sol = run.solutions[0]
    assert lvars_in_order(t for _, t in sol.bindings)  # Y stayed unsolved
    (name, lv), = qt.var_lvars
    y_val = sol.value(lv)
    subj = sol.value(qt.subject)
    # the inhabitant carries the same free variable as its argument
    assert str(subj) == f"(foo {y_val})"
    assert validate_solution(prog, qt.goal, sol)


# --- goal connectives -----------------------------------------------------

def _tiny_program():
    a = Const("a", OBJ)
    return a, Program(xi=(), clauses=(Atom("q", (a,)),))


def test_top_goal_costs_nothing():
    _, prog = _tiny_program()
    run = solve(prog, Top(), Limits(depth=4, max_solutions=0), query_vars=())
    assert run.status == "ok"
    assert run.solutions[0].backchains == 0


def test_hypothetical_clause_added_after_program():
    a, prog = _tiny_program()
    b = Const("b", OBJ)
    w = fresh_lvar("W", OBJ)
    goal = Imp(Atom("q", (b,)), Atom("q", (w,)))
    run = solve(prog, goal, Limits(depth=4, max_solutions=0), query_vars=(w,))
    assert run.status == "ok"
    assert [str(s.value(w)) for s in run.solutions] == ["a", "b"]


def test_true_hypothesis_changes_nothing():
    # `true` is no definite clause, so assuming it offers no backchain
    prog, qt, qvars = _setup("append.elf", "append L M (cons z nil)")
    limits = Limits(depth=6, max_solutions=0)
    runs = [solve(prog, goal, limits, query_vars=qvars)
            for goal in (qt.goal, Imp(Top(), qt.goal))]
    plain, assumed = ([([str(s.value(v)) for v in qvars], s.backchains)
                       for s in run.solutions] for run in runs)
    assert len(plain) == 2 and assumed == plain


def test_true_premise_costs_one_backchain():
    # the premise of q X <= true is instantiated, and proved at no cost
    a = Const("a", OBJ)
    x = BVar("X", OBJ)
    prog = Program(xi=(), clauses=(
        ForAll("X", OBJ, Imp(Top(), Atom("q", (x,)))),))
    run = solve(prog, Atom("q", (a,)), Limits(depth=1), query_vars=())
    assert [s.backchains for s in run.solutions] == [1]


def test_quantified_head_argument_matches_any_goal_argument():
    a, b = Const("a", OBJ), Const("b", OBJ)
    x = BVar("X", OBJ)
    prog = Program(xi=(), clauses=(
        Atom("r", (a, b)),
        ForAll("X", OBJ, Atom("r", (x, x)))))
    w = fresh_lvar("W", OBJ)
    run = solve(prog, Atom("r", (w, a)), Limits(depth=2, max_solutions=0),
                query_vars=(w,))
    assert [str(s.value(w)) for s in run.solutions] == ["a"]
    run = solve(prog, Atom("r", (a, w)), Limits(depth=2, max_solutions=0),
                query_vars=(w,))
    assert [str(s.value(w)) for s in run.solutions] == ["b", "a"]


def test_flexible_application_is_left_to_unification():
    # X := F a would be a solution, but F a is no pattern: unification
    # keeps X = F a as a residual, so the proof stays suspended rather
    # than reported, and a head match must leave the pair to it too.
    a = Const("a", OBJ)
    prog = Program(xi=(), clauses=(
        ForAll("X", OBJ, Atom("p", (BVar("X", OBJ),))),))
    f = fresh_lvar("F", arrow([OBJ], OBJ))
    goal = Atom("p", (mk_app(f, [a]),))
    for search in (solve, oracles.reference_solve):
        run = search(prog, goal, Limits(depth=2), query_vars=(f,))
        assert (run.status, run.solutions) == ("suspended", ())


def test_universal_goal_introduces_eigenvariable():
    _, prog = _tiny_program()
    x = BVar("x", OBJ)
    provable = ForAll("x", OBJ, Imp(Atom("q", (x,)), Atom("q", (x,))))
    run = solve(prog, provable, Limits(depth=4), query_vars=())
    assert run.status == "ok"
    # q holds of a but not of an arbitrary eigenvariable
    refuted = ForAll("x", OBJ, Atom("q", (x,)))
    assert solve(prog, refuted, Limits(depth=4), query_vars=()).status == "no"


def test_suspension_on_surviving_residual():
    bar = Const("bar", arrow([OBJ], LF_TYPE))
    foo = Const("foo", arrow([OBJ, arrow([OBJ], OBJ)], OBJ))
    z = Const("z", OBJ)
    yv, fv = BVar("Y", OBJ), BVar("F", arrow([OBJ], OBJ))
    head = Atom("hastype", (mk_app(foo, [yv, fv]),
                            mk_app(bar, [mk_app(fv, [yv])])))
    prog = Program(xi=(), clauses=(
        ForAll("Y", OBJ, ForAll("F", arrow([OBJ], OBJ), head)),))
    m = fresh_lvar("M", OBJ)
    goal = Atom("hastype", (m, mk_app(bar, [z])))
    run = solve(prog, goal, Limits(depth=6, max_solutions=0), query_vars=(m,))
    assert run.status == "suspended"
    assert not run.solutions


# --- solution accounting --------------------------------------------------

def test_each_proof_is_a_solution():
    # a clause stated twice proves its head twice, with the same value
    a = Const("a", OBJ)
    prog = Program(xi=(), clauses=(Atom("p", (a,)), Atom("p", (a,))))
    w = fresh_lvar("W", OBJ)
    for search in (solve, oracles.reference_solve):
        run = search(prog, Atom("p", (w,)), Limits(depth=2, max_solutions=0),
                     query_vars=(w,))
        assert run.status == "ok"
        assert [(str(s.value(w)), s.backchains)
                for s in run.solutions] == [("a", 1), ("a", 1)]
        run = search(prog, Atom("p", (w,)), Limits(depth=2, max_solutions=1),
                     query_vars=(w,))
        assert [str(s.value(w)) for s in run.solutions] == ["a"]


def test_solution_limit():
    _, _, run = _run("fy.elf", "bar z", 4, n=1)
    assert len(run.solutions) == 1
    _, _, all_run = _run("fy.elf", "bar z", 4, n=0)
    assert len(all_run.solutions) >= 3


def test_backchains_match_reference():
    for qtext in ["append (cons z nil) nil (cons z nil)",
                  "append (cons (s z) nil) (cons z nil) L",
                  "append nil (cons z (cons z nil)) L"]:
        prog, qt, qvars = _setup("append.elf", qtext)
        run = solve(prog, qt.goal, Limits(depth=5, max_solutions=0),
                    query_vars=qvars)
        assert run.status == "ok"
        facts = oracles.derive_all(list(prog.clauses), [qt.goal.args[1]], 5)
        ref = oracles.reference_min_cost(facts, qt.goal, qvars)
        got = {tuple(str(s.value(v)) for v in qvars): s.backchains
               for s in run.solutions}
        assert got == ref


def test_enumeration_complete_at_small_depth():
    prog, qt, qvars = _setup("append.elf", "append L K (cons z nil)")
    run = solve(prog, qt.goal, Limits(depth=5, max_solutions=0),
                query_vars=qvars)
    facts = oracles.derive_all(list(prog.clauses), [qt.goal.args[1]], 5)
    ref = oracles.reference_solutions(facts, qt.goal, qvars, 5)
    got = {tuple(str(s.value(v)) for v in qvars) for s in run.solutions}
    assert got == ref and got


def test_validate_rejects_corrupted_binding():
    prog, qt, run = _run("append.elf", "append (cons (s z) nil) (cons z nil) L", 8)
    sol = run.solutions[0]
    assert validate_solution(prog, qt.goal, sol)
    (_, lv), = qt.var_lvars
    nil = Const("nil", OBJ)
    bad = Solution(
        bindings=tuple((v, nil if v == lv else t) for v, t in sol.bindings),
        backchains=sol.backchains)
    assert not validate_solution(prog, qt.goal, bad)


def test_no_eigenvariable_escapes_into_bindings():
    for sigfile, qtext in [("append.elf", "append (cons z nil) nil M"),
                           ("append.elf", "append L K (cons z nil)"),
                           ("fy.elf", "bar z")]:
        _, qt, run = _run(sigfile, qtext, 8, n=0)
        for sol in run.solutions:
            for _, t in sol.bindings:
                assert not evars_of(t)


# --- pinned search behaviour ----------------------------------------------

# (mode, query, depth, -n, status, [(canonical values of the query
# variables then the subject, backchains)]), as the engine produced them
# before the triangular substitution and the clause index: both change
# how fast search runs, not what it finds or in what order.
PINNED_APPENDPLUS = [
    ('optimized', 'plus (s (s z)) (s z) N', 8, 1, 'ok', [
        (('(s (s (s z)))', '(plusS (s z) (s z) (s (s z)) (plusS z (s z) (s z) (plusZ (s z))))'), 3),
    ]),
    ('optimized', 'plus X Y (s (s z))', 8, 0, 'ok', [
        (('z', '(s (s z))', '(plusZ (s (s z)))'), 1),
        (('(s z)', '(s z)', '(plusS z (s z) (s z) (plusZ (s z)))'), 2),
        (('(s (s z))', 'z', '(plusS (s z) z (s z) (plusS z z z (plusZ z)))'), 3),
    ]),
    ('optimized', 'plus X (s z) Y', 5, 0, 'ok', [
        (('z', '(s z)', '(plusZ (s z))'), 1),
        (('(s z)', '(s (s z))', '(plusS z (s z) (s z) (plusZ (s z)))'), 2),
        (('(s (s z))', '(s (s (s z)))', '(plusS (s z) (s z) (s (s z)) (plusS z (s z) (s z) (plusZ (s z))))'), 3),
        (('(s (s (s z)))', '(s (s (s (s z))))', '(plusS (s (s z)) (s z) (s (s (s z))) (plusS (s z) (s z) (s (s z)) (plusS z (s z) (s z) (plusZ (s z)))))'), 4),
        (('(s (s (s (s z))))', '(s (s (s (s (s z)))))', '(plusS (s (s (s z))) (s z) (s (s (s (s z)))) (plusS (s (s z)) (s z) (s (s (s z))) (plusS (s z) (s z) (s (s z)) (plusS z (s z) (s z) (plusZ (s z))))))'), 5),
    ]),
    ('optimized', 'plus z z (s z)', 8, 1, 'no', []),
    ('optimized', 'append X Y (cons z (cons (s z) nil))', 8, 0, 'ok', [
        (('nil', '(cons z (cons (s z) nil))', '(appNil (cons z (cons (s z) nil)))'), 1),
        (('(cons z nil)', '(cons (s z) nil)', '(appCons z nil (cons (s z) nil) (cons (s z) nil) (appNil (cons (s z) nil)))'), 2),
        (('(cons z (cons (s z) nil))', 'nil', '(appCons z (cons (s z) nil) nil (cons (s z) nil) (appCons (s z) nil nil nil (appNil nil)))'), 3),
    ]),
    ('optimized', 'append (cons z nil) X Y', 6, 0, 'ok', [
        (('?0', '(cons z ?0)', '(appCons z nil ?0 ?0 (appNil ?0))'), 2),
    ]),
    ('optimized', 'append (cons (s z) (cons z nil)) (cons z nil) L', 8, 1, 'ok', [
        (('(cons (s z) (cons z (cons z nil)))', '(appCons (s z) (cons z nil) (cons z nil) (cons z (cons z nil)) (appCons z nil (cons z nil) (cons z nil) (appNil (cons z nil))))'), 3),
    ]),
    ('optimized', 'append (cons z (cons z nil)) nil L', 2, 1, 'exhausted', []),
    ('naive', 'plus (s (s z)) (s z) N', 8, 1, 'exhausted', []),
    ('naive', 'plus X Y (s (s z))', 12, 0, 'ok', [
        (('z', '(s (s z))', '(plusZ (s (s z)))'), 4),
        (('(s z)', '(s z)', '(plusS z (s z) (s z) (plusZ (s z)))'), 9),
        (('(s (s z))', 'z', '(plusS (s z) z (s z) (plusS z z z (plusZ z)))'), 12),
    ]),
    ('naive', 'plus X (s z) Y', 10, 0, 'ok', [
        (('z', '(s z)', '(plusZ (s z))'), 3),
        (('(s z)', '(s (s z))', '(plusS z (s z) (s z) (plusZ (s z)))'), 9),
    ]),
    ('naive', 'plus z z (s z)', 8, 1, 'no', []),
    ('naive', 'append X Y (cons z nil)', 12, 0, 'ok', [
        (('nil', '(cons z nil)', '(appNil (cons z nil))'), 4),
        (('(cons z nil)', 'nil', '(appCons z nil nil nil (appNil nil))'), 7),
    ]),
    ('naive', 'append (cons z nil) X Y', 10, 0, 'ok', [
        (('nil', '(cons z nil)', '(appCons z nil nil nil (appNil nil))'), 7),
    ]),
    ('naive', 'append nil nil L', 6, 0, 'ok', [
        (('nil', '(appNil nil)'), 2),
    ]),
]


def test_appendplus_search_matches_pinned_table():
    for mode, qtext, depth, n, status, want in PINNED_APPENDPLUS:
        _, _, run = _run("appendplus.elf", qtext, depth, n=n, mode=mode)
        got = [(tuple(part.split("=", 1)[1]
                      for part in oracles.canon_key(sol).split(";")),
                sol.backchains)
               for sol in run.solutions]
        assert (run.status, got) == (status, want), (mode, qtext)


def test_index_instantiates_only_clauses_whose_head_can_match(monkeypatch):
    families = []
    match = engine._match

    def spy(t, g, *rest):
        # record the type family of each head matched at type lf_type
        if isinstance(t.head, Const) and type_of(t.term) == LF_TYPE:
            families.append(t.head.name)
        return match(t, g, *rest)

    monkeypatch.setattr(engine, "_match", spy)
    _, _, run = _run("appendplus.elf", "append (cons z nil) nil L", 8)
    assert run.status == "ok"
    assert families and set(families) == {"append"}


def test_head_match_makes_clause_variables_only_where_needed(monkeypatch):
    # A slot that a goal subterm fills needs no logic variable; only the
    # ones the goal leaves open do.  Instantiating every clause variable
    # first made 20 (optimized) and 61 (naive).  Each deepening round
    # resumes from the steps the last one stopped at, so a proved prefix
    # is not searched again; restarting each round from the root made 6
    # and 21.
    made = []
    fresh = engine.fresh_lvar_at

    def spy(*args):
        made.append(args[0])
        return fresh(*args)

    monkeypatch.setattr(engine, "fresh_lvar_at", spy)
    counts = {}
    for mode in ("optimized", "naive"):
        made.clear()
        _, _, run = _run("appendplus.elf", "append (cons z nil) nil L", 8,
                         mode=mode)
        assert run.status == "ok"
        counts[mode] = len(made)
    assert counts == {"optimized": 2, "naive": 5}


def test_deterministic_derivation_costs_linear_backchain_attempts(
        monkeypatch):
    # plus (s^k z) z N has one derivation, k + 1 backchains deep.  Each
    # atom on it is looked up at most twice: once where a round stops on
    # it, and once where the next round resumes it.  Restarting every
    # round from the root looked it up once per later round, 54 / 170 /
    # 594 times for k = 8 / 16 / 32.
    calls = []
    candidates = engine._candidates

    def spy(*args):
        calls.append(args[1])
        return candidates(*args)

    monkeypatch.setattr(engine, "_candidates", spy)
    for k in (8, 16, 32):
        calls.clear()
        _, _, run = _run("appendplus.elf",
                         f"plus {'(s ' * k}z{')' * k} z N", k + 4)
        assert run.status == "ok"
        assert run.solutions[0].backchains == k + 1
        assert len(calls) <= 2 * (k + 1)


def test_derivation_deeper_than_the_recursion_limit():
    # 351 backchains, one per list element and one for nil, on an
    # explicit goal stack; three Python frames per backchain overflowed
    # near 320.  The search runs on a fresh thread, whose stack holds
    # none of pytest's frames, and extracts no answer.
    prog, qt, _ = _setup("appendplus.elf",
                         f"append {_list(['z'] * 350)} nil L")
    result = []

    def search():
        result.append(solve(prog, qt.goal, Limits(depth=355),
                            query_vars=()))

    worker = threading.Thread(target=search)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    run, = result
    assert run.status == "ok"
    assert [s.backchains for s in run.solutions] == [351]


def test_write_mode_solves_deterministic_query_without_unify(monkeypatch):
    # Each goal variable of the first query meets a rigid template or a
    # filled slot once, so the head match binds it in place; deferring
    # those pairs to unification made 5 calls.  In the ground query a
    # repeated slot meets a subterm equal to its first value, twice.
    calls = []
    real = engine.unify

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(engine, "unify", spy)
    for qtext in ("append (cons z nil) nil L",
                  "append (cons z nil) nil (cons z nil)"):
        _, qt, run = _run("appendplus.elf", qtext, 8)
        sol, = run.solutions
        assert [str(sol.value(v)) for _, v in qt.var_lvars] == \
            (["(cons z nil)"] if qt.var_lvars else [])
        assert str(sol.value(qt.subject)) == \
            "(appCons z nil nil nil (appNil nil))"
        assert sol.backchains == 2
    assert calls == []


def test_index_gives_a_goal_only_the_clauses_of_its_family(monkeypatch):
    # In the naive translation every atom is hastype; the goal's type
    # argument names the family, and only nat's clauses are tried.
    heads = []
    candidates = engine._candidates

    def spy(*args):
        found = candidates(*args)
        heads.append([str(c.head[0].head) for c in found])
        return found

    monkeypatch.setattr(engine, "_candidates", spy)
    sig = oracles.load_signature("appendplus.elf")
    prog = translate_signature(sig, mode="naive")
    x = fresh_lvar("X", OBJ)
    run = solve(prog, Atom("hastype", (x, Const("nat", LF_TYPE))),
                Limits(depth=3, max_solutions=0), query_vars=(x,))
    assert [str(s.value(x)) for s in run.solutions] == \
        ["z", "(s z)", "(s (s z))"]
    assert heads and all(h == ["z", "s"] for h in heads)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["p", "q", None]),
                          st.sampled_from([1, 2]),
                          st.sampled_from([None, "a", "b"])), max_size=8),
       st.sampled_from([None, "a", "b", "c"]))
def test_database_offers_the_clauses_a_linear_scan_keeps(filed, goal_key):
    # Clauses are filed one at a time, as an implication goal files its
    # hypothesis.  A goal is offered exactly the clauses of its predicate
    # and arity whose last key is None or its own, in filing order.
    clauses = [engine._Clause(pred, (None,) * (arity - 1) + (key,),
                              ((f"c{i}", "c", OBJ),), (), (), True)
               for i, (pred, arity, key) in enumerate(filed)]
    db = engine._database(clauses)
    for pred in ("p", "q"):
        for arity in (1, 2):
            keys = [None] * (arity - 1) + [goal_key]
            assert list(engine._candidates(db, pred, keys)) == [
                c for c in clauses
                if c.pred == pred and len(c.keys) == arity
                and c.keys[-1] in (None, goal_key or c.keys[-1])]


def test_first_order_solve_lowers_nothing(monkeypatch):
    # clause variables are made in the query's universe, so binding
    # one into another never needs a lowered copy
    rebuilt = []
    rebuild = unify._rebuild

    def spy(*args):
        rebuilt.append(args[0])
        return rebuild(*args)

    monkeypatch.setattr(unify, "_rebuild", spy)
    for mode, backchains in (("optimized", 2), ("naive", 7)):
        _, qt, run = _run("appendplus.elf", "append (cons z nil) nil L", 8,
                          mode=mode)
        (_, lv), = qt.var_lvars
        sol, = run.solutions
        assert str(sol.value(lv)) == "(cons z nil)"
        assert str(sol.value(qt.subject)) == \
            "(appCons z nil nil nil (appNil nil))"
        assert sol.backchains == backchains
    assert rebuilt == []


def test_goal_with_free_eigenvariable_solves():
    # the root universe lies above the goal's own eigenvariables, so a
    # clause variable may be bound to one of them
    p = Const("p", arrow([OBJ], LF_TYPE))
    c = Const("c", arrow([OBJ], OBJ))
    x = BVar("X", OBJ)
    prog = Program(xi=(), clauses=(
        ForAll("X", OBJ, Atom("hastype", (mk_app(c, [x]), mk_app(p, [x])))),))
    e = fresh_evar("e", OBJ)
    m = fresh_lvar("M", OBJ)
    run = solve(prog, Atom("hastype", (m, mk_app(p, [e]))), Limits(depth=2),
                query_vars=(m,))
    assert run.status == "ok"
    assert run.solutions[0].value(m) == mk_app(c, [e])


def test_variable_below_the_universe_is_bound_by_unification():
    # Under `pi y`, the clause variable X lives above y; bound into the
    # older M, it is lowered to M's level, or y could later leak into M.
    f, a = Const("f", arrow([OBJ], OBJ)), Const("a", LF_TYPE)
    x = BVar("X", OBJ)
    prog = Program(xi=(), clauses=(
        ForAll("X", OBJ, Atom("hastype", (mk_app(f, [x]), a))),))
    m = fresh_lvar("M", OBJ)
    goal = ForAll("y", OBJ, Atom("hastype", (m, a)))
    for search in (solve, oracles.reference_solve):
        run = search(prog, goal, Limits(depth=2), query_vars=(m,))
        sol, = run.solutions
        (v,) = lvars_in_order(t for _, t in sol.bindings)
        assert sol.value(m) == mk_app(f, [v])
        assert v.level <= m.level


def test_hypothesis_mentioning_a_logic_variable_is_not_written():
    # The hypothesis (f X) mentions X, bound to (g Q) by the time the
    # goal's Q meets it.  Q := f X would close a cycle; unification's
    # occurs check refuses it.
    f, g = Const("f", arrow([OBJ], OBJ)), Const("g", arrow([OBJ], OBJ))
    eq = Const("eq", arrow([OBJ], LF_TYPE))
    b, start = Const("b", LF_TYPE), Const("start", LF_TYPE)
    x, y, z = BVar("X", OBJ), BVar("Y", OBJ), BVar("Z", OBJ)

    def has(m, a):
        return Atom("hastype", (m, a))

    prog = Program(xi=(), clauses=(
        ForAll("Z", OBJ, has(mk_app(g, [z]), mk_app(eq, [z]))),
        ForAll("X", OBJ, ForAll("Y", OBJ, Imp(
            has(x, mk_app(eq, [y])),
            Imp(Imp(has(mk_app(f, [x]), b), has(y, b)), has(y, start))))),
    ))
    q = fresh_lvar("Q", OBJ)
    for search in (solve, oracles.reference_solve):
        run = search(prog, has(q, start), Limits(depth=4, max_solutions=0),
                     query_vars=(q,))
        assert (run.status, run.solutions) == ("no", ())


def _list(elems):
    t = "nil"
    for e in reversed(elems):
        t = f"(cons {e} {t})"
    return t


def test_eight_element_append_is_fast():
    nats = ["z", "(s z)", "(s (s z))"]
    query = (f"append {_list([nats[i % 3] for i in range(8)])} "
             f"{_list([nats[i % 2] for i in range(8)])} L")
    start = time.perf_counter()
    _, _, run = _run("append.elf", query, 32)
    elapsed = time.perf_counter() - start
    assert run.status == "ok" and run.solutions[0].backchains == 9
    assert elapsed < 1.0  # 3.1 s with eager substitution and no index


# --- differential check against instantiate-then-unify -------------------

@st.composite
def _nat_text(draw, size=3):
    k = draw(st.integers(0, size))
    tail = draw(st.sampled_from(["z", "z", "N", "M"]))
    return "".join("(s " for _ in range(k)) + tail + ")" * k


@st.composite
def _list_text(draw):
    elems = draw(st.lists(_nat_text(), max_size=3))
    tail = draw(st.sampled_from(["nil", "nil", "L", "K"]))
    for e in reversed(elems):
        tail = f"(cons {e} {tail})"
    return tail


@st.composite
def _appendplus_query(draw):
    fam = draw(st.sampled_from(["plus", "append"]))
    arg = _nat_text() if fam == "plus" else _list_text()
    return " ".join([fam] + [draw(arg) for _ in range(3)])


@st.composite
def _tp_text(draw, size=2, free=("T", "U")):
    if size == 0 or draw(st.booleans()):
        return draw(st.sampled_from(["o", "o", *free]))
    return (f"(arr {draw(_tp_text(size - 1, free))} "
            f"{draw(_tp_text(size - 1, free))})")


@st.composite
def _tm_text(draw, bound=(), size=2):
    # Free variables stand outside every binder, where the translator can
    # infer their types: E and E' at tm, F as a whole lambda body at
    # tm -> tm, and T as a type.
    free = () if bound else ("T",)
    if size == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(list(bound) if bound else ["E", "E'"]))
    form = draw(st.sampled_from(["app", "lam", "lam F"] if not bound
                                else ["app", "lam"]))
    if form == "app":
        return (f"(app {draw(_tm_text(bound, size - 1))} "
                f"{draw(_tm_text(bound, size - 1))})")
    if form == "lam F":
        return f"(lam {draw(_tp_text(1, free))} F)"
    x = f"x{len(bound)}"
    return (f"(lam {draw(_tp_text(1, free))} "
            f"([{x}:tm] {draw(_tm_text(bound + (x,), size - 1))}))")


@st.composite
def _stlc_query(draw):
    if draw(st.booleans()):
        return f"of {draw(_tm_text())} {draw(_tp_text())}"
    return f"eval {draw(_tm_text())} {draw(_tm_text())}"


def _same_search(sigfile, qtext, mode, depth, n=0, cap=None):
    # the engine searches the program of the families the query reaches,
    # as `lflp solve` does; the reference searches the whole program
    prog, qt, qvars = _setup(sigfile, qtext, mode=mode)
    sig = oracles.load_signature(sigfile)
    sliced = translate_signature(reachable_signature(sig, qt.goal, mode),
                                 mode)
    limits = Limits(depth=depth, max_solutions=n)
    with mock.patch.object(engine, "_LEVEL_CAP", cap or engine._LEVEL_CAP):
        got = solve(sliced, qt.goal, limits, query_vars=qvars)
    want = oracles.reference_solve(prog, qt.goal, limits, query_vars=qvars)
    assert got.status == want.status
    keys = [oracles.canon_key(s) for s in got.solutions]
    assert ([(k, s.backchains) for k, s in zip(keys, got.solutions)]
            == [(oracles.canon_key(s), s.backchains) for s in want.solutions])
    # distinct proofs give distinct values of the subject, so no answer
    # repeats although the engine drops none
    assert len(set(keys)) == len(keys), keys
    return qt, got


_NATS = ["nat", "z", "s"]
_LISTS = ["list", "nil", "cons"]
_STLC_TERMS = ["tp", "o", "arr", "tm", "app", "lam"]


# The optimized `append` and `plus` clauses have no typing premise, so
# their queries reach only their own family; the naive clauses type
# every binder, and so reach the families of the binders' types.
@pytest.mark.parametrize("sigfile, qtext, mode, names", [
    ("appendplus.elf", "append L M N", "optimized",
     ["append", "appNil", "appCons"]),
    ("appendplus.elf", "append L M N", "naive",
     _NATS + _LISTS + ["append", "appNil", "appCons"]),
    ("appendplus.elf", "plus X Y Z", "optimized", ["plus", "plusZ", "plusS"]),
    ("appendplus.elf", "plus X Y Z", "naive",
     _NATS + ["plus", "plusZ", "plusS"]),
    ("stlc.elf", "of E T", "optimized",
     _STLC_TERMS + ["of", "of_app", "of_lam"]),
    ("stlc.elf", "of E T", "naive", _STLC_TERMS + ["of", "of_app", "of_lam"]),
    ("stlc.elf", "eval E V", "optimized",
     _STLC_TERMS + ["eval", "ev_lam", "ev_app"]),
    ("stlc.elf", "eval E V", "naive",
     _STLC_TERMS + ["eval", "ev_lam", "ev_app"]),
])
def test_query_reaches_only_its_families(sigfile, qtext, mode, names):
    sig = oracles.load_signature(sigfile)
    free, fam = lf.parse_query(qtext, sig)
    view = reachable_signature(sig, translate_query(sig, free, fam).goal, mode)
    assert [d.name for d in view] == names
    assert all(view.lookup(d.name) is d.fam
               for d in sig.decls if isinstance(d, lf.ObjDecl))


# A level cap of 1 or 2 states makes most rounds search depth first from
# an older saved level, or from the root, which the default cap of 4096
# leaves to queries far larger than these.
_CAPS = [None, 1, 2]


@pytest.mark.parametrize("cap", _CAPS)
@settings(max_examples=60, deadline=None)
@given(_appendplus_query(), st.sampled_from(["optimized", "naive"]),
       st.integers(0, 8), st.sampled_from([0, 0, 1, 2]))
def test_appendplus_search_matches_instantiate_then_unify(cap, qtext, mode,
                                                          depth, n):
    _same_search("appendplus.elf", qtext, mode, depth, n, cap)


@pytest.mark.parametrize("cap", _CAPS)
@settings(max_examples=40, deadline=None)
@given(_stlc_query(), st.sampled_from(["optimized", "naive"]),
       st.integers(2, 6), st.sampled_from([0, 0, 1, 2]))
def test_stlc_search_matches_instantiate_then_unify(cap, qtext, mode, depth,
                                                    n):
    qt, run = _same_search("stlc.elf", qtext, mode, depth, n, cap)
    # every answer, open ones included, inverts to LF and re-checks
    sig = oracles.load_signature("stlc.elf")
    for sol in run.solutions:
        cli._solution_lines(sig, qt, sol)


@pytest.mark.parametrize("cap", [1, 2, 3, 5])
def test_search_from_an_older_level_keeps_solutions_and_order(
        cap, monkeypatch):
    # Three answers, 4, 9 and 12 backchains deep; frontiers reach 56
    # states.  Past a small cap a round keeps no frontier, and later
    # rounds search depth first from the last level kept, or the root.
    dropped = []
    stop = engine._Round.stop

    def spy(rnd, *args):
        stop(rnd, *args)
        dropped.append(rnd.frontier is None)

    monkeypatch.setattr(engine._Round, "stop", spy)
    _, run = _same_search("appendplus.elf", "plus X Y (s (s z))", "naive", 12,
                          cap=cap)
    assert [s.backchains for s in run.solutions] == [4, 9, 12]
    assert any(dropped)


# Goals that write mode must leave to unification: a variable met twice
# (the occurs check, with the variable inside a slot value or as the
# slot's second meeting, or two slots that must agree), and a variable
# below the universe a hypothetical premise opens.  The last two cases also
# keep the hypotheses after the program clauses: answers come in the
# same order.
@pytest.mark.parametrize("sigfile, qtext, mode, depth, n, answers", [
    ("appendplus.elf", "append nil L (cons z L)", "optimized", 32, 1, []),
    ("appendplus.elf", "append nil L (cons z L)", "naive", 32, 1, []),
    ("appendplus.elf", "append nil (cons z L) L", "optimized", 32, 1, []),
    ("appendplus.elf", "append nil (cons z L) L", "naive", 32, 1, []),
    ("appendplus.elf", "append L L (cons z (cons z nil))", "optimized", 12,
     0, ["(cons z nil)"]),
    ("appendplus.elf", "append L L (cons z (cons z nil))", "naive", 32, 1,
     ["(cons z nil)"]),
    ("stlc.elf", "of (lam o ([x:tm] x)) T", "optimized", 8, 0,
     ["(arr o o)"]),
    ("stlc.elf", "of (lam o ([x:tm] x)) T", "naive", 8, 0, ["(arr o o)"]),
    ("stlc.elf", "of E (arr o o)", "optimized", 32, 3, [
        "(lam o (\\ #0))",
        "(lam o (\\ (app (lam o (\\ #1)) #0)))",
        "(lam o (\\ (app (lam o (\\ #0)) #0)))"]),
    ("stlc.elf", "of E (arr o o)", "naive", 8, 0, ["(lam o (\\ #0))"]),
])
def test_goals_outside_write_mode_match_instantiate_then_unify(
        sigfile, qtext, mode, depth, n, answers):
    _, run = _same_search(sigfile, qtext, mode, depth, n)
    assert run.status == ("ok" if answers else "no")
    assert [oracles.canon_key(s).split(";")[0].split("=", 1)[1]
            for s in run.solutions] == answers


# shadow.elf repeats a binder name on two scope paths: translated, the
# typing premise of c's x binds a y under the quantifier for c's own y.
# The compiled clause names its slots after its binders, so a premise's
# inner binder must shadow the slot of the same name, as it does in the
# instantiate-then-unify reference.
def test_compiled_clause_names_slots_after_binders_and_keeps_premises():
    sig = oracles.load_signature("shadow.elf")
    objects = [d.name for d in sig.decls if isinstance(d, lf.ObjDecl)]
    clause = translate_signature(sig, "naive").clauses[objects.index("c")]
    compiled = engine._compile(clause)
    assert [name for name, _, _ in compiled.slots] == ["x", "y"]
    premises, f = [], clause
    while isinstance(f, (ForAll, Imp)):
        if isinstance(f, Imp):
            premises.append(f.left)
        f = f.body if isinstance(f, ForAll) else f.right
    assert len(compiled.premises) == len(premises) == 2
    assert all(p is q for p, q in zip(compiled.premises, premises))
    assert isinstance(premises[0], ForAll) and premises[0].var == "y"
    assert all(t.term is a for t, a in zip(compiled.head, f.args))


@pytest.mark.parametrize("mode", ["optimized", "naive"])
@pytest.mark.parametrize("qtext", ["r F Y", "r fb Y", "r F ea"])
def test_binder_name_on_two_scope_paths_matches_instantiate_then_unify(
        qtext, mode):
    _, run = _same_search("shadow.elf", qtext, mode, 5)
    assert run.solutions
