"""End-to-end checks of the package contract, one test per promise.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
for each numbered behavior.
"""

import re

from lflp import lf_syntax as lf
from lflp.engine import Limits, solve
from lflp.hterms import Atom, ForAll, Imp
from lflp.inverter import FreeVars, invert
from lflp.lf_kernel import beta_normalize, check_object, check_type, substitute
from lflp.strictness import explain_strictness, strict_binders
from lflp.translator import (
    emit_lambdaprolog, encode, translate_query, translate_signature,
)

import oracles
from lpreader import parse_lambdaprolog
from oracles import alpha_eq_formula, lvars_in_order, validate_solution


def _golden(name):
    import pathlib
    return (pathlib.Path(__file__).parent / "data" / name).read_text()


def _shape(clause):
    premises = []
    foralls = 0
    while True:
        if isinstance(clause, ForAll):
            foralls += 1
            clause = clause.body
        elif isinstance(clause, Imp):
            premises.append(clause.left)
            clause = clause.right
        else:
            return foralls, premises, clause


def _setup(sigfile, qtext, mode="optimized"):
    sig = oracles.load_signature(sigfile)
    prog = translate_signature(sig, mode=mode)
    free, fam = lf.parse_query(qtext, sig)
    qt = translate_query(sig, free, fam)
    qvars = tuple(v for _, v in qt.var_lvars) + (qt.subject,)
    return sig, prog, qt, qvars


def _invert_solution(sig, qt, sol):
    """LF objects for the query variables and the inhabitant itself."""
    sub = {}
    frees = FreeVars(name for name, _ in qt.var_lvars)
    for name, lv in qt.var_lvars:
        ty = beta_normalize(substitute(qt.var_types[name], free=sub))
        sub[name] = invert(sig, (), sol.value(lv), ty, frees)
    fam = beta_normalize(substitute(qt.fam, free=sub))
    inhab = invert(sig, (), sol.value(qt.subject), fam, frees)
    return sub, inhab, fam


def test_01_naive_translation_matches_frozen_program():
    """Naive translation of the append signature: same constant table and
    the same six clauses, compared structurally after parsing both texts."""
    sig = oracles.load_signature("append.elf")
    emitted = parse_lambdaprolog(
        emit_lambdaprolog(translate_signature(sig, mode="naive")))
    golden = parse_lambdaprolog(_golden("append_naive_golden.lp"))
    assert [(n, str(t)) for n, t in emitted.xi] \
        == [(n, str(t)) for n, t in golden.xi]
    assert len([n for n, _ in emitted.xi if n != "hastype"]) == 9
    assert len(emitted.clauses) == len(golden.clauses) == 6
    for got, want in zip(emitted.clauses, golden.clauses):
        assert alpha_eq_formula(got, want)


def test_02_redundancy_elimination_matches_frozen_program():
    """Optimized translation: appNil keeps no premise, appCons exactly one
    (the derivation argument), all against the frozen expected program."""
    sig = oracles.load_signature("append.elf")
    prog = translate_signature(sig, mode="optimized")
    emitted = parse_lambdaprolog(emit_lambdaprolog(prog))
    golden = parse_lambdaprolog(_golden("append_optimized_golden.lp"))
    assert [(n, str(t)) for n, t in emitted.xi] \
        == [(n, str(t)) for n, t in golden.xi]
    assert len(emitted.clauses) == len(golden.clauses) == 6
    for got, want in zip(emitted.clauses, golden.clauses):
        assert alpha_eq_formula(got, want)
    appnil = prog.clauses[4]
    foralls, premises, _ = _shape(appnil)
    assert (foralls, len(premises)) == (1, 0)
    appcons = prog.clauses[5]
    foralls, premises, _ = _shape(appcons)
    assert (foralls, len(premises)) == (5, 1)
    prem = premises[0]
    assert isinstance(prem, Atom) and prem.pred == "hastype"
    assert str(prem.args[1]).startswith("(append ")


def test_03_deep_strictness_shrinks_higher_order_clause():
    """A binder whose only occurrence is blocked in the target still counts
    as strict through the type of a later binder; the translated clause
    keeps both quantifiers and no typing premises."""
    sig = oracles.load_signature("strict_f.elf")
    report = explain_strictness(sig.lookup("f"))
    assert [(n, ok) for n, ok, _ in report] == [("x", True), ("y", True)]
    assert "CTX_t" in report[0][2]
    prog = translate_signature(sig, mode="optimized")
    assert len(prog.clauses) == 1
    foralls, premises, head = _shape(prog.clauses[0])
    assert (foralls, len(premises)) == (2, 0)
    rendered = emit_lambdaprolog(prog).strip().splitlines()[-1]
    assert rendered == ("pi X\\ (pi Y\\ (hastype (f X Y) "
                        "(d (y1\\ y1) (w\\ y2\\ X (w y2)) Y))).")


def test_04_ground_query_yields_checkable_inhabitant():
    """Solving a closed append instance returns the expected derivation
    term, and its inversion type-checks at the query type."""
    sig, prog, qt, qvars = _setup("append.elf",
                                  "append (cons z nil) nil (cons z nil)")
    run = solve(prog, qt.goal, Limits(depth=8, max_solutions=1),
                query_vars=qvars)
    assert run.status == "ok"
    _, inhab, fam = _invert_solution(sig, qt, run.solutions[0])
    want = lf.parse_object("appCons z nil nil nil (appNil nil)")
    assert lf.alpha_eq(inhab, want)
    check_object(sig, {}, inhab, fam)


def test_05_free_variable_bound_and_inverted():
    """A query with an unknown third list binds it to the concatenation
    and produces the matching derivation, first solution, depth 8."""
    sig, prog, qt, qvars = _setup(
        "append.elf", "append (cons (s z) nil) (cons z nil) L")
    run = solve(prog, qt.goal, Limits(depth=8, max_solutions=1),
                query_vars=qvars)
    assert run.status == "ok"
    sub, inhab, fam = _invert_solution(sig, qt, run.solutions[0])
    assert lf.alpha_eq(sub["L"],
                       lf.parse_object("cons (s z) (cons z nil)"))
    want = lf.parse_object(
        "appCons (s z) nil (cons z nil) (cons z nil) (appNil (cons z nil))")
    assert lf.alpha_eq(inhab, want)
    check_object(sig, {}, inhab, fam)


def test_06_failure_freedom_and_flex_enumeration():
    """Inhabitation failure is reported finitely; a free query variable may
    survive into the answer; flexible targets enumerate instantiations."""
    _, prog1, qt1, qv1 = _setup("foo1.elf", "bar z")
    run1 = solve(prog1, qt1.goal, Limits(depth=8, max_solutions=1),
                 query_vars=qv1)
    assert run1.status == "no" and not run1.solutions

    sig2, prog2, qt2, qv2 = _setup("foo2.elf", "bar Y")
    run2 = solve(prog2, qt2.goal, Limits(depth=8, max_solutions=1),
                 query_vars=qv2)
    assert run2.status == "ok"
    sol2 = run2.solutions[0]
    assert lvars_in_order(t for _, t in sol2.bindings)
    assert str(sol2.value(qt2.subject)) == f"(foo {sol2.value(qv2[0])})"
    assert validate_solution(prog2, qt2.goal, sol2)

    sig3, prog3, qt3, qv3 = _setup("fy.elf", "bar z")
    run3 = solve(prog3, qt3.goal, Limits(depth=4, max_solutions=0),
                 query_vars=qv3)
    assert run3.status == "ok"
    subjects = {str(s.value(qt3.subject)) for s in run3.solutions}
    assert any(re.fullmatch(r"\(foo z \((\w+)\\ \1\)\)", k) for k in subjects)
    assert any(re.fullmatch(r"\(foo z \((\w+)\\ z\)\)", k) for k in subjects)
    for sol in run3.solutions:
        assert validate_solution(prog3, qt3.goal, sol)


def test_07_encode_invert_round_trip():
    """invert(encode(M), T) = M for every enumerated object of at most six
    constructors over the nat/list signature; at least 200 cases."""
    sig = oracles.load_signature("append.elf")
    cases = oracles.corpus_cases(sig, oracles.ROUND_TRIP_TYPES, budget=6)
    assert len(cases) >= 200
    for m, ty in cases:
        assert oracles.obj_size(m) <= 6
        back = invert(sig, (), encode(sig, m, {}), ty,
                      FreeVars(()))
        assert lf.alpha_eq(back, m), lf.print_lf(m)


QUERY_CORPUS = [
    ("append nil nil nil", True),
    ("append (cons z nil) nil (cons z nil)", True),
    ("append (cons (s z) nil) (cons z nil) L", True),
    ("append nil (cons z nil) L", True),
    ("append (cons (s z) nil) nil L", True),
    ("append (cons z nil) (cons (s z) nil) (cons z (cons (s z) nil))", True),
    ("plus z z z", True),
    ("plus (s z) (s z) N", True),
    ("plus (s (s z)) z N", True),
    ("plus (s z) M (s (s (s z)))", True),
    ("append nil nil (cons z nil)", False),
    ("append (cons z nil) nil nil", False),
    ("append (cons z nil) (cons z nil) (cons z nil)", False),
    ("append (cons (s z) nil) nil (cons z nil)", False),
    ("append nil nil (cons (s z) nil)", False),
    ("plus (s z) z z", False),
    ("plus z z (s z)", False),
    ("plus (s z) (s z) (s z)", False),
    ("plus (s (s z)) z (s z)", False),
    ("plus z (s z) (s (s z))", False),
]


def test_08_both_translations_agree_on_twenty_queries():
    """Across a mixed solvable/unsolvable corpus the naive and optimized
    programs decide the same queries at the same depth bound and return
    identical inverted inhabitants."""
    assert len(QUERY_CORPUS) == 20
    sig = oracles.load_signature("appendplus.elf")
    progs = {m: translate_signature(sig, mode=m)
             for m in ("naive", "optimized")}
    disagreements = []
    for qtext, solvable in QUERY_CORPUS:
        free, fam = lf.parse_query(qtext, sig)
        qt = translate_query(sig, free, fam)
        qvars = tuple(v for _, v in qt.var_lvars) + (qt.subject,)
        outcome = {}
        for m, prog in progs.items():
            run = solve(prog, qt.goal, Limits(depth=24, max_solutions=1),
                        query_vars=qvars)
            if run.solutions:
                _, inhab, fam_i = _invert_solution(sig, qt, run.solutions[0])
                check_object(sig, {}, inhab, fam_i)
                outcome[m] = ("ok", lf.print_lf(inhab))
            else:
                outcome[m] = (run.status, None)
        ok = (outcome["naive"][0] == "ok") == solvable \
            and outcome["naive"] == outcome["optimized"]
        if not ok:
            disagreements.append((qtext, outcome))
    assert disagreements == []


def _named_instance(e, sub):
    """The named `e` instantiated by the named values `sub`, normalized
    and indexed."""
    return oracles.lf_to_indexed(
        oracles.named_lf_norm(oracles.named_lf_subst(e, sub)))


def test_09_strict_binders_yield_well_typed_instances():
    """For every strict binder of every declaration, instantiating the
    target type with enumerated closed objects leaves the binder's object
    well typed at its substituted classifier; at least 50 instances."""
    budgets = {"appNil": 5, "appCons": 3, "plusZ": 4, "plusS": 3}
    failures = []
    instances = 0
    for sigfile in ["appendplus.elf", "strict_f.elf", "foo2.elf", "fy.elf"]:
        sig = oracles.load_signature(sigfile)
        for d in sig.decls:
            if not isinstance(d, lf.ObjDecl):
                continue
            # instantiated with names, by the named reference
            fam = oracles.lf_to_named(beta_normalize(d.fam))
            binders, base = lf.split_fam_pis(fam)
            strict = strict_binders(beta_normalize(d.fam))
            needed = oracles.named_lf_free_vars(base)
            budget = budgets.get(d.name, 3)
            vectors = [dict()]
            for name, bty in binders:
                if name not in needed:
                    continue
                grown = []
                for sub in vectors:
                    t = _named_instance(bty, sub)
                    for m in oracles.enumerate_objects(sig, {},
                                                       t, budget):
                        d2 = dict(sub)
                        d2[name] = oracles.lf_to_named(m)
                        grown.append(d2)
                vectors = grown
            for sub in vectors:
                instance = _named_instance(base, sub)
                assert not lf.free_vars(instance)
                assert not lf.occurs_free(instance, 0, float("inf"))
                check_type(sig, {}, instance)
                instances += 1
                prefix: dict[str, lf.Obj] = {}
                for i, (name, bty) in enumerate(binders):
                    if name in sub:
                        if i in strict:
                            want = _named_instance(bty, prefix)
                            try:
                                check_object(sig, {},
                                             oracles.lf_to_indexed(sub[name]),
                                             want)
                            except Exception as e:
                                failures.append((d.name, name, str(e)))
                        prefix[name] = sub[name]
    assert instances >= 50
    assert failures == []


def test_10_search_is_exhaustive_at_small_depth():
    """Within five backchains the engine finds exactly the solutions an
    independent forward-chaining enumeration derives, at matching minimal
    costs, and each reported solution re-validates."""
    queries = ["append nil nil nil",
               "append (cons z nil) nil M",
               "append L K (cons z nil)",
               "append nil (cons z (cons z nil)) L",
               "append nil nil (cons z nil)"]
    for mode in ("optimized", "naive"):
        for qtext in queries:
            sig, prog, qt, qvars = _setup("append.elf", qtext, mode=mode)
            run = solve(prog, qt.goal, Limits(depth=5, max_solutions=0),
                        query_vars=qvars)
            facts = oracles.derive_all(list(prog.clauses),
                                       [qt.goal.args[1]], 5)
            ref = oracles.reference_solutions(facts, qt.goal, qvars, 5)
            got = {tuple(str(s.value(v)) for v in qvars)
                   for s in run.solutions}
            assert got == ref, (mode, qtext)
            ref_cost = oracles.reference_min_cost(facts, qt.goal, qvars)
            got_cost = {tuple(str(s.value(v)) for v in qvars): s.backchains
                        for s in run.solutions}
            assert got_cost == ref_cost, (mode, qtext)
            for sol in run.solutions:
                assert validate_solution(prog, qt.goal, sol)
