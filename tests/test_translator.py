"""Clause generation, type erasure, and the hohh emitter."""

import pytest
from hypothesis import given, settings, strategies as st

from lflp import lf_syntax as lf
from lflp.engine import Limits, solve
from lflp.hterms import (
    LF_OBJ, LF_TYPE, App, Atom, BVar, Const, ForAll, Imp, Lam, Program, Top,
    arrow, beta_norm, mk_app, term_spine,
)
from lflp.lf_kernel import (
    LFTypeError, beta_normalize, check_query, substitute,
)
from lflp.translator import (
    TranslationError, emit_lambdaprolog, emit_split, encode,
    phi, reachable_signature, translate_judgment,
    translate_query, translate_signature,
)
from lflp.unify import Subst
from lflp.strictness import strict_binders

import oracles
from lpreader import parse_lambdaprolog
from oracles import (
    NVar, alpha_eq_formula, alpha_eq_term, fresh_lvar, to_indexed,
)

OBJ, TY = LF_OBJ, LF_TYPE


# --- type erasure ---------------------------------------------------------

def test_phi_collapses_base_families():
    sig = oracles.load_signature("append.elf")
    assert phi(lf.FConst("nat")) == OBJ
    assert phi(sig.lookup("s")) == arrow([OBJ], OBJ)
    assert phi(sig.lookup("append")) == arrow([OBJ, OBJ, OBJ], TY)
    # dependency erased: five object arguments, nothing else
    assert phi(sig.lookup("appCons")) == arrow([OBJ] * 5, OBJ)
    assert phi(lf.KType()) == TY


def test_encode_constant_and_application():
    sig = oracles.load_signature("append.elf")
    m = lf.parse_object("cons z nil")
    t = encode(sig, m, {})
    head = t
    while isinstance(head, App):
        head = head.fn
    assert head == Const("cons", arrow([OBJ, OBJ], OBJ))
    assert str(t) == "(cons z nil)"


def test_encode_abstraction_binds():
    sig = oracles.load_signature("append.elf")
    m = lf.OLam("x", lf.FConst("nat"), lf.OBVar(0))
    t = encode(sig, m, {})
    assert t == Lam("x", OBJ, BVar(0, OBJ))


def test_encode_family_application():
    sig = oracles.load_signature("append.elf")
    _, fam = lf.parse_query("append nil nil nil", sig)
    t = encode(sig, fam, {})
    assert str(t) == "(append nil nil nil)"
    head = t
    while isinstance(head, App):
        head = head.fn
    assert head.ty == arrow([OBJ, OBJ, OBJ], TY)


def test_encode_unbound_variable_rejected():
    with pytest.raises(TranslationError):
        encode(oracles.load_signature("append.elf"), lf.OVar("q"), {})


def test_undeclared_constant_and_unknown_mode_rejected():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(TranslationError, match="undeclared constant q"):
        encode(sig, lf.OConst("q"), {})
    with pytest.raises(TranslationError, match="unknown mode 'fast'"):
        translate_signature(sig, "fast")


def test_encode_injective_at_each_type():
    # erasure may identify objects of different types (their binder
    # annotations collapse), but within one type encoding stays faithful
    sig = oracles.load_signature("append.elf")
    total = 0
    for text in oracles.ROUND_TRIP_TYPES:
        objs = list(oracles.enumerate_objects(
            sig, {}, oracles.parse_type(sig, text), 6))
        assert len({lf.print_lf(m) for m in objs}) == len(objs)
        encoded = {str(encode(sig, m, {})) for m in objs}
        assert len(encoded) == len(objs), text
        total += len(objs)
    assert total >= 200


def test_encode_commutes_with_substitution():
    sig = oracles.load_signature("append.elf")
    ctx = {"x": lf.FConst("nat")}
    bodies = list(oracles.enumerate_objects(sig, ctx, lf.FConst("list"), 6))
    args = list(oracles.enumerate_objects(sig, {},
                                          lf.FConst("nat"), 3))
    checked = 0
    for m in bodies[:20]:
        for n in args[:3]:
            x = fresh_lvar("x", OBJ)
            open_enc = encode(sig, m, {"x": x})
            closed = encode(sig, substitute(m, free={"x": n}), {})
            via_hohh = Subst().extend(x, encode(sig, n, {})).apply_all(
                (open_enc,))[0]
            assert alpha_eq_term(beta_norm(via_hohh), closed)
            checked += 1
    assert checked >= 50


# --- clause generation ----------------------------------------------------

def _const(sig, name):
    return Const(name, phi(sig.lookup(name)))


def test_naive_base_declaration():
    sig = oracles.load_signature("append.elf")
    got = translate_judgment(sig, lf.FConst("nat"), _const(sig, "z"),
                             mode="naive")
    assert got == Atom("hastype", (_const(sig, "z"), _const(sig, "nat")))


def test_naive_pi_declaration():
    sig = oracles.load_signature("append.elf")
    got = translate_judgment(sig, sig.lookup("appNil"), _const(sig, "appNil"),
                             mode="naive")
    l = BVar(0, OBJ)
    want = ForAll("l", OBJ, Imp(
        Atom("hastype", (l, _const(sig, "list"))),
        Atom("hastype", (App(_const(sig, "appNil"), l),
                         mk_app(_const(sig, "append"),
                                [_const(sig, "nil"), l, l])))))
    assert alpha_eq_formula(got, want)


def test_optimized_strict_binder_has_no_premise():
    sig = oracles.load_signature("append.elf")
    clause = translate_judgment(sig, sig.lookup("appNil"),
                                _const(sig, "appNil"))
    assert isinstance(clause, ForAll) and isinstance(clause.body, Atom)


def test_optimized_appcons_keeps_one_premise():
    sig = oracles.load_signature("append.elf")
    clause = translate_judgment(sig, sig.lookup("appCons"),
                                _const(sig, "appCons"))
    foralls, premises = _shape(oracles.to_named(clause))
    assert foralls == 5
    assert len(premises) == 1
    prem = premises[0]
    assert isinstance(prem, Atom) and prem.pred == "hastype"
    head, args = term_spine(prem.args[1])
    assert head == _const(sig, "append")
    assert [a.name for a in args] == ["l", "m", "n"]


def test_optimized_higher_order_premise():
    sig = oracles.load_signature("fy.elf")
    foo = Const("foo", phi(sig.lookup("foo")))
    clause = translate_judgment(sig, sig.lookup("foo"), foo)
    nat = Const("nat", TY)
    bar = Const("bar", arrow([OBJ], TY))
    y, f, w = (NVar("Y", OBJ), NVar("F", arrow([OBJ], OBJ)),
               NVar("w", OBJ))
    want = to_indexed(ForAll("Y", OBJ, Imp(
        Atom("hastype", (y, nat)),
        ForAll("F", arrow([OBJ], OBJ), Imp(
            ForAll("w", OBJ, Imp(Atom("hastype", (w, nat)),
                                 Atom("hastype", (App(f, w), nat)))),
            Atom("hastype", (mk_app(foo, [y, f]),
                             App(bar, App(f, y)))))))))
    assert alpha_eq_formula(clause, want)


def test_optimized_keeps_premise_of_binder_under_its_own_head():
    # no binder of pivot.elf's c is strict, so the optimized clause keeps
    # x's higher-order typing premise, as the naive clause does
    sig = oracles.load_signature("pivot.elf")
    premise = r"pi X1\ (hastype X1 el => hastype (X X1) el)"
    for mode in ["naive", "optimized"]:
        text = emit_lambdaprolog(translate_signature(sig, mode=mode))
        clause = text.splitlines()[-1]
        assert "hastype (c X Y H)" in clause and premise in clause


def _shape(clause):
    """Quantifier count and premise list along the clause spine."""
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
            return foralls, premises


def test_premise_count_equals_nonstrict_binders():
    for name in ["append.elf", "strict_f.elf", "fy.elf", "appendplus.elf",
                 "pivot.elf"]:
        sig = oracles.load_signature(name)
        prog = translate_signature(sig, mode="optimized")
        obj_decls = [d for d in sig.decls if isinstance(d, lf.ObjDecl)]
        assert len(prog.clauses) == len(obj_decls)
        for d, clause in zip(obj_decls, prog.clauses):
            binders, _ = lf.split_fam_pis(d.fam)
            foralls, premises = _shape(clause)
            assert foralls == len(binders)
            assert len(premises) == len(binders) - len(strict_binders(d.fam))


def test_translate_signature_xi_and_counts():
    sig = oracles.load_signature("append.elf")
    prog = translate_signature(sig, mode="naive")
    assert [n for n, _ in prog.xi] == [
        "hastype", "nat", "z", "s", "list", "nil", "cons",
        "append", "appNil", "appCons"]
    assert dict(prog.xi)["hastype"] == arrow([OBJ, TY], Const("o", OBJ).ty) \
        or str(dict(prog.xi)["hastype"]) == "lf_obj -> lf_type -> o"
    assert len(prog.clauses) == 6  # kind declarations add no clauses


def _head_constant(clause):
    while not isinstance(clause, Atom):
        clause = clause.body if isinstance(clause, ForAll) else clause.right
    return term_spine(clause.args[0])[0].name


def _family_views(sig, mode):
    # the view reached from a query of each type family of `sig`
    for d in sig.decls:
        if isinstance(d, lf.KindDecl):
            arity, k = 0, d.kind
            while isinstance(k, lf.KPi):
                arity, k = arity + 1, k.body
            qtext = " ".join([d.name] + [f"X{i}" for i in range(arity)])
            qt = translate_query(sig, *lf.parse_query(qtext, sig))
            yield reachable_signature(sig, qt.goal, mode)


SIGNATURES = sorted(p.name for p in oracles.DATA.glob("*.elf"))


@pytest.mark.parametrize("name", SIGNATURES)
@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_one_clause_per_object_declaration_of_a_signature_or_view(name, mode):
    # the benchmark's tracer pairs the object declarations of what it is
    # given with the clauses, in order, to count premises per declaration
    sig = oracles.load_signature(name)
    raw = translate_signature(sig, mode)
    first = dict(zip((d.name for d in sig.decls if isinstance(d, lf.ObjDecl)),
                     raw.clauses))
    for view in [sig, *_family_views(sig, mode)]:
        prog = translate_signature(view, mode)
        objs = [d.name for d in view.decls if isinstance(d, lf.ObjDecl)]
        assert [_head_constant(c) for c in prog.clauses] == objs
        assert [n for n, _ in prog.xi] == ["hastype"] + [
            d.name for d in view.decls]
        # a constant's clause is translated once per signature and mode,
        # and the program holds the very clause the table caches
        assert all(c is first[n] is sig.clauses[n, mode]
                   for c, n in zip(prog.clauses, objs))


def test_empty_signature():
    prog = translate_signature(lf.parse_signature(""))
    assert [n for n, _ in prog.xi] == ["hastype"]
    assert prog.clauses == ()


# --- emission and re-parsing ----------------------------------------------

def test_emitted_text_deterministic():
    sig = oracles.load_signature("append.elf")
    a = emit_lambdaprolog(translate_signature(sig, mode="naive"))
    b = emit_lambdaprolog(translate_signature(sig, mode="naive"))
    assert a == b


def test_unsimplified_program_emits_true():
    # one `true =>` per strict binder: appNil's l and appCons's x, l, m, n
    sig = oracles.load_signature("append.elf")
    prog = translate_signature(sig)
    assert emit_lambdaprolog(prog, literal=True).count("true =>") == sum(
        len(strict_binders(d.fam)) for d in sig.decls
        if isinstance(d, lf.ObjDecl)) == 5
    assert "true" not in emit_lambdaprolog(prog)


def _with_true(f):
    """`f` with a `true` premise under each quantifier that has none."""
    match f:
        case ForAll(var, ty, Imp() as body):
            return ForAll(var, ty, _with_true(body))
        case ForAll(var, ty, body):
            return ForAll(var, ty, Imp(Top(), _with_true(body)))
        case Imp(left, right):
            return Imp(_with_true(left), _with_true(right))
    return f


@pytest.mark.parametrize("literal", [False, True],
                         ids=["simplify", "no-simplify"])
@pytest.mark.parametrize("mode", ["naive", "optimized"])
@pytest.mark.parametrize("name", sorted(p.name for p in oracles.DATA.glob("*.elf")))
def test_emit_parse_round_trip(name, mode, literal):
    # the literal text reads back as the program with a `true` premise
    # added under each quantifier that has none
    prog = translate_signature(oracles.load_signature(name), mode=mode)
    back = parse_lambdaprolog(emit_lambdaprolog(prog, literal))
    assert [n for n, _ in back.xi] == [n for n, _ in prog.xi]
    assert [str(t) for _, t in back.xi] == [str(t) for _, t in prog.xi]
    assert len(back.clauses) == len(prog.clauses)
    for x, y in zip(back.clauses, prog.clauses):
        assert alpha_eq_formula(x, _with_true(y) if literal else y)


@pytest.mark.parametrize("mode, want", [
    ("optimized", [
        "pi X2\\ (hastype (c X2) (p (X1\\ X2))).",
        "pi X1\\ (pi M\\ ((pi X11\\ (hastype X11 nat => hastype (M X11) nat))"
        " => hastype (d X1 M) (q X1 (pi1\\ M (pi1 X1))))).",
    ]),
    ("naive", [
        "pi X2\\ (hastype X2 nat => hastype (c X2) (p (X1\\ X2))).",
        "pi X1\\ (hastype X1 nat => pi M\\ ((pi X11\\ (hastype X11 nat =>"
        " hastype (M X11) nat)) => hastype (d X1 M) (q X1 (pi1\\ M (pi1 X1))))).",
    ]),
])
def test_emitted_binders_avoid_constants_keywords_and_each_other(mode, want):
    # `X` is a constant, `X1` a lambda binder, and `pi` both a keyword and
    # a lambda binder, so the quantifier over `x` skips `X` and `X1`, and
    # the lambda named `pi` becomes `pi1`.
    prog = translate_signature(oracles.load_signature("clash.elf"), mode=mode)
    assert emit_lambdaprolog(prog).splitlines()[-2:] == want


def _shared(t, table):
    """`t` with equal subterms built as one object, held in `table`."""
    match t:
        case App(fn, arg):
            t = App(_shared(fn, table), _shared(arg, table))
        case Lam(var, ty, body):
            t = Lam(var, ty, _shared(body, table))
    return table.setdefault(t, t)


def _unshared(t):
    """A copy of `t` with a new object at every occurrence."""
    match t:
        case App(fn, arg):
            return App(_unshared(fn), _unshared(arg))
        case Lam(var, ty, body):
            return Lam(var, ty, _unshared(body))
        case BVar(index, ty):
            return BVar(index, ty)
        case Const(name, ty):
            return Const(name, ty)
    raise AssertionError(t)


def test_a_shared_clause_prints_as_its_unshared_copy():
    # The lambda `[z:nat] s z` occurs twice under `s (f ...)`; its binder
    # is also a constant's name, so each occurrence is renamed on print.
    sig = lf.parse_signature(
        "nat : type. z : nat. s : nat -> nat. f : (nat -> nat) -> nat. "
        "p : nat -> nat -> type. "
        "c : {y:nat} p (s (f ([z:nat] s z))) (s (f ([z:nat] s z))).")
    prog = translate_signature(sig)
    table = {}
    shared = oracles.map_formula_terms(prog.clauses[-1],
                                       lambda t: _shared(t, table))
    copy = oracles.map_formula_terms(prog.clauses[-1], _unshared)
    _, (left, right) = term_spine(shared.body.right.args[1])
    assert left is right
    _, (left, right) = term_spine(copy.body.right.args[1])
    assert left is not right and left == right
    want = "pi Y\\ (hastype Y nat => hastype (c Y) " \
           "(p (s (f (z1\\ s z1))) (s (f (z2\\ s z2)))))."
    for clause in (shared, copy):
        text = emit_lambdaprolog(Program(prog.xi, (clause,)))
        assert text.splitlines()[-1] == want


def test_split_emission_carries_module_header():
    prog = translate_signature(oracles.load_signature("append.elf"))
    sigfile, modfile = emit_split(prog, module="apx")
    assert sigfile.startswith("sig apx.")
    assert modfile.startswith("module apx.")
    assert "hastype" in sigfile and "hastype" in modfile


# --- queries --------------------------------------------------------------

def test_query_translation_basics():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons z nil) nil M", sig)
    qt = translate_query(sig, free, fam)
    assert [n for n, _ in qt.var_lvars] == ["M"]
    assert qt.var_types["M"] == lf.FConst("list")
    assert qt.goal.pred == "hastype"
    assert qt.goal.args[0] == qt.subject


def test_query_variables_typed_under_object_binders():
    sig = oracles.load_signature("stlc.elf")
    for text, name, ty in [("eval E (lam o ([x:tm] F))", "F", "tm"),
                           ("eval E (lam o ([x:tm] lam T ([y:tm] x)))",
                            "T", "tp"),
                           # the bound T is not the query's T
                           ("eval (lam o ([T:tm] T)) (lam T ([x:tm] x))",
                            "T", "tp"),
                           # F is a body two binders deep, and E an
                           # argument under one
                           ("eval (lam o ([x:tm] lam o ([y:tm] F))) E",
                            "F", "tm"),
                           ("of (lam o ([x:tm] app x E)) T", "E", "tm"),
                           # a lambda whose type ends in F's, which the
                           # redex's argument has typed by then
                           ("eval E (lam o (([y:tm] [x:tm] F) F))",
                            "F", "tm"),
                           # T at two arguments, under no binder
                           ("eval (lam T ([x:tm] x)) (lam T ([x:tm] x))",
                            "T", "tp")]:
        free, fam = lf.parse_query(text, sig)
        qt = translate_query(sig, free, fam)
        assert qt.var_types[name] == lf.FConst(ty)
        # the scan of the normalized query agrees
        assert oracles.infer_query_var_types(
            sig, free, beta_normalize(fam)) == qt.var_types


# The kernel types a query's free variables where the scan of the
# normalized query did, and gives them the same types.  The queries are
# built from each signature's constructors with free variables from one
# pool at any type, lambdas at Pi types and, now and then, an argument of
# the wrong type, so many are ill-typed; they are beta-normal, the scan's
# input.
_GRAMMARS = {
    "append.elf": {"nat": [["z"], ["s", "nat"]],
                   "list": [["nil"], ["cons", "nat", "list"]]},
    "stlc.elf": {"tp": [["o"], ["arr", "tp", "tp"]],
                 "tm": [["app", "tm", "tm"], ["lam", "tp", "tm -> tm"]]},
}
_GRAMMARS["appendplus.elf"] = _GRAMMARS["append.elf"]
_FAMILIES = {
    "append.elf": [["append", "list", "list", "list"]],
    "appendplus.elf": [["append", "list", "list", "list"],
                       ["plus", "nat", "nat", "nat"]],
    "stlc.elf": [["of", "tm", "tp"], ["eval", "tm", "tm"]],
}


@st.composite
def _query_arg(draw, grammar, ty, bound, size):
    pick = draw(st.integers(0, 7))
    if pick == 0:
        return draw(st.sampled_from(["X", "Y", "F"]))
    if pick == 1:
        ty = draw(st.sampled_from(sorted(grammar)))  # maybe the wrong type
    if ty == "tm -> tm":
        var = draw(st.sampled_from(["x", "y", "X"]))
        body = draw(_query_arg(grammar, "tm", bound + (var,), size - 1))
        return f"([{var}:tm] {body})"
    forms = [f for f in grammar[ty] if size > 0 or len(f) == 1]
    if bound and ty == "tm" and (pick == 2 or not forms):
        return draw(st.sampled_from(bound))
    if not forms:
        return draw(st.sampled_from(["X", "Y", "F"]))
    head, *tys = draw(st.sampled_from(forms))
    args = [draw(_query_arg(grammar, t, bound, size - 1)) for t in tys]
    return f"({' '.join([head] + args)})" if args else head


@st.composite
def _typed_query(draw):
    name = draw(st.sampled_from(sorted(_GRAMMARS)))
    head, *tys = draw(st.sampled_from(_FAMILIES[name]))
    args = [draw(_query_arg(_GRAMMARS[name], t, (), 3)) for t in tys]
    return name, " ".join([head] + args)


@settings(max_examples=300, deadline=None)
@given(_typed_query())
def test_kernel_types_query_variables_as_the_scan_did(case):
    name, text = case
    sig = oracles.load_signature(name)
    free, fam = lf.parse_query(text, sig)
    try:
        types = oracles.infer_query_var_types(sig, free, fam)
    except TranslationError:
        return
    try:
        oracles.ref_check_type(sig, dict(types), fam)
    except LFTypeError:
        with pytest.raises(LFTypeError):
            check_query(sig, free, fam)
        return
    _, normal, ctx = check_query(sig, free, fam)
    assert normal
    assert ctx.keys() == types.keys()
    assert all(lf.alpha_eq(ctx[n], types[n]) for n in free), (ctx, types)


def test_a_query_variable_takes_no_type_that_mentions_a_binder():
    # F's domain would mention x: a binder of the Pi domain in q's query,
    # a lambda's binder in the context in r's
    sig = lf.parse_signature(
        "t : type. p : t -> type. c : {x:t} p x -> t.\n"
        "q : ({x:t} p x) -> type. r : (t -> t) -> type.\n")
    for text in ["q ([x:t] F)", "r ([x:t] c x F)"]:
        with pytest.raises(LFTypeError) as err:
            check_query(sig, *lf.parse_query(text, sig))
        # no rule of the judgment failed: F has no type
        assert (err.value.rule, str(err.value)) == (
            "", "cannot infer a type for query variable F")


def test_query_variable_type_conflict():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons X nil) X nil", sig)
    with pytest.raises(TranslationError):
        translate_query(sig, free, fam)


def test_applied_query_variable_rejected():
    sig = oracles.load_signature("fy.elf")
    free, fam = lf.parse_query("bar (F Y)", sig)
    with pytest.raises(TranslationError):
        translate_query(sig, free, fam)


# --- the two modes agree --------------------------------------------------

def test_modes_agree_on_solvability():
    sig = oracles.load_signature("append.elf")
    naive = translate_signature(sig, mode="naive")
    opt = translate_signature(sig, mode="optimized")
    for qtext, expect in [("append (cons z nil) nil (cons z nil)", "ok"),
                          ("append nil nil (cons z nil)", "no")]:
        free, fam = lf.parse_query(qtext, sig)
        qt = translate_query(sig, free, fam)
        for prog in (naive, opt):
            run = solve(prog, qt.goal, Limits(depth=24, max_solutions=1),
                        query_vars=(qt.subject,))
            assert run.status == expect, (qtext, run.status)
