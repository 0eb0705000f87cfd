import re
import time

from hypothesis import Phase, find, given, settings, strategies as st

from lflp import lf_syntax as lf
from lflp.lf_kernel import substitute
from lflp.strictness import explain_strictness, strict_binders

import oracles
from oracles import fam_app, strict_in_object

NAT = lf.FConst("nat")


def _obj(text, var_names=("x", "w", "y", "F", "Y")):
    """Parse, then read the given free names as variables, not constants."""
    names = set(var_names)

    def go(m):
        match m:
            case lf.OConst(n) if n in names:
                return lf.OVar(n)
            case lf.OLam(v, d, b):
                return lf.OLam(v, d, b if v in names else go(b))
            case lf.OApp(f, a):
                return lf.OApp(go(f), go(a))
            case _:
                return m

    return go(lf.parse_object(text))


# --- object-level judgment ------------------------------------------------

def test_bare_occurrence_is_strict():
    # the variable applied to no arguments at all
    assert strict_in_object([], [], "x", lf.OVar("x"))


def test_distinct_locals_ok_duplicates_not():
    assert strict_in_object([], ["w", "y"], "x", _obj("x w y"))
    assert not strict_in_object([], ["w"], "x", _obj("x w w"))
    assert not strict_in_object([], [], "x", _obj("x w"))


def test_argument_must_be_a_variable():
    # x (w y): the argument is itself an application
    assert not strict_in_object([], ["w", "y"], "x", _obj("x (w y)"))


def test_candidate_head_blocks_descent():
    fy = lf.OApp(lf.OVar("F"), lf.OVar("Y"))
    assert not strict_in_object(["F"], [], "Y", fy)
    # but a constant head is fine
    assert strict_in_object(["F"], [], "Y", lf.OApp(lf.OConst("s"), lf.OVar("Y")))


def test_rigid_head_some_strict_argument():
    assert strict_in_object([], [], "x", _obj("s x"))
    assert strict_in_object([], [], "x", _obj("cons x nil"))
    assert not strict_in_object([], [], "x", _obj("cons z nil"))


def test_abstraction_extends_locals():
    m = lf.OLam("w", NAT, _obj("x w"))
    assert strict_in_object([], [], "x", m)
    m2 = lf.OLam("w", NAT, lf.OLam("y", NAT, _obj("x y w")))
    assert strict_in_object([], [], "x", m2)


def test_shadowing_of_tracked_variable():
    # under [x:nat] the outer x is gone; occurrences bind to the inner one
    m = lf.OLam("x", NAT, lf.OVar("x"))
    assert not strict_in_object([], [], "x", m)


# --- type-level judgment --------------------------------------------------

def test_direct_argument_of_target():
    sig = oracles.load_signature("append.elf")
    _, fam = lf.parse_query("append nil nil nil", sig)
    a = lf.FApp(lf.FApp(lf.FApp(lf.FConst("append"), lf.OConst("nil")),
                        lf.OVar("l")), lf.OVar("l"))
    list_ = lf.FConst("list")
    assert strict_binders(lf.FPi("l", list_, a)) == frozenset({0})
    assert strict_binders(lf.FPi("k", list_, a)) == frozenset()


def test_pivot_through_candidate_type():
    # x is not strict in the base directly (x (w y) is blocked) but is
    # strict in the pivot binder's type, two context steps deep
    sig = oracles.load_signature("strict_f.elf")
    f = sig.lookup("f")
    assert strict_binders(f) == frozenset({0, 1})
    report = explain_strictness(f)
    assert report[0][0] == "x" and report[0][1]
    assert "CTX_t(pivot y" in report[0][2]
    assert report[1][0] == "y" and report[1][1]
    assert "CTX_t" not in report[1][2]


def test_flex_application_defeats_both_binders():
    text = "i : type. bar : i -> type. g : {F : i -> i} {Y : i} bar (F Y)."
    g = lf.parse_signature(text).lookup("g")
    assert strict_binders(g) == frozenset()
    report = explain_strictness(g)
    assert [flag for _, flag, _ in report] == [False, False]


# --- whole classifiers ----------------------------------------------------

def test_append_clause_binders():
    sig = oracles.load_signature("append.elf")
    assert strict_binders(sig.lookup("appNil")) == frozenset({0})
    # x, l, k, m strict; the derivation argument a is not
    assert strict_binders(sig.lookup("appCons")) == frozenset({0, 1, 2, 3})


def test_unused_binder_not_strict():
    text = "i : type. z0 : i. bar : i -> type. h : {X : i} bar z0."
    h = lf.parse_signature(text).lookup("h")
    assert strict_binders(h) == frozenset()


def test_directly_used_binder_strict():
    sig = oracles.load_signature("foo2.elf")
    assert strict_binders(sig.lookup("foo")) == frozenset({0})


def test_base_type_has_no_binders():
    assert strict_binders(lf.FConst("nat")) == frozenset()


def test_repeated_binder_names_do_not_capture():
    # {x:a}{x:b} c x: the target's x is binder 1, never binder 0
    a = lf.FPi("x", lf.FConst("a"),
               lf.FPi("x", lf.FConst("b"), lf.FApp(lf.FConst("c"), lf.OVar("x"))))
    assert strict_binders(a) == frozenset({1})
    assert [(name, flag) for name, flag, _ in explain_strictness(a)] == [
        ("x", False), ("x", True)]


def _chain(n):
    """{x1..xn:el}{h1:r x1 x2}...{h(n-1):r x(n-1) xn} g xn"""
    xs = "".join(f"{{x{i} : el}}" for i in range(1, n + 1))
    hs = "".join(f"{{h{i} : r x{i} x{i + 1}}}" for i in range(1, n))
    text = ("el : type. r : el -> el -> type. g : el -> type. "
            f"c : {xs} {hs} g x{n}.")
    return lf.parse_signature(text).lookup("c")


def test_nine_binder_chain_is_fast():
    # the path-blocked depth-first search took tens of seconds here
    a = _chain(5)
    start = time.perf_counter()
    assert strict_binders(a) == frozenset({4})
    assert time.perf_counter() - start < 1.0


# --- properties -----------------------------------------------------------

def _rename_binders(a, prefix):
    binders, base = split = lf.split_fam_pis(a)
    binders = list(binders)
    for i in range(len(binders)):
        old, dom = binders[i]
        new = f"{prefix}{i}"
        for j in range(i + 1, len(binders)):
            nj, dj = binders[j]
            binders[j] = (nj, substitute(dj, {old: lf.OVar(new)}))
        base = substitute(base, {old: lf.OVar(new)})
        binders[i] = (new, dom)
    for name, dom in reversed(binders):
        base = lf.FPi(name, dom, base)
    return base


def test_alpha_invariance():
    sig = oracles.load_signature("append.elf")
    fsig = oracles.load_signature("strict_f.elf")
    for a in [sig.lookup("appNil"), sig.lookup("appCons"), fsig.lookup("f")]:
        b = _rename_binders(a, "q")
        assert lf.alpha_eq(a, b)
        assert strict_binders(a) == strict_binders(b)


def test_explain_matches_strict_binders():
    sig = oracles.load_signature("append.elf")
    for name in ["z", "s", "nil", "cons", "appNil", "appCons"]:
        a = sig.lookup(name)
        flags = {i for i, (_, ok, _) in enumerate(explain_strictness(a)) if ok}
        assert flags == set(strict_binders(a))


def test_pivot_search_terminates_on_deep_chain():
    # repeated pivots over the same base must not revisit open judgments
    sig = oracles.load_signature("strict_f.elf")
    for name in ["b", "c", "d", "f"]:
        strict_binders(sig.lookup(name))


# --- the backward pass against the depth-first reference -----------------

_EL = lf.FConst("el")


@st.composite
def _objects(draw, names, depth):
    kind = draw(st.integers(0, 4 if depth else 2))
    if kind <= 1 and names:
        return lf.OVar(draw(st.sampled_from(names)))
    if kind <= 2:
        return lf.OConst("zz")
    if kind == 3:
        head = draw(st.sampled_from([lf.OConst("s")] + [lf.OVar(n) for n in names]))
        return lf.OApp(head, draw(_objects(names, depth - 1)))
    w = f"w{depth}"
    return lf.OLam(w, _EL, draw(_objects(names + [w], depth - 1)))


@st.composite
def _binder_types(draw, names, depth):
    kind = draw(st.integers(0, 4 if depth else 3))
    if kind == 0:
        return _EL
    if kind == 1:
        return lf.FPi("u", _EL, _EL)
    if kind <= 3:
        return fam_app(lf.FConst("r"), [draw(_objects(names, 1)),
                                           draw(_objects(names, 1))])
    z = f"z{len(names)}"
    return lf.FPi(z, draw(_binder_types(names, depth - 1)),
                  draw(_binder_types(names + [z], depth - 1)))


@st.composite
def _classifiers(draw):
    """{v0:A0}...{vk:Ak} p _ h _ h', with h and h' binders, so that proof
    binders (those of an r type) can be CTX_t pivots.  A binder type may
    mention a later binder's name, free there; the analysis must rename
    that later binder apart instead of capturing the name."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    a = fam_app(lf.FConst("p"), [
        draw(_objects(names, 2)), lf.OVar(draw(st.sampled_from(names))),
        draw(_objects(names, 2)), lf.OVar(draw(st.sampled_from(names)))])
    for i in reversed(range(len(names))):
        scope = names if draw(st.booleans()) else names[:i]
        a = lf.FPi(names[i], draw(_binder_types(scope, 2)), a)
    return a


@settings(max_examples=300, deadline=None)
@given(_classifiers())
def test_fixpoint_matches_depth_first_search(a):
    """The backward pass over the binders explains every binder as the
    path-blocked search over all pivots does."""
    assert explain_strictness(a) == oracles.dfs_explain_strictness(a)
    assert strict_binders(a) == oracles.dfs_strict_binders(a)


def test_later_binder_does_not_capture_a_free_name():
    # p2's type names p1, free there; the later binder p1 is renamed apart
    # (p11), so it is no pivot for p2 and p2 none for it
    def r(a, b):
        return fam_app(lf.FConst("r"), [lf.OVar(a), lf.OVar(b)])
    a = fam_app(lf.FConst("p"), [lf.OConst("zz"), lf.OVar("q"),
                                    lf.OConst("zz"), lf.OVar("q")])
    for name, dom in reversed([("w", _EL), ("p2", r("p1", "p1")),
                               ("p1", r("p2", "w")), ("q", r("p1", "p1"))]):
        a = lf.FPi(name, dom, a)
    report = explain_strictness(a)
    assert report == oracles.dfs_explain_strictness(a)
    assert [name for name, _, _ in report] == ["w", "p2", "p1", "q"]
    assert "CTX_t(pivot p11) {p11 in target: CTX_t(pivot q)" in report[0][2]
    assert not any("pivot p2" in why or "pivot p1)" in why
                   for _, _, why in report)
    assert "{p11 in type of q: APP_t(arg 1); INIT_o}" in report[2][2]
    # z is free in y's type; q's type binds a z of its own, which is
    # renamed apart from it while w is judged there, so y is no pivot for
    # that z and w, strict only in z's type, is not strict
    a = fam_app(lf.FConst("p"), [lf.OConst("zz"), lf.OVar("q"),
                                    lf.OConst("zz"), lf.OVar("q")])
    zz = lf.OConst("zz")
    q_type = lf.FPi("z", r("w", "w"),
                    fam_app(lf.FConst("r"), [lf.OVar("y"), zz]))
    for name, dom in reversed([
            ("y", fam_app(lf.FConst("r"), [lf.OVar("z"), zz])),
            ("w", _EL), ("q", q_type)]):
        a = lf.FPi(name, dom, a)
    report = explain_strictness(a)
    assert report == oracles.dfs_explain_strictness(a)
    assert [flag for _, flag, _ in report] == [True, False, True]


def _unjustified_pivots(a):
    """Binders whose chain starts at a CTX_t pivot that is itself reported
    not strict."""
    names = [name for name, _ in oracles.dfs_peel((), a)[0]]
    report = explain_strictness(a)
    bad = []
    for name, strict, why in report:
        pivot = re.match(r"(PI_t\^\d+; )?CTX_t\(pivot (\S+)\)", why)
        if strict and pivot and not report[names.index(pivot[2])][1]:
            bad.append(name)
    return bad


@settings(max_examples=300, deadline=None)
@given(_classifiers())
def test_every_pivot_is_itself_strict(a):
    assert _unjustified_pivots(a) == []


def test_own_flexible_head_blocks_the_pivot():
    # c : {x : el -> el} {y : el} {h : r x y} g (x (f x y h)): h occurs
    # only under x's own head, so h is no pivot for x; x := [z] z0 erases h
    c = oracles.load_signature("pivot.elf").lookup("c")
    assert _unjustified_pivots(c) == []
    assert strict_binders(c) == frozenset()
    assert oracles.dfs_strict_binders(c) == frozenset()


def test_classifier_strategy_reaches_nested_ctx_t():
    # the property above says nothing about CTX_t unless the strategy
    # produces pivots, including a pivot justified through another pivot
    def nested(a):
        return any(why.count("CTX_t") >= 2
                   for _, _, why in oracles.dfs_explain_strictness(a))
    found = find(_classifiers(), nested,
                 settings=settings(max_examples=2000, database=None,
                                   derandomize=True, phases=[Phase.generate]))
    assert nested(found)
