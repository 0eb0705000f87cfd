from hypothesis import given, settings, strategies as st

from lflp.hterms import (
    LF_OBJ, LF_TYPE, App, BVar, Const, Lam, LVar, arrow, beta_norm,
    fresh_evar, fresh_level, mk_app, term_spine, type_of,
)
from lflp.unify import Eq, Subst, unify

import oracles
from oracles import (
    alpha_eq_term, evars_of, fresh_lvar, lvars_in_order, unify_one,
)

OBJ = LF_OBJ
Z = Const("z", OBJ)
NIL = Const("nil", OBJ)
S = Const("s", arrow([OBJ], OBJ))
CONS = Const("cons", arrow([OBJ, OBJ], OBJ))
APPEND = Const("append", arrow([OBJ, OBJ, OBJ], LF_TYPE))
HEADS = [Z, NIL, S, CONS]


def s(t):
    return App(S, t)


def cons(a, b):
    return mk_app(CONS, [a, b])


def _unifies(res, lhs, rhs):
    return (res.status == "ok"
            and alpha_eq_term(res.subst.apply(lhs), res.subst.apply(rhs)))


# --- first order ----------------------------------------------------------

def test_append_style_head_match():
    x, l, k, m = (fresh_lvar(n, OBJ) for n in "XLKM")
    query = mk_app(APPEND, [cons(Z, NIL), NIL, fresh_lvar("Out", OBJ)])
    head = mk_app(APPEND, [cons(x, l), k, cons(x, m)])
    res = unify_one(query, head)
    assert _unifies(res, query, head)
    assert res.subst.apply(x) == Z
    assert res.subst.apply(l) == NIL
    assert res.subst.apply(k) == NIL


def test_rigid_rigid():
    assert unify_one(cons(Z, NIL), cons(Z, NIL)).status == "ok"
    assert unify_one(Z, NIL).status == "fail"
    assert unify_one(s(Z), s(s(Z))).status == "fail"


def test_occurs_check():
    x = fresh_lvar("X", OBJ)
    assert unify_one(x, s(x)).status == "fail"


# --- pattern fragment -----------------------------------------------------

def test_imitation_and_projection():
    f = fresh_lvar("F", arrow([OBJ], OBJ))
    g = fresh_lvar("G", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    lhs, rhs = App(f, e), s(App(g, e))
    res = unify_one(lhs, rhs)
    assert _unifies(res, lhs, rhs)
    solved = res.subst.apply(f)
    assert isinstance(solved, Lam)
    assert solved.body.fn == S  # F x = s (G' x) for some G'


def test_pruning_drops_too_new_eigenvar():
    x = fresh_lvar("X", OBJ)
    y = fresh_lvar("Y", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)  # younger than X
    res = unify_one(x, cons(Z, App(y, e)))
    assert res.status == "ok"
    assert not evars_of(res.subst.apply(x))


def test_rigid_occurrence_of_too_new_eigenvar_fails():
    x = fresh_lvar("X", OBJ)
    e = fresh_evar("e", OBJ)
    assert unify_one(x, s(e)).status == "fail"


def test_old_eigenvar_is_fine():
    e = fresh_evar("e", OBJ)
    x = fresh_lvar("X", OBJ)  # younger than e
    res = unify_one(x, s(e))
    assert res.status == "ok"
    assert res.subst.apply(x) == s(e)


def test_pruning_one_variable_twice_keeps_its_copies_joined():
    k = fresh_lvar("K", OBJ)
    m = fresh_lvar("M", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)  # younger than K: M must drop its argument
    rhs = mk_app(CONS, [App(m, e), App(m, e)])
    res = unify_one(k, rhs)
    assert res.status == "ok"
    _, (first, second) = term_spine(res.subst.apply(k))
    assert first == second
    assert not evars_of(first)


def test_flex_flex_same_variable():
    x = fresh_lvar("X", arrow([OBJ, OBJ], OBJ))
    y = fresh_lvar("Y", arrow([OBJ, OBJ, OBJ], OBJ))
    a, b = fresh_evar("a", OBJ), fresh_evar("b", OBJ)
    lhs, rhs = mk_app(x, [a, b]), mk_app(x, [b, a])
    res = unify_one(lhs, rhs)
    assert _unifies(res, lhs, rhs)
    # the disagreeing positions are gone: X ignores both arguments
    solved = res.subst.apply(mk_app(x, [a, b]))
    assert not evars_of(solved)
    assert isinstance(solved, LVar) and solved.ty == OBJ
    c = fresh_evar("c", OBJ)
    res = unify_one(mk_app(y, [a, b, c]), mk_app(y, [b, a, c]))
    head, args = term_spine(res.subst.apply(mk_app(y, [a, b, c])))
    assert isinstance(head, LVar) and args == [c]


def test_flex_flex_different_variables():
    x = fresh_lvar("X", arrow([OBJ], OBJ))
    y = fresh_lvar("Y", arrow([OBJ], OBJ))
    a, b = fresh_evar("a", OBJ), fresh_evar("b", OBJ)
    lhs, rhs = App(x, a), App(y, b)
    res = unify_one(lhs, rhs)
    assert _unifies(res, lhs, rhs)


def _fn(arity, body):
    """``\\w0..w(arity-1). body``; an int body projects on that binder."""
    ws = [BVar(f"w{j}", OBJ) for j in range(arity)]
    t = ws[body] if isinstance(body, int) else body
    for w in reversed(ws):
        t = Lam(w.name, OBJ, t)
    return t


def test_flex_flex_distinct_heads_keeps_projections():
    # K a = M a e: M := \x y. y with K := \x. e is a unifier, so the
    # one found must still admit it.  e is older than K, which may
    # mention it, and younger than M, which takes it as an argument.
    m = fresh_lvar("M", arrow([OBJ, OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    k = fresh_lvar("K", arrow([OBJ], OBJ))
    a = fresh_evar("a", OBJ)
    lhs, rhs = App(k, a), mk_app(m, [a, e])
    res = unify_one(lhs, rhs)
    assert _unifies(res, lhs, rhs)
    assert unify_one(m, _fn(2, 1), res.subst).status == "ok"
    assert unify_one(k, _fn(1, e), res.subst).status == "ok"


def test_argument_older_than_its_variable_is_no_pattern():
    # K e = M e, e older than both: K := \w. w, M := \w. e and
    # K := \w. e, M := \w. w are incomparable unifiers, so the equation
    # stays residual and each of them can still be added.
    e = fresh_evar("e", OBJ)
    k = fresh_lvar("K", arrow([OBJ], OBJ))
    m = fresh_lvar("M", arrow([OBJ], OBJ))
    eq = Eq(App(k, e), App(m, e))
    assert unify([eq]).status == "residual"
    for kval, mval in ((_fn(1, 0), _fn(1, e)), (_fn(1, e), _fn(1, 0))):
        assert unify([eq, Eq(k, kval), Eq(m, mval)]).status == "ok"


@st.composite
def _distinct_head_patterns(draw):
    """``K x1..xp = M y1..yq`` over eigenvariables, with the eigenvariables,
    K and M created in a random order."""
    n = draw(st.integers(1, 4))
    kidx = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    midx = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    made = {}
    for x in draw(st.permutations(["K", "M", *range(n)])):
        if x == "K":
            made[x] = fresh_lvar("K", arrow([OBJ] * len(kidx), OBJ))
        elif x == "M":
            made[x] = fresh_lvar("M", arrow([OBJ] * len(midx), OBJ))
        else:
            made[x] = fresh_evar(f"e{x}", OBJ)
    return (made["K"], [made[i] for i in kidx],
            made["M"], [made[i] for i in midx])


def _projections(k, kargs, m, margs):
    """Bindings ``V := \\w1..wn. wi`` of either side of ``K kargs = M margs``
    that leave the other side a solvable equation ``xi = W ys``: ``xi``
    is among ``ys``, or older than ``W``."""
    return [(v, _fn(len(args), i))
            for v, args, w, wargs in ((k, kargs, m, margs), (m, margs, k, kargs))
            for i, x in enumerate(args) if x in wargs or x.level < w.level]


def _projection_unifiers(k, kargs, m, margs):
    """Closed unifiers of ``K kargs = M margs`` that project on at least
    one side; a side that does not project returns an eigenvariable old
    enough for it to mention."""
    sols = []
    for i, x in enumerate(kargs):
        sols += [(_fn(len(kargs), i), _fn(len(margs), j))
                 for j, y in enumerate(margs) if x == y]
        if x.level < m.level:
            sols.append((_fn(len(kargs), i), _fn(len(margs), x)))
    sols += [(_fn(len(kargs), y), _fn(len(margs), j))
             for j, y in enumerate(margs) if y.level < k.level]
    return sols


@settings(max_examples=300, deadline=None)
@given(_distinct_head_patterns())
def test_flex_flex_distinct_heads_is_most_general(problem):
    k, kargs, m, margs = problem
    lhs, rhs = mk_app(k, kargs), mk_app(m, margs)
    res = unify_one(lhs, rhs)
    # An argument older than its variable could also be mentioned
    # directly, and then no most general unifier need exist: the
    # equation waits.  With every argument younger (Miller's patterns)
    # each unifier is an instance of the one found.
    if not (all(x.level > k.level for x in kargs) and all(
            y.level > m.level for y in margs)):
        assert res.status == "residual"
        return
    assert _unifies(res, lhs, rhs)
    for v, val in _projections(k, kargs, m, margs):
        assert unify_one(v, val, res.subst).status == "ok"
    for kval, mval in _projection_unifiers(k, kargs, m, margs):
        ground = Subst().extend(k, kval).extend(m, mval)
        assert alpha_eq_term(ground.apply(lhs), ground.apply(rhs))
        assert unify([Eq(k, kval), Eq(m, mval)], res.subst).status == "ok"

# --- residuals ------------------------------------------------------------

def test_flex_applied_to_flex_is_residual():
    f = fresh_lvar("F", arrow([OBJ], OBJ))
    y = fresh_lvar("Y", OBJ)
    res = unify_one(App(f, y), Z)
    assert res.status == "residual"
    assert res.residuals


def test_repeated_argument_is_no_pattern():
    # F e e = s e, e newer than F, has the incomparable unifiers
    # \x y. s x and \x y. s y, so the equation waits and either can
    # still be added
    f = fresh_lvar("F", arrow([OBJ, OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    eq = Eq(mk_app(f, [e, e]), s(e))
    res = unify([eq])
    assert (res.status, res.residuals) == ("residual", (eq,))
    for w in ("w0", "w1"):
        assert unify([eq, Eq(f, _fn(2, s(BVar(w, OBJ))))]).status == "ok"


def test_flexible_occurrence_of_too_new_eigenvar_is_residual():
    # K = s (M (s e)): M applied to a non-pattern may erase its
    # argument, so e, too new for K, neither fails nor is pruned
    k = fresh_lvar("K", OBJ)
    m = fresh_lvar("M", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    eq = Eq(k, s(App(m, s(e))))
    res = unify([eq])
    assert (res.status, res.residuals) == ("residual", (eq,))
    assert len(res.subst) == 0
    res = unify([eq, Eq(m, _fn(1, Z))])
    assert _unifies(res, eq.lhs, eq.rhs)
    assert res.subst.apply(k) == s(Z)


def test_flexible_occurrence_of_the_variable_itself_is_residual():
    # K = s (M K): a rigid K would fail the occurs check, but M may
    # erase its argument
    k = fresh_lvar("K", OBJ)
    m = fresh_lvar("M", arrow([OBJ], OBJ))
    eq = Eq(k, s(App(m, k)))
    res = unify([eq])
    assert (res.status, res.residuals) == ("residual", (eq,))
    res = unify([eq, Eq(m, _fn(1, Z))])
    assert _unifies(res, eq.lhs, eq.rhs)
    assert unify([eq, Eq(m, _fn(1, 0))]).status == "fail"


def test_non_pattern_under_copy_is_copied_and_its_head_lowered():
    # K = s (M z), M newer than e and e newer than K: the non-pattern
    # M z is kept, its argument copied, and M rebuilt at K's level, so
    # it can no longer be bound to the eigenvariable K may not mention;
    # a head no newer than K stays as it is
    older = fresh_lvar("N", arrow([OBJ], OBJ))
    k = fresh_lvar("K", OBJ)
    res = unify_one(k, s(App(older, Z)))
    assert (res.status, len(res.subst)) == ("ok", 1)
    assert res.subst.apply(k) == s(App(older, Z))
    e = fresh_evar("e", OBJ)
    m = fresh_lvar("M", arrow([OBJ], OBJ))
    lhs, rhs = k, s(App(m, Z))
    res = unify_one(lhs, rhs)
    assert _unifies(res, lhs, rhs)
    lowered = res.subst.apply(m)
    assert isinstance(lowered, LVar) and lowered.level == k.level < e.level
    assert res.subst.apply(k) == s(App(lowered, Z))
    assert unify_one(m, _fn(1, e), res.subst).status == "fail"
    assert unify_one(m, _fn(1, 0), res.subst).status == "ok"


def test_copy_renames_a_binder_spelled_like_its_own():
    # K e = c (\w. g e w), with w spelled like the binder the copy makes
    # for e: unless the copy renames w, K := \z. c (\z. g z z) captures
    c = Const("c", arrow([arrow([OBJ], OBJ)], OBJ))
    g = Const("g", arrow([OBJ, OBJ], OBJ))
    a = Const("a", OBJ)
    k = fresh_lvar("K", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    w = BVar(f"z{fresh_level() + 1}", OBJ)
    res = unify_one(App(k, e), App(c, Lam(w.name, OBJ, mk_app(g, [e, w]))))
    assert res.status == "ok"
    got = beta_norm(App(res.subst.apply(k), a))
    assert alpha_eq_term(got, App(c, Lam(w.name, OBJ, mk_app(g, [a, w]))))


def test_terms_print_and_type_as_built():
    e = fresh_evar("e", OBJ)
    lam = Lam("x", OBJ, cons(e, BVar("x", OBJ)))
    assert str(lam) == f"(x\\ (cons {e.name} x))"
    assert type_of(lam) == arrow([OBJ], OBJ)


def test_residual_retried_after_substitution_grows():
    # X may be bound to e, and e is a pattern argument of F
    f = fresh_lvar("F", arrow([OBJ], OBJ))
    e = fresh_evar("e", OBJ)
    x = fresh_lvar("X", OBJ)
    res = unify([Eq(App(f, x), s(Z)), Eq(x, e)])
    assert res.status == "ok"
    assert alpha_eq_term(res.subst.apply(App(f, x)), s(Z))


# --- soundness against brute force ----------------------------------------

def test_reported_failures_have_no_unifier():
    x = fresh_lvar("X", OBJ)
    bad = [(Z, NIL), (s(x), Z), (x, s(x)), (cons(Z, x), s(Z))]
    for lhs, rhs in bad:
        assert unify_one(lhs, rhs).status == "fail"
        assert not oracles.has_unifier_bruteforce(lhs, rhs, HEADS, depth=2)


def test_reported_solutions_really_unify():
    x = fresh_lvar("X", OBJ)
    l = fresh_lvar("L", OBJ)
    good = [(x, s(Z)), (cons(x, l), cons(Z, NIL)), (s(s(x)), s(s(NIL)))]
    for lhs, rhs in good:
        res = unify_one(lhs, rhs)
        assert _unifies(res, lhs, rhs)


# --- substitutions --------------------------------------------------------

def test_subst_stays_idempotent():
    x = fresh_lvar("X", OBJ)
    y = fresh_lvar("Y", OBJ)
    sub = Subst().extend(x, s(y)).extend(y, Z)
    assert sub.apply(x) == s(Z)  # y's binding resolved on apply
    assert sub.apply(sub.apply(x)) == sub.apply(x)


def test_extend_applies_existing_bindings_to_new_range():
    x = fresh_lvar("X", OBJ)
    y = fresh_lvar("Y", OBJ)
    sub = Subst().extend(y, Z).extend(x, cons(y, NIL))
    assert sub.apply(x) == cons(Z, NIL)


def test_long_variable_chain_resolves_without_recursion():
    xs = [fresh_lvar("X", OBJ) for _ in range(10_001)]
    links = dict(zip(xs, xs[1:]))
    links[xs[-1]] = Z
    sub = Subst(links)
    assert sub.apply(xs[0]) == Z
    assert sub.apply(cons(xs[0], xs[5000])) == cons(Z, Z)


# --- triangular against eager folding -------------------------------------

OBJ_VARS = [fresh_lvar(f"X{i}", OBJ) for i in range(4)]
FUN_VARS = [fresh_lvar(f"F{i}", arrow([OBJ], OBJ)) for i in range(2)]


def _obj_terms(under_binder: bool):
    leaves = [st.just(Z), st.just(NIL), st.sampled_from(OBJ_VARS)]
    if under_binder:
        leaves.append(st.just(BVar("x", OBJ)))
    return st.recursive(
        st.one_of(leaves),
        lambda sub: st.one_of(
            sub.map(s),
            st.tuples(sub, sub).map(lambda p: cons(*p)),
            st.tuples(st.sampled_from(FUN_VARS), sub).map(lambda p: App(*p))),
        max_leaves=6)


_BINDINGS = st.lists(st.one_of(
    st.tuples(st.sampled_from(OBJ_VARS), _obj_terms(False)),
    st.tuples(st.sampled_from(FUN_VARS),
              _obj_terms(True).map(lambda b: Lam("x", OBJ, b)))),
    max_size=8)


def _reaches(raw: dict, t, v) -> bool:
    """Whether `t` mentions `v`, directly or through the ranges of `raw`."""
    stack, seen = [t], set()
    while stack:
        for u in lvars_in_order([stack.pop()]):
            if u == v:
                return True
            if u in raw and u not in seen:
                seen.add(u)
                stack.append(raw[u])
    return False


@settings(max_examples=300, deadline=None)
@given(_BINDINGS, _obj_terms(False))
def test_triangular_subst_agrees_with_eager_folding(steps, query):
    tri, eager = Subst(), oracles.EagerSubst()
    raw: dict = {}
    for v, t in steps:
        # Bind only unbound variables, and keep the stored map acyclic,
        # as unification's occurs check does.
        if v in raw or _reaches(raw, t, v):
            continue
        raw[v] = t
        tri, eager = tri.extend(v, t), eager.extend(v, t)
    assert alpha_eq_term(tri.apply(query), eager.apply(query))
    for v in OBJ_VARS + FUN_VARS:
        # an unbound variable applies to itself, a bound one never does
        assert alpha_eq_term(tri.apply(v), eager.apply(v))
