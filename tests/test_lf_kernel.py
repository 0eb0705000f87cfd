import re
import shlex
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from lflp import lf_kernel, lf_syntax as lf
from lflp.lf_kernel import (
    LFTypeError, beta_normalize, check_object, check_signature, check_type,
    classifier_dependencies, convertible, instantiate_normal,
    normal_classifier, substitute,
)

import oracles


def _parse_obj(text):
    return lf.parse_object(text)


def _parse_fam(text, sig):
    if text.lstrip().startswith("{"):
        ext = lf.parse_signature(oracles.print_signature(sig) + "\n_q : "
                                 + text + ".")
        return ext.lookup("_q")
    _, fam = lf.parse_query(text, sig)
    return fam


# --- substitution ---------------------------------------------------------

def test_substitute_first_order():
    sig = oracles.load_signature("append.elf")
    pi = _parse_fam("{l:list} append nil l l", sig)
    out = substitute(pi.body, (_parse_obj("cons z nil"),))
    assert lf.alpha_eq(out, _parse_fam("append nil (cons z nil) (cons z nil)", sig))


def test_substitute_respects_shadowing():
    # a bound y is an index, which no free name reaches; and a term with
    # no loose index is returned as it is
    m = _parse_obj("[y:nat] y")
    assert substitute(m, free={"y": lf.OConst("z")}) is m
    assert substitute(m, (lf.OConst("z"),)) is m


def test_substitute_keeps_redex_until_normalization():
    # (x (w y)) with a lambda substituted for x must leave a beta redex
    m = lf.OApp(lf.OVar("x"), lf.OApp(lf.OVar("w"), lf.OVar("y")))
    lam = _parse_obj("[w1:nat] [y1:nat] z")
    out = substitute(m, free={"x": lam})
    assert isinstance(out, lf.OApp) and isinstance(out.fn, lf.OLam)
    # and agrees with the rename-then-replace oracle after normalization
    want = oracles.normalize_by_steps(
        oracles.naive_substitute(m, {"x": oracles.lf_to_named(lam)}))
    assert lf.alpha_eq(beta_normalize(out), oracles.lf_to_indexed(want))


def test_substitute_capture_avoidance():
    # substituting a term mentioning y under a binder hinted y captures
    # nothing and renames nothing: the free y stays free, and only the
    # printer picks another name for the binder
    m = oracles.lf_to_indexed(
        lf.OLam("y", lf.FConst("nat"), lf.OApp(lf.OVar("x"), lf.OVar("y"))))
    out = substitute(m, free={"x": lf.OVar("y")})
    assert out == lf.OLam("y", lf.FConst("nat"),
                          lf.OApp(lf.OVar("y"), lf.OBVar(0)))
    want = oracles.naive_substitute(oracles.lf_to_named(m),
                                    {"x": lf.OVar("y")})
    assert lf.alpha_eq(out, oracles.lf_to_indexed(want))
    assert lf.print_lf(out) == "[y1:nat] y y1"


def test_substitute_lifts_a_value_over_the_binders_it_passes():
    # index 0 of [w:nat] #0 #1 is w, and #1 the binder being replaced;
    # the value #0, a variable bound outside, moves past w to #1
    body = lf.OLam("w", lf.FConst("nat"), lf.obj_app(lf.OConst("g"), [
        lf.OBVar(0), lf.OBVar(1)]))
    out = substitute(body, (lf.OBVar(0),))
    assert out == lf.OLam("w", lf.FConst("nat"), lf.obj_app(lf.OConst("g"), [
        lf.OBVar(0), lf.OBVar(1)]))
    assert substitute(lf.OBVar(3), (lf.OConst("z"),)) == lf.OBVar(2)
    assert substitute(lf.OBVar(3), (), 2) == lf.OBVar(5)


# --- instantiation --------------------------------------------------------

# Each kind of beta-normal value instantiate_normal must treat as
# beta_normalize(substitute(..)) does.  Their free names x and y are
# hints of binders in the corpus.
_NAT = lf.FConst("nat")
_INSTANCE_VALUES = {
    "normal": lf.OApp(lf.OVar("y"), lf.OVar("x")),
    "lambda": lf.OLam("w", _NAT, lf.OApp(lf.OVar("y"), lf.OBVar(0))),
}


def _pis(e):
    while isinstance(e, (lf.KPi, lf.FPi)):
        yield e
        e = e.body


@pytest.mark.parametrize("name",
                         sorted(p.name for p in oracles.DATA.glob("*.elf")))
@pytest.mark.parametrize("kind", sorted(_INSTANCE_VALUES))
def test_instantiate_equals_normalized_substitution(name, kind):
    sig = oracles.load_signature(name)
    value = _INSTANCE_VALUES[kind]
    cases = 0
    for d in sig.decls:
        classifier = normal_classifier(sig, d.name)
        pis = list(_pis(classifier))
        telescope = (value,) * len(pis)
        for e, sub in [(pi.body, (value,)) for pi in pis] + \
                [(pis[-1].body if pis else classifier, telescope)]:
            assert instantiate_normal(e, sub) == \
                beta_normalize(substitute(e, sub))
            cases += 1
    assert cases >= len(sig.decls)


def test_instantiate_renames_a_capturing_binder():
    # {y} p x y y1 with x := y: the binder keeps its hint and captures
    # nothing, and prints avoiding y and the free y1, as the named
    # substitution renamed it
    def p(*args):
        return oracles.fam_app(lf.FConst("p"), [
            lf.OBVar(0) if a == 0 else lf.OVar(a) for a in args])

    e = lf.FPi("y", _NAT, p("x", 0, "y1"))
    out = instantiate_normal(e, free={"x": lf.OVar("y")})
    assert out == beta_normalize(substitute(e, free={"x": lf.OVar("y")}))
    assert out == lf.FPi("y", _NAT, p("y", 0, "y1"))
    assert lf.print_lf(out) == "{y2:nat} p y y2 y1"
    named = oracles.named_lf_subst(oracles.lf_to_named(e), {"x": lf.OVar("y")})
    assert oracles.show(named) == "{y2:nat} p y y2 y1"


# --- beta normalization ---------------------------------------------------

def test_beta_single_redex():
    m = _parse_obj("([x:nat] s x) z")
    assert beta_normalize(m) == _parse_obj("s z")


def test_beta_identity_on_normal_form():
    m = _parse_obj("cons z nil")
    assert beta_normalize(m) == m


def _redex_towers(depth):
    base = st.sampled_from([lf.OConst("z"), lf.OVar("v")])
    if depth == 0:
        return base
    sub = _redex_towers(depth - 1)
    nat = lf.FConst("nat")
    return st.one_of(
        base,
        st.builds(lambda b: lf.OApp(lf.OConst("s"), b), sub),
        st.builds(lambda v, b, a: lf.OApp(lf.OLam(v, nat, b), a),
                  st.sampled_from(["v", "u"]), sub, sub),
        st.builds(lambda v, b: lf.OLam(v, nat, b),
                  st.sampled_from(["v", "u"]), sub),
    )


@settings(max_examples=150, deadline=None)
@given(_redex_towers(4))
def test_beta_agrees_with_small_step_oracle(m):
    assert lf.alpha_eq(beta_normalize(oracles.lf_to_indexed(m)),
                       oracles.lf_to_indexed(oracles.normalize_by_steps(m)))


# Named objects and types whose binders reuse three names, so a binder
# shadows another or would capture a free name of a value; the package's
# indexed results must equal the named reference's up to hints.
_POOL = ["x", "y", "w"]


@st.composite
def _named_obj(draw, outer=(), scope=(), depth=3, redexes=True):
    # a lambda's variable never heads an application, so every term
    # normalizes; `outer` names variables bound outside, which may
    kind = draw(st.integers(0, 4 if depth else 0))
    if kind == 0:
        return draw(st.sampled_from(
            [lf.OConst("z"), lf.OVar("x"), lf.OVar("y")]
            + [lf.OVar(v) for v in outer + scope]))
    if kind == 1:
        v = draw(st.sampled_from(_POOL))
        return lf.OLam(v, _NAT, draw(_named_obj(outer, scope + (v,),
                                                depth - 1, redexes)))
    if kind == 2 and redexes:
        v = draw(st.sampled_from(_POOL))
        return lf.OApp(lf.OLam(v, _NAT, draw(_named_obj(
            outer, scope + (v,), depth - 1))),
            draw(_named_obj(outer, scope, depth - 1)))
    head = draw(st.sampled_from([lf.OConst("g")] + [
        lf.OVar(v) for v in ("x", "y", *outer) if v not in scope]))
    return lf.obj_app(head, [draw(_named_obj(outer, scope, depth - 1,
                                             redexes))
                             for _ in range(draw(st.integers(1, 2)))])


@st.composite
def _named_fam(draw, outer=(), scope=(), depth=2, redexes=True):
    if depth and draw(st.booleans()):
        v = draw(st.sampled_from(_POOL))
        dom = draw(st.one_of(st.just(_NAT),
                             _named_fam(outer, scope, depth - 1, redexes)))
        return lf.FPi(v, dom, draw(_named_fam(outer, scope + (v,),
                                              depth - 1, redexes)))
    return lf.FApp(lf.FConst("p"), draw(_named_obj(outer, scope, depth,
                                                   redexes)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_named_obj(), _named_fam()))
def test_beta_normalize_agrees_with_the_named_reference(e):
    assert lf.alpha_eq(beta_normalize(oracles.lf_to_indexed(e)),
                       oracles.lf_to_indexed(oracles.named_lf_norm(e)))


_OUTER = ("b0", "b1")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.one_of(_named_obj(("c",) + _OUTER[:n], redexes=False),
              _named_fam(("c",) + _OUTER[:n], redexes=False)),
    st.lists(_named_obj(("c",), redexes=False), min_size=n, max_size=n))))
def test_instantiate_normal_agrees_with_the_named_reference(case):
    # `e` under binders c (outermost), b0 and b1, with b0 and b1
    # instantiated by `values`, which may mention c: each value is
    # normal, moves under the binders of `e` it passes, and its free x
    # and y meet binders of `e` named alike, which the reference renames
    # and the package need not
    e, values = case
    names = _OUTER[:len(values)]
    e = oracles.named_lf_norm(e)
    values = [oracles.named_lf_norm(v) for v in values]
    got = instantiate_normal(oracles.lf_to_indexed(e, ("c",) + names), [
        oracles.lf_to_indexed(v, ("c",)) for v in reversed(values)])
    want = oracles.named_lf_norm(oracles.named_lf_subst(
        e, dict(zip(names, values))))
    assert lf.alpha_eq(got, oracles.lf_to_indexed(want, ("c",)))
    by_name = instantiate_normal(oracles.lf_to_indexed(e), free={
        name: oracles.lf_to_indexed(v) for name, v in zip(names, values)})
    assert lf.alpha_eq(by_name, oracles.lf_to_indexed(want))


# --- conversion and canonical forms ----------------------------------------
# The kernel compares eta-short forms; the typed eta-long canonical forms
# these tests were first written against are the oracle's `canonicalize`.
# Each case also pins the term with one constant changed as unequal; the
# new constants (`p`, `one`, `appNil2`) need no declaration, since
# conversion reads no types.

def _assert_conversion(short, long, changed):
    short, long, changed = (_parse_obj(t) for t in (short, long, changed))
    assert convertible(short, long) and convertible(long, short)
    assert not convertible(short, changed)
    assert not convertible(long, changed)


def test_canonicalize_eta_expands_bare_constant():
    sig = oracles.load_signature("append.elf")
    out = oracles.canonicalize(sig, {}, lf.OConst("s"), sig.lookup("s"))
    assert lf.alpha_eq(out, _parse_obj("[x:nat] s x"))
    _assert_conversion("s", "[x:nat] s x", "[x:nat] p x")


def test_canonicalize_base_type_unchanged():
    sig = oracles.load_signature("append.elf")
    out = oracles.canonicalize(sig, {}, lf.OConst("z"), lf.FConst("nat"))
    assert out == lf.OConst("z")
    _assert_conversion("z", "z", "one")


def test_canonicalize_identifies_eta_pair():
    sig = oracles.load_signature("append.elf")
    ty = sig.lookup("s")
    eta = _parse_obj("[x:nat] s x")
    a = oracles.canonicalize(sig, {}, lf.OConst("s"), ty)
    b = oracles.canonicalize(sig, {}, eta, ty)
    assert lf.alpha_eq(a, b)
    assert convertible(lf.OConst("s"), eta) and convertible(eta, lf.OConst("s"))


def test_canonicalize_idempotent_on_corpus():
    sig = oracles.load_signature("append.elf")
    for text, ty_text, long, changed in [
            ("s", "nat -> nat", "[x:nat] s x", "[x:nat] p x"),
            ("[x:nat] s x", "nat -> nat", "[x:nat] s x", "[x:nat] p x"),
            ("cons z", "list -> list", "[l:list] cons z l",
             "[l:list] cons one l"),
            ("appNil", "{l:list} append nil l l", "[l:list] appNil l",
             "[l:list] appNil2 l"),
            ("z", "nat", "z", "one")]:
        decls = "t : " + ty_text + "."
        ty = lf.parse_signature(oracles.print_signature(sig) + " "
                                + decls).lookup("t")
        once = oracles.canonicalize(sig, {}, _parse_obj(text), ty)
        twice = oracles.canonicalize(sig, {}, once, ty)
        assert lf.alpha_eq(once, twice)
        assert lf.alpha_eq(once, _parse_obj(long))
        _assert_conversion(text, long, changed)


# Random well-typed beta-normal objects over second- and third-order
# constants, each either eta-short or expanded at any arrow type.  `g`
# takes two arguments, so a body `g x x` is no eta-redex, and binders
# reuse two names, so an inner one may shadow an outer one.  Simple types
# are "nat" or (domain, codomain) pairs.

_HO_SIG = lf.parse_signature("""
    nat : type.  z : nat.  s : nat -> nat.  g : nat -> nat -> nat.
    h : (nat -> nat) -> nat.
    k : ((nat -> nat) -> nat) -> nat.
    p : (nat -> nat) -> type.""")
_N = "nat"
_F1 = (_N, _N)
_HO_CONSTS = {"z": _N, "s": _F1, "g": (_N, _F1), "h": (_F1, _N),
              "k": ((_F1, _N), _N)}


def _lf_ty(t):
    if t == _N:
        return lf.FConst("nat")
    return lf.FPi("_", _lf_ty(t[0]), _lf_ty(t[1]))


def _args_to(t, target):
    """The argument types that take a head of type `t` to `target`."""
    args = []
    while t != target:
        if t == _N:
            return None
        args.append(t[0])
        t = t[1]
    return args


@st.composite
def _beta_normal(draw, t, ctx=None, depth=2):
    ctx = ctx or {}
    if t != _N and draw(st.booleans()):
        v = draw(st.sampled_from(["x", "y"]))
        body = draw(_beta_normal(t[1], {**ctx, v: t[0]}, depth))
        return lf.OLam(v, _lf_ty(t[0]), body)
    heads = [(lf.OConst(c), ht) for c, ht in _HO_CONSTS.items()]
    heads += [(lf.OVar(v), vt) for v, vt in ctx.items()]
    options = [(head, args) for head, ht in heads
               if (args := _args_to(ht, t)) is not None and (depth or not args)]
    head, args = draw(st.sampled_from(options))
    return lf.obj_app(head, [draw(_beta_normal(a, ctx, depth - 1))
                             for a in args])


def _beta_normal_indexed(t):
    return _beta_normal(t).map(oracles.lf_to_indexed)


def _canon(e, ty=None):
    return oracles.canonicalize(_HO_SIG, {}, e, ty)


def _assert_agrees(a, b, ty=None):
    assert convertible(a, b) == lf.alpha_eq(_canon(a, ty), _canon(b, ty))


def test_conversion_contracts_only_eta_redexes():
    # the inner [x] g x x is no eta-redex: its x is not the outer one
    nat, g, h = lf.FConst("nat"), lf.OConst("g"), lf.OConst("h")
    x = lf.OVar("x")
    inner = lf.OLam("x", nat, lf.obj_app(g, [x, x]))
    a = oracles.lf_to_indexed(lf.OLam("x", nat, lf.OApp(h, inner)))
    b = oracles.lf_to_indexed(lf.OLam("x", nat, lf.OApp(h, lf.OApp(g, x))))
    assert not convertible(a, b)
    assert not lf.alpha_eq(_canon(a, _lf_ty(_F1)), _canon(b, _lf_ty(_F1)))


# Each object is paired with its oracle eta-long form and with another
# random object of its type, and that object with the eta-long form.

@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(_HO_CONSTS.values())).flatmap(
    lambda t: st.tuples(st.just(t), _beta_normal_indexed(t),
                        _beta_normal_indexed(t))))
def test_conversion_agrees_with_typed_canonical_forms(case):
    t, m, n = case
    ty = _lf_ty(t)
    for x in (m, n):
        check_object(_HO_SIG, {}, x, ty)
    long = _canon(m, ty)
    assert convertible(m, long)
    for a, b in [(m, long), (m, n), (long, n)]:
        _assert_agrees(a, b, ty)


@settings(max_examples=200, deadline=None)
@given(_beta_normal_indexed(_F1), _beta_normal_indexed(_F1))
def test_family_conversion_agrees_with_typed_canonical_forms(m, n):
    def p(x):
        return lf.FApp(lf.FConst("p"), x)
    long = _canon(m, _lf_ty(_F1))
    for a, b in [(m, long), (m, n), (long, n)]:
        _assert_agrees(p(a), p(b))


# --- signature checking ---------------------------------------------------

def test_fig2_signature_accepted():
    check_signature(oracles.load_signature("append.elf"))


def test_empty_signature_accepted():
    check_signature(lf.parse_signature(""))


def test_underapplied_family_rejected():
    text = ("nat : type. z : nat. s : nat -> nat. "
            "plus : nat -> nat -> nat -> type. "
            "plusZ : {x:nat} plus z x.")
    with pytest.raises(LFTypeError):
        check_signature(lf.parse_signature(text))


def test_object_at_kind_position_rejected():
    with pytest.raises(LFTypeError):
        check_signature(lf.parse_signature("nat : type. c : z."))


# --- the name index and the normal-form memo ------------------------------

def test_forward_reference_rejected():
    # `foo` is declared, but only after the declaration that uses it
    sig = lf.parse_signature("nat : type. z : nat. f : foo z. foo : nat -> type.")
    with pytest.raises(LFTypeError) as e:
        check_signature(sig)
    assert str(e.value) == ("[var-fam] unknown type constant 'foo' "
                            "(in declaration 'f')")


def test_object_constant_as_type_message():
    with pytest.raises(LFTypeError) as e:
        check_signature(lf.parse_signature("nat : type. z : nat. c : z."))
    assert str(e.value) == ("[var-fam] object constant 'z' used as a type "
                            "(in declaration 'c')")


def test_duplicate_name_looks_up_first_declaration():
    first, second = lf.FConst("a"), lf.FConst("b")
    sig = lf.Signature((lf.KindDecl("a", lf.KType()), lf.KindDecl("b", lf.KType()),
                        lf.ObjDecl("c", first), lf.ObjDecl("c", second)))
    assert sig.lookup("c") is first
    assert normal_classifier(sig, "c") == first
    assert [n for n in "abcd" if sig.lookup(n) is not None] == ["a", "b", "c"]


def test_kernel_rejects_a_duplicate_declaration():
    # the parser refuses a duplicate in text first, so the kernel's own
    # rule is reached only by a signature built by hand
    sig = lf.Signature((lf.KindDecl("nat", lf.KType()),
                        lf.KindDecl("nat", lf.KType())))
    with pytest.raises(LFTypeError) as e:
        check_signature(sig)
    assert str(e.value) == "[kind-sig] duplicate declaration of 'nat' (in nat)"


def test_prefix_hides_later_declarations():
    sig = oracles.load_signature("append.elf")
    n = [d.name for d in sig.decls].index("append")
    assert sig.prefix(n).lookup("append") is None
    assert sig.prefix(n + 1).lookup("append") is sig.lookup("append")
    assert normal_classifier(sig.prefix(n), "append") is None


@pytest.mark.parametrize("name", sorted(
    p.name for p in oracles.DATA.glob("*.elf")))
def test_binder_table_agrees_with_the_walk(name):
    # for each Pi binder of a constant's normal classifier, whether the
    # rest of the classifier mentions it, as the walk over it decides
    sig = oracles.load_signature(name)
    for i, d in enumerate(sig.decls):
        want = []
        a = normal_classifier(sig, d.name)
        while isinstance(a, (lf.KPi, lf.FPi)):
            want.append(lf.occurs_free(a.body))
            a = a.body
        a = normal_classifier(sig, d.name)
        deps = classifier_dependencies(sig, d.name, a)
        assert deps == tuple(want)
        # recorded once, and read by every prefix and view of `sig`
        assert classifier_dependencies(sig.prefix(i + 1),
                                       d.name, a) is deps
        assert classifier_dependencies(sig.view(()),
                                       d.name, a) is deps
        # a prefix hides a later name at the lookup its caller makes first
        assert normal_classifier(sig.prefix(i), d.name) is None


def test_each_constant_is_looked_up_once_per_occurrence(monkeypatch):
    # a spine's head reads its dependencies beside the classifier just
    # looked up: `cons z nil` looks up cons, z and nil once each
    sig = oracles.load_signature("append.elf")
    names = []

    def counted(sig, name):
        names.append(name)
        return normal_classifier(sig, name)

    monkeypatch.setattr(lf_kernel, "normal_classifier", counted)
    check_object(sig, {}, lf.parse_object("cons z nil"))
    assert sorted(names) == ["cons", "nil", "z"]


@pytest.mark.parametrize("text", ["[x:nat] s x", "[x:nat] cons x (cons x nil)"])
def test_variable_is_typed_as_its_context_holds_it(monkeypatch, text):
    # a context holds normal types, and the check of the binder's domain
    # finds it normal, so once the memo holds the constants' classifiers
    # nothing is normalized, however often the variable occurs
    sig = oracles.load_signature("append.elf")
    m = lf.parse_object(text)
    check_object(sig, {}, m)
    calls = []

    def counted(e):
        calls.append(e)
        return beta_normalize(e)

    monkeypatch.setattr(lf_kernel, "beta_normalize", counted)
    check_object(sig, {}, m)
    assert calls == []


def test_a_binder_domain_is_normalized_only_when_it_holds_a_redex(monkeypatch):
    # the redex argument is normalized where it is checked, and the
    # domain that holds it where it is bound; the normal domain is not
    sig = lf.parse_signature("nat : type. z : nat. p : nat -> type.")
    m = lf.parse_object("[x:p (([y:nat] y) z)] [w:p z] x")
    check_object(sig, {}, m)
    calls = []

    def counted(e):
        calls.append(e)
        return beta_normalize(e)

    monkeypatch.setattr(lf_kernel, "beta_normalize", counted)
    assert str(check_object(sig, {}, m)) == "p z -> p z -> p z"
    assert [str(e) for e in calls] == ["([y:nat] y) z", "p (([y:nat] y) z)"]


def test_an_alpha_variant_argument_type_is_compared_without_normalizing(
        monkeypatch):
    # g's type {y:a} b y is q's domain {x:a} b x up to its binder's name,
    # so the two differ as objects and the spine compares them; both are
    # normal already, so once the memo holds the constants' classifiers,
    # checking t's type normalizes nothing
    sig = lf.parse_signature("a : type. b : a -> type. "
                             "q : ({x:a} b x) -> type. g : {y:a} b y. t : q g.")
    check_signature(sig)
    calls = []

    def counted(e):
        calls.append(e)
        return beta_normalize(e)

    monkeypatch.setattr(lf_kernel, "beta_normalize", counted)
    assert check_type(sig, {}, sig.lookup("t")) == lf.KType()
    assert calls == []


def test_a_lambda_argument_normalizes_only_what_mentions_it(monkeypatch):
    # f := [w:nat] w is held for the target, which mentions f, so the
    # target is normalized; the domains of x and y do not mention f and
    # are not, and the lambda's type {w:nat} nat meets f's domain
    # nat -> nat, an alpha-variant, without a normalization
    sig = lf.parse_signature("nat : type. z : nat. p : nat -> type. "
                             "c : {f:nat -> nat} {x:nat} {y:nat} p (f y).")
    check_signature(sig)
    m = lf.parse_object("c ([w:nat] w) z z")
    check_object(sig, {}, m)
    calls = []

    def counted(e):
        calls.append(e)
        return beta_normalize(e)

    monkeypatch.setattr(lf_kernel, "beta_normalize", counted)
    assert str(check_object(sig, {}, m)) == "p z"
    assert [str(e) for e in calls] == ["p (([w:nat] w) z)"]


def test_a_check_leaves_its_caller_s_context_as_it_was():
    # a binder is pushed on the check's own stack, never on the caller's
    # context, and popped again whether the check returns or raises
    sig = oracles.load_signature("append.elf")
    nat, list_ = lf.FConst("nat"), lf.FConst("list")
    ctx = {"N": nat, "L": list_}
    good = lf.parse_query("append (cons (([N:nat] s N) N) L) L nil", sig)[1]
    bad = lf.parse_query("append (cons (([N:nat] s L) N) L) L nil", sig)[1]
    for judge, term, ok in [
            (check_type, oracles.lf_to_indexed(lf.FPi("L", list_, good)), True),
            (check_type, oracles.lf_to_indexed(lf.FPi("L", list_, bad)), False),
            (check_object, lf.spine(good)[1][0], True),
            (check_object, lf.spine(bad)[1][0], False)]:
        if ok:
            judge(sig, ctx, term)
        else:
            with pytest.raises(LFTypeError, match="has type list, expected nat"):
                judge(sig, ctx, term)
        assert list(ctx.items()) == [("N", nat), ("L", list_)]


def test_600_nested_binders_check_under_the_default_recursion_limit():
    # a binder rule checks its body in its own frame, so 600 nested Pi
    # binders or lambdas take about 600 frames, not twice that; the
    # checks run on a fresh thread, whose stack holds none of pytest's
    # frames
    n = 600
    decls = "nat : type. z : nat. c : " + "".join(
        f"{{x{i}:nat}} " for i in range(n)) + "nat."
    lam = lf.OConst("z")
    for i in reversed(range(n)):
        lam = lf.OLam(f"x{i}", lf.FConst("nat"), lam)
    results = []

    def check():
        sig = lf.parse_signature(decls)
        check_signature(sig)
        t = check_object(sig, {}, lam)
        depth = 0
        while isinstance(t, lf.FPi):
            t, depth = t.body, depth + 1
        results.append((depth, t))

    worker = threading.Thread(target=check)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [(n, lf.FConst("nat"))]


def test_normal_form_of_redex_classifier_is_memoized():
    sig = lf.parse_signature("nat : type. z : nat. p : nat -> type. "
                             "c : p (([x:nat] x) z).")
    check_signature(sig)
    source = sig.lookup("c")
    nf = normal_classifier(sig, "c")
    assert nf == beta_normalize(source) == _parse_fam("p z", sig)
    assert nf != source
    assert normal_classifier(sig, "c") is nf
    assert check_object(sig, {}, lf.OConst("c")) is nf


# --- type checking --------------------------------------------------------

def test_check_type_fully_applied():
    sig = oracles.load_signature("append.elf")
    k = check_type(sig, {}, _parse_fam("append nil nil nil", sig))
    assert k == lf.KType()


def test_check_type_wrong_argument_family():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(LFTypeError):
        check_type(sig, {}, _parse_fam("append z nil nil", sig))


def test_check_type_pi():
    sig = oracles.load_signature("append.elf")
    a = _parse_fam("{l:list} append nil l l", sig)
    assert check_type(sig, {}, a) == lf.KType()


# --- object checking ------------------------------------------------------

def test_check_object_worked_example():
    sig = oracles.load_signature("append.elf")
    m = _parse_obj("appCons z nil nil nil (appNil nil)")
    t = check_object(sig, {}, m)
    assert lf.alpha_eq(t, _parse_fam("append (cons z nil) nil (cons z nil)", sig))


def test_check_object_abstraction():
    sig = oracles.load_signature("append.elf")
    t = check_object(sig, {}, _parse_obj("[y:nat] y"))
    assert isinstance(t, lf.FPi)
    assert t.dom == lf.FConst("nat") and t.body == lf.FConst("nat")


def test_check_object_argument_mismatch():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(LFTypeError):
        check_object(sig, {}, _parse_obj("appNil z"))


def test_check_object_judges_its_expected_type():
    # the expected type is checked as given, before it is normalized: a
    # redex whose argument is ill-typed is refused, though its normal
    # form, append nil nil nil, is the type of appNil nil
    sig = oracles.load_signature("append.elf")
    m = _parse_obj("appNil nil")
    t = check_object(sig, {}, m,
                     _parse_fam("append nil nil (([x:nat] nil) z)", sig))
    assert lf.alpha_eq(t, _parse_fam("append nil nil nil", sig))
    with pytest.raises(LFTypeError,
                       match=r"\[app-obj\] nil has type list, expected nat"):
        check_object(sig, {}, m,
                     _parse_fam("append nil nil (([x:nat] nil) nil)", sig))


def test_check_object_unbound_variable():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(LFTypeError):
        check_object(sig, {}, lf.OVar("q"))


# --- invariants -----------------------------------------------------------

def test_synthesized_types_are_normal():
    sig = oracles.load_signature("append.elf")
    for m, ty in oracles.corpus_cases(sig, ["nat", "list"], budget=5):
        t = check_object(sig, {}, m)
        assert lf.alpha_eq(beta_normalize(t), t)


def test_substitution_lemma_on_instances():
    # if x:A |- M : B and |- N : A then |- M[N/x] : B[N/x]
    sig = oracles.load_signature("append.elf")
    ctx = {"x": lf.FConst("nat")}
    bodies = list(oracles.enumerate_objects(sig, ctx, lf.FConst("list"), 6))
    args = list(oracles.enumerate_objects(sig, {}, lf.FConst("nat"), 3))
    assert bodies and args
    checked = 0
    for m in bodies[:40]:
        b = check_object(sig, ctx, m)
        for n in args[:3]:
            inst = beta_normalize(substitute(m, free={"x": n}))
            want = beta_normalize(substitute(b, free={"x": n}))
            check_object(sig, {}, inst, want)
            checked += 1
    assert checked >= 50


def test_synthesis_deterministic():
    sig = oracles.load_signature("append.elf")
    m = _parse_obj("appCons z nil nil nil (appNil nil)")
    t1 = check_object(sig, {}, m)
    t2 = check_object(sig, {}, m)
    assert lf.alpha_eq(t1, t2)


def test_beta_eta_equality_collapses_eta_expansion():
    assert convertible(_parse_obj("[x:nat] s x"), lf.OConst("s"))


# --- the spine loop against one argument at a time -------------------------
# `oracles.ref_check_object` and `oracles.ref_check_type` keep the
# application rules that instantiate the remaining Pi body with each
# argument in turn.  On every input the kernel must synthesize an
# alpha-equal classifier, or raise an error of the same rule with the
# same message up to alpha: where a binder is renamed to avoid capture,
# one simultaneous map may pick another fresh name than a chain of
# single ones, so each classifier a message prints is parsed back and
# compared with `alpha_eq`, and the rest of the message as text.

def _outcome(check, *args):
    try:
        return check(*args), None
    except LFTypeError as err:
        return None, err


# The messages that print classifiers: every group but `text` is one.
_PRINTING = [re.compile(p) for p in (
    r"(?P<text>.*) has type (?P<t>.*), expected (?P<want>.*)",
    r"(?P<text>.*) of type (?P<t>.*) applied to an argument",
    r"(?P<text>.*) has kind (?P<k>.*), not type",
)]


def _message_parts(message):
    """The fixed part of `message` and the classifiers it prints, each
    parsed back."""
    for pattern in _PRINTING:
        m = pattern.fullmatch(message)
        if m:
            printed = [lf.parse_signature(f"printed : {text}.").decls[0]
                       for name, text in m.groupdict().items()
                       if name != "text"]
            return ((pattern.pattern, m["text"]),
                    [d.kind if isinstance(d, lf.KindDecl) else d.fam
                     for d in printed])
    return message, []


def _assert_same(check, ref, *args):
    (got, err), (want, ref_err) = _outcome(check, *args), _outcome(ref, *args)
    if err is None or ref_err is None:
        assert err is ref_err is None, (err, ref_err)
        assert lf.alpha_eq(got, want), (got, want)
        return None
    assert (err.rule, err.loc) == (ref_err.rule, ref_err.loc)
    text, printed = _message_parts(err.message)
    ref_text, ref_printed = _message_parts(ref_err.message)
    assert text == ref_text, (str(err), str(ref_err))
    assert len(printed) == len(ref_printed) and all(
        lf.alpha_eq(a, b) for a, b in zip(printed, ref_printed)), \
        (str(err), str(ref_err))
    return str(err)


@pytest.mark.parametrize("name",
                         sorted(p.name for p in oracles.DATA.glob("*.elf")))
def test_spine_loop_matches_one_at_a_time_rules_on_corpus(name):
    sig = oracles.load_signature(name)
    for i, d in enumerate(sig.decls):
        prefix = sig.prefix(i)
        if isinstance(d, lf.ObjDecl):
            _assert_same(check_type, oracles.ref_check_type, prefix,
                         {}, d.fam)
            continue
        ctx, k = {}, d.kind
        while isinstance(k, lf.KPi):
            _assert_same(check_type, oracles.ref_check_type, prefix, ctx,
                         k.dom)
            # the binder opened: its index 0 becomes a context variable
            ctx, k = ({**ctx, k.var: beta_normalize(k.dom)},
                      substitute(k.body, (lf.OVar(k.var),)))


def _transcript_objects():
    """(signature, context, object) for every LF object `lflp solve`
    printed in the recorded transcript: inhabitants and query variable
    values, in the context its `% free:` lines declare."""
    text = (oracles.DATA / "cli_transcript.txt").read_text(encoding="utf-8")
    for chunk in text.split("$ lflp ")[1:]:
        command, *lines = chunk.splitlines()
        argv = shlex.split(command)
        if argv[0] != "solve":
            continue
        sig = oracles.load_signature(argv[1])
        # each free variable binds the objects after it, as a lambda does
        frees = []
        for line in lines:
            if line.startswith("---"):
                continue
            if line.startswith("% solution "):
                frees = []
                continue
            if line.startswith("% free: "):
                frees.append(line[len("% free: "):].replace(" : ", ":", 1))
                continue
            if line.startswith("inhabitant: "):
                obj = line.split(": ", 1)[1]
            elif " = " in line:
                obj = line.split(" = ", 1)[1]
            else:
                continue
            m = lf.parse_object("".join(f"[{b}] " for b in frees) + obj)
            ctx = {}
            while len(ctx) < len(frees):
                ctx, m = ({**ctx, m.var: m.dom},
                          substitute(m.body, (lf.OVar(m.var),)))
            yield sig, ctx, m


def test_spine_loop_matches_one_at_a_time_rules_on_transcript_answers():
    answers = list(_transcript_objects())
    assert len(answers) >= 30
    assert sum(1 for _, ctx, _ in answers if len(ctx)) >= 9
    for sig, ctx, m in answers:
        assert _assert_same(check_object, oracles.ref_check_object, sig,
                            ctx, m) is None


# Dependent, higher-order classifiers whose binders (x, y, x1) share
# their names with context variables and with the binders of lambda
# arguments, so instantiation renames binders to avoid capture, both in
# the classifier and in the beta-steps a lambda argument starts (`it`
# puts binders inside the body of one).

_DEP_SIG = lf.parse_signature("""
    nat : type.  z : nat.  s : nat -> nat.  it : (nat -> nat) -> nat.
    eq : nat -> nat -> type.
    refl : {x:nat} eq x x.
    sym : {x:nat} {y:nat} eq x y -> eq y x.
    cong : {f:nat -> nat} {x:nat} {y:nat} eq x y -> eq (f x) (f y).
    ext : {f:nat -> nat} {g:nat -> nat} ({x:nat} eq (f x) (g x))
          -> eq (f z) (g z).
    fix : {h:nat -> nat -> nat} {y:nat}
          ({x:nat} {x1:nat} eq (h x x1) (h x1 y)) -> eq (h y y) y.
    pw : (nat -> nat) -> nat -> type.
    at : {f:nat -> nat} {y:nat} pw ([x:nat] f (s x)) y -> eq (f y) y.""")
_DEP_CTX = dict((
    ("x", _NAT), ("y", _NAT), ("x1", _NAT), ("k", lf.FPi("w", _NAT, _NAT)),
    ("e", oracles.fam_app(lf.FConst("eq"), [lf.OVar("x"), lf.OVar("y")])),
    ("q", oracles.fam_app(lf.FConst("pw"), [lf.OVar("k"), lf.OVar("x")]))))


def _shape(a):
    """The simple shape of a classifier: its base family, or a pair
    (domain shape, codomain shape)."""
    if isinstance(a, lf.FPi):
        return (_shape(a.dom), _shape(a.body))
    return lf.spine(a)[0].name


def _heads_by_base():
    heads = {}
    for d in _DEP_SIG.decls:
        if isinstance(d, lf.ObjDecl):
            heads.setdefault(_shape(lf.split_fam_pis(d.fam)[1]), []).append(
                (lf.OConst(d.name), d.fam))
    for name, a in _DEP_CTX.items():
        heads.setdefault(_shape(lf.split_fam_pis(a)[1]), []).append(
            (lf.OVar(name), a))
    return heads


_DEP_HEADS = _heads_by_base()
_DEP_SHAPES = ["nat", "eq", "pw", ("nat", "nat"), ("nat", ("nat", "nat")),
               ("nat", "eq"), ("nat", ("nat", "eq"))]


@st.composite
def _dep_obj(draw, shape, depth):
    """An object meant to have `shape`: one in eight has another shape,
    and a spine may take one argument too few or too many."""
    if draw(st.integers(0, 7)) == 0:
        shape = draw(st.sampled_from(_DEP_SHAPES))
    if isinstance(shape, tuple) and draw(st.integers(0, 3)):
        var = draw(st.sampled_from(["x", "y", "x1", "w"]))
        return lf.OLam(var, _NAT, draw(_dep_obj(shape[1], depth)))
    base = shape
    while isinstance(base, tuple):
        base = base[1]
    heads = [(lf.OVar("w"), _NAT)] if base == "nat" else []
    heads += _DEP_HEADS[base]
    head, a = draw(st.sampled_from(
        heads if depth else [h for h in heads if not isinstance(h[1], lf.FPi)]
        or heads))
    binders, _ = lf.split_fam_pis(a)
    n = max(0, len(binders) + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    shapes = [_shape(dom) for _, dom in binders] + ["nat"]
    return lf.obj_app(head, [draw(_dep_obj(shapes[min(i, len(binders))],
                                           depth - 1))
                             for i in range(n)])


def _ctx_vars(m):
    # parse_object reads names no lambda binds as constants
    match m:
        case lf.OConst(name) if _DEP_CTX.get(name) is not None:
            return lf.OVar(name)
        case lf.OLam(var, dom, body):
            return lf.OLam(var, dom, _ctx_vars(body))
        case lf.OApp(fn, arg):
            return lf.OApp(_ctx_vars(fn), _ctx_vars(arg))
    return m


def _dep(text):
    return _ctx_vars(lf.parse_object(text))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["nat", "eq", ("nat", "eq")]).flatmap(
    lambda shape: _dep_obj(shape, 3).map(oracles.lf_to_indexed)))
@example(_dep("ext ([y:nat] k x) ([x1:nat] k x) ([x:nat] refl (k x))"))
@example(_dep("cong ([w:nat] s x1) x1 x1 (refl x1)"))
@example(_dep("sym x y (cong ([x:nat] s y) x y)"))
@example(_dep("fix ([x:nat] [x1:nat] y) x1 ([y:nat] [x:nat] refl x1)"))
@example(_dep("at ([x1:nat] k x) x q"))
@example(_dep("refl z z"))
@example(_dep("s (fix ([w:nat] [x1:nat] w) (k x))"))
def test_spine_loop_matches_one_at_a_time_rules(m):
    _assert_same(check_object, oracles.ref_check_object, _DEP_SIG, _DEP_CTX, m)


def test_message_prints_the_classifier_the_spine_loop_built():
    # `fix`'s third binder has type {x:nat} {x1:nat} eq (h x x1) (h x1 y).
    # The one map h := [w] [x1] w, y := k x meets y under the binder x;
    # an index captures nothing, so no binder is renamed, and the type
    # prints as one argument at a time builds it, where h's beta-steps
    # drop y first
    m = _dep("s (fix ([w:nat] [x1:nat] w) (k x))")
    _, err = _outcome(check_object, _DEP_SIG, _DEP_CTX, m)
    assert str(err) == (
        "[app-obj] fix ([w:nat] [x1:nat] w) (k x) has type "
        "({x:nat} {x1:nat} eq x x1) -> eq (k x) (k x), expected nat")
    _, ref_err = _outcome(oracles.ref_check_object, _DEP_SIG, _DEP_CTX, m)
    assert "({x:nat} {x1:nat} eq x x1)" in str(ref_err)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("pw", [("nat", "nat"), "nat"]),
                        ("eq", ["nat", "nat"])]).flatmap(
    lambda fam: st.tuples(
        st.just(fam[0]),
        st.lists(st.sampled_from(fam[1] + ["eq"]), max_size=3).flatmap(
            lambda shapes: st.tuples(*[_dep_obj(s, 2) for s in shapes])))))
def test_family_spine_matches_one_at_a_time_rules(case):
    name, args = case
    a = oracles.lf_to_indexed(oracles.fam_app(lf.FConst(name), list(args)))
    _assert_same(check_type, oracles.ref_check_type, _DEP_SIG, _DEP_CTX, a)


# --- shared subobjects ----------------------------------------------------
# `check_object` synthesizes each argument object of its root context once,
# however often that one object occurs.  So an object whose equal
# subobjects are one object, as an exported answer's are, must check as a
# copy in which no object occurs twice: the same type, or the same rule,
# location and message.

def _shared(m, table):
    """`m` with every set of equal subobjects made one object."""
    match m:
        case lf.OLam(var, dom, body):
            m = lf.OLam(var, dom, _shared(body, table))
        case lf.OApp(fn, arg):
            m = lf.OApp(_shared(fn, table), _shared(arg, table))
    return table.setdefault(m, m)


def _unshared(m):
    match m:
        case lf.OLam(var, dom, body):
            return lf.OLam(var, dom, _unshared(body))
        case lf.OApp(fn, arg):
            return lf.OApp(_unshared(fn), _unshared(arg))
        case lf.OBVar(index):
            return lf.OBVar(index)
    return type(m)(m.name)


def _check_unshared(sig, ctx, m):
    return check_object(sig, ctx, _unshared(m))


def _bound_inside_only():
    # cong ([w:nat] s w) w w (refl w), `w` unbound but in the lambda
    w = lf.OVar("w")
    return oracles.lf_to_indexed(lf.obj_app(lf.OConst("cong"), [
        lf.OLam("w", _NAT, lf.OApp(lf.OConst("s"), w)), w, w,
        lf.OApp(lf.OConst("refl"), w)]))


@pytest.mark.parametrize("m, fails", [
    # an ill-typed argument object, used twice
    (_dep("sym (s e) (s e) (refl (s e))"), True),
    # a well-typed one used twice, at a wrong type the second time
    (_dep("sym (s x) z (refl (s x))"), True),
    # well-typed and shared, at the root and under binders
    (_dep("sym (s x) (s x) (refl (s x))"), False),
    (_dep("ext ([y:nat] k x) ([x1:nat] k x) ([w:nat] refl (k x))"), False),
    (_dep("cong ([y:nat] k x) (k x) (k x) (refl (k x))"), False),
    (_dep("cong k (s (k x)) (s (k x)) (refl (s (k x)))"), False),
    # one object typed under a binder first, then unbound at the root
    (_bound_inside_only(), True),
])
def test_shared_object_checks_as_its_unshared_copy(m, fails):
    m = _shared(m, {})
    err = _assert_same(check_object, _check_unshared, _DEP_SIG, _DEP_CTX, m)
    assert (err is not None) == fails


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["nat", "eq", ("nat", "eq")]).flatmap(
    lambda shape: _dep_obj(shape, 3).map(oracles.lf_to_indexed)))
def test_shared_objects_check_as_their_unshared_copies(m):
    _assert_same(check_object, _check_unshared, _DEP_SIG, _DEP_CTX,
                 _shared(m, {}))
