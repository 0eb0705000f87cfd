import pytest

from lflp import lf_syntax as lf
from lflp.hterms import (
    LF_OBJ, App, BVar, Const, Lam, arrow, fresh_evar,
)
from lflp.inverter import FreeVars, InversionError, invert
from lflp.lf_kernel import LFTypeError, check_object, check_type
from lflp.translator import encode

import oracles
from oracles import fresh_lvar

OBJ = LF_OBJ


def _invert(sig, term, ty_text, frees=None):
    return invert(sig, {}, term, oracles.parse_type(sig, ty_text),
                  FreeVars(()) if frees is None else frees)


def test_invert_derivation_term():
    sig = oracles.load_signature("append.elf")
    m = lf.parse_object("appCons z nil nil nil (appNil nil)")
    answer = encode(sig, m, {})
    got = _invert(sig, answer, "append (cons z nil) nil (cons z nil)")
    assert lf.alpha_eq(got, m)
    check_object(sig, {}, got,
                 oracles.parse_type(sig, "append (cons z nil) nil (cons z nil)"))


def test_invert_abstraction():
    sig = oracles.load_signature("append.elf")
    got = _invert(sig, Lam("y", OBJ, BVar(0, OBJ)), "{y:nat} nat")
    assert got == lf.OLam("y", lf.FConst("nat"), lf.OVar("y"))


def test_binder_clashing_with_signature_name_renamed():
    sig = oracles.load_signature("append.elf")
    # the answer binds a variable spelled like a signature constant
    t = Lam("z", OBJ, BVar(0, OBJ))
    got = _invert(sig, t, "{y:nat} nat")
    assert isinstance(got, lf.OLam) and got.var != "z"
    assert got.body == lf.OVar(got.var)


def test_round_trip_spot():
    sig = oracles.load_signature("append.elf")
    for text in ["list", "{x:nat} nat", "{f:nat -> nat} list"]:
        ty = oracles.parse_type(sig, text)
        for m in oracles.enumerate_objects(sig, {}, ty, 5):
            back = invert(sig, {}, encode(sig, m, {}), ty,
                          FreeVars(()))
            assert lf.alpha_eq(back, m)
            check_object(sig, {}, back, ty)


# --- eta expansion of raw answers -----------------------------------------
# At a Pi type an answer that is not a lambda is expanded on the fly.

def test_eta_expand_bare_constructor():
    sig = oracles.load_signature("append.elf")
    s = Const("s", arrow([OBJ], OBJ))
    got = _invert(sig, s, "{x:nat} nat")
    assert isinstance(got, lf.OLam)
    assert lf.alpha_eq(got, lf.parse_object("[x:nat] s x"))


def test_eta_expand_idempotent():
    sig = oracles.load_signature("append.elf")
    s = Const("s", arrow([OBJ], OBJ))
    once = _invert(sig, s, "{x:nat} nat")
    twice = _invert(sig, encode(sig, once, {}), "{x:nat} nat")
    assert lf.alpha_eq(twice, once)


def test_eta_expand_type_mismatch():
    sig = oracles.load_signature("append.elf")
    s = Const("s", arrow([OBJ], OBJ))
    with pytest.raises(InversionError, match="takes 1 arguments, got 0"):
        _invert(sig, s, "nat")
    with pytest.raises(InversionError, match="simple type"):
        _invert(sig, Const("z", OBJ), "{x:nat} nat")


def test_partial_application_needs_expansion():
    sig = oracles.load_signature("append.elf")
    cons = Const("cons", arrow([OBJ, OBJ], OBJ))
    partial = App(cons, Const("z", OBJ))
    got = _invert(sig, partial, "{l:list} list")
    want = lf.parse_object("[l:list] cons z l")
    assert lf.alpha_eq(got, want)


def test_eta_expansion_under_a_binder_lifts_the_answer():
    # cons x is expanded under [x:nat]: its x moves one binder further out
    sig = oracles.load_signature("append.elf")
    cons = Const("cons", arrow([OBJ, OBJ], OBJ))
    got = _invert(sig, Lam("x", OBJ, App(cons, BVar(0, OBJ))),
                  "{x:nat} {l:list} list")
    assert lf.alpha_eq(got, lf.parse_object("[x:nat] [l:list] cons x l"))


# --- unsolved logic variables -------------------------------------------
# An unsolved logic variable reads as a free LF variable, named and typed
# where the walk first meets it.

def _free_context(frees):
    return dict(frees.types.values())


def test_unapplied_logic_variable_is_one_free_variable():
    sig = oracles.load_signature("append.elf")
    y = fresh_lvar("Y", OBJ)
    cons = Const("cons", arrow([OBJ, OBJ], OBJ))
    t = App(App(cons, y), App(App(cons, y), Const("nil", OBJ)))
    frees = FreeVars(())
    got = _invert(sig, t, "list", frees)
    assert lf.print_lf(got) == "cons A (cons A nil)"
    assert frees.types == {y: ("A", lf.FConst("nat"))}
    check_object(sig, _free_context(frees), got, lf.FConst("list"))
    # a query's own variable name is not reused
    reserved = FreeVars(("A",))
    assert lf.print_lf(_invert(sig, t, "list", reserved)) == "cons B (cons B nil)"


def test_free_variable_names_and_lambda_binders_avoid_each_other():
    sig = lf.parse_signature(
        "nat : type. h : nat -> ({A:nat} nat) -> nat.")
    y = fresh_lvar("Y", OBJ)
    t = App(App(Const("h", arrow([OBJ, arrow([OBJ], OBJ)], OBJ)), y),
            Lam("w", OBJ, BVar(0, OBJ)))
    got = _invert(sig, t, "nat")
    # the binder A, picked after the free A, is renamed
    assert lf.print_lf(got) == "h A ([A1:nat] A1)"


def test_pattern_applied_logic_variable_gets_a_pi_type():
    sig = oracles.load_signature("append.elf")
    p = fresh_lvar("P", arrow([OBJ], OBJ))
    frees = FreeVars(())
    # eta-expanded to [l:list] P l, a pattern
    got = _invert(sig, p, "{l:list} append l nil l", frees)
    assert lf.print_lf(got) == "[l:list] A l"
    (name, ty), = frees.types.values()
    assert name == "A"
    assert lf.print_lf(ty) == "{l:list} append l nil l"
    ctx = _free_context(frees)
    check_type(sig, {}, ty)
    check_object(sig, ctx, got,
                 oracles.parse_type(sig, "{l:list} append l nil l"))


def test_non_pattern_application_refused():
    sig = oracles.load_signature("append.elf")
    f = fresh_lvar("F", arrow([OBJ], OBJ))
    with pytest.raises(InversionError, match="distinct bound variables"):
        _invert(sig, App(f, Const("z", OBJ)), "nat")
    g = fresh_lvar("G", arrow([OBJ, OBJ], OBJ))
    twice = Lam("x", OBJ, App(App(g, BVar(0, OBJ)), BVar(0, OBJ)))
    with pytest.raises(InversionError, match="distinct bound variables"):
        _invert(sig, twice, "{x:nat} nat")


def test_type_mentioning_a_bound_variable_outside_the_arguments_refused():
    sig = oracles.load_signature("append.elf")
    # unapplied under [l:list], Y would need the type append l nil l
    t = Lam("l", OBJ, fresh_lvar("Y", OBJ))
    with pytest.raises(InversionError, match="mentions a variable bound"):
        _invert(sig, t, "{l:list} append l nil l")


def test_eigenvariable_refused():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(InversionError, match="eigenvariable"):
        _invert(sig, fresh_evar("e", OBJ), "nat")


def test_unknown_head():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(InversionError, match="unknown object constant"):
        _invert(sig, Const("mystery", OBJ), "nat")


def test_lambda_head_refused():
    # answers are beta-normal, so a redex is no answer
    sig = oracles.load_signature("append.elf")
    redex = App(Lam("x", OBJ, BVar(0, OBJ)), Const("z", OBJ))
    with pytest.raises(InversionError, match="cannot invert head Lam"):
        _invert(sig, redex, "nat")


def test_overapplied_head():
    sig = oracles.load_signature("append.elf")
    t = App(Const("z", OBJ), Const("z", OBJ))
    with pytest.raises(InversionError, match="takes 0 arguments"):
        _invert(sig, t, "nat")


def test_target_type_mismatch_is_left_to_the_kernel():
    # the inverter only builds; the kernel's check refuses the result
    sig = oracles.load_signature("append.elf")
    got = _invert(sig, Const("nil", OBJ), "nat")
    assert got == lf.OConst("nil")
    with pytest.raises(LFTypeError):
        check_object(sig, {}, got, lf.FConst("nat"))


def test_type_family_name_is_not_an_object():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(InversionError, match="unknown object constant"):
        _invert(sig, Const("nat", OBJ), "nat")
