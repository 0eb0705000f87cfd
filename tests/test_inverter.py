import pytest

from lflp import lf_syntax as lf
from lflp.hterms import (
    LF_OBJ, App, BVar, Const, Lam, arrow, fresh_evar,
)
from lflp.inverter import InversionError, invert
from lflp.lf_kernel import check_object
from lflp.translator import encode_obj

import oracles
from oracles import fresh_lvar

OBJ = LF_OBJ


def _sig():
    return oracles.load_signature("append.elf")


def _invert(sig, term, ty_text):
    return invert(sig, lf.Context(), term, oracles.parse_type(sig, ty_text))


def test_invert_derivation_term():
    sig = _sig()
    m = lf.parse_object("appCons z nil nil nil (appNil nil)", sig)
    answer = encode_obj(sig, m, {})
    got = _invert(sig, answer, "append (cons z nil) nil (cons z nil)")
    assert lf.alpha_eq(got, m)
    check_object(sig, lf.Context(), got,
                 oracles.parse_type(sig, "append (cons z nil) nil (cons z nil)"))


def test_invert_abstraction():
    sig = _sig()
    got = _invert(sig, Lam("y", OBJ, BVar("y", OBJ)), "{y:nat} nat")
    assert got == lf.OLam("y", lf.FConst("nat"), lf.OVar("y"))


def test_binder_clashing_with_signature_name_renamed():
    sig = _sig()
    # the answer binds a variable spelled like a signature constant
    t = Lam("z", OBJ, BVar("z", OBJ))
    got = _invert(sig, t, "{y:nat} nat")
    assert isinstance(got, lf.OLam) and got.var != "z"
    assert got.body == lf.OVar(got.var)


def test_round_trip_spot():
    sig = _sig()
    for text in ["list", "{x:nat} nat", "{f:nat -> nat} list"]:
        ty = oracles.parse_type(sig, text)
        for m in oracles.enumerate_objects(sig, lf.Context(), ty, 5):
            back = invert(sig, lf.Context(), encode_obj(sig, m, {}), ty)
            assert lf.alpha_eq(back, m)
            check_object(sig, lf.Context(), back, ty)


# --- eta expansion of raw answers -----------------------------------------
# At a Pi type an answer that is not a lambda is expanded on the fly.

def test_eta_expand_bare_constructor():
    sig = _sig()
    s = Const("s", arrow([OBJ], OBJ))
    got = _invert(sig, s, "{x:nat} nat")
    assert isinstance(got, lf.OLam)
    assert lf.alpha_eq(got, lf.parse_object("[x:nat] s x", sig))


def test_eta_expand_idempotent():
    sig = _sig()
    s = Const("s", arrow([OBJ], OBJ))
    once = _invert(sig, s, "{x:nat} nat")
    twice = _invert(sig, encode_obj(sig, once, {}), "{x:nat} nat")
    assert lf.alpha_eq(twice, once)


def test_eta_expand_type_mismatch():
    sig = _sig()
    s = Const("s", arrow([OBJ], OBJ))
    with pytest.raises(InversionError, match="takes 1 arguments, got 0"):
        _invert(sig, s, "nat")
    with pytest.raises(InversionError, match="simple type"):
        _invert(sig, Const("z", OBJ), "{x:nat} nat")


def test_partial_application_needs_expansion():
    sig = _sig()
    cons = Const("cons", arrow([OBJ, OBJ], OBJ))
    partial = App(cons, Const("z", OBJ))
    got = _invert(sig, partial, "{l:list} list")
    want = lf.parse_object("[l:list] cons z l", sig)
    assert lf.alpha_eq(got, want)


# --- rejected answers -----------------------------------------------------

def test_free_logic_variable_refused():
    sig = _sig()
    t = App(Const("s", arrow([OBJ], OBJ)), fresh_lvar("Y", OBJ))
    with pytest.raises(InversionError, match="not closed"):
        _invert(sig, t, "nat")


def test_eigenvariable_refused():
    sig = _sig()
    with pytest.raises(InversionError, match="eigenvariable"):
        _invert(sig, fresh_evar("e", OBJ), "nat")


def test_unknown_head():
    sig = _sig()
    with pytest.raises(InversionError, match="unknown object constant"):
        _invert(sig, Const("mystery", OBJ), "nat")


def test_overapplied_head():
    sig = _sig()
    t = App(Const("z", OBJ), Const("z", OBJ))
    with pytest.raises(InversionError, match="takes 0 arguments"):
        _invert(sig, t, "nat")


def test_target_type_mismatch():
    sig = _sig()
    with pytest.raises(InversionError, match="expected"):
        _invert(sig, Const("nil", OBJ), "nat")


def test_type_family_name_is_not_an_object():
    sig = _sig()
    with pytest.raises(InversionError, match="unknown object constant"):
        _invert(sig, Const("nat", OBJ), "nat")
