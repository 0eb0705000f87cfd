import pytest
from hypothesis import given, settings, strategies as st

from lflp import lf_syntax as lf

import oracles
from oracles import fam_app


def test_parse_three_entry_signature():
    sig = lf.parse_signature("nat : type. z : nat. s : nat -> nat.")
    decls = list(sig)
    assert len(decls) == 3
    assert isinstance(decls[0], lf.KindDecl)
    assert decls[1].name == "z"
    # arrow sugar becomes a Pi with a fresh binder
    s = sig.lookup("s")
    assert isinstance(s, lf.FPi)
    assert s.dom == lf.FConst("nat")
    assert s.body == lf.FConst("nat")


def test_parse_empty_signature():
    sig = lf.parse_signature("")
    assert list(sig) == []


def test_parse_duplicate_name_rejected():
    with pytest.raises(lf.LFSyntaxError) as e:
        lf.parse_signature("c : nat. c : nat.")
    assert "duplicate" in str(e.value)


def test_parse_reports_line_and_column():
    with pytest.raises(lf.LFSyntaxError) as e:
        lf.parse_signature("nat : type.\nz : ((nat.")
    assert e.value.line == 2


def test_comments_ignored():
    sig = lf.parse_signature("% a comment\nnat : type. % trailing\n")
    assert sig.lookup("nat") == lf.KType()


def test_declaration_order_preserved():
    text = "a : type. b : type. c : a. d : b. e : a."
    names = [d.name for d in lf.parse_signature(text)]
    assert names == ["a", "b", "c", "d", "e"]


def test_parse_query_closed():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons z nil) nil (cons z nil)", sig)
    assert free == ()
    head, args = lf.fam_spine(fam)
    assert head == lf.FConst("append")
    assert len(args) == 3


def test_parse_query_free_variable():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons (s z) nil) (cons z nil) L", sig)
    assert free == ("L",)
    _, args = lf.fam_spine(fam)
    assert args[2] == lf.OVar("L")


def test_parse_query_bar_z():
    sig = oracles.load_signature("foo1.elf")
    free, fam = lf.parse_query("bar z", sig)
    assert free == ()
    assert fam == lf.FApp(lf.FConst("bar"), lf.OConst("z"))


def test_parse_query_unknown_head():
    sig = oracles.load_signature("append.elf")
    with pytest.raises(lf.LFSyntaxError):
        lf.parse_query("snoc nil nil nil", sig)


def test_print_lambda():
    m = lf.OLam("y", lf.FConst("nat"), lf.OVar("y"))
    assert lf.print_lf(m) == "[y:nat] y"


def test_print_pi_target():
    a = lf.FPi("l", lf.FConst("list"),
               fam_app(lf.FConst("append"),
                          [lf.OConst("nil"), lf.OVar("l"), lf.OVar("l")]))
    assert lf.print_lf(a) == "{l:list} append nil l l"


# random object generator for the print/parse round trip

_names = st.sampled_from(["x", "y", "w"])


def _objs(depth):
    base = st.one_of(
        st.sampled_from([lf.OConst("z"), lf.OConst("nil"), lf.OVar("x")]),
    )
    if depth == 0:
        return base
    sub = _objs(depth - 1)
    return st.one_of(
        base,
        st.builds(lambda v, b: lf.OLam(v, lf.FConst("nat"), b), _names, sub),
        st.builds(lambda f, a: lf.OApp(f, a),
                  st.sampled_from([lf.OConst("s"), lf.OConst("cons")]), sub),
        st.builds(lambda v, b: lf.OApp(lf.OLam(v, lf.FConst("nat"), b),
                                       lf.OConst("z")), _names, sub),
    )


@settings(max_examples=120, deadline=None)
@given(_objs(3))
def test_print_parse_round_trip(m):
    # close the term so variable occurrences print unambiguously
    closed = lf.OLam("x", lf.FConst("nat"), m)
    text = lf.print_lf(closed)
    assert lf.alpha_eq(lf.parse_object(text), closed)


def test_alpha_equivalent_objects_compare_equal():
    a = lf.OLam("x", lf.FConst("nat"), lf.OVar("x"))
    b = lf.OLam("y", lf.FConst("nat"), lf.OVar("y"))
    assert lf.alpha_eq(a, b)
    assert not lf.alpha_eq(a, lf.OLam("x", lf.FConst("nat"), lf.OConst("z")))


# --- the lexer against the character loop ----------------------------------

def _lexed(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except lf.LFSyntaxError as err:
        return str(err)


# decimal and non-decimal digits (9, ٣, ²), a letter beyond ASCII, and a
# space that is not a line break (U+2028)
_LEX_ALPHABET = "ab_'Z9 \t\r\n%{}[]():.->é²٣\u2028"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=40))
def test_lexer_agrees_with_character_loop(text):
    assert _lexed(lf.tokenize, text) == _lexed(oracles.char_tokenize, text)


@pytest.mark.parametrize("text, want", [
    # str.isdigit() holds for '²' although it is no decimal digit
    ("²x", "1:1: unexpected character '²'"),
    ("9x", "1:1: unexpected character '9'"),
    ("a -", "1:3: unexpected character '-'"),
    # a comment running to the end leaves the column at its '%'
    ("a % c", [("ident", "a", 1, 1), ("eof", "", 1, 3)]),
    ("a\n  % c\n", [("ident", "a", 1, 1), ("eof", "", 3, 1)]),
    ("x' type", [("ident", "x'", 1, 1), ("type", "type", 1, 4),
                      ("eof", "", 1, 8)]),
])
def test_lexer_pinned_cases(text, want):
    assert _lexed(lf.tokenize, text) == want
    assert _lexed(oracles.char_tokenize, text) == want


def test_arrow_binder_avoids_every_name_of_its_declaration():
    # `x` is bound only after the arrow, and the arrow's binder avoids it
    c = lf.parse_signature("a : type. c : a -> {x:a} a.").lookup("c")
    assert c.var == "x1" and c.body.var == "x"
