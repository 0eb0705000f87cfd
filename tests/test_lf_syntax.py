import threading

import pytest
from hypothesis import given, settings, strategies as st

from lflp import lf_syntax as lf

import oracles
from oracles import fam_app


def test_parse_three_entry_signature():
    sig = lf.parse_signature("nat : type. z : nat. s : nat -> nat.")
    decls = list(sig.decls)
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
    assert list(sig.decls) == []


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
    names = [d.name for d in lf.parse_signature(text).decls]
    assert names == ["a", "b", "c", "d", "e"]


def test_parse_query_closed():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons z nil) nil (cons z nil)", sig)
    assert free == ()
    head, args = lf.spine(fam)
    assert head == lf.FConst("append")
    assert len(args) == 3


def test_parse_query_free_variable():
    sig = oracles.load_signature("append.elf")
    free, fam = lf.parse_query("append (cons (s z) nil) (cons z nil) L", sig)
    assert free == ("L",)
    _, args = lf.spine(fam)
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
    m = oracles.lf_to_indexed(lf.OLam("y", lf.FConst("nat"), lf.OVar("y")))
    assert lf.print_lf(m) == "[y:nat] y"


def test_print_pi_target():
    a = oracles.lf_to_indexed(lf.FPi(
        "l", lf.FConst("list"),
        fam_app(lf.FConst("append"),
                [lf.OConst("nil"), lf.OVar("l"), lf.OVar("l")])))
    assert lf.print_lf(a) == "{l:list} append nil l l"


def test_a_binder_is_renamed_only_where_its_hint_would_capture():
    nat, x = lf.FConst("nat"), lf.OConst("x")
    cases = [
        # a constant, a free variable or an outer binder the body prints
        (lf.OLam("x", nat, lf.OApp(x, lf.OBVar(0))), "[x1:nat] x x1"),
        (lf.OLam("x", nat, lf.OApp(lf.OVar("x"), lf.OBVar(0))),
         "[x1:nat] x x1"),
        (lf.OLam("x", nat, lf.OLam("x", nat, lf.OApp(lf.OBVar(1),
                                                     lf.OBVar(0)))),
         "[x:nat] [x1:nat] x x1"),
        # shadowing an outer binder the body does not mention is kept
        (lf.OLam("x", nat, lf.OLam("x", nat, lf.OBVar(0))),
         "[x:nat] [x:nat] x"),
        # a Pi whose body does not mention its binder is an arrow
        (lf.FPi("x", nat, lf.FPi("y", nat, lf.FApp(lf.FConst("p"),
                                                   lf.OBVar(1)))),
         "{x:nat} nat -> p x"),
    ]
    for e, text in cases:
        assert lf.print_lf(e) == text
    # loose indices print as the hints of the binders given above
    assert lf.print_lf(lf.OApp(lf.OBVar(0), lf.OBVar(1)),
                       [("a", nat), ("b", nat)]) == "b a"


def test_every_data_declaration_prints_as_pinned():
    want = (oracles.DATA / "printed_declarations.txt").read_text(
        encoding="utf-8").splitlines()
    got = []
    for path in sorted(oracles.DATA.glob("*.elf")):
        got.append(f"% {path.name}")
        got += oracles.print_signature(
            lf.parse_signature(path.read_text())).splitlines()
    assert got == want


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
    closed = oracles.lf_to_indexed(lf.OLam("x", lf.FConst("nat"), m))
    text = lf.print_lf(closed)
    assert lf.alpha_eq(lf.parse_object(text), closed)


# Indexed objects and types drawn directly, so a binder's hint may repeat
# an outer binder's that its body refers to, or name a constant it uses.
_LEAVES = [lf.OConst("z"), lf.OConst("x"), lf.OConst("y1")]


@st.composite
def _indexed_obj(draw, depth, scope=0):
    kind = draw(st.integers(0, 3 if depth else 0))
    if kind == 0:
        return draw(st.sampled_from(
            _LEAVES + [lf.OBVar(i) for i in range(scope)]))
    if kind == 1:
        return lf.OLam(draw(_names), lf.FConst("nat"),
                       draw(_indexed_obj(depth - 1, scope + 1)))
    fn = (draw(_indexed_obj(depth - 1, scope)) if kind == 2
          else draw(st.sampled_from([lf.OConst("s"), lf.OConst("cons")])))
    return lf.OApp(fn, draw(_indexed_obj(depth - 1, scope)))


@st.composite
def _indexed_fam(draw, depth, scope=0):
    if depth and draw(st.booleans()):
        dom = draw(st.one_of(st.just(lf.FConst("nat")),
                             _indexed_fam(depth - 1, scope)))
        return lf.FPi(draw(_names), dom, draw(_indexed_fam(depth - 1, scope + 1)))
    return lf.FApp(lf.FConst("p"), draw(_indexed_obj(depth, scope)))


@settings(max_examples=300, deadline=None)
@given(_indexed_obj(4))
def test_printed_object_parses_back_up_to_hints(m):
    assert lf.alpha_eq(lf.parse_object(lf.print_lf(m)), m)


@settings(max_examples=300, deadline=None)
@given(_indexed_fam(3))
def test_printed_type_parses_back_up_to_hints(a):
    [d] = lf.parse_signature(f"c : {lf.print_lf(a)}.").decls
    assert lf.alpha_eq(d.fam, a)


def test_alpha_equivalent_objects_compare_equal():
    a = oracles.lf_to_indexed(lf.OLam("x", lf.FConst("nat"), lf.OVar("x")))
    b = oracles.lf_to_indexed(lf.OLam("y", lf.FConst("nat"), lf.OVar("y")))
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
    assert (_lexed(oracles.package_tokens, text)
            == _lexed(oracles.char_tokenize, text))


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
    assert _lexed(oracles.package_tokens, text) == want
    assert _lexed(oracles.char_tokenize, text) == want


def test_token_count_skips_comments_and_counts_eof():
    assert len(lf.tokenize("a % c\n b")) == 3
    assert len(lf.tokenize("")) == 1


def test_arrow_binder_avoids_every_name_of_its_declaration():
    # `x` is bound only after the arrow, and the arrow's binder avoids it
    c = lf.parse_signature("a : type. c : a -> {x:a} a.").lookup("c")
    assert c.var == "x1" and c.body.var == "x"


# --- the one-pass parser against the two-pass reference --------------------

def _parsed(parse, *args):
    try:
        out = parse(*args)
    except lf.LFSyntaxError as err:
        return (str(err), err.line, err.col)
    return out.decls if isinstance(out, lf.Signature) else out


_PARSE_TOKENS = ["{", "}", "[", "]", "(", ")", ":", ".", "->", "type",
                 "a", "b", "x", "y", "Z", "nat"]
_token_strings = st.lists(
    st.tuples(st.sampled_from(_PARSE_TOKENS), st.sampled_from([" ", "\n", ""])),
    max_size=16).map(lambda parts: "".join(t + sep for t, sep in parts))

# `Z` is declared here, so a query with this signature reads it as a constant
_QUERY_SIG = lf.parse_signature("nat : type. a : type. b : nat -> type. Z : nat.")


def _assert_parsers_agree(text):
    pairs = [
        (lf.parse_signature, oracles.two_pass_parse_signature, (text,)),
        # the arrow binder `x` must avoid the declared name
        (lf.parse_signature, oracles.two_pass_parse_signature,
         (f"x : {text}.",)),
        (lf.parse_query, oracles.two_pass_parse_query, (text, _QUERY_SIG)),
        (lf.parse_object, oracles.two_pass_parse_object, (text,)),
    ]
    for one_pass, two_pass, args in pairs:
        assert _parsed(one_pass, *args) == _parsed(two_pass, *args), \
            (one_pass.__name__, args)


@settings(max_examples=800, deadline=None)
@given(_token_strings)
def test_one_pass_parser_agrees_with_two_pass(text):
    _assert_parsers_agree(text)


_NAMES = ["a", "b", "x", "y", "Z", "nat"]


def _grammar_tokens(depth):
    """The tokens of an expression nested at most `depth` deep, by the
    grammar: binders (in domains too), arrows, applications of atoms,
    and parenthesized heads and arguments, with `type` as any atom."""
    atom = st.sampled_from([*_NAMES, "type"]).map(lambda w: [w])
    if depth == 0:
        return atom
    sub = _grammar_tokens(depth - 1)
    atom = st.one_of(atom, sub.map(lambda e: ["(", *e, ")"]))
    app = st.lists(atom, min_size=1, max_size=3).map(lambda xs: sum(xs, []))
    binder = st.tuples(st.sampled_from(["{", "["]), st.sampled_from(_NAMES),
                       sub, sub).map(
        lambda b: [b[0], b[1], ":", *b[2], "}" if b[0] == "{" else "]", *b[3]])
    arrow = st.tuples(app, sub).map(lambda a: [*a[0], "->", *a[1]])
    return st.one_of(app, binder, arrow)


@settings(max_examples=200, deadline=None)
@given(_grammar_tokens(5), st.data())
def test_one_pass_parser_agrees_with_two_pass_on_nested_input(toks, data):
    # the whole text, or its tokens up to a random one, so that brackets
    # are left open; each token is followed by a space or a line break
    cut = data.draw(st.one_of(st.just(len(toks)), st.integers(0, len(toks))))
    seps = data.draw(st.lists(st.sampled_from([" ", "\n"]), min_size=cut,
                              max_size=cut))
    _assert_parsers_agree("".join(map(str.__add__, toks[:cut], seps)))


@pytest.mark.parametrize("name", sorted(
    p.name for p in oracles.DATA.glob("*.elf")))
def test_one_pass_parser_agrees_on_data_signatures(name):
    text = (oracles.DATA / name).read_text()
    assert (lf.parse_signature(text).decls
            == oracles.two_pass_parse_signature(text).decls)


_a, _b = lf.FConst("a"), lf.FConst("b")


@pytest.mark.parametrize("text, want", [
    # the syntax error comes first, though the `[` stands where a type must
    ("c : [x:a] b -> (a.", ("1:18: expected ')', found '.'", 1, 18)),
    # the duplicate name comes before the misplaced `type`
    ("c : a. c : type a.", ("1:8: duplicate declaration of 'c'", 1, 8)),
    # the tail decides a kind, inside parentheses too
    ("c : a -> (b -> type).",
     (lf.KindDecl("c", lf.KPi("x", _a, lf.KPi("x1", _b, lf.KType()))),)),
    ("c : a -> (type).",
     (lf.KindDecl("c", lf.KPi("x", _a, lf.KType())),)),
    ("c : {x:a} [y:b] type.", ("1:11: expected a type", 1, 11)),
    # an arrow in object position: its error precedes one in its domain,
    # and an error before it stands
    ("c : p (f type -> a).", ("1:15: expected an object", 1, 15)),
    ("c : p type (a -> b).", ("1:7: expected an object", 1, 7)),
    ("c : (a -> type) -> type.",
     ("1:11: 'type' cannot appear inside a type", 1, 11)),
    # and so does a parenthesized kind applied to an argument
    ("c : (a -> type) b.", ("1:11: 'type' cannot appear inside a type", 1, 11)),
    # the inner `x` takes a fresh hint, and its occurrence is index 0
    ("c : {x:a}{x:b} c x.",
     (lf.ObjDecl("c", lf.FPi("x", _a, lf.FPi(
         "x1", _b, lf.FApp(lf.FConst("c"), lf.OBVar(0))))),)),
])
def test_parser_pinned_cases(text, want):
    assert _parsed(lf.parse_signature, text) == want
    assert _parsed(oracles.two_pass_parse_signature, text) == want


_NAT = lf.parse_signature("nat : type. z : nat. s : nat -> nat. "
                          "le : nat -> nat -> type.")


# Positions are found again only when an error is built; these texts are
# the ones the line-by-line lexer printed.
@pytest.mark.parametrize("parse, args, want", [
    (lf.parse_signature, ("nat : type.\n% a comment line\nz nat.",),
     ("3:3: expected ':', found 'nat'", 3, 3)),
    # held while the declaration is read, raised at its end
    (lf.parse_signature, ("a : type.\n\nc : a\n  -> (a -> type) -> type.",),
     ("4:12: 'type' cannot appear inside a type", 4, 12)),
    (lf.parse_query, ("le z\n  (s z) )", _NAT), ("2:9: trailing input ')'", 2, 9)),
    (lf.parse_object, ("s\n  (s z) z ]",), ("2:11: trailing input ']'", 2, 11)),
    (lf.parse_signature, ("nat : type.  % first\n\tz : nat.\n  nat : type.",),
     ("3:3: duplicate declaration of 'nat'", 3, 3)),
    # the end of input after a closing comment is at its `%`
    (lf.parse_signature, ("nat : type\n% no period",),
     ("2:1: expected '.', found 'end of input'", 2, 1)),
    (lf.parse_signature, ("nat : type.\nz : nat. é : nat.\n  w : nat -% x",),
     ("3:11: unexpected character '-'", 3, 11)),
])
def test_error_positions_pinned(parse, args, want):
    assert _parsed(parse, *args) == want


@pytest.mark.parametrize("name", sorted(
    p.name for p in oracles.DATA.glob("*.elf")))
def test_parsing_valid_input_finds_no_position(name, monkeypatch):
    def found(source, index):
        raise AssertionError(f"position of token {index} computed")

    monkeypatch.setattr(lf, "_position", found)
    with pytest.raises(AssertionError):  # an error does find its position
        lf.parse_signature("nat : type")
    sig = lf.parse_signature((oracles.DATA / name).read_text())
    assert list(sig.decls)


def test_equal_applications_of_one_parse_are_one_object():
    sig = lf.parse_signature(
        "nat : type. z : nat. s : nat -> nat. le : nat -> nat -> type.\n"
        "a : le (s (s z)) (s (s z)). b : {x:nat} le x (s (s z)).")
    _, (first, second) = lf.spine(sig.lookup("a"))
    _, (_, third) = lf.spine(sig.lookup("b").body)
    assert first is second and second is third
    # another parse builds its own nodes
    again = lf.parse_object("s (s z)")
    assert again == first and again is not first


_REPEATS = ("nat : type. z : nat. s : nat -> nat. "
            "le : nat -> nat -> type.\n")


# an error in a subterm that occurs twice is found where it was when
# each occurrence was its own object
@pytest.mark.parametrize("text, want", [
    # in both occurrences: the first is reported
    (_REPEATS + "c : le (s (s type))\n  (s (s type)).",
     ("2:14: expected an object", 2, 14)),
    # in the second only
    (_REPEATS + "c : le (s (s z))\n  (s (s z).",
     ("3:11: expected ')', found '.'", 3, 11)),
    # a declaration repeated token for token
    (_REPEATS + "c : le (s z) (s z).\n  c : le (s z) (s z).",
     ("3:3: duplicate declaration of 'c'", 3, 3)),
])
def test_errors_in_repeated_subterms_keep_their_positions(text, want):
    # the parser shares the repeats, the two-pass oracle does not
    for parse in (lf.parse_signature, oracles.two_pass_parse_signature):
        assert _parsed(parse, text) == want


def test_parse_object_arrow_error_is_at_the_arrow():
    want = ("1:8: expected an object", 1, 8)
    assert _parsed(lf.parse_object, "f type -> a") == want
    assert _parsed(oracles.two_pass_parse_object, "f type -> a") == want


def test_parser_reads_400_nested_lists_in_process():
    items = "nil"
    for _ in range(400):
        items = f"(cons z {items})"
    sig = lf.parse_signature(f"fact : append nil {items} {items}.")
    assert len(lf.spine(sig.lookup("fact"))[1]) == 3
    m = lf.parse_object(items)
    depth = 0
    while isinstance(m, lf.OApp):
        m, depth = m.arg, depth + 1
    assert (m, depth) == (lf.OConst("nil"), 400)


# The parser reads nested input in one loop, with no Python frame per
# level; each parse below runs on a fresh thread, whose stack holds none
# of pytest's frames, under the default recursion limit.

def _on_fresh_thread(parse):
    result = []

    def run():
        try:
            result.append(parse())
        except RecursionError as err:
            result.append(err)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    [out] = result
    if isinstance(out, RecursionError):
        raise out
    return out


def _nested_list(n):
    items = "nil"
    for _ in range(n):
        items = f"(cons z {items})"
    return items


def _list_length(m):
    n = 0
    while isinstance(m, lf.OApp):
        m, n = m.arg, n + 1
    return m, n


def test_parser_reads_a_10000_element_fact():
    items = _nested_list(10_000)
    text = ((oracles.DATA / "appendplus.elf").read_text()
            + f"\nfact : append nil {items} {items}.\n")
    sig = _on_fresh_thread(lambda: lf.parse_signature(text))
    _, (_, first, second) = lf.spine(sig.lookup("fact"))
    assert first is second
    assert _list_length(first) == (lf.OConst("nil"), 10_000)


def test_parser_reads_a_query_over_a_10000_element_list():
    sig = oracles.load_signature("append.elf")
    query = f"append {_nested_list(10_000)} nil L"
    free, fam = _on_fresh_thread(lambda: lf.parse_query(query, sig))
    _, (first, _, last) = lf.spine(fam)
    assert (free, last) == (("L",), lf.OVar("L"))
    assert _list_length(first) == (lf.OConst("nil"), 10_000)


def test_parser_reads_2000_nested_parenthesized_heads():
    text = "(" * 2000 + "a" + ")" * 2000
    sig = _on_fresh_thread(lambda: lf.parse_signature(f"a : type. c : {text}."))
    assert sig.lookup("c") == lf.FConst("a")
    assert _on_fresh_thread(lambda: lf.parse_object(text)) == lf.OConst("a")


def test_parser_reads_2000_binders_nested_in_domains():
    n = 2000
    text = ("a : type. c : " + "".join(f"{{x{i}:" for i in range(n))
            + "a" + "} a" * n + ".")
    c = _on_fresh_thread(lambda: lf.parse_signature(text)).lookup("c")
    names = []
    while isinstance(c, lf.FPi):
        assert c.body == lf.FConst("a")
        names.append(c.var)
        c = c.dom
    assert (c, names) == (lf.FConst("a"), [f"x{i}" for i in range(n)])
