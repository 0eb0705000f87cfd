"""The node classes `lf_syntax.nodeclass` builds behave as the slotted
dataclasses with `unsafe_hash` they replace, each checked against a
dataclass twin with its name and fields; the records refuse writes."""

from dataclasses import make_dataclass

import pytest

from lflp import engine, hterms, lf_syntax as lf, translator, unify

NODE_CLASSES = [c for m in (lf, hterms, unify) for c in vars(m).values()
                if isinstance(c, type) and c.__module__ == m.__name__
                and getattr(c, "_is_node", False)]


def test_every_node_class_is_found():
    # by name in test_hygiene.py; here so that no case below is vacuous
    assert len(NODE_CLASSES) == 24


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_class_behaves_as_its_dataclass_twin(cls):
    names = cls.__slots__
    twin = make_dataclass(cls.__name__, names, slots=True, unsafe_hash=True)
    assert cls.__match_args__ == twin.__match_args__ == names
    # a string, a node and an int, in turn
    values = [(f"v{i}", lf.OConst(f"c{i}"), i)[i % 3] for i in range(len(names))]
    node, same, dc = cls(*values), cls(*values), twin(*values)
    assert repr(node) == repr(dc)
    assert cls(**dict(zip(names, values))) == node
    assert [getattr(node, n) for n in names] == values
    assert node == same and not node != same and node is not same
    assert hash(node) == hash(same) == hash(dc) == hash(tuple(values))
    for i in range(len(names)):
        other = [*values[:i], "other", *values[i + 1:]]
        assert node != cls(*other) and dc != twin(*other)
    # equal only to an instance of its own class
    assert node != dc and node != tuple(values)
    assert node.__eq__(dc) is NotImplemented
    with pytest.raises(TypeError):
        node < same
    assert not hasattr(node, "__dict__")


def test_nodes_of_different_classes_are_unequal():
    assert lf.OConst("a") != lf.FConst("a")
    assert lf.OConst("a") != lf.OVar("a")
    assert hterms.EVar("x", 1, hterms.PROP) != hterms.LVar("x", 1, hterms.PROP)
    assert lf.KType() == lf.KType() and hash(lf.KType()) == hash(())
    assert lf.KType() != hterms.Top()


def test_node_classes_keep_their_methods_and_bases():
    assert str(lf.OApp(lf.OConst("s"), lf.OConst("z"))) == "s z"
    assert str(hterms.TArrow(hterms.PROP, hterms.PROP)) == "o -> o"
    assert isinstance(lf.OApp(None, None), lf._Pretty)
    assert lf.KindDecl.__doc__ == "``a : K`` declaring a type-family constant."


RECORDS = [
    engine.Limits(),
    engine.Solution((), 0),
    engine.SolveRun("no", ()),
    hterms.Program((), ()),
    unify.UnifyResult("ok", unify.Subst()),
    translator.QueryTranslation(hterms.Top(), None, (), {}, lf.FConst("a")),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_a_write(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.other = None


def test_records_keep_their_defaults_and_methods():
    assert engine.Limits() == engine.Limits(depth=32, max_solutions=1)
    assert unify.UnifyResult("ok", unify.Subst()).residuals == ()
    x = hterms.LVar("X", 0, hterms.PROP)
    sol = engine.Solution(((x, hterms.Top()),), 3)
    assert sol.value(x) == hterms.Top() and sol.value(hterms.LVar(
        "Y", 0, hterms.PROP)) is None
