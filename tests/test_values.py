"""The value types' contract: every graph, coloring, sequence, result and
witness type is immutable data that compares, hashes, prints, copies and
pickles by its fields, and refuses invalid fields at construction."""

import copy
import pickle

import pytest

from thuelex import (
    COMPLETE,
    EMPTY,
    Coloring,
    GapProfile,
    Graph,
    ProductGraph,
    RepetitionWitness,
    RootedTreeMeta,
    SolveResult,
    SymbolSeq,
    TupleColoring,
    ValleyPattern,
    build_path,
)

P3 = ((1,), (0, 2), (1,))

# class -> (field names in order, a value, a value differing in one field);
# each entry builds fresh objects, so equal values are never the same object.
CASES = {
    Graph: (("n", "adj"), lambda: Graph(3, P3), lambda: Graph(3, ((), (2,), (1,)))),
    ProductGraph: (
        ("base", "k", "inner_kind", "view"),
        lambda: ProductGraph(build_path(2), 1, EMPTY, build_path(2)),
        lambda: ProductGraph(build_path(2), 1, COMPLETE, build_path(2)),
    ),
    RootedTreeMeta: (
        ("root", "level"),
        lambda: RootedTreeMeta(0, (0, 1, 1)),
        lambda: RootedTreeMeta(1, (1, 0, 1)),
    ),
    Coloring: (("palette", "colors"), lambda: Coloring(3, (0, 1, 2)), lambda: Coloring(4, (0, 1, 2))),
    TupleColoring: (
        ("p", "q", "sets"),
        lambda: TupleColoring(2, 4, ((0, 1), (2, 3))),
        lambda: TupleColoring(2, 4, ((0, 1), (1, 3))),
    ),
    SymbolSeq: (("symbols", "sigma"), lambda: SymbolSeq((0, 1, 2), 3), lambda: SymbolSeq((0, 1, 2), 4)),
    GapProfile: (("peaks", "gaps"), lambda: GapProfile((1, 3), (2,)), lambda: GapProfile((1, 4), (3,))),
    ValleyPattern: (
        ("pattern", "window", "letter_map"),
        lambda: ValleyPattern(2, (1, 6), (0, 1, 2)),
        lambda: ValleyPattern(2, (1, 6), (1, 0, 2)),
    ),
    SolveResult: (
        ("status", "value", "witness", "nodes_explored"),
        lambda: SolveResult("exact", 3, Coloring(3, (0, 1, 2)), 17),
        lambda: SolveResult("exact", 3, Coloring(3, (0, 1, 2)), 18),
    ),
    RepetitionWitness: (
        ("path", "half_colors"),
        lambda: RepetitionWitness((0, 1), (0,)),
        lambda: RepetitionWitness((1, 2), (0,)),
    ),
}

VALUE_CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


@VALUE_CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    _, make, other = CASES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, other()}) == 2
    assert a != other()


@VALUE_CLASSES
def test_other_classes_never_equal(cls):
    fields, make, _ = CASES[cls]
    value = make()
    assert value != tuple(getattr(value, name) for name in fields)
    for other_cls, (_, other_make, _) in CASES.items():
        if other_cls is not cls:
            assert value != other_make() and other_make() != value


def test_same_fields_under_another_class_not_equal():
    assert GapProfile((0, 1), (0,)) != RepetitionWitness((0, 1), (0,))


@VALUE_CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, make, _ = CASES[cls]
    value = make()
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@VALUE_CLASSES
def test_repr_names_class_and_fields(cls):
    fields, make, _ = CASES[cls]
    value = make()
    expected = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({expected})"


@VALUE_CLASSES
def test_copy_deepcopy_and_pickle_round_trip(cls):
    _, make, _ = CASES[cls]
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)


@VALUE_CLASSES
def test_wrong_field_count_raises_type_error(cls):
    fields, make, _ = CASES[cls]
    values = [getattr(make(), name) for name in fields]
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:-1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(2, ((1,), ())),  # asymmetric
        lambda: Coloring(2, (0, 2)),  # color outside the palette
        lambda: TupleColoring(2, 5, ((1, 0),)),  # unsorted set
        lambda: SymbolSeq((0, 3), 3),  # symbol outside the alphabet
    ],
    ids=["graph", "coloring", "tuple_coloring", "symbol_seq"],
)
def test_invalid_fields_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
