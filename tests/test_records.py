"""The value records' equality, hashing, `repr` and immutability, pinned.

`Superbase`, `GramMatrix`, `WeightedGraph`, `Cut`, `ShortVectorResult`
and `InstanceSpec` are compared, hashed, printed and shared by callers,
so how they behave as values is part of the API, whatever builds them.
Each compares equal exactly when its class and every field are equal,
hashes alike when equal (`WeightedGraph`, which holds dicts, does not
hash), prints as its class name and fields in order, and refuses to set
or delete any attribute.  Immutability is pinned as `AttributeError`,
which a frozen dataclass raises through its own subclass of it.
"""

from fractions import Fraction

import pytest

from latcut import (
    Cut,
    GramMatrix,
    InstanceSpec,
    ShortVectorResult,
    Superbase,
    WeightedGraph,
)

F = Fraction

ROWS = ((1, -1), (-1, 1))


def records():
    """(make, fields, other): `make()` builds a fresh record, `fields` are
    its field names in order, and `other` holds one record per field,
    each unlike `make()` in that field alone."""
    return [
        pytest.param(lambda: Superbase(ROWS, 2), ("rows", "scale"),
                     [Superbase(((2, -2), (-2, 2)), 2), Superbase(ROWS, 3)],
                     id="Superbase"),
        pytest.param(lambda: GramMatrix(ROWS, 2), ("rows", "scale"),
                     [GramMatrix(((2, -2), (-2, 2)), 2), GramMatrix(ROWS, 3)],
                     id="GramMatrix"),
        pytest.param(lambda: WeightedGraph(({1: 1}, {0: 1}, {}), 2),
                     ("adjacency", "scale"),
                     [WeightedGraph(({1: 2}, {0: 2}, {}), 2),
                      WeightedGraph(({1: 1}, {0: 1}, {}), 3)],
                     id="WeightedGraph"),
        pytest.param(lambda: Cut((0, 2), F(1, 2)), ("side", "weight"),
                     [Cut((0,), F(1, 2)), Cut((0, 2), F(1, 3))], id="Cut"),
        pytest.param(lambda: ShortVectorResult((0, 1), F(1, 2), (F(1), F(-1, 2))),
                     ("subset", "squared_length", "coordinates"),
                     [ShortVectorResult((0,), F(1, 2), (F(1), F(-1, 2))),
                      ShortVectorResult((0, 1), F(1), (F(1), F(-1, 2))),
                      ShortVectorResult((0, 1), F(1, 2))],
                     id="ShortVectorResult"),
        pytest.param(lambda: InstanceSpec("random_gram", 5, 3, F(1, 2)),
                     ("family", "n", "seed", "density"),
                     [InstanceSpec("an", 5, 3, F(1, 2)),
                      InstanceSpec("random_gram", 6, 3, F(1, 2)),
                      InstanceSpec("random_gram", 5, 4, F(1, 2)),
                      InstanceSpec("random_gram", 5, 3, F(1))],
                     id="InstanceSpec"),
    ]


@pytest.mark.parametrize("make, fields, other", records())
def test_records_are_equal_exactly_when_their_fields_are(make, fields, other):
    record = make()
    assert record == make() and not record != make()
    assert len(other) == len(fields)
    for unlike in other:
        assert record != unlike and not record == unlike
    assert record != tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("make, fields, other", records())
def test_records_hash_alike_when_equal(make, fields, other):
    record = make()
    if isinstance(record, WeightedGraph):
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(make())
    assert {record: 1}[make()] == 1
    assert len({record, make(), *other}) == 1 + len(other)


@pytest.mark.parametrize("make, fields, other", records())
def test_records_refuse_to_change(make, fields, other):
    record = make()
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == make()


def test_records_print_their_class_and_fields_in_order():
    assert repr(Superbase(ROWS, 1)) == \
        "Superbase(rows=((1, -1), (-1, 1)), scale=1)"
    assert repr(GramMatrix(ROWS, 2)) == \
        "GramMatrix(rows=((1, -1), (-1, 1)), scale=2)"
    assert repr(WeightedGraph.from_edges(3, [(0, 1, F(1, 2))])) == \
        "WeightedGraph(adjacency=({1: 1}, {0: 1}, {}), scale=2)"
    assert repr(Cut((0,), F(1, 2))) == "Cut(side=(0,), weight=Fraction(1, 2))"
    assert repr(ShortVectorResult((0, 1), F(1, 2), (F(1), F(-1, 2)))) == (
        "ShortVectorResult(subset=(0, 1), squared_length=Fraction(1, 2), "
        "coordinates=(Fraction(1, 1), Fraction(-1, 2)))")
    assert repr(ShortVectorResult((0, 1), F(1, 2))) == (
        "ShortVectorResult(subset=(0, 1), squared_length=Fraction(1, 2), "
        "coordinates=None)")
    assert repr(InstanceSpec("random_gram", 5, 3, F(1, 2))) == (
        "InstanceSpec(family='random_gram', n=5, seed=3, "
        "density=Fraction(1, 2))")
    assert repr(InstanceSpec("an", 5)) == \
        "InstanceSpec(family='an', n=5, seed=None, density=None)"


def test_a_superbase_and_a_gram_matrix_of_equal_fields_differ():
    assert Superbase(ROWS, 1) != GramMatrix(ROWS, 1)
    assert len({Superbase(ROWS, 1), GramMatrix(ROWS, 1)}) == 2


def test_the_fraction_views_change_neither_equality_nor_repr():
    # `vectors` and `entries` are computed on first reading and kept on
    # the record; a record that has kept its view still equals, hashes and
    # prints as one that has not.
    for make, view in ((Superbase, "vectors"), (GramMatrix, "entries")):
        fresh, read = make(ROWS, 2), make(ROWS, 2)
        assert getattr(read, view) == ((F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)))
        assert getattr(read, view) is getattr(read, view)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)


def test_graphs_built_from_the_same_edges_in_any_order_are_equal():
    edges = [(0, 1, F(1, 2)), (1, 2, 3), (0, 2, F(1, 3))]
    assert WeightedGraph.from_edges(3, edges) == \
        WeightedGraph.from_edges(3, edges[::-1])
    assert WeightedGraph.from_edges(3, edges) != \
        WeightedGraph.from_edges(4, edges)
