import itertools
import math

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import hypergraphs
from hypertile import Hypergraph, Partition, build, vertex_set
from hypertile.errors import ValidationError


def test_build_canonicalizes_edges():
    g = build(3, 5, [(4, 2, 0), (1, 0, 3)])
    assert g.edges == ((0, 1, 3), (0, 2, 4))
    assert g.k == 3 and g.n == 5
    assert g.edge_count == 2


def test_build_rejects_bad_input():
    with pytest.raises(ValidationError):
        build(0, 3, [])
    with pytest.raises(ValidationError):
        Hypergraph(1, 2, [(0,)])  # the class, too, is at least 2-uniform
    with pytest.raises(ValidationError):
        build(3, -1, [])
    with pytest.raises(ValidationError):
        build(3, 3, [(0, 1)])  # wrong arity
    with pytest.raises(ValidationError):
        build(3, 3, [(0, 1, 3)])  # vertex out of range
    with pytest.raises(ValidationError):
        build(3, 3, [(0, 1, 1)])  # repeated vertex
    # duplicate edges collapse rather than error; the text format is stricter
    assert build(3, 4, [(0, 1, 2), (2, 1, 0)]).edge_count == 1


def test_has_edge_and_edge_set():
    g = build(3, 4, [(0, 1, 2)])
    assert g.has_edge((2, 0, 1))
    assert not g.has_edge((0, 1, 3))
    assert g.edge_set() == frozenset({(0, 1, 2)})


def test_with_edges():
    g = build(3, 5, [(0, 1, 2)])
    h = g.with_edges([(1, 2, 3)])
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    assert g.edges == ((0, 1, 2),)  # original untouched


@given(hypergraphs(max_n=7))
def test_degree_matches_brute_force(g):
    for s in (1, 2):
        for sub in itertools.combinations(range(g.n), s):
            assert g.degree(sub) == oracles.codegree(g.n, g.edges, sub)


@given(hypergraphs(max_n=7))
def test_min_s_degree_matches_brute_force(g):
    for s in (1, 2):
        assert g.min_s_degree(s) == oracles.min_codegree(g.n, g.edges, s)


@given(hypergraphs(max_n=7))
def test_degree_equals_neighborhood_size(g):
    for s in (1, 2):
        for sub in itertools.combinations(range(g.n), s):
            link = {tuple(v for v in e if v not in sub) for e in g.edges if set(sub) <= set(e)}
            assert g.degree(sub) == len(link)


@given(hypergraphs(max_n=12, min_n=3))
def test_degree_double_counting(g):
    # sum of s-set degrees counts each edge once per contained s-subset
    for s in (1, 2, 3):
        total = sum(g.degree(sub) for sub in itertools.combinations(range(g.n), s))
        assert total == g.edge_count * math.comb(g.k, s)


def test_degree_on_full_edge_is_membership():
    g = build(3, 4, [(0, 1, 2)])
    assert g.degree((0, 1, 2)) == 1
    assert g.degree((0, 1, 3)) == 0


@given(hypergraphs(max_n=7, min_edges=1))
def test_min_s_degree_monotone_under_deletion(g):
    smaller = build(g.k, g.n, g.edges[1:])
    for s in (1, 2):
        assert smaller.min_s_degree(s) <= g.min_s_degree(s)


def test_induced_subgraph():
    g = build(3, 6, [(0, 1, 2), (1, 2, 3), (3, 4, 5)])
    sub = g.induced((1, 2, 3, 4))
    lifted = {tuple(sorted(sub.vertices[v] for v in e)) for e in sub.graph.edges}
    assert lifted == {(1, 2, 3)}


@given(hypergraphs(max_n=6))
def test_induced_on_full_vertex_set_is_identity(g):
    sub = g.induced(range(g.n))
    assert sub.graph.edges == g.edges
    assert all(sub.vertices[v] == v for v in range(g.n))


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition([[0, 1], [1, 2]], 3)  # overlap
    with pytest.raises(ValidationError):
        Partition([[0, 1], [2]], 4)  # not covering
    with pytest.raises(ValidationError):
        Partition([[0, 1], []], 2)  # empty class
    p = Partition([[0, 1], []], 2, allow_empty=True)
    assert p.sizes == (2, 0)
    # ids come from JSON files too: floats, bools and strings are not vertices
    for parts in ([[0, 1], [2, 3.0]], [[False, True], [2, 3]], [["0", 1], [2, 3]]):
        with pytest.raises(ValidationError, match="is not an integer"):
            Partition(parts, 4)


def test_index_vector():
    p = Partition([range(0, 3), range(3, 7), range(7, 9)], 9)
    assert p.index_vector((0, 3, 4, 8)) == (1, 2, 1)
    assert p.index_vector(()) == (0, 0, 0)


@given(st.data())
def test_index_vector_matches_a_recount(data):
    n = data.draw(st.integers(1, 12))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = [[v for v in range(n) if labels[v] == i] for i in range(4)]
    p = Partition(parts, n, allow_empty=True)
    for _ in range(3):
        s = data.draw(st.sets(st.integers(0, n - 1)))
        assert p.index_vector(s) == oracles.index_vector(parts, s)
    with pytest.raises(ValidationError):
        p.index_vector([n])


def test_vertex_set_sorts_and_rejects_repeats():
    assert vertex_set([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValidationError):
        vertex_set([1, 1])
