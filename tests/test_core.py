import itertools
import math

import pytest
from hypothesis import example, given, strategies as st

import oracles
from conftest import hypergraphs
from hypertile import Hypergraph, Partition, build, solver, vertex_set
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


@st.composite
def unsorted_edge_lists(draw):
    """(k, n, edges): k = 2, 3 or 4, each edge a k-subset in shuffled order,
    the list itself unsorted and holding repeats."""
    k = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(k, 7))
    picks = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), k))),
                          max_size=20))
    picks += picks[:draw(st.integers(0, len(picks)))]
    return k, n, [draw(st.permutations(e)) for e in draw(st.permutations(picks))]


@given(unsorted_edge_lists(), st.data())
def test_edges_stored_once_answer_as_a_frozenset_would(case, data):
    k, n, raw = case
    oracle = frozenset(tuple(sorted(e)) for e in raw)
    g = build(k, n, raw)
    assert Hypergraph.__slots__ == ("k", "n", "edges", "_hash")
    assert g.edge_set() == oracle and isinstance(g.edge_set(), frozenset)
    for s in itertools.combinations(range(n), k):
        assert g.has_edge(s) == g.has_edge(s[::-1]) == (s in oracle)
        assert g.degree(s) == (s in oracle)
    permuted = build(k, n, data.draw(st.permutations(raw)))
    assert permuted == g and hash(permuted) == hash(g)
    cut = data.draw(st.integers(0, len(raw)))
    assert build(k, n, raw[:cut]).with_edges(e for e in raw[cut:]) == g
    if oracle:
        dropped = data.draw(st.sampled_from(sorted(oracle)))
        smaller = build(k, n, [e for e in raw if tuple(sorted(e)) != dropped])
        assert smaller != g and g != smaller
        assert not smaller.has_edge(dropped) and g.has_edge(dropped)
        absent = [s for s in itertools.combinations(range(n), k) if s not in oracle]
        if absent:      # as many edges, one of them different
            swapped = smaller.with_edges([data.draw(st.sampled_from(absent))])
            assert swapped.edge_count == g.edge_count and swapped != g


def test_has_edge_at_the_bisect_boundaries():
    g = build(3, 6, [(3, 2, 1), (2, 4, 3)])
    assert g.has_edge((1, 2, 3)) and g.has_edge((2, 3, 4))  # first and last
    assert not g.has_edge((3, 4, 5))          # past the last edge
    assert not g.has_edge((0, 1, 2))          # before the first
    assert not g.has_edge((1, 2))             # a prefix of the first edge
    assert not g.has_edge((2, 3, 4, 5))       # the last edge and one more
    assert not g.has_edge(())
    assert not g.has_edge((2, 3, 6))          # vertex 6 is out of range
    assert not g.has_edge((-1, 1, 2))
    assert not build(3, 6).has_edge((1, 2, 3))


# k = 2, 3 and 4, so s = k-1 (read from the link table) meets each
# uniformity; the examples leave a (k-1)-set in no edge
DEGREE_HOSTS = hypergraphs(max_n=7) | hypergraphs(k=2, max_n=7) | hypergraphs(k=4, max_n=7)
UNCOVERED = (build(2, 3, [(0, 1)]), build(3, 4, [(0, 1, 2), (1, 2, 3)]),
             build(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)]))


def _with_uncovered(test):
    for g in UNCOVERED:
        test = example(g)(test)
    return test


@_with_uncovered
@given(DEGREE_HOSTS)
def test_degree_matches_brute_force(g):
    for s in range(1, g.k):
        for sub in itertools.combinations(range(g.n), s):
            assert g.degree(sub) == oracles.codegree(g.n, g.edges, sub)


@_with_uncovered
@given(DEGREE_HOSTS)
def test_min_s_degree_matches_brute_force(g):
    for s in range(1, g.k):
        assert g.min_s_degree(s) == oracles.min_codegree(g.n, g.edges, s)


@pytest.mark.parametrize("k", (2, 3, 4))
def test_codegrees_on_k_minus_one_vertices(k):
    g = build(k, k - 1, [])
    assert g.min_s_degree(k - 1) == 0
    assert g.degree(range(k - 1)) == 0


@pytest.mark.parametrize("g", [
    *UNCOVERED,
    build(2, 4, itertools.combinations(range(4), 2)),
    build(3, 6, [e for e in itertools.combinations(range(6), 3) if sum(e) % 3]),
    build(4, 6, itertools.combinations(range(6), 4)),
], ids=lambda g: f"k{g.k}-n{g.n}-e{g.edge_count}")
def test_codegrees_read_a_cold_or_a_warm_link_table(g):
    # cold: the first query builds the table; warm: contains_copy built it
    expected = ([oracles.codegree(g.n, g.edges, sub)
                 for sub in itertools.combinations(range(g.n), g.k - 1)],
                oracles.min_codegree(g.n, g.edges, g.k - 1))
    edge = build(g.k, g.k, [range(g.k)])
    solver._plan(edge)                  # its twin classes read the edge's own links
    for warm in (False, True):
        solver._links.cache_clear()
        if warm:
            solver.contains_copy(g, edge)
        assert solver._links.cache_info().misses == warm
        got = ([g.degree(sub) for sub in itertools.combinations(range(g.n), g.k - 1)],
               g.min_s_degree(g.k - 1))
        assert got == expected
        assert solver._links.cache_info().misses == 1


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
