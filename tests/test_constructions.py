import gc
import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import oracles
from hypertile import (
    balanced_split,
    barrier_graph,
    build,
    c4_factor_codegree,
    complete_k_partite,
    cone_graph,
    contains_copy,
    enumerate_copy_sets,
    field_product_graph,
    fortification_window,
    fortified_barrier,
    k_st,
    mirrored_product_graph,
    parse_hg,
    write_hg,
)
from hypertile import constructions
from hypertile.constructions import _identity_triples
from hypertile.core import Hypergraph
from hypertile.errors import UnsupportedFieldError, ValidationError
from hypertile.fields import REDUCTION_POLYS

GOLDEN = Path(__file__).parent / "golden"
K122 = complete_k_partite((1, 2, 2)).graph


def test_balanced_split_values():
    assert balanced_split(12) == (7, 5)
    assert balanced_split(13) == (6, 7)
    assert balanced_split(14) == (7, 7)
    assert balanced_split(15) == (8, 7)
    with pytest.raises(ValidationError):
        balanced_split(3)


@given(st.integers(4, 60))
def test_balanced_split_properties(n):
    a, b = balanced_split(n)
    assert a + b == n
    assert b % 2 == 1
    assert abs(a - b) <= 2


@given(st.integers(0, 12), st.integers(0, 12))
def test_barrier_edge_count_formula(a, b):
    g = barrier_graph(a, b).graph
    assert g.edge_count == math.comb(a, 3) + a * math.comb(b, 2)
    for e in g.edges:
        assert sum(1 for v in e if v < a) in (1, 3)


def test_barrier_fixtures():
    lc = barrier_graph(4, 3)
    assert lc.graph.edge_count == 16
    assert lc.graph.min_s_degree(2) == 2
    assert lc.part("A") == (0, 1, 2, 3)
    assert lc.part("B") == (4, 5, 6)
    assert barrier_graph(3, 0).graph.edge_count == 1
    assert barrier_graph(0, 5).graph.edge_count == 0


def test_barrier_codegree_tracks_threshold():
    # the barrier on the balanced split sits one below the forcing threshold
    for n in (12, 13, 14, 15):
        a, b = balanced_split(n)
        g = barrier_graph(a, b).graph
        assert g.min_s_degree(2) == c4_factor_codegree(n) - 1


def test_barrier_parity_small():
    c4 = k_st(3, 2, 2).graph
    for a, b in ((4, 3), (5, 4), (4, 5)):
        lc = barrier_graph(a, b)
        b_side = set(lc.part("B"))
        for vs in enumerate_copy_sets(lc.graph, c4).sets:
            assert len(b_side.intersection(vs)) % 2 == 0


@given(st.integers(0, 5), st.integers(0, 6), st.integers(2, 3))
def test_cone_edge_count(x, y, k):
    g = cone_graph(x, y, k).graph
    assert g.edge_count == x * math.comb(y, k - 1)


def test_complete_partite_and_kst_counts():
    assert complete_k_partite((2, 3, 4)).graph.edge_count == 24
    assert complete_k_partite((1, 1, 2)).graph.edge_count == 2
    g = k_st(3, 2, 2).graph
    assert g.n == 6 and g.edge_count == 4
    # k = 2 collapses to the ordinary 4-cycle
    g2 = k_st(2, 2, 2).graph
    assert g2.n == 4 and g2.edge_count == 4
    assert g2.min_s_degree(1) == 2


def test_product_graph_golden_file():
    lc = field_product_graph(5)
    text = write_hg(lc.graph, comments=["product identity graph, order 5 field"])
    assert text == (GOLDEN / "g5.hg").read_text()
    assert parse_hg(text) == lc.graph


def test_product_graph_structure():
    lc = field_product_graph(5)
    g = lc.graph
    assert g.n == 16 and g.edge_count == 105
    assert field_product_graph(5).graph == g  # deterministic rebuild
    assert contains_copy(g, K122) is None
    # exact minimum pair degree: one below the q-3 that a naive count
    # suggests, because a pair can solve its own defining identity
    assert g.min_s_degree(2) == 1

    g7 = field_product_graph(7).graph
    assert g7.n == 36 and g7.edge_count == 990
    assert g7.min_s_degree(2) == 3


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_product_graph_edges_match_the_triple_scan(q):
    # every odd order the field table supports up to 13, GF(9) included
    scan = tuple(oracles.product_edges(q, REDUCTION_POLYS.get(q)))
    assert tuple(t for t in _identity_triples(q, True) if t[2] > t[1]) == scan
    assert field_product_graph(q).graph.edges == scan


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_mirrored_graph_edges_match_the_triple_scan(q):
    scan = tuple(oracles.mirrored_edges(q, REDUCTION_POLYS.get(q)))
    assert mirrored_product_graph(q).graph.edges == scan


@pytest.mark.parametrize("q", (3, 5))
def test_fortified_barrier_is_the_barrier_united_with_induced_mirrored_edges(q):
    n0 = (q - 1) ** 2
    mirrored = oracles.mirrored_edges(q)
    for a, b in itertools.product(range(1, n0 + 1, 2), repeat=2):
        barrier = {e for e in itertools.combinations(range(a + b), 3)
                   if sum(v < a for v in e) % 2}
        induced = {(u, v, a + w - n0) for u, v, w in mirrored if v < a and w - n0 < b}
        assert fortified_barrier(a, b, q).graph.edges == tuple(sorted(barrier | induced))


def _handed_edges(builder, args):
    """The edges a builder hands its Hypergraph, in the order it hands
    them, and the graph it returns."""
    handed = []

    def recording(k, n, edges):
        handed.extend(edges)
        return Hypergraph(k, n, handed)

    with mock.patch.object(constructions, "Hypergraph", recording):
        graph = builder(*args).graph
    return handed, graph


_STREAMED = st.one_of(
    st.tuples(st.just(barrier_graph), st.tuples(st.integers(0, 12), st.integers(0, 12))),
    st.tuples(st.just(cone_graph),
              st.tuples(st.integers(0, 5), st.integers(0, 6), st.integers(2, 4))),
    st.tuples(st.just(complete_k_partite),
              st.tuples(st.lists(st.integers(1, 3), min_size=2, max_size=4))),
    st.tuples(st.just(k_st), st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 3))),
    st.tuples(st.sampled_from((field_product_graph, mirrored_product_graph)),
              st.tuples(st.sampled_from((3, 5, 7, 9)))),
)


@given(_STREAMED, st.randoms(use_true_random=False))
def test_builders_hand_over_sorted_edges_once(built, rng):
    # fortified_barrier is exempt: it chains two sorted streams
    builder, args = built
    handed, graph = _handed_edges(builder, args)
    assert all(tuple(sorted(e)) == e for e in handed)
    assert all(e < f for e, f in zip(handed, handed[1:]))
    rng.shuffle(handed)
    assert graph == Hypergraph(graph.k, graph.n, handed)


def test_builders_keep_no_edges_once_dropped():
    constructions._tables(11)  # the field tables stay cached, bounded by the field table
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field_product_graph(11)
        mirrored_product_graph(5)
        gc.collect()  # also empties the tuple free list, which keeps up to 2,000 freed edges
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_barrier_build_peaks_near_what_the_host_holds():
    # Hypergraph sorts one list of the edges in place: the build holds the
    # list and the edge tuple at once, about 1.14 times what the host keeps
    # (1,174,072 bytes); gathering them in a set first peaked at 1.56 times
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        host = barrier_graph(30, 29)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert host.graph.edge_count == 16240
    assert peak - before < 1.25 * (held - before)


def test_mirrored_graph_structure():
    for q, expect_edges in ((3, 6), (5, 360)):
        lc = mirrored_product_graph(q)
        g = lc.graph
        n0 = (q - 1) ** 2
        assert g.n == 2 * n0
        assert g.edge_count == expect_edges
        base = set(lc.part("base"))
        for e in g.edges:
            assert sum(1 for v in e if v in base) == 2
        assert contains_copy(g, K122) is None
        mixed_min = min(
            g.degree((u, v)) for u in range(n0) for v in range(n0, 2 * n0))
        assert mixed_min == q - 3


def test_mirrored_graph_correspondence():
    # each product-graph edge abc yields three mirrored edges, replacing one
    # vertex at a time with its twin on the mirror side
    q = 5
    n0 = (q - 1) ** 2
    g = field_product_graph(q).graph
    h = mirrored_product_graph(q).graph
    for a, b, c in g.edges:
        for trip in ((a, b, c + n0), (a, c, b + n0), (b, c, a + n0)):
            assert h.has_edge(trip)


def test_fortified_barrier():
    lc = fortified_barrier(7, 7, 5)
    g = lc.graph
    assert g.n == 14 and g.edge_count == 213
    assert lc.part("A") == tuple(range(7))
    assert lc.part("B") == tuple(range(7, 14))
    # barrier edges are all present
    base = barrier_graph(7, 7).graph
    assert set(base.edges) <= set(g.edges)
    with pytest.raises(ValidationError):
        fortified_barrier(6, 7, 5)  # even side
    with pytest.raises(ValidationError):
        fortified_barrier(17, 7, 5)  # more than (q-1)^2 = 16 per side


def test_mirrored_partition_of_fortified_is_free():
    lc = fortified_barrier(7, 7, 5)
    a = set(lc.part("A"))
    mirrored_only = [e for e in lc.graph.edges
                     if sum(1 for v in e if v in a) == 2]
    g = build(3, lc.graph.n, mirrored_only)
    assert contains_copy(g, K122) is None


def test_fortification_window():
    assert fortification_window(498, 17)
    assert not fortification_window(12, 5)
    assert not fortification_window(32, 5)  # excess zero falls below the window
    with pytest.raises(ValidationError):
        fortification_window(0, 5)
    with pytest.raises(ValidationError):
        fortification_window(10, 1)


def test_unsupported_product_orders():
    for q in (4, 6, 10):
        with pytest.raises((UnsupportedFieldError, ValidationError)):
            field_product_graph(q)
