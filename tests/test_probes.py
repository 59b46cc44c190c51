import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import hypergraphs
from hypertile import (
    Partition,
    barrier_graph,
    build,
    classify_goodness,
    complete_k_partite,
    count_connectors,
    extremal_witness,
    has_transferral,
    k_st,
    robust_vectors,
)
import hypertile.probes as probes
from hypertile.probes import _lattice_member, close_threshold
from hypertile.errors import BudgetExceededError, ValidationError

EDGE = build(3, 3, [(0, 1, 2)])
K112 = complete_k_partite((1, 1, 2)).graph
KST312 = k_st(3, 1, 2).graph
K333 = complete_k_partite((3, 3, 3)).graph
B75 = barrier_graph(7, 5).graph


def complete_3graph(n: int):
    return build(3, n, itertools.combinations(range(n), 3))


@given(hypergraphs(max_n=6, min_n=4))
def test_connectors_match_common_completions(g):
    for x, y in itertools.combinations(range(g.n), 2):
        expected = oracles.common_completions(g.n, g.k, g.edges, x, y)
        assert count_connectors(g, EDGE, x, y, 1) == expected


@given(hypergraphs(max_n=6, min_n=4))
def test_connector_symmetry(g):
    for x, y in itertools.combinations(range(g.n), 2):
        assert count_connectors(g, EDGE, x, y, 1) == count_connectors(g, EDGE, y, x, 1)


def test_connector_fixtures():
    # same-part pairs in the balanced complete 3-partite host share all
    # nine cross pairs; cross-part pairs share none
    assert count_connectors(K333, EDGE, 0, 1, 1) == 9
    assert count_connectors(K333, EDGE, 0, 3, 1) == 0


def test_connector_validation():
    with pytest.raises(ValidationError):
        count_connectors(K333, EDGE, 2, 2, 1)
    with pytest.raises(ValidationError):
        count_connectors(K333, EDGE, 0, 99, 1)
    with pytest.raises(ValidationError):
        count_connectors(K333, EDGE, 0, 1, 0)
    # length-2 connectors need 5 spare vertices; a 5-vertex host has 3
    with pytest.raises(ValidationError):
        count_connectors(build(3, 5, []), EDGE, 0, 1, 2)


def test_connector_budget():
    with pytest.raises(BudgetExceededError):
        count_connectors(K333, EDGE, 0, 1, 2, budget=3)


def test_connector_budget_covers_one_host_enumeration():
    # At i = 1 the C(n, 3) = 84 host triples outweigh the C(n-2, 2) = 21
    # candidates, so the enumeration sets the smallest budget that runs.
    # The second call, on an equal host, reads the table the first one
    # built and is still charged its enumeration.
    assert count_connectors(K333, EDGE, 0, 1, 1, budget=84) == 9
    with pytest.raises(BudgetExceededError, match="copy-set enumeration"):
        count_connectors(build(3, 9, K333.edges), EDGE, 0, 1, 1, budget=83)


def test_explicit_connector_budget_overrides_the_variable_on_a_new_table(monkeypatch):
    probes._connector_table.cache_clear()
    monkeypatch.setenv("HYPERTILE_BUDGET", "20")
    assert count_connectors(K333, EDGE, 0, 1, 1, budget=84) == 9
    with pytest.raises(BudgetExceededError, match="connector enumeration"):
        count_connectors(K333, EDGE, 0, 1, 1)


def test_connector_covers_share_their_failed_states():
    # barrier(7, 7) at i = 3: the covers of the 495 candidates meet the same
    # states, so one failed-state set per probe makes 1,727 cover nodes
    # (calls of `options_at`), against 4,440 with one set per cover
    host, k111 = barrier_graph(7, 7).graph, complete_k_partite((1, 1, 1)).graph
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "options_at":
            nodes += 1

    probes._connector_table.cache_clear()
    sys.setprofile(profile)
    try:
        count = count_connectors(host, k111, 0, 1, 3)
    finally:
        sys.setprofile(None)
    assert count == oracles.connector_count(host.n, host.edges, 3, k111.edges, 0, 1, 3) == 245
    assert nodes <= 1900                        # 1.1 times the count


@settings(max_examples=40)
@given(hypergraphs(min_n=5, max_n=7), hypergraphs(min_n=5, max_n=7))
def test_connector_tables_follow_host_and_pattern(g, h):
    # Calls alternate between two hosts, a host equal to the first but built
    # apart, and two patterns, so each call either reads the kept table or
    # replaces it.
    twin = build(3, g.n, g.edges)
    for x, y in itertools.combinations(range(4), 2):
        for host in (g, h, twin):
            assert count_connectors(host, EDGE, x, y, 1) == oracles.common_completions(
                host.n, 3, host.edges, x, y)
            assert count_connectors(host, K112, x, y, 1) == oracles.connector_count(
                host.n, host.edges, K112.n, K112.edges, x, y, 1)


@st.composite
def connector_cases(draw):
    """(host, pattern, x, y, i): a random host with room for length-i
    connectors, at most 10 vertices unless the pattern needs more (k_st(3,1,2)
    at i = 2 needs 11), dense enough that many candidates tile."""
    pattern = draw(st.sampled_from((EDGE, K112, KST312)))
    i = draw(st.sampled_from((1, 2)))
    lo = pattern.n * i + 1
    n = draw(st.integers(max(lo, 6), max(lo, 10)))
    p = draw(st.sampled_from((0.5, 0.7, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    host = build(3, n, [e for e in itertools.combinations(range(n), 3) if rng.random() < p])
    x, y = draw(st.permutations(range(n)))[:2]
    return host, pattern, x, y, i


@settings(max_examples=80)
@given(connector_cases())
def test_connectors_match_the_tiling_oracle(case):
    host, pattern, x, y, i = case
    expected = oracles.connector_count(host.n, host.edges, pattern.n, pattern.edges, x, y, i)
    assert count_connectors(host, pattern, x, y, i) == expected


def test_close_threshold_is_exact():
    # `probe close` compares the 9 connectors of (0, 1) against eta * 9^2
    # in rational arithmetic: 1/9 reaches 9 exactly, a hair more does not
    assert close_threshold(K333, EDGE, 1, 0) == 0
    assert close_threshold(K333, EDGE, 1, Fraction(1, 9)) == 9
    assert close_threshold(K333, EDGE, 1, Fraction(1, 9) + Fraction(1, 1000)) > 9
    assert close_threshold(K333, EDGE, 1, 1) == 81
    with pytest.raises(ValidationError):
        close_threshold(K333, EDGE, 1, -1)


def test_robust_vectors_fixture():
    parts = Partition([range(0, 3), range(3, 6), range(6, 9)], 9)
    rep = robust_vectors(K333, EDGE, parts, 0)
    assert rep.counts == {(1, 1, 1): 27}
    assert rep.robust == ((1, 1, 1),)
    assert rep.total == 27
    assert rep.parts == 3


def test_robust_vectors_threshold_prunes():
    parts = Partition([range(0, 7), range(7, 12)], 12)
    rep = robust_vectors(B75, EDGE, parts, 0)
    assert rep.total == B75.edge_count
    assert sum(rep.counts.values()) == 105
    # (3, 0) triples: 35 inside A; (1, 2) triples: 70 crossing
    assert rep.counts == {(3, 0): 35, (1, 2): 70}
    # a threshold above 35/12^3 keeps only the crossing type
    rep = robust_vectors(B75, EDGE, parts, Fraction(36, 12 ** 3))
    assert rep.robust == ((1, 2),)


def test_transferral_fixture():
    parts = Partition([range(0, 3), range(3, 6), range(6, 9)], 9)
    rep = robust_vectors(K333, EDGE, parts, 0)
    # the all-ones lattice holds no e_i - e_j vector
    assert not has_transferral(rep, 0, 1)
    with pytest.raises(ValidationError):
        has_transferral(rep, 1, 1)
    with pytest.raises(ValidationError):
        has_transferral(rep, 0, 7)


def test_transferral_present_when_types_differ():
    parts = Partition([range(0, 7), range(7, 12)], 12)
    rep = robust_vectors(B75, EDGE, parts, 0)
    # (3,0) - (1,2) = (2,-2); half of it is not in the lattice, itself is
    assert _lattice_member(rep.robust, (2, -2))
    assert not has_transferral(rep, 0, 1)


def test_lattice_membership_handcrafted():
    assert _lattice_member([(2, 0), (0, 2)], (4, -6))
    assert not _lattice_member([(2, 0), (0, 2)], (1, 1))
    assert _lattice_member([(1, 1), (0, 2)], (1, -1))
    assert _lattice_member([], (0, 0))
    assert not _lattice_member([], (1, 0))
    assert _lattice_member([(0, 0)], (0, 0))
    with pytest.raises(ValidationError):
        _lattice_member([(1,)], (1, 0))


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
             min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_lattice_membership_accepts_true_combinations(gens, coeffs):
    target = tuple(
        sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(2))
    assert _lattice_member(gens, target)


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
             min_size=1, max_size=2),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
def test_lattice_membership_agrees_with_box_search(gens, target):
    # box 9 is complete here: any witness for so small a target over
    # 2 generators with entries up to 2 fits in it
    if oracles.lattice_member_box(gens, target, 9):
        assert _lattice_member(gens, target)


def test_goodness_identical_graphs():
    rep = classify_goodness(B75, B75, 0)
    assert all(rep.good)
    assert rep.difference_degrees == (0,) * 12


def test_goodness_empty_against_complete():
    host = build(3, 5, [])
    rep = classify_goodness(host, complete_3graph(5), 0)
    assert not any(rep.good)
    assert rep.difference_degrees == (6,) * 5


def test_goodness_counts_missing_edges_per_vertex():
    lost = B75.edges[0]
    host = build(3, 12, [e for e in B75.edges if e != lost])
    rep = classify_goodness(host, B75, 0)
    for v in range(12):
        assert rep.difference_degrees[v] == (1 if v in lost else 0)
        assert rep.good[v] == (v not in lost)


@given(hypergraphs(max_n=5, min_n=4))
def test_goodness_alpha_one_accepts_everything(g):
    rep = classify_goodness(g, complete_3graph(g.n), 1)
    assert all(rep.good)


def test_goodness_validation():
    with pytest.raises(ValidationError):
        classify_goodness(B75, complete_3graph(5), 0)
    with pytest.raises(ValidationError):
        classify_goodness(B75, B75, -1)


def test_extremal_witness_self():
    lc = barrier_graph(6, 7)
    w = extremal_witness(lc.graph, 0)
    assert w.exhaustive and w.missing_edges == 0
    assert w.partition.parts[0] == tuple(range(6))


def test_extremal_witness_respects_balance():
    # parts (7, 5) are not a balanced split of 12, so no exact witness
    w = extremal_witness(B75, 0)
    assert w.partition is None and w.exhaustive


def test_extremal_witness_on_complete_host():
    w = extremal_witness(complete_3graph(8), 0)
    assert w.partition is not None and w.missing_edges == 0


def test_extremal_witness_greedy_path(monkeypatch):
    monkeypatch.setattr(probes, "EXHAUSTIVE_SPLIT_LIMIT", 4)
    lc = barrier_graph(6, 7)
    w = extremal_witness(lc.graph, 0)
    assert not w.exhaustive
    assert w.partition is not None and w.missing_edges == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(17, 20), st.sampled_from([0.1, 0.3, 0.5]), st.integers(0, 2**32 - 1),
       st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10)]))
def test_extremal_witness_greedy_matches_oracle(n, p, seed, gamma):
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 3) if rng.random() < p]
    w = extremal_witness(build(3, n, edges), gamma)
    a_part, missing = oracles.greedy_barrier_split(n, edges, gamma)
    assert not w.exhaustive and w.missing_edges == missing
    if a_part is None:
        assert w.partition is None
    else:
        assert w.partition.parts == (a_part, tuple(v for v in range(n) if v not in a_part))


def test_extremal_witness_validation():
    with pytest.raises(ValidationError):
        extremal_witness(build(2, 6, [(0, 1)]), 0)
    with pytest.raises(ValidationError):
        extremal_witness(B75, -1)
