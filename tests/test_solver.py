import importlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import hypergraphs
from hypertile import (
    Partition,
    barrier_graph,
    build,
    complete_k_partite,
    contains_copy,
    enumerate_copy_sets,
    field_product_graph,
    has_perfect_tiling,
    k_st,
    max_tiling,
    verify_certificate,
)
from hypertile import solver
from hypertile.solver import (TilingCertificate, _exact_cover_first, _max_packing_first,
                              _table, copies_of_type)
from hypertile.errors import BudgetExceededError, ValidationError
from hypertile.experiments import naive_perfect_tiling

EDGE = build(3, 3, [(0, 1, 2)])
K222 = complete_k_partite((2, 2, 2)).graph
K111 = complete_k_partite((1, 1, 1)).graph
K112 = complete_k_partite((1, 1, 2)).graph
K122 = complete_k_partite((1, 2, 2)).graph
C4 = k_st(3, 2, 2).graph
B75 = barrier_graph(7, 5).graph
TIGHT_PATH = build(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])


def complete_3graph(n: int):
    return build(3, n, itertools.combinations(range(n), 3))


def test_contains_copy_finds_embedding():
    emb = contains_copy(K222, K122)
    assert emb is not None
    # the image must induce every pattern edge
    for e in K122.edges:
        assert K222.has_edge(tuple(emb.images[v] for v in e))
    assert len(set(emb.images)) == K122.n


def test_contains_copy_verified_none():
    # a single edge cannot host the four edges of the (1,2,2) pattern
    assert contains_copy(build(3, 5, [(0, 1, 2)]), K122) is None
    assert contains_copy(build(3, 4, []), EDGE) is None
    # pattern larger than host
    assert contains_copy(EDGE, K222) is None


def test_contains_copy_validation():
    with pytest.raises(ValidationError):
        contains_copy(build(2, 3, [(0, 1)]), EDGE)


def test_enumerate_copy_sets_fixtures():
    enum = enumerate_copy_sets(K222, K222)
    assert enum.sets == ((0, 1, 2, 3, 4, 5),)

    two_edges = build(3, 6, [(0, 1, 2), (3, 4, 5)])
    enum = enumerate_copy_sets(complete_3graph(6), two_edges)
    assert enum.sets == ((0, 1, 2, 3, 4, 5),)

    assert len(enumerate_copy_sets(B75, K222).sets) == 112
    assert len(enumerate_copy_sets(B75, C4).sets) == 462

    # a pattern larger than the host: no sets, from C(3, 6) = 0 subsets
    assert enumerate_copy_sets(EDGE, K222, budget=1) == ((), {})


def test_a_pattern_larger_than_its_host_runs_no_search(monkeypatch):
    # The 13-vertex tight path has no twins, so a search in the complete
    # 3-graph on 12 vertices would try all 12! placements of its first 12
    # vertices before it ran out of room.  It must not start: with the
    # pattern planned, no link table, which every search reads first, is
    # asked for.
    path13 = build(3, 13, [(i, i + 1, i + 2) for i in range(11)])
    assert solver._plan(path13).twin == (-1,) * 13

    def refuse(host):
        raise AssertionError("a search ran")

    host = complete_3graph(12)
    monkeypatch.setattr(solver, "_links", refuse)
    assert enumerate_copy_sets(host, path13, budget=1) == ((), {})
    assert contains_copy(host, path13) is None
    assert contains_copy(host, build(3, 13, [])) is None


def test_enumerate_copy_sets_witnesses_verify():
    enum = enumerate_copy_sets(B75, C4)
    for vs in enum.sets[:25]:
        emb = enum.witnesses[vs]
        assert tuple(sorted(emb.images)) == vs
        for e in C4.edges:
            assert B75.has_edge(tuple(emb.images[v] for v in e))


def _random_host(k, n, p, seed):
    rng = random.Random(seed)
    return build(k, n, [e for e in itertools.combinations(range(n), k)
                        if rng.random() < p])


# (pattern, order): each pattern's placement order (complete partite
# patterns take one vertex per part in turn, K_{s,t} shapes put the core
# first, then the leaf groups; the tight path is most-constrained first)
WITNESS_CASES = (
    (K122, (0, 1, 3, 2, 4)),
    (K222, (0, 2, 4, 1, 3, 5)),
    (C4, (4, 5, 0, 1, 2, 3)),
    (k_st(3, 2, 3).graph, (6, 7, 0, 1, 2, 3, 4, 5)),
    (TIGHT_PATH, (2, 1, 3, 0, 4)),
)


@pytest.mark.parametrize("pattern,order", WITNESS_CASES)
def test_copy_set_witnesses_follow_the_witness_rule(pattern, order):
    # tile certificates print these witnesses, so the rule is part of the
    # byte-stable output
    seen = 0
    for seed in range(3):
        host = _random_host(3, pattern.n + 2, 0.75, seed)
        enum = enumerate_copy_sets(host, pattern)
        for vs in enum.sets:
            expected = oracles.first_witness(host.edges, pattern.edges, vs, order)
            assert enum.witnesses[vs].images == expected
        seen += len(enum.sets)
    assert seen > 0


def test_witnesses_are_read_by_sorted_copy_set():
    # kept by vertex mask, but read only by the sorted tuple of a copy set
    enum = enumerate_copy_sets(B75, K222)
    first = enum.sets[0]
    assert list(enum.witnesses) == list(enum.sets) and len(enum.witnesses) == len(enum.sets)
    assert first in enum.witnesses and enum.witnesses[first].vertex_set == first
    absent = tuple(v for v in range(B75.n) if v not in first)[:6]
    for key in (first[::-1], absent, list(first), (0,), None):
        assert key not in enum.witnesses
        with pytest.raises(KeyError):
            enum.witnesses[key]


# (pattern, placement order): the copy is the lexicographically first
# embedding read in that order; complete partite patterns take one vertex
# per part in turn, so K(1,2,2) and K(2,2,2) pin the rule that equal parts
# are not swapped
COPY_CASES = (
    (K122, (0, 1, 3, 2, 4)),                               # complete partite
    (C4, (4, 5, 0, 1, 2, 3)),                              # K_{s,t} shape
    (TIGHT_PATH, (2, 1, 3, 0, 4)),                         # generic
    (build(2, 4, [(0, 1), (1, 2), (2, 3)]), (1, 2, 0, 3)),  # k = 2 path
    (build(4, 6, [(0, 1, 2, 3), (2, 3, 4, 5)]), (2, 3, 0, 1, 4, 5)),  # k = 4
    (K222, (0, 2, 4, 1, 3, 5)),                            # equal parts
)


@pytest.mark.parametrize("pattern,order", COPY_CASES,
                         ids=[f"pattern{i}" for i in range(len(COPY_CASES))])
@settings(max_examples=30)
@given(data=st.data())
def test_contains_copy_agrees_with_brute_force(pattern, order, data):
    g = data.draw(hypergraphs(k=pattern.k, min_n=pattern.n, max_n=pattern.n + 1))
    emb = contains_copy(g, pattern)
    expected = oracles.first_copy(g.n, g.edges, pattern.edges, order)
    assert (None if emb is None else emb.images) == expected


# (pattern, order) as in WITNESS_CASES, for k = 2 and k = 3: complete
# partite patterns with equal parts, K_{s,t} shapes, generic patterns, and
# patterns with no edges or with an isolated vertex
SCAN_CASES = (
    (complete_k_partite((1, 1, 1)).graph, (0, 1, 2)),
    (K122, (0, 1, 3, 2, 4)),
    (K222, (0, 2, 4, 1, 3, 5)),
    (C4, (4, 5, 0, 1, 2, 3)),
    (k_st(3, 1, 2).graph, (4, 0, 1, 2, 3)),
    (TIGHT_PATH, (2, 1, 3, 0, 4)),
    (build(3, 3, []), (0, 1, 2)),
    (build(3, 4, [(0, 1, 2)]), (0, 1, 2, 3)),
    (complete_k_partite((2, 2)).graph, (0, 2, 1, 3)),
    (complete_k_partite((1, 2)).graph, (0, 1, 2)),
    (build(2, 4, [(0, 1), (1, 2), (2, 3)]), (1, 2, 0, 3)),
    (build(2, 3, [(0, 1), (0, 2), (1, 2)]), (0, 1, 2)),
    (build(2, 2, []), (0, 1)),
    (build(2, 3, [(0, 1)]), (0, 1, 2)),
)


@settings(max_examples=150)
@given(case=st.sampled_from(SCAN_CASES), extra=st.integers(0, 2),
       p=st.sampled_from((0.4, 0.7, 1.0)), seed=st.integers(0, 2 ** 16))
def test_copy_sets_match_the_subset_scan(case, extra, p, seed):
    pattern, order = case
    host = _random_host(pattern.k, pattern.n + extra, p, seed)
    enum = enumerate_copy_sets(host, pattern)
    sets, witnesses = oracles.copy_sets_by_scan(
        host.n, host.edges, pattern.n, pattern.edges, order)
    assert enum.sets == sets
    assert {vs: w.images for vs, w in enum.witnesses.items()} == witnesses


def test_enumerate_copy_sets_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_copy_sets(B75, C4, budget=10)


def test_perfect_tiling_found_and_verified():
    out = has_perfect_tiling(complete_k_partite((4, 4, 4)).graph, K222)
    assert out.found and out.reason == "found"
    cert = out.certificate
    assert len(cert.embeddings) == 2
    assert cert.covered == tuple(range(12))
    host = complete_k_partite((4, 4, 4)).graph
    assert verify_certificate(host, K222, cert, require_perfect=True)


def test_perfect_tiling_divisibility_short_circuit():
    out = has_perfect_tiling(complete_3graph(7), EDGE)
    assert not out.found and out.reason == "divisibility"


def test_perfect_tiling_of_the_empty_host_is_the_empty_cover():
    # no copy fits, and the C(0, 3) = 0 subsets charged fit any budget
    out = has_perfect_tiling(build(3, 0, []), EDGE, budget=1)
    assert out == (TilingCertificate((), ()), "found")


def test_barrier_blocks_even_patterns():
    # odd mirror side forces every tiling to miss: verified exhaustive
    for pattern in (K222, C4):
        out = has_perfect_tiling(B75, pattern)
        assert not out.found and out.reason == "exhausted"


@given(hypergraphs(max_n=6, min_n=3))
def test_tiling_agrees_with_partition_brute_force(g):
    out = has_perfect_tiling(g, EDGE)
    expected = oracles.block_tiling_exists(g.n, g.edges, 3, EDGE.edges)
    assert out.found == expected
    if out.found:
        assert verify_certificate(g, EDGE, out.certificate, require_perfect=True)


@settings(max_examples=25)
@given(hypergraphs(max_n=8, min_n=8, min_edges=4))
def test_quad_pattern_agrees_with_brute_force(g):
    out = has_perfect_tiling(g, K112)
    expected = oracles.block_tiling_exists(g.n, g.edges, 4, K112.edges)
    assert out.found == expected


@given(hypergraphs(max_n=6, min_n=6))
def test_tiling_monotone_under_edge_addition(g):
    out = has_perfect_tiling(g, EDGE)
    if out.found:
        richer = g.with_edges([(0, 1, 2)])
        assert has_perfect_tiling(richer, EDGE).found


@given(hypergraphs(max_n=6, min_n=6))
def test_spanning_subgraph_implication(g):
    # the 4-cycle family is a spanning subgraph of the balanced complete
    # 3-partite pattern, so its factors can only be easier to find
    if has_perfect_tiling(g, K222).found:
        assert has_perfect_tiling(g, C4).found


def test_max_tiling_fixtures():
    size, cert = max_tiling(B75, K222)
    assert size == 1 and len(cert.embeddings) == 1
    assert verify_certificate(B75, K222, cert)

    size, cert = max_tiling(build(3, 6, []), EDGE)
    assert size == 0 and cert.embeddings == ()

    two_blocks = build(3, 6, [(0, 1, 2), (3, 4, 5)])
    size, cert = max_tiling(two_blocks, EDGE)
    assert size == 2
    assert cert.covered == (0, 1, 2, 3, 4, 5)
    assert verify_certificate(two_blocks, EDGE, cert, require_perfect=True)


def test_max_tiling_validation():
    # the uniformity check comes before the empty-pattern check
    for host, pattern, message in (
            (build(2, 3, [(0, 1)]), build(3, 0, []),
             "uniformity mismatch: host is 2-uniform, pattern 3-uniform"),
            (B75, build(3, 0, []), "pattern has no vertices")):
        with pytest.raises(ValidationError) as info:
            max_tiling(host, pattern)
        assert str(info.value) == message


def test_max_tiling_nests_once_per_chosen_copy():
    # 1,196 vertices in no edge: leaving each uncovered must not nest
    host = build(2, 1200, [(0, 1), (2, 3)])
    size, cert = max_tiling(host, build(2, 2, [(0, 1)]))
    assert size == 2 and cert.covered == (0, 1, 2, 3)


def test_max_tiling_saturates_on_perfect_instances():
    host = complete_k_partite((4, 4, 4)).graph
    size, cert = max_tiling(host, K222)
    assert size == 2
    assert verify_certificate(host, K222, cert, require_perfect=True)


@st.composite
def set_systems(draw, max_n: int = 9, sizes: tuple[int, ...] = (1, 2, 3),
                max_sets: int = 24):
    """(n, t, sets): t-subsets of range(n) in lexicographic order, as copy
    sets come; half the time they include a planted exact cover, so that
    covers exist and the branch order decides which one comes first."""
    n = draw(st.integers(0, max_n))
    t = draw(st.sampled_from(sizes))
    pool = list(itertools.combinations(range(n), t))
    sets = set(draw(st.lists(st.sampled_from(pool), max_size=max_sets)) if pool else [])
    if n % t == 0 and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        sets.update(tuple(sorted(order[i:i + t])) for i in range(0, n, t))
    return n, t, sorted(sets)


# Sizes of two vertex groups that t does not divide but whose sum it does.
OUTSIDE_SIZES = {2: ((5, 5), (5, 7)), 3: ((4, 5), (5, 7))}


@st.composite
def block_cover_systems(draw):
    """(n, t, sets): a block of vertices with several planted exact covers,
    next to two groups that carry every t-set inside them, and an exact
    cover of range(n) whose two sets that leave the block take each group's
    remainder mod t.  Every way of covering the block leaves both groups
    uncovered, a state that has no cover and fails after a search, so the
    cover meets it again before it finds the crossing cover."""
    t = draw(st.sampled_from((2, 3)))
    g1, g2 = draw(st.sampled_from(OUTSIDE_SIZES[t]))
    b = t * draw(st.integers(2, 3))
    order = draw(st.permutations(range(b + g1 + g2)))
    block, groups = order[:b], (order[b:b + g1], order[b + g1:])
    sets = {c for g in groups for c in itertools.combinations(sorted(g), t)}
    for _ in range(draw(st.integers(2, 4))):
        perm = draw(st.permutations(block))
        sets.update(tuple(sorted(perm[i:i + t])) for i in range(0, b, t))
    perm = draw(st.permutations(block))
    r1, r2 = g1 % t, g2 % t
    sets.add(tuple(sorted(groups[0][:r1] + perm[:t - r1])))
    sets.add(tuple(sorted(groups[1][:r2] + perm[t - r1:t])))
    sets.update(tuple(sorted(perm[i:i + t])) for i in range(t, b, t))
    return len(order), t, sorted(sets)


# Deeper systems let different families of sets leave the same vertices
# uncovered, so the cover meets states that have already failed; the block
# systems meet them before a cover.
COVER_SYSTEMS = (set_systems() | set_systems(max_n=15, sizes=(2, 3), max_sets=40)
                 | block_cover_systems())


COVER_EXAMPLES = (
    (0, 1, []),                                  # no vertices
    (4, 2, []),                                  # no candidates at all
    (4, 2, [(0, 1), (1, 2)]),                    # vertex 3 in no candidate
    # every vertex has two candidates, so the tie-break picks the cover
    (6, 3, [(0, 1, 2), (0, 3, 4), (1, 2, 5), (3, 4, 5)]),
    # every vertex has a candidate, but the two left after (0, 1) are no set
    (4, 2, [(0, 1), (0, 2), (0, 3)]),
)


def _with_examples(test):
    for case in COVER_EXAMPLES:
        test = example(case)(test)
    return test


def _calls(run, name):
    """run()'s result and the first argument of each call of the function
    `name` in solver.py that it made, in call order."""
    firsts = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == name and code.co_filename == solver.__file__:
            firsts.append(frame.f_locals[code.co_varnames[0]])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, firsts


def _cover_calls(run):
    """run()'s result and the number of nodes of the exact cover that it
    made: calls of `options_at` in solver.py, once per node."""
    result, states = _calls(run, "options_at")
    return result, len(states)


@settings(max_examples=300)
@_with_examples
@given(COVER_SYSTEMS)
def test_exact_cover_matches_the_oracle_rule(system):
    n, _, sets = system
    got = _exact_cover_first(_table(n, sets), (1 << n) - 1)
    assert got == oracles.first_cover(n, sets)


def test_exact_cover_meets_a_failed_state_again_before_its_cover():
    sets = [(0, 2), (0, 5), (0, 7), (1, 2), (1, 4), (1, 6), (2, 3), (2, 8), (2, 9),
            (3, 5), (4, 8), (4, 9), (6, 7)]
    # The cover branches on vertex 3.  (2, 3) then (0, 5) leaves
    # {1, 4, 6, 7, 8, 9}, which fails one call deeper; (3, 5) then (0, 2)
    # leaves the same vertices and is skipped without a call, and (3, 5)
    # then (0, 7) leads to the cover.  An option that leaves two vertices
    # is decided by a lookup, not a call.  Entering the failed state again
    # takes 8 calls, searching it again 9.
    got, states = _calls(
        lambda: _exact_cover_first(_table(10, sets), (1 << 10) - 1),
        "options_at")
    assert got == oracles.first_cover(10, sets) == [9, 2, 5, 7, 11]
    assert states.count(0b1111010010) == 1
    assert len(states) == 7


def _barrier_cover(a, b, pattern, twins):
    """The cover of barrier_graph(a, b)'s copy sets of the pattern, keyed by
    twin-class profile or by raw mask, and its number of calls."""
    host = barrier_graph(a, b).graph
    sets = enumerate_copy_sets(host, pattern).sets
    table = _table(host.n, sets, solver._twin_classes(host) if twins else ())
    return _cover_calls(lambda: _exact_cover_first(table, (1 << host.n) - 1))


def test_exact_cover_searches_each_failed_state_once():
    # barrier(8, 7) has no K(1,1,1)-factor.  Keyed by the profile over its
    # two twin classes the cover takes 9 nodes; keyed by raw mask, 905.
    out, calls = _cover_calls(lambda: has_perfect_tiling(barrier_graph(8, 7).graph, K111))
    assert out.reason == "exhausted"
    assert calls <= 9


def test_exact_cover_decides_the_last_copy_by_lookup():
    # barrier(9, 9) has no K(2,2,2)-factor.  With the options that leave 6
    # vertices looked up, not searched, the cover takes 1,065 nodes keyed by
    # raw mask and 3 keyed by twin-class profile.
    out, calls = _cover_calls(lambda: has_perfect_tiling(barrier_graph(9, 9).graph, K222))
    assert out.reason == "exhausted"
    assert calls <= 3


@pytest.mark.parametrize("a, b, pattern, bound", [
    (8, 7, K111, 995),       # 905 measured
    (9, 9, K222, 1100),      # 1,065 measured
], ids=["barrier87-k111", "barrier99-k222"])
def test_exact_cover_by_raw_mask_skips_failed_states(a, b, pattern, bound):
    # with no classes the cover keys failed states by their raw mask
    got, calls = _barrier_cover(a, b, pattern, twins=False)
    assert got is None
    assert calls <= bound


def test_exact_cover_by_twin_profile_ends_the_n24_barrier():
    # barrier(13, 11) with K(2,2,2): 6 nodes keyed by the profile over its
    # two twin classes, 166,299 keyed by raw mask
    got, calls = _barrier_cover(13, 11, K222, twins=True)
    assert got is None
    assert calls <= 6


@pytest.mark.parametrize("host, found, built", [
    (barrier_graph(9, 9).graph, False, 0),
    (complete_k_partite((6, 6, 6)).graph, True, 3),
], ids=["barrier99-none", "k666-found"])
def test_witnesses_are_found_when_read(host, found, built, monkeypatch):
    # a witness is built once per printed copy, and not at all for none
    made = []
    embedding = solver.Embedding

    def counting(images):
        made.append(images)
        return embedding(images)

    monkeypatch.setattr(solver, "Embedding", counting)
    out = has_perfect_tiling(host, K222)
    assert out.found == found
    assert len(made) == built
    if found:
        enum = enumerate_copy_sets(host, K222)
        assert out.certificate.embeddings == tuple(
            enum.witnesses[e.vertex_set] for e in out.certificate.embeddings)


def test_witnesses_read_like_a_dict():
    enum = enumerate_copy_sets(B75, K222)
    eager = {vs: enum.witnesses[vs] for vs in enum.sets}
    assert enum.witnesses == eager and eager == enum.witnesses
    assert list(enum.witnesses) == list(enum.sets)
    assert len(enum.witnesses) == len(enum.sets) == 112
    assert (0, 7, 8, 9, 10, 11) not in enum.witnesses
    assert enum.sets[0] in enum.witnesses
    assert repr(enum.witnesses) == repr(eager)
    with pytest.raises(KeyError):
        enum.witnesses[(0, 7, 8, 9, 10, 11)]
    with pytest.raises(TypeError):
        enum.witnesses[enum.sets[0]] = None


def _blow_up(k, base, types):
    """k-graph on range(len(base)) whose edges are the k-sets whose
    multiset of base classes (base[v] per vertex v) is one of the types."""
    return build(k, len(base), [e for e in itertools.combinations(range(len(base)), k)
                                if tuple(sorted(base[v] for v in e)) in types])


@st.composite
def blow_ups(draw, ks=(2, 3, 4), max_n=9):
    """A k-graph blown up from a random base: each vertex draws one of m
    base classes, and each multiset of k classes is an edge type or not.
    Every permutation inside a base class is an automorphism, so the twin
    classes are unions of them."""
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(k, max_n))
    m = draw(st.integers(1, 4))
    base = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    types = {t for t in itertools.combinations_with_replacement(range(m), k)
             if draw(st.booleans())}
    return _blow_up(k, base, types)


@settings(max_examples=200)
@example(barrier_graph(4, 3).graph)
@example(build(3, 4, []))                     # one class of bare vertices
@example(build(2, 8, [(0, 1), (2, 3), (4, 5), (6, 7)]))    # k = 2: S is only the empty set
@example(build(2, 3, [(0, 1), (1, 2)]))       # 1 is tested against 0, not its twin
@example(build(3, 7, barrier_graph(4, 3).graph.edges[1:]))
# The one missing edge {0, 3, 4, 5} tells 1 from 0 only through the rest
# {3, 4, 5}: on its k - 1 subsets S, the last three 2-sets of the order.
@example(build(4, 6, [e for e in itertools.combinations(range(6), 4) if e != (0, 3, 4, 5)]))
@given(blow_ups() | hypergraphs(k=2, max_n=7) | hypergraphs(max_n=7)
       | hypergraphs(k=4, max_n=7))
def test_twin_classes_match_the_oracle(g):
    assert solver._twin_classes(g) == oracles.twin_classes(g.n, g.edges)


def _oracle_twin_rule(pattern):
    """Per position of the plan's order: the nearest earlier position whose
    vertex is an oracle twin of its own, or -1; then, for each block (a
    part, a leaf group) as large as the block before it, the position of
    that block's first vertex at its own first vertex."""
    order = solver._plan(pattern).order
    classes = oracles.twin_classes(pattern.n, pattern.edges)
    twin = [next((j for j in range(i - 1, -1, -1)
                  if any(c >> v & 1 and c >> order[j] & 1 for c in classes)), -1)
            for i, v in enumerate(order)]
    blocks = solver._partite_parts(pattern)
    if blocks is None:
        blocks = (solver._kst_shape(pattern) or ((), ()))[1]
    for prev, block in zip(blocks, blocks[1:]):
        if len(prev) == len(block):
            twin[order.index(block[0])] = order.index(prev[0])
    return tuple(twin)


@settings(max_examples=200)
@example(K222)
@example(C4)
@example(k_st(3, 2, 3).graph)
@example(complete_k_partite((2, 2, 3)).graph)
@given(blow_ups(max_n=8) | hypergraphs(k=2, max_n=7) | hypergraphs(max_n=7)
       | hypergraphs(k=4, max_n=7))
def test_plan_twins_follow_the_oracle_rule(pattern):
    assert solver._plan(pattern).twin == _oracle_twin_rule(pattern)


def _oracle_partite_parts(pattern):
    """The classes of the realisation (a proper coloring by k nonempty
    classes) whose sizes multiply to the edge count, sorted by size, then
    vertices; None when there is none."""
    for classes in oracles.partitions_by_coloring(pattern.n, pattern.k, pattern.edges):
        if math.prod(map(len, classes)) == pattern.edge_count:
            return tuple(sorted(classes, key=lambda p: (len(p), p)))
    return None


@st.composite
def partite_patterns(draw, max_n=7):
    """A complete k-partite pattern on shuffled vertices, half the time with
    one edge dropped."""
    k = draw(st.integers(2, 4))
    sizes = []
    for i in range(k):
        sizes.append(draw(st.integers(1, max_n - sum(sizes) - (k - 1 - i))))
    g = complete_k_partite(sizes).graph
    perm = draw(st.permutations(range(g.n)))
    edges = [[perm[v] for v in e] for e in g.edges]
    if draw(st.booleans()):
        del edges[draw(st.integers(0, len(edges) - 1))]
    return build(k, g.n, edges)


# one edge and eleven isolated vertices: 3^11 realisations, none complete
SPARSE14 = build(3, 14, [(0, 1, 2)])


@settings(max_examples=150)
# no edge holds 4 with 2 or with 3, but some hold 2 and 3, so the vertices'
# parts overlap: six distinct ones, with sizes multiplying to the 12 edges
@example(build(3, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5),
                      (0, 3, 5), (0, 4, 5), (1, 2, 3), (1, 2, 5), (1, 3, 5), (1, 4, 5)]))
@example(K222)
@example(build(3, 6, K222.edges[1:]))         # the same parts, one edge short
@example(build(3, 4, [(0, 1, 2)]))            # an isolated vertex
@example(build(3, 3, []))
@given(blow_ups(max_n=7) | hypergraphs(k=2, max_n=7) | hypergraphs(max_n=7)
       | hypergraphs(k=4, max_n=7) | partite_patterns())
def test_partite_parts_match_the_coloring_oracle(pattern):
    assert solver._partite_parts(pattern) == _oracle_partite_parts(pattern)


def test_partite_parts_past_the_realisation_cap():
    assert solver._partite_parts(complete_k_partite((3, 5, 7)).graph) == (
        (0, 1, 2), (3, 4, 5, 6, 7), (8, 9, 10, 11, 12, 13, 14))
    assert solver._partite_parts(complete_k_partite((5, 5, 5)).graph) == (
        (0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14))
    assert solver._partite_parts(SPARSE14) is None


def test_plans_run_no_realisation_search(monkeypatch):
    def refuse(pattern):
        raise AssertionError("a plan listed realisations")

    # the package exports a function named `invariants`, so fetch the module
    monkeypatch.setattr(importlib.import_module("hypertile.invariants"), "_class_masks", refuse)
    for pattern in (K222, C4, TIGHT_PATH, SPARSE14, complete_k_partite((3, 5, 7)).graph):
        assert solver._plan.__wrapped__(pattern).order
    assert contains_copy(complete_k_partite((6, 6, 6)).graph, SPARSE14).images == (
        0, 6, 12, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13)


def _reached(host, pattern, sort_host_twins=False):
    """Every embedding `_place` reaches, in its order."""
    last = solver._plan(pattern).order[-1]
    reached = []

    def leaf(bits, used, candidates):
        while candidates:
            bits[last] = candidates & -candidates
            reached.append(tuple(b.bit_length() - 1 for b in bits))
            candidates &= candidates - 1
        return False

    solver._place(host, pattern, leaf, sort_host_twins)
    return reached


@settings(max_examples=100)
@example(K122, 1, 1.0, 0)
@example(k_st(3, 2, 3).graph, 0, 0.9, 1)
# The last position's forward check drops candidates of the one before it:
# K(1,2,2), K(2,2) (k = 2), three edges on four vertices whose last two
# positions are twins in a common edge (room 2), and K(1,1,2,2) (k = 4).
@example(K122, 2, 0.5, 0)
@example(complete_k_partite((2, 2)).graph, 2, 0.5, 4)
@example(build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]), 2, 0.5, 1)
@example(complete_k_partite((1, 1, 2, 2)).graph, 1, 0.5, 1)
@given(pattern=blow_ups(max_n=6) | hypergraphs(k=2, max_n=6) | hypergraphs(max_n=6)
       | hypergraphs(k=4, max_n=6),
       extra=st.integers(0, 2), p=st.sampled_from((0.5, 0.8, 1.0)),
       seed=st.integers(0, 2 ** 16))
def test_random_patterns_match_the_oracles(pattern, extra, p, seed):
    _assert_oracle_answers(_random_host(pattern.k, min(pattern.n + extra, 7), p, seed), pattern)


def _assert_oracle_answers(host, pattern):
    # the compiled search reaches the oracle's embeddings, in its order, so
    # the copy sets, their witnesses and the first copy follow
    plan = solver._plan(pattern)
    expected = oracles.ordered_embeddings(host.n, host.edges, pattern.edges, plan.order, plan.twin)
    assert _reached(host, pattern) == expected
    # the copy-set search also sorts host twins: it reaches the oracle's
    # embeddings whose images increase within each host twin class
    assert _reached(host, pattern, True) == oracles.host_sorted(
        host.n, host.edges, expected, plan.order)
    enum = enumerate_copy_sets(host, pattern)
    sets, witnesses = oracles.copy_sets_by_scan(
        host.n, host.edges, pattern.n, pattern.edges, plan.order)
    assert enum.sets == sets
    assert {vs: w.images for vs, w in enum.witnesses.items()} == witnesses
    emb = contains_copy(host, pattern)
    assert (None if emb is None else emb.images) == oracles.first_copy(
        host.n, host.edges, pattern.edges, plan.order)


EIGHT_TRIPLES = build(3, 24, [(i, i + 1, i + 2) for i in range(0, 24, 3)])
K777 = complete_k_partite((7, 7, 7)).graph
K677 = complete_k_partite((6, 7, 7)).graph
KST2_10 = k_st(3, 2, 10).graph


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build(g.k, g.n, [[perm[v] for v in e] for e in g.edges])


@settings(max_examples=100)
@example(barrier_graph(4, 4).graph, C4, 1)
@example(complete_3graph(7), K222, 0)
@example(complete_k_partite((2, 2, 3)).graph, K122, 2)
@given(host=blow_ups(ks=(3,), max_n=8), pattern=st.sampled_from((K111, K112, K122, K222, C4)),
       seed=st.integers(0, 2 ** 16))
def test_twin_rich_hosts_match_the_oracles(host, pattern, seed):
    # relabelled, so host twin classes are not runs of consecutive vertices
    _assert_oracle_answers(_shuffled(host, seed), pattern)


def _leaf_embeddings(monkeypatch, host, pattern):
    """The number of copy sets and of embeddings (leaf candidates) that
    enumerate_copy_sets reaches them through."""
    place = solver._place
    reached = 0

    def counted(host, pattern, leaf, **kwargs):
        def counting(bits, used, candidates):
            nonlocal reached
            reached += candidates.bit_count()
            return leaf(bits, used, candidates)
        return place(host, pattern, counting, **kwargs)

    monkeypatch.setattr(solver, "_place", counted)
    return len(enumerate_copy_sets(host, pattern).sets), reached


def test_host_twins_reach_each_copy_set_once(monkeypatch):
    # the plain search reaches these sets through 835,380 and 102,960
    # embeddings; on the complete host every vertex is one class
    assert _leaf_embeddings(monkeypatch, complete_3graph(18), C4) == (18564, 18564)
    assert _leaf_embeddings(monkeypatch, barrier_graph(13, 11).graph, K222) == (27456, 27456)


# (pattern, host, copy, copy sets): past 19 positions the search goes on in
# a second compiled function; the answers are those of the interpreted
# search it replaced.  K(6,7,7) has 20 positions, all in the first function,
# whose deepest block holds the loop of the last position's forward check.
DEEP_CASES = [
    (EIGHT_TRIPLES, _shuffled(EIGHT_TRIPLES, 1),
     (0, 6, 7, 1, 16, 19, 2, 4, 18, 3, 8, 15, 5, 9, 10, 11, 20, 23, 12, 14, 22, 13, 17, 21),
     1),
    (K777, K777, tuple(range(21)), 1),
    (K677, K677, tuple(range(20)), 1),
    # Twin bounds placed in the first function and read in the second: K(7,7,7)
    # places positions 19 and 20 above 16 and 17, and K_{2,10} places both
    # above 18.  The K(7,7,8) copy is `oracles.pruned_ordered_embeddings`'
    # first, computed once (about 7 s); the K_{2,11} host is checked against
    # that oracle below.
    (K777, _shuffled(complete_k_partite((7, 7, 8)).graph, 1),
     (0, 1, 6, 10, 12, 16, 17, 2, 3, 4, 7, 8, 14, 15, 5, 9, 11, 13, 19, 20, 21),
     8),
    (KST2_10, _shuffled(k_st(3, 2, 11).graph, 1),
     (0, 7, 1, 19, 2, 8, 3, 15, 5, 10, 6, 9, 11, 20, 12, 16, 13, 21, 14, 22, 4, 18),
     11),
]


@pytest.mark.parametrize("pattern, host, copy, count", DEEP_CASES,
                         ids=["eight-triples", "k777", "k677", "k777-in-k778", "kst2-10-in-kst2-11"])
def test_plans_past_the_nesting_limit(pattern, host, copy, count):
    assert contains_copy(host, pattern).images == copy
    enum = enumerate_copy_sets(host, pattern)
    assert len(enum.sets) == count
    assert enum.witnesses[enum.sets[0]].images == copy


def test_twin_rich_deep_cases_take_the_host_sorted_kernel(monkeypatch):
    sorted_kernel, compiled = solver._sorted_kernel, []
    monkeypatch.setattr(solver, "_sorted_kernel",
                        lambda pattern: compiled.append(pattern) or sorted_kernel(pattern))
    for pattern, host, copy, count in DEEP_CASES[3:]:
        enum = enumerate_copy_sets(host, pattern)
        assert (len(enum.sets), enum.witnesses[enum.sets[0]].images) == (count, copy)
    assert compiled == [K777, KST2_10]


def test_twin_bound_crosses_the_kernel_split():
    pattern, host = DEEP_CASES[-1][:2]
    plan = solver._plan(pattern)
    # positions 19 and 20, placed by the second function, are bounded by 18
    assert solver._LOOPS_PER_KERNEL == 19 and plan.twin[19:21] == (18, 18)
    reached = _reached(host, pattern)
    assert reached == oracles.pruned_ordered_embeddings(
        host.n, host.edges, pattern.edges, plan.order, plan.twin)
    assert _reached(host, pattern, True) == oracles.host_sorted(
        host.n, host.edges, reached, plan.order)
    enum = enumerate_copy_sets(host, pattern)
    first = {}
    for images in reached:
        first.setdefault(tuple(sorted(images)), images)
    assert enum.sets == tuple(sorted(first))
    assert {vs: w.images for vs, w in enum.witnesses.items()} == first


def _tight_path(n, start=0):
    return [(v, v + 1, v + 2) for v in range(start, start + n - 2)]


# Tight paths on 18 and on 4 vertices; the host has a K^3_4, one twin class,
# in place of the short path.  The short path's vertices take positions 18
# to 21, and 19 and 20 hold vertices that are not pattern twins.
TWO_PATHS = build(3, 22, _tight_path(18) + _tight_path(4, 18))
PATH_AND_K4 = _shuffled(
    build(3, 22, _tight_path(18) + list(itertools.combinations(range(18, 22), 3))), 1)


def test_host_rule_crosses_the_kernel_split():
    pattern, host = TWO_PATHS, PATH_AND_K4
    plan = solver._plan(pattern)
    assert plan.order[18:] == (19, 20, 18, 21) and plan.twin[18:] == (-1, 18, -1, 20)
    reached = oracles.pruned_ordered_embeddings(
        host.n, host.edges, pattern.edges, plan.order, plan.twin)
    assert _reached(host, pattern) == reached and len(reached) == 12
    # the rule acts in the second function: the short path's four images
    # increase, in one of the two directions of the long path
    sorted_reached = _reached(host, pattern, True)
    assert sorted_reached == oracles.host_sorted(host.n, host.edges, reached, plan.order)
    assert len(sorted_reached) == 2
    enum = enumerate_copy_sets(host, pattern)
    assert enum.sets == (tuple(range(22)),)
    assert enum.witnesses[enum.sets[0]].images == reached[0]


@settings(max_examples=100)
@given(pattern=hypergraphs(k=2, max_n=5) | hypergraphs(max_n=5),
       data=st.data(), extra=st.integers(0, 2), p=st.sampled_from((0.5, 0.8, 1.0)),
       seed=st.integers(0, 2 ** 16))
def test_pruned_oracle_matches_the_permutation_scan(pattern, data, extra, p, seed):
    # any order, and any bound by an earlier position, not only the plan's
    host = _random_host(pattern.k, pattern.n + extra, p, seed)
    order = data.draw(st.permutations(range(pattern.n)))
    twin = [data.draw(st.integers(-1, i - 1)) for i in range(pattern.n)]
    args = (host.n, host.edges, pattern.edges, order, twin)
    assert oracles.pruned_ordered_embeddings(*args) == oracles.ordered_embeddings(*args)


def _oracle_room(pattern):
    """Per position of the plan's order: the positions from it on whose
    vertex is an oracle twin of its own (itself included)."""
    order = solver._plan(pattern).order
    classes = oracles.twin_classes(pattern.n, pattern.edges)
    return tuple(sum(1 for u in order[i:] if any(c >> v & 1 and c >> u & 1 for c in classes))
                 for i, v in enumerate(order))


@st.composite
def equal_partite(draw, max_n=7):
    """A complete k-partite pattern whose k parts have one size."""
    k = draw(st.integers(2, 4))
    return complete_k_partite([draw(st.integers(1, max_n // k))] * k).graph


@st.composite
def kst_shapes(draw, max_n=7):
    """A K_{s,t} shape of uniformity 2, 3 or 4 on shuffled vertices."""
    k = draw(st.integers(2, 4))
    t = draw(st.integers(1, (max_n - 1) // (k - 1)))
    s = draw(st.integers(1, max_n - t * (k - 1)))
    return _shuffled(k_st(k, s, t).graph, draw(st.integers(0, 2 ** 16)))


# patterns whose twin classes span several positions: complete partite with
# equal and unequal parts, K_{s,t} shapes and blow-ups
ROOM_PATTERNS = partite_patterns() | equal_partite() | kst_shapes() | blow_ups(max_n=7)


@settings(max_examples=200)
@example(K222)
@example(C4)
@example(k_st(3, 2, 3).graph)
@example(complete_k_partite((1, 1, 2, 2)).graph)
@example(complete_k_partite((3, 5, 7)).graph)
@example(K777)
@given(ROOM_PATTERNS)
def test_plan_room_counts_the_oracle_twin_class(pattern):
    assert solver._plan(pattern).room == _oracle_room(pattern)


@st.composite
def room_cases(draw):
    """(pattern, host): a pattern of at most 7 vertices from ROOM_PATTERNS
    and a host of at most 7, dense enough for the room cut to act: random
    with edge probability 0.8 or 1, or complete partite with as many parts
    as the pattern's uniformity, shuffled."""
    pattern = draw(ROOM_PATTERNS)
    n = draw(st.integers(pattern.n, 7))
    if draw(st.booleans()):
        return pattern, _random_host(pattern.k, n, draw(st.sampled_from((0.8, 1.0))),
                                     draw(st.integers(0, 2 ** 16)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=pattern.k - 1,
                                max_size=pattern.k - 1, unique=True)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return pattern, _shuffled(complete_k_partite(sizes).graph, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150)
@example((K222, complete_k_partite((2, 2, 3)).graph))
@example((complete_k_partite((1, 2, 3)).graph, complete_k_partite((2, 2, 3)).graph))
@example((C4, complete_3graph(7)))
@given(room_cases())
def test_room_cut_keeps_the_oracle_answers(case):
    pattern, host = case
    _assert_oracle_answers(host, pattern)


def _count_lookups(monkeypatch):
    """A one-item list that counts the embedder's link lookups from now on."""
    links, lookups = solver._links, [0]

    class Counted(dict):
        def get(self, key, default=None):
            lookups[0] += 1
            return super().get(key, default)

    monkeypatch.setattr(solver, "_links", lambda host: Counted(links(host)))
    return lookups


def test_room_cut_ends_k777_early(monkeypatch):
    # The cut changes no answer, so count the link lookups: without it the
    # embedder tries every image of a part's first vertex to the last round.
    lookups = _count_lookups(monkeypatch)
    assert len(enumerate_copy_sets(K777, K777).sets) == 1
    # 340 lookups, against 1,881,516 with no cut; the bound is 1.1 times the
    # count at the time the cut came in (339)
    assert lookups[0] <= 372


def test_forward_check_cuts_k122_lookups(monkeypatch):
    # The check changes no answer, so count the link lookups: without it each
    # image of the second-to-last position pays a lookup, only to find that
    # the last position has no candidate.
    lookups = _count_lookups(monkeypatch)
    assert contains_copy(field_product_graph(7).graph, K122) is None
    # 6,563 lookups, against 8,555 with no check; the bound is 1.1 times the count
    assert lookups[0] <= 7219


@given(st.integers(2, 4).flatmap(lambda k: hypergraphs(k=k, max_n=7)))
def test_links_match_the_oracle(g):
    assert solver._links(g) == oracles.links(g.n, g.k, g.edges)


@st.composite
def blow_up_covers(draw):
    """(g, pattern, target): a 3-graph blow-up, a pattern and a vertex mask,
    half the time all of V(g)."""
    g = draw(blow_ups(ks=(3,), max_n=12))
    pattern = draw(st.sampled_from((EDGE, K112)))
    everything = (1 << g.n) - 1
    return g, pattern, draw(st.just(everything) | st.integers(0, everything))


@settings(max_examples=150)
# three classes: the cover fails states before it finds the first cover,
# so a key that misses a class's count skips a state on the cover's path
@example((_blow_up(3, [2, 0, 1, 2, 1, 0, 1, 2, 2, 1, 0, 1],
                   {(0, 0, 0), (0, 0, 2), (0, 2, 2), (1, 1, 2), (1, 2, 2)}), EDGE, 4095))
@given(blow_up_covers())
def test_twin_keyed_cover_is_the_raw_mask_cover(case):
    # keying failed states by twin-class profile prunes only failing subtrees
    g, pattern, target = case
    sets = enumerate_copy_sets(g, pattern).sets
    raw, raw_calls = _cover_calls(lambda: _exact_cover_first(_table(g.n, sets), target))
    twin, twin_calls = _cover_calls(
        lambda: _exact_cover_first(_table(g.n, sets, solver._twin_classes(g)), target))
    assert twin == raw
    assert twin_calls <= raw_calls


@settings(max_examples=100)
@given(blow_up_covers(), st.lists(st.integers(0, 2 ** 12 - 1), max_size=6))
def test_covers_over_one_table_may_share_failed_states(case, targets):
    # a state fails by the table alone, so one `dead` set serves every
    # target, raw-mask or twin-keyed
    g, pattern, first = case
    sets = enumerate_copy_sets(g, pattern).sets
    everything = (1 << g.n) - 1
    for classes in ((), solver._twin_classes(g)):
        table, dead = _table(g.n, sets, classes), set()
        for target in (first, *(t & everything for t in targets)):
            assert _exact_cover_first(table, target, dead) == _exact_cover_first(table, target)


def _key(table, mask):
    """The cover's failed-state key of a vertex mask, by the table's layout:
    the mask's `singles` bits, and its count in each larger class shifted
    into the class's field."""
    *_, singles, fields = table
    key = mask & singles
    for c, shift in fields:
        key |= (mask & c).bit_count() << shift
    return key


@settings(max_examples=100)
# classes of 4 and 3 vertices: 4 in a field one bit short reaches the next
@example(barrier_graph(4, 3).graph)
@example(build(3, 4, []))
@given(blow_ups(max_n=9))
def test_table_key_is_the_twin_profile(g):
    # two masks share a key exactly when they have equal counts in every
    # twin class, and with no classes given the key is the mask
    classes = oracles.twin_classes(g.n, g.edges)
    table, raw = _table(g.n, (), solver._twin_classes(g)), _table(g.n, ())
    profiles = {}
    for mask in range(1 << g.n):
        profile = tuple((mask & c).bit_count() for c in classes)
        assert profiles.setdefault(_key(table, mask), profile) == profile
        assert _key(raw, mask) == mask
    assert len(profiles) == math.prod(c.bit_count() + 1 for c in classes)


@settings(max_examples=60)
@given(blow_ups(ks=(3,), max_n=9))
def test_tiling_of_blow_ups_matches_the_naive_search(g):
    for pattern in (EDGE, K112):
        out = has_perfect_tiling(g, pattern)
        assert out.found == naive_perfect_tiling(g, pattern)
        if out.found:
            assert verify_certificate(g, pattern, out.certificate, require_perfect=True)


@st.composite
def targeted_systems(draw):
    """(n, sets, target): a set system and a vertex mask; half the time the
    sets also hold a planted exact cover of the mask's vertices."""
    n, t, sets = draw(COVER_SYSTEMS)
    inside = sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []
    if len(inside) % t == 0 and draw(st.booleans()):
        order = draw(st.permutations(inside))
        sets = sorted(set(sets) | {tuple(sorted(order[i:i + t]))
                                   for i in range(0, len(order), t)})
    return n, sets, sum(1 << v for v in inside)


@settings(max_examples=300)
@example((4, [(0, 1), (2, 3)], 0))                    # empty target
@example((4, [(0, 1), (2, 3)], 0b1100))               # a target of t vertices
@example((4, [(0, 1), (2, 3)], 0b0110))               # ... that is no set
@example((4, [(0, 1), (1, 2)], 0b1011))               # vertex 3 in no candidate
# the four inside vertices tie only once the sets through vertex 4 are dead
@example((5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3)], 0b1111))
@given(targeted_systems())
def test_targeted_cover_is_the_oracle_cover_of_the_subsystem(system):
    n, sets, target = system
    verts = [v for v in range(n) if target >> v & 1]
    label = {v: j for j, v in enumerate(verts)}
    inside = [ci for ci, s in enumerate(sets) if all(v in label for v in s)]
    expected = oracles.first_cover(len(verts), [[label[v] for v in sets[ci]] for ci in inside])
    got = _exact_cover_first(_table(n, sets), target)
    assert got == (None if expected is None else [inside[j] for j in expected])


@settings(max_examples=300)
@_with_examples
@given(COVER_SYSTEMS)
def test_max_packing_matches_the_oracle_rule(system):
    n, t, sets = system
    got = _max_packing_first(_table(n, sets), t)
    assert got == oracles.first_max_packing(n, sets, t)


@settings(max_examples=40)
@given(hypergraphs(min_n=4, max_n=8))
def test_tiling_searches_return_the_oracle_families(g):
    # end to end: the certificates list the oracle's copy sets, in its order
    for pattern in (EDGE, K112):
        sets = enumerate_copy_sets(g, pattern).sets
        out = has_perfect_tiling(g, pattern)
        expected = oracles.first_cover(g.n, sets)
        if out.reason == "divisibility" or expected is None:
            assert not out.found
        else:
            assert [e.vertex_set for e in out.certificate.embeddings] == \
                [sets[i] for i in expected]
        size, cert = max_tiling(g, pattern)
        expected = oracles.first_max_packing(g.n, sets, pattern.n)
        assert [e.vertex_set for e in cert.embeddings] == [sets[i] for i in expected]
        assert size == len(expected)


def test_copies_of_type_fixtures():
    parts = Partition([range(0, 7), range(7, 12)], 12)
    expected = {(5, 1): 0, (6, 0): 7, (2, 4): 105, (4, 2): 0}
    for tv, count in expected.items():
        assert len(copies_of_type(B75, K222, parts, tv)) == count


def test_copies_of_type_partitions_the_copy_sets():
    parts = Partition([range(0, 7), range(7, 12)], 12)
    total = 0
    for a in range(7):
        tv = (a, 6 - a)
        total += len(copies_of_type(B75, K222, parts, tv))
    assert total == len(enumerate_copy_sets(B75, K222).sets)


def test_copies_of_type_validation():
    parts = Partition([range(0, 7), range(7, 12)], 12)
    with pytest.raises(ValidationError):
        copies_of_type(B75, K222, parts, (1, 2))  # wrong total


def test_verify_certificate_rejects_damage():
    out = has_perfect_tiling(complete_k_partite((4, 4, 4)).graph, K222)
    host = complete_k_partite((4, 4, 4)).graph
    cert = out.certificate
    from hypertile.solver import Embedding

    # overlapping copies
    twice = TilingCertificate((cert.embeddings[0], cert.embeddings[0]),
                              cert.embeddings[0].vertex_set)
    assert not verify_certificate(host, K222, twice)

    # images that do not span the pattern edges: vertex 11 sits on the
    # mirror side, so some image edge meets A twice and is absent
    images = (0, 1, 2, 3, 4, 11)
    bad = TilingCertificate((Embedding(images),), tuple(sorted(images)))
    assert not verify_certificate(B75, K222, bad)

    # covered set inconsistent with the embeddings
    lying = TilingCertificate(cert.embeddings, tuple(range(6)))
    assert not verify_certificate(host, K222, lying)

    # partial family is fine, but not as a perfect tiling
    half = TilingCertificate((cert.embeddings[0],),
                             cert.embeddings[0].vertex_set)
    assert verify_certificate(host, K222, half)
    assert not verify_certificate(host, K222, half, require_perfect=True)


def test_tiling_budget():
    with pytest.raises(BudgetExceededError):
        has_perfect_tiling(B75, K222, budget=5)


def test_tiling_searches_go_past_the_recursion_limit():
    # the cover and the packing keep their own stacks: a perfect matching
    # with more edges than the default recursion limit of 1000 tiles by both
    copies = 1050
    host = build(2, 2 * copies, [(2 * j, 2 * j + 1) for j in range(copies)])
    edge = build(2, 2, [(0, 1)])
    budget = math.comb(host.n, 2)
    out = has_perfect_tiling(host, edge, budget=budget)
    size, cert = max_tiling(host, edge, budget=budget)
    assert size == len(out.certificate.embeddings) == copies
    assert verify_certificate(host, edge, out.certificate, require_perfect=True)
    assert verify_certificate(host, edge, cert, require_perfect=True)
