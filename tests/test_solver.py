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
    has_perfect_tiling,
    k_st,
    max_tiling,
    verify_certificate,
)
from hypertile import solver
from hypertile.solver import (TilingCertificate, _candidate_tables, _exact_cover_first,
                              _max_packing_first, copies_of_type)
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
    # nothing is enumerated, so nothing is charged to the budget
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
    """run()'s result and the number of calls of the cover's inner search
    (`cover` in solver.py) that it made."""
    result, states = _calls(run, "cover")
    return result, len(states)


@settings(max_examples=300)
@_with_examples
@given(COVER_SYSTEMS)
def test_exact_cover_matches_the_oracle_rule(system):
    n, _, sets = system
    got = _exact_cover_first(sets, *_candidate_tables(n, sets), (1 << n) - 1)
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
        lambda: _exact_cover_first(sets, *_candidate_tables(10, sets), (1 << 10) - 1),
        "cover")
    assert got == oracles.first_cover(10, sets) == [9, 2, 5, 7, 11]
    assert states.count(0b1111010010) == 1
    assert len(states) == 7


def _barrier_cover(a, b, pattern, twins):
    """The cover of barrier_graph(a, b)'s copy sets of the pattern, keyed by
    twin-class profile or by raw mask, and its number of calls."""
    host = barrier_graph(a, b).graph
    sets = enumerate_copy_sets(host, pattern).sets
    classes = solver._twin_classes(host) if twins else ()
    return _cover_calls(lambda: _exact_cover_first(
        sets, *_candidate_tables(host.n, sets), (1 << host.n) - 1, classes))


def test_exact_cover_searches_each_failed_state_once():
    # barrier(8, 7) has no K(1,1,1)-factor.  Keyed by the profile over its
    # two twin classes the cover takes 20 calls; keyed by raw mask, 1,289.
    out, calls = _cover_calls(lambda: has_perfect_tiling(barrier_graph(8, 7).graph, K111))
    assert out.reason == "exhausted"
    assert calls <= 25


def test_exact_cover_decides_the_last_copy_by_lookup():
    # barrier(9, 9) has no K(2,2,2)-factor.  With the options that leave 6
    # vertices looked up, not searched, the cover takes 1,065 calls keyed by
    # raw mask and 3 keyed by twin-class profile.
    out, calls = _cover_calls(lambda: has_perfect_tiling(barrier_graph(9, 9).graph, K222))
    assert out.reason == "exhausted"
    assert calls <= 5


@pytest.mark.parametrize("a, b, pattern, bound", [
    (8, 7, K111, 1300),      # 1,289 measured
    (9, 9, K222, 1100),      # 1,065 measured
], ids=["barrier87-k111", "barrier99-k222"])
def test_exact_cover_by_raw_mask_skips_failed_states(a, b, pattern, bound):
    # with no classes the cover keys failed states by their raw mask
    got, calls = _barrier_cover(a, b, pattern, twins=False)
    assert got is None
    assert calls <= bound


def test_exact_cover_by_twin_profile_ends_the_n24_barrier():
    # barrier(13, 11) with K(2,2,2): 360 calls keyed by the profile over its
    # two twin classes, 1,547,965 keyed by raw mask
    got, calls = _barrier_cover(13, 11, K222, twins=True)
    assert got is None
    assert calls <= 400


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
    tables = _candidate_tables(g.n, sets)
    raw, raw_calls = _cover_calls(lambda: _exact_cover_first(sets, *tables, target))
    twin, twin_calls = _cover_calls(
        lambda: _exact_cover_first(sets, *tables, target, solver._twin_classes(g)))
    assert twin == raw
    assert twin_calls <= raw_calls


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
    got = _exact_cover_first(sets, *_candidate_tables(n, sets), target)
    assert got == (None if expected is None else [inside[j] for j in expected])


@settings(max_examples=300)
@_with_examples
@given(set_systems())
def test_max_packing_matches_the_oracle_rule(system):
    n, t, sets = system
    masks, cols, _ = _candidate_tables(n, sets)
    got = _max_packing_first(sets, masks, cols, t)
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


def test_too_deep_search_is_an_input_error():
    # the cover nests once per chosen copy, the packing at least as deep:
    # a perfect matching with more edges than the recursion limit
    copies = sys.getrecursionlimit() + 50
    host = build(2, 2 * copies, [(2 * j, 2 * j + 1) for j in range(copies)])
    edge = build(2, 2, [(0, 1)])
    for search in (has_perfect_tiling, max_tiling):
        with pytest.raises(ValidationError) as info:
            search(host, edge, budget=math.comb(host.n, 2))
        assert str(info.value) == (
            f"search too deep for n/t = {host.n}/2: it nests past the interpreter's "
            f"recursion limit of {sys.getrecursionlimit()}")
        assert info.value.__suppress_context__
