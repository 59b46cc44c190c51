import importlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import hypergraphs
from hypertile import (
    CASE_BALANCED,
    CASE_GCD_ONE,
    CASE_MIXED,
    balanced_factor_codegree,
    build,
    c4_factor_codegree,
    complete_k_partite,
    factor_free_codegree,
    invariants,
    k_st,
    kst_bound,
    mycroft_threshold,
    realisations,
)
from hypertile.errors import NotKPartiteError, ValidationError

invariants_module = importlib.import_module("hypertile.invariants")

EDGE = build(3, 3, [(0, 1, 2)])
K112 = complete_k_partite((1, 1, 2)).graph
K222 = complete_k_partite((2, 2, 2)).graph
C4 = k_st(3, 2, 2).graph


def test_realisation_counts_on_fixtures():
    assert len(realisations(EDGE)) == 1
    assert len(realisations(K112)) == 1
    assert len(realisations(K222)) == 1
    # the generalized 4-cycle admits a second, unbalanced realisation
    assert len(realisations(C4)) == 2


def test_realisations_are_valid_partitions():
    for g in (EDGE, K112, K222, C4):
        for r in realisations(g):
            assert sum(r.sizes) == g.n
            for e in g.edges:
                assert sorted(r.index_vector(e)) == [1] * g.k


@given(hypergraphs(max_n=6, min_edges=1))
def test_realisations_match_coloring_oracle(g):
    ours = {tuple(r.parts) for r in realisations(g)}
    theirs = oracles.partitions_by_coloring(g.n, g.k, g.edges)
    assert ours == theirs


@given(hypergraphs(max_n=6, min_edges=1))
def test_sigma_matches_coloring_oracle(g):
    expected = oracles.sigma_by_coloring(g.n, g.k, g.edges)
    if expected is None:
        with pytest.raises(NotKPartiteError):
            invariants(g)
    else:
        rep = invariants(g)
        assert rep.sigma == expected
        assert rep.sigma <= Fraction(1, g.k)


@given(hypergraphs(max_n=6))
def test_invariants_match_public_realisations(g):
    reals = realisations(g)
    for r in reals:
        for e in g.edges:
            assert r.index_vector(e) == (1,) * g.k
    if not reals:
        with pytest.raises(NotKPartiteError):
            invariants(g)
        return
    rep = invariants(g)
    sizes = {s for r in reals for s in r.sizes}
    diffs = {abs(a - b) for r in reals for a in r.sizes for b in r.sizes}
    assert rep.s_set == tuple(sorted(sizes))
    assert rep.d_set == tuple(sorted(diffs))
    assert rep.realisation_count == len(reals)
    assert rep.sigma == Fraction(min(sizes), g.n)


def test_not_partite_raises():
    k4 = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert realisations(k4) == []
    with pytest.raises(NotKPartiteError):
        invariants(k4)


def test_pattern_size_cap():
    big = build(3, 15, [(0, 1, 2)])
    with pytest.raises(ValidationError):
        realisations(big)
    for g in (big, build(3, 15, [])):
        with pytest.raises(ValidationError):
            invariants(g)


@st.composite
def patterns_with_isolated_vertices(draw):
    """A random k-graph (k = 2, 3, 4) with 0-4 isolated vertices added,
    relabelled so that they fall anywhere in the vertex order."""
    k = draw(st.integers(2, 4))
    g = draw(hypergraphs(k=k, max_n=8 - k))
    n = g.n + draw(st.integers(0, 4))
    perm = draw(st.permutations(range(n)))
    return build(k, n, [[perm[v] for v in e] for e in g.edges])


@settings(max_examples=60)
@given(patterns_with_isolated_vertices())
def test_invariants_count_isolated_vertices(g):
    theirs = oracles.partitions_by_coloring(g.n, g.k, g.edges)
    reals = realisations(g)
    assert len(reals) == len(theirs)
    assert {tuple(r.parts) for r in reals} == theirs
    if not theirs:
        with pytest.raises(NotKPartiteError):
            invariants(g)
        return
    rep = invariants(g)
    sizes = {len(c) for classes in theirs for c in classes}
    diffs = {abs(len(a) - len(b)) for classes in theirs for a in classes for b in classes}
    nonzero = sorted(diffs - {0})
    assert rep.realisation_count == len(theirs)
    assert rep.s_set == tuple(sorted(sizes))
    assert rep.d_set == tuple(sorted(diffs))
    assert rep.gcd == (math.gcd(*nonzero) if nonzero else None)
    assert rep.sigma == Fraction(min(sizes), g.n)


def _lines_run_in_invariants(run):
    """Lines executed in `hypertile.invariants` during run(): a count of
    search steps that does not depend on the machine."""
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == invariants_module.__file__ else None

    sys.settrace(trace)
    try:
        return run(), steps
    finally:
        sys.settrace(None)


def test_isolated_vertices_are_counted_not_listed():
    # one edge and 11 isolated vertices: 3^11 realisations, of which the
    # search lists one
    rep, steps = _lines_run_in_invariants(lambda: invariants(build(3, 14, [(0, 1, 2)])))
    assert rep.realisation_count == 3 ** 11 == 177_147
    assert rep.s_set == tuple(range(1, 13)) and rep.sigma == Fraction(1, 14)
    assert steps < 5_000


def test_edgeless_pattern_has_stirling_many_realisations():
    g = build(3, 5, [])
    rep = invariants(g)
    assert rep.realisation_count == len(realisations(g)) == 25      # S(5, 3)
    assert rep.s_set == (1, 2, 3) and rep.d_set == (0, 1, 2)
    assert rep.gcd == 1 and rep.sigma == Fraction(1, 5)
    short = build(3, 2, [])
    assert realisations(short) == []
    with pytest.raises(NotKPartiteError):
        invariants(short)


def test_invariant_report_fixtures():
    rep = invariants(EDGE)
    assert rep.s_set == (1,) and rep.d_set == (0,)
    assert rep.gcd is None and rep.sigma == Fraction(1, 3)

    rep = invariants(K112)
    assert rep.s_set == (1, 2) and rep.d_set == (0, 1)
    assert rep.gcd == 1 and rep.sigma == Fraction(1, 4)

    rep = invariants(K222)
    assert rep.s_set == (2,) and rep.d_set == (0,)
    assert rep.gcd is None and rep.sigma == Fraction(1, 3)

    # both realisations of the generalized 4-cycle are balanced
    rep = invariants(C4)
    assert rep.s_set == (2,) and rep.d_set == (0,)
    assert rep.gcd is None and rep.sigma == Fraction(1, 3)
    assert rep.realisation_count == 2


@given(hypergraphs(max_n=6, min_edges=1))
def test_gcd_defined_iff_some_difference(g):
    try:
        rep = invariants(g)
    except NotKPartiteError:
        return
    assert (rep.gcd is None) == (rep.d_set == (0,))
    if rep.gcd is not None:
        assert rep.gcd == math.gcd(*[d for d in rep.d_set if d])


@given(st.lists(st.integers(1, 3), min_size=3, max_size=3))
def test_complete_partite_has_unique_realisation(sizes):
    g = complete_k_partite(tuple(sizes)).graph
    assert len(realisations(g)) == 1


def test_threshold_cases():
    rep = mycroft_threshold(EDGE, 9, 0)
    assert rep.case_tag == CASE_BALANCED
    assert rep.value == pytest.approx(4.5, rel=1e-9)

    for m in (2, 3):
        g = complete_k_partite((m, m, m)).graph
        rep = mycroft_threshold(g, 4 * m, 0)
        assert rep.case_tag == CASE_BALANCED

    rep = mycroft_threshold(K112, 16, 0)
    assert rep.case_tag == CASE_GCD_ONE
    assert rep.sigma == Fraction(1, 4)
    assert rep.value == pytest.approx(4.0, rel=1e-9)

    rep = mycroft_threshold(K112, 400, 0)
    assert rep.value == pytest.approx(100.0, rel=1e-9)

    g = complete_k_partite((1, 3, 3)).graph
    rep = mycroft_threshold(g, 14, 0)
    assert rep.case_tag == CASE_MIXED
    assert rep.sigma == Fraction(1, 7)
    assert rep.smallest_prime == 2
    assert rep.value == pytest.approx(7.0, rel=1e-9)


def test_threshold_alpha_shift():
    base = mycroft_threshold(EDGE, 12, 0)
    lifted = mycroft_threshold(EDGE, 12, Fraction(1, 4))
    assert lifted.value == pytest.approx(base.value + 3.0, rel=1e-9)


def test_threshold_validation():
    with pytest.raises(ValidationError):
        mycroft_threshold(EDGE, 0, 0)
    k4 = build(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(NotKPartiteError):
        mycroft_threshold(k4, 12, 0)


def test_codegree_bound_values():
    assert c4_factor_codegree(12) == 5
    assert c4_factor_codegree(13) == 5  # 13 = 1 mod 4
    assert c4_factor_codegree(14) == 6
    assert c4_factor_codegree(15) == 7
    assert balanced_factor_codegree(100, 2) == pytest.approx(
        50 + math.sqrt(2) * math.sqrt(100), rel=1e-9)
    assert factor_free_codegree(50) == pytest.approx(
        25 + math.sqrt(100) / 5 - 3, rel=1e-9)


@given(st.integers(1, 500))
def test_free_bound_below_forcing_bound(n):
    assert factor_free_codegree(n) < balanced_factor_codegree(n, 2)


def test_kst_bound_hand_value():
    assert kst_bound(4, 2, 2) == pytest.approx(10.0, rel=1e-9)


@settings(max_examples=20)
@given(st.integers(1, 6))
def test_kst_bound_dominates_exhaustive_turan(n):
    assert oracles.c4_free_max_edges(n) <= kst_bound(n, 2, 2) + 1e-9


def test_bound_validation():
    with pytest.raises(ValidationError):
        c4_factor_codegree(0)
    with pytest.raises(ValidationError):
        balanced_factor_codegree(10, 1)
    with pytest.raises(ValidationError):
        kst_bound(10, 1, 2)
    with pytest.raises(ValidationError):
        kst_bound(10, 3, 2)  # t < s
