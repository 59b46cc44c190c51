import itertools
import random
import sys

import pytest
from hypothesis import given

import oracles
from conftest import hypergraphs
from hypertile import build, experiments, has_perfect_tiling, invariants, verify_suite
from hypertile.errors import ValidationError
from hypertile.experiments import (
    DEFAULT_SEED,
    edges_from_mask,
    four_cycle_free_max_edges,
    naive_perfect_tiling,
    random_hypergraph,
    sweep_extremal,
    three_class_partitions,
    three_partite_sigma_census,
)

EDGE = build(3, 3, [(0, 1, 2)])


def test_random_hypergraph_is_seed_deterministic():
    g1 = random_hypergraph(random.Random(7), 3, 6, 0.5)
    g2 = random_hypergraph(random.Random(7), 3, 6, 0.5)
    assert g1 == g2
    assert random_hypergraph(random.Random(8), 3, 6, 0.5) != g1
    assert random_hypergraph(random.Random(7), 3, 6, 0).edge_count == 0
    assert random_hypergraph(random.Random(7), 3, 6, 1).edge_count == 20


@given(hypergraphs(max_n=6, min_n=3))
def test_naive_tiling_agrees_with_solver(g):
    assert naive_perfect_tiling(g, EDGE) == has_perfect_tiling(g, EDGE).found


def test_barrier_parity_blocks_even_the_edge_pattern():
    # seven = odd + odd + odd + odd is impossible, so no four disjoint
    # edges can cover the (7, 5) barrier
    from hypertile import barrier_graph
    g = barrier_graph(7, 5).graph
    assert not naive_perfect_tiling(g, EDGE)
    assert not has_perfect_tiling(g, EDGE).found


@pytest.mark.parametrize("n,expected", list(enumerate([0, 1, 3, 4, 6, 7, 9], 1)))
def test_four_cycle_turan_values(n, expected):
    assert four_cycle_free_max_edges(n) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_four_cycle_turan_matches_exhaustive_oracle(n):
    assert four_cycle_free_max_edges(n) == oracles.c4_free_max_edges(n)


def test_four_cycle_search_tree_is_pinned():
    # Nodes of the branch and bound over n = 1..7: the codegree-table search
    # made exactly this many, so the bitmask test walks the same tree.
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "place" and code.co_filename == experiments.__file__:
            nodes += 1

    sys.setprofile(profile)
    try:
        values = [four_cycle_free_max_edges(n) for n in range(1, 8)]
    finally:
        sys.setprofile(None)
    assert values == [0, 1, 3, 4, 6, 7, 9]
    assert nodes == 157_591


def test_three_class_partition_counts():
    # Stirling numbers of the second kind, k = 3
    expected = {3: 1, 4: 6, 5: 25, 6: 90}
    for n, count in expected.items():
        assert sum(1 for _ in three_class_partitions(n)) == count


def test_sigma_census_counts():
    expected = {3: 2, 4: 11, 5: 141, 6: 4666}
    for n, count in expected.items():
        assert len(three_partite_sigma_census(n)) == count


def test_sigma_census_matches_the_coloring_oracle():
    # every graph on n <= 5 vertices: a census entry exactly when some
    # proper 3-coloring exists, with the oracle's sigma
    for n in (3, 4, 5):
        census = three_partite_sigma_census(n)
        expected = {}
        for mask in range(1 << len(experiments._triples(n))):
            sigma = oracles.sigma_by_coloring(n, 3, edges_from_mask(n, mask))
            if sigma is not None:
                expected[mask] = sigma
        assert census == expected
    # n = 6, the first order with two sigmas (1/6 and 1/3): the graphs of at
    # most two edges and a seeded sample of the rest of the census
    census = three_partite_sigma_census(6)
    masks = {sum(1 << i for i in edges) for size in range(3)
             for edges in itertools.combinations(range(20), size)}
    masks |= set(random.Random(0).sample(sorted(census), 150))
    for mask in masks:
        assert census.get(mask) == oracles.sigma_by_coloring(6, 3, edges_from_mask(6, mask))


def test_sigma_census_agrees_with_invariants():
    for n in (4, 5):
        for mask, sigma in three_partite_sigma_census(n).items():
            g = build(3, n, edges_from_mask(n, mask))
            assert invariants(g).sigma == sigma


def test_edges_from_mask_round_trip():
    import itertools
    triples = list(itertools.combinations(range(5), 3))
    mask = (1 << 0) | (1 << 3) | (1 << 9)
    assert edges_from_mask(5, mask) == [triples[0], triples[3], triples[9]]
    assert edges_from_mask(5, 0) == []


def test_sweep_rows():
    report = sweep_extremal(12, 15, 2, tile=False)
    rows = report.rows
    assert [r["n"] for r in rows] == [12, 13, 14, 15]
    assert [r["min_codegree"] for r in rows] == [4, 4, 5, 6]
    assert all(r["expected_codegree"] == r["min_codegree"] for r in rows)
    assert all(r["matches_pattern"] for r in rows)
    assert [r["divisible"] for r in rows] == [True, False, False, False]
    # orders that cannot host a factor of 6-vertex patterns get flagged
    assert [r["flagged"] for r in rows] == [False, True, True, True]
    assert "factors" not in rows[0]


def test_sweep_tiling_verdicts():
    report = sweep_extremal(12, 12, 2)
    factors = report.rows[0]["factors"]
    assert factors["complete"] == {"verdict": "none", "reason": "exhausted"}
    assert factors["kst"] == {"verdict": "none", "reason": "exhausted"}


def test_sweep_budget_skips_tiling():
    report = sweep_extremal(12, 12, 2, budget=200)
    factors = report.rows[0]["factors"]
    assert factors["complete"]["verdict"] == "skipped"
    assert factors["complete"]["reason"] == "budget"


def test_sweep_empty_and_invalid_ranges():
    assert sweep_extremal(13, 12, 2).rows == ()
    with pytest.raises(ValidationError):
        sweep_extremal(3, 12, 2)


def test_verify_suite_single_claim():
    report = verify_suite(claims=["kst-turan"])
    assert report.passed
    assert [r["claim"] for r in report.rows] == ["kst-turan"]
    assert report.parameters["seed"] == DEFAULT_SEED
    doc = report.to_jsonable()
    assert doc["format_version"] == 1
    assert "timings" not in doc


def test_mirrored_claim_reports_the_oracle_floor():
    (row,) = verify_suite(claims=["mirrored-graph-free"]).rows
    assert row["passed"]
    for q in row["details"]["orders"]:
        got = row["details"]["instances"][str(q)]["min_mixed_codegree"]
        assert got == min(oracles.mirrored_mixed_degrees(q).values()) == q - 3


def test_verify_suite_rejects_unknown_claim():
    with pytest.raises(ValidationError):
        verify_suite(claims=["unheard-of"])


def test_verify_suite_claim_order_is_fixed():
    r1 = verify_suite(claims=["kst-turan", "barrier-codegree"])
    r2 = verify_suite(claims=["barrier-codegree", "kst-turan"])
    # execution follows the registry order, not the request order
    assert [r["claim"] for r in r1.rows] == [r["claim"] for r in r2.rows]
