"""Experiment drivers: the codegree sweep and the verification battery.

Reports are plain data suitable for JSON: every row is a dict of ints,
bools, strings, and lists. Wall-clock timings are collected beside the rows,
never inside them, so serialized reports are byte-stable across runs.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .constructions import (balanced_split, barrier_graph, complete_k_partite,
                            field_product_graph, fortified_barrier, k_st,
                            mirrored_product_graph)
from .core import Hypergraph, Partition, build
from .errors import BudgetExceededError, ValidationError
from .invariants import (CASE_BALANCED, CASE_GCD_ONE, c4_factor_codegree,
                         invariants, kst_bound, mycroft_threshold)
from .probes import classify_goodness, count_connectors, robust_vectors
from .solver import contains_copy, enumerate_copy_sets, has_perfect_tiling

FORMAT_VERSION = 1
DEFAULT_SEED = 1729

# Fixed battery parameters: the verification claims below are only meaningful
# for these instances, where every check is exhaustive at desk scale.
PRODUCT_ORDERS = (5, 7, 11)
MIRRORED_ORDERS = (3, 5)
BARRIER_ORDERS = (12, 13, 14, 15)
PARITY_SIDE_MAX = 8
SOLVER_ORDERS = (6, 9)
SOLVER_INSTANCES = 200
TURAN_MAX = 7
PROBE_GRAPHS = 20


class ExperimentReport(NamedTuple):
    """Rows of one experiment plus out-of-band timings."""

    experiment: str
    parameters: dict
    rows: tuple[dict, ...]
    timings: tuple[tuple[str, float], ...] = ()
    format_version: int = FORMAT_VERSION

    @property
    def passed(self) -> bool:
        """True when no row carries passed=False (rows without the key count as pass)."""
        return all(row.get("passed", True) for row in self.rows)

    def to_jsonable(self) -> dict:
        return {
            "format_version": self.format_version,
            "experiment": self.experiment,
            "parameters": self.parameters,
            "rows": list(self.rows),
        }


def rational_json(value: Fraction) -> dict:
    """Exact rational as a {"num", "den"} pair."""
    f = Fraction(value)
    return {"num": f.numerator, "den": f.denominator}


def random_hypergraph(rng: random.Random, k: int, n: int, p: float) -> Hypergraph:
    """Random k-graph: each k-set is an edge independently with probability p.

    Candidate k-sets are visited in lexicographic order, so a seeded rng
    reproduces the same graph on every run.
    """
    return build(k, n, (e for e in itertools.combinations(range(n), k) if rng.random() < p))


# -- independent brute-force checks used by the battery ----------------------


def naive_perfect_tiling(host: Hypergraph, pattern: Hypergraph) -> bool:
    """Partition brute force: split V(host) into |V(F)|-blocks, each block
    checked against the pattern by trying every bijection."""
    t = pattern.n
    if t == 0:
        raise ValidationError("pattern has no vertices")
    if host.n % t != 0:
        return False
    edge_set = host.edge_set()
    pattern_edges = pattern.edges

    def block_spans(block: tuple[int, ...]) -> bool:
        for perm in itertools.permutations(block):
            if all(tuple(sorted(perm[u] for u in e)) in edge_set for e in pattern_edges):
                return True
        return False

    def split(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        head, rest = remaining[0], remaining[1:]
        for combo in itertools.combinations(rest, t - 1):
            block = (head,) + combo
            if block_spans(block):
                chosen = set(combo)
                if split(tuple(v for v in rest if v not in chosen)):
                    return True
        return False

    return split(tuple(range(host.n)))


def four_cycle_free_max_edges(n: int) -> int:
    """Largest edge count of a 2-graph on n vertices with all codegrees <= 1.

    Branch and bound over the pair list in lexicographic order, with one
    adjacency bitmask per vertex.  Adding the pair uv closes a 4-cycle
    u-v-x-y exactly when some neighbour x of v shares a neighbour y with u,
    so uv is included iff the OR of adj[x] over x in N(v) misses adj[u].
    This one-sided test equals the codegree rule, which bumps codeg(x, u)
    for x in N(v) and codeg(y, v) for y in N(u): a new 4-cycle u-v-x-y
    pushes both codeg(x, u) and codeg(y, v) to 2, so either side sees it.

    Vertex 0's neighbours are a prefix 1..d: once a pair (0, v) is left
    out, the rest of vertex 0's pairs are skipped.  That is exact, since
    relabelling 1..n-1 maps any C4-free graph to one with N(0) = {1..d}
    and the same edge count.
    """
    if n < 0:
        raise ValidationError(f"vertex count must be nonnegative, got {n}")
    pairs = list(itertools.combinations(range(n), 2))
    adj = [0] * n
    best = 0

    def place(i: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == len(pairs) or count + (len(pairs) - i) <= best:
            return
        u, v = pairs[i]
        reach = 0
        rest = adj[v]
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        if not reach & adj[u]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            place(i + 1, count + 1)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        place(n - 1 if u == 0 else i + 1, count)

    place(0, 0)
    return best


def three_class_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of 0..n-1 into exactly 3 nonempty classes, as
    restricted-growth label strings (one canonical labeling per partition)."""
    labels = [0] * n

    def grow(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if used == 3:
                yield tuple(labels)
            return
        if used + (n - v) < 3:
            return
        for c in range(min(used + 1, 3)):
            labels[v] = c
            yield from grow(v + 1, max(used, c + 1))

    yield from grow(0, 0)


def three_partite_sigma_census(n: int) -> dict[int, Fraction]:
    """Every 3-partite 3-graph on exactly n labeled vertices, with the minimum
    relative class size over all of its proper 3-partitions.

    Graphs are encoded as bitmasks over the lexicographic triple list. This is
    a from-scratch coloring scan, independent of the realisation backtracker:
    the colorings are walked once, by increasing smallest class, and each
    submask of a coloring's edge mask takes that coloring's sigma the first
    time it is reached, which is its least.
    """
    triples = _triples(n)
    colorings: list[tuple[int, int]] = []
    for labels in three_class_partitions(n):
        mask = 0
        for idx, (a, b, c) in enumerate(triples):
            if len({labels[a], labels[b], labels[c]}) == 3:
                mask |= 1 << idx
        colorings.append((min(labels.count(c) for c in range(3)), mask))
    census: dict[int, Fraction] = {}
    reach = census.setdefault
    for smallest, mask in sorted(colorings):
        sigma = Fraction(smallest, n)
        sub = mask
        while sub:
            reach(sub, sigma)
            sub = (sub - 1) & mask
        reach(0, sigma)
    return census


@functools.lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, ...], ...]:
    """The 3-subsets of 0..n-1 in lexicographic order: the census bit order."""
    return tuple(itertools.combinations(range(n), 3))


def edges_from_mask(n: int, mask: int) -> list[tuple[int, ...]]:
    """Decode a triple bitmask back into an edge list."""
    triples = _triples(n)
    return [triples[i] for i in range(mask.bit_length()) if mask >> i & 1]


# -- the battery claims -------------------------------------------------------


def _claim_product_free(budget: int | None) -> tuple[bool, dict]:
    pattern = complete_k_partite([1, 2, 2]).graph
    per_q = {}
    ok = True
    for q in PRODUCT_ORDERS:
        g = field_product_graph(q).graph
        free = contains_copy(g, pattern) is None
        min_codeg = g.min_s_degree(2)
        per_q[str(q)] = {
            "vertices": g.n,
            "edges": g.edge_count,
            "min_codegree": min_codeg,
            "free": free,
        }
        # q-4 is exact: a pair may satisfy the defining identity with both of
        # its own endpoints, costing two of the q-2 third-vertex solutions.
        ok = ok and free and min_codeg == q - 4
    return ok, {"orders": list(PRODUCT_ORDERS), "instances": per_q}


def _claim_mirrored_free(budget: int | None) -> tuple[bool, dict]:
    pattern = complete_k_partite([1, 2, 2]).graph
    per_q = {}
    ok = True
    for q in MIRRORED_ORDERS:
        c = mirrored_product_graph(q)
        g = c.graph
        base = set(c.part("base"))
        free = contains_copy(g, pattern) is None
        sides_ok = all(sum(1 for v in e if v in base) == 2 for e in g.edges)
        mixed_min = min((g.degree((u, w)) for u in c.part("base")
                         for w in c.part("mirror")), default=0)
        per_q[str(q)] = {
            "vertices": g.n,
            "edges": g.edge_count,
            "free": free,
            "two_base_vertices_per_edge": sides_ok,
            "min_mixed_codegree": mixed_min,
        }
        ok = ok and free and sides_ok and mixed_min == q - 3
    return ok, {"orders": list(MIRRORED_ORDERS), "instances": per_q}


def _claim_barrier_codegree(budget: int | None) -> tuple[bool, dict]:
    per_n = {}
    ok = True
    for n in BARRIER_ORDERS:
        a, b = balanced_split(n)
        g = barrier_graph(a, b).graph
        got = g.min_s_degree(2)
        expected = c4_factor_codegree(n) - 1
        per_n[str(n)] = {"a": a, "b": b, "min_codegree": got, "expected": expected}
        ok = ok and got == expected
    host = barrier_graph(*balanced_split(12)).graph
    tilings = {}
    for name, pattern in (("complete", complete_k_partite([2, 2, 2]).graph),
                          ("kst", k_st(3, 2, 2).graph)):
        outcome = has_perfect_tiling(host, pattern, budget=budget)
        tilings[name] = {"found": outcome.found, "reason": outcome.reason}
        ok = ok and not outcome.found and outcome.reason == "exhausted"
    return ok, {"codegrees": per_n, "order_12_tilings": tilings}


def _claim_barrier_parity(budget: int | None) -> tuple[bool, dict]:
    pattern = k_st(3, 2, 2).graph
    total = 0
    violations = 0
    graphs = 0
    for a in range(PARITY_SIDE_MAX + 1):
        for b in range(PARITY_SIDE_MAX + 1):
            if a + b < pattern.n:
                continue
            c = barrier_graph(a, b)
            graphs += 1
            b_side = set(c.part("B"))
            for s in enumerate_copy_sets(c.graph, pattern, budget=budget).sets:
                total += 1
                if sum(1 for v in s if v in b_side) % 2 != 0:
                    violations += 1
    return violations == 0, {
        "graphs": graphs,
        "copy_sets": total,
        "odd_intersections": violations,
    }


def _claim_composite_factor_free(budget: int | None) -> tuple[bool, dict]:
    pattern = complete_k_partite([2, 2, 2]).graph
    free_pattern = complete_k_partite([1, 2, 2]).graph
    per_params = {}
    ok = True
    for a, b, q in ((7, 7, 5), (9, 3, 5), (3, 3, 3)):
        c = fortified_barrier(a, b, q)
        g = c.graph
        a_side = set(c.part("A"))
        outcome = has_perfect_tiling(g, pattern, budget=budget)
        mirrored_part = build(
            3, g.n, (e for e in g.edges if sum(1 for v in e if v in a_side) == 2))
        part_free = contains_copy(mirrored_part, free_pattern) is None
        per_params[f"{a},{b},{q}"] = {
            "vertices": g.n,
            "edges": g.edge_count,
            "factor_found": outcome.found,
            "reason": outcome.reason,
            "mirrored_part_free": part_free,
        }
        exhaustive_expected = g.n % pattern.n == 0
        ok = (ok and not outcome.found and part_free
              and outcome.reason == ("exhausted" if exhaustive_expected else "divisibility"))
    return ok, {"instances": per_params}


def _claim_threshold_classifier(budget: int | None) -> tuple[bool, dict]:
    edge = complete_k_partite([1, 1, 1]).graph
    fixtures = []
    ok = True

    r = mycroft_threshold(edge, 12, 0)
    fixtures.append({"pattern": "K3(1,1,1)", "case": r.case_tag})
    ok = ok and r.case_tag == CASE_BALANCED

    for m in (2, 3):
        r = mycroft_threshold(complete_k_partite([m, m, m]).graph, 6 * m, 0)
        fixtures.append({"pattern": f"K3({m},{m},{m})", "case": r.case_tag})
        ok = ok and r.case_tag == CASE_BALANCED

    r = mycroft_threshold(complete_k_partite([1, 1, 2]).graph, 16, 0)
    fixtures.append({
        "pattern": "K3(1,1,2)",
        "case": r.case_tag,
        "sigma": rational_json(r.sigma),
        "value": r.value,
    })
    ok = ok and r.case_tag == CASE_GCD_ONE and r.sigma == Fraction(1, 4) and r.value == 4.0

    checked = 0
    mismatches = 0
    for n in range(3, 7):
        census = three_partite_sigma_census(n)
        for mask, expected_sigma in sorted(census.items()):
            g = build(3, n, edges_from_mask(n, mask))
            if invariants(g).sigma != expected_sigma:
                mismatches += 1
            checked += 1
    ok = ok and mismatches == 0
    return ok, {
        "fixtures": fixtures,
        "sigma_census_graphs": checked,
        "sigma_mismatches": mismatches,
    }


def _claim_solver_oracle(seed: int, budget: int | None) -> tuple[bool, dict]:
    rng = random.Random(seed)
    edge = complete_k_partite([1, 1, 1]).graph
    four = complete_k_partite([1, 1, 2]).graph
    per_size = len(SOLVER_ORDERS)
    each = SOLVER_INSTANCES // per_size
    agreements = 0
    disagreements = 0
    found = 0
    for n in SOLVER_ORDERS:
        for idx in range(each):
            p = (idx % 19 + 1) / 20
            host = random_hypergraph(rng, 3, n, p)
            for pattern in (edge, four):
                fast = has_perfect_tiling(host, pattern, budget=budget).found
                slow = naive_perfect_tiling(host, pattern)
                if fast == slow:
                    agreements += 1
                else:
                    disagreements += 1
                if fast:
                    found += 1
    return disagreements == 0, {
        "orders": list(SOLVER_ORDERS),
        "instances": SOLVER_INSTANCES,
        "comparisons": agreements + disagreements,
        "disagreements": disagreements,
        "factors_found": found,
    }


def _claim_kst_turan(budget: int | None) -> tuple[bool, dict]:
    rows = {}
    ok = True
    for n in range(1, TURAN_MAX + 1):
        exact = four_cycle_free_max_edges(n)
        bound = kst_bound(n, 2, 2)
        rows[str(n)] = {"extremal_edges": exact, "bound": bound}
        ok = ok and exact <= bound + 1e-9
    hand = abs(kst_bound(4, 2, 2) - 10.0) <= 1e-9 * 10.0
    ok = ok and hand
    return ok, {"per_order": rows, "hand_value_order_4": hand}


def _claim_probe_exactness(seed: int, budget: int | None) -> tuple[bool, dict]:
    rng = random.Random(seed + 1)
    edge = complete_k_partite([1, 1, 1]).graph
    connector_checks = 0
    connector_mismatches = 0
    robust_checks = 0
    robust_mismatches = 0
    goodness_checks = 0
    goodness_mismatches = 0
    for idx in range(PROBE_GRAPHS):
        n = 4 + idx % 7
        p = (idx % 4 + 1) / 5
        host = random_hypergraph(rng, 3, n, p)
        links: list[set[tuple[int, ...]]] = [set() for _ in range(n)]
        for e in host.edges:
            for v in e:
                links[v].add(tuple(w for w in e if w != v))
        for x, y in itertools.combinations(range(n), 2):
            expected = len(links[x] & links[y])
            got = count_connectors(host, edge, x, y, 1, budget=budget)
            connector_checks += 1
            if got != expected:
                connector_mismatches += 1
        half = Partition([range(n // 2), range(n // 2, n)], n)
        report = robust_vectors(host, edge, half, 0, budget=budget)
        robust_checks += 1
        if report.total != len(enumerate_copy_sets(host, edge, budget=budget).sets):
            robust_mismatches += 1
        extra = random_hypergraph(rng, 3, n, 0.3)
        wider = host.with_edges(extra.edges)
        labels = classify_goodness(host, wider, Fraction(1, 100))
        difference = build(
            3, n, (e for e in wider.edges if not host.has_edge(e)))
        threshold = Fraction(1, 100) * n ** 2
        for v in range(n):
            direct = difference.degree((v,)) if n else 0
            goodness_checks += 1
            if labels.difference_degrees[v] != direct:
                goodness_mismatches += 1
            if labels.good[v] != (Fraction(direct) <= threshold):
                goodness_mismatches += 1
    ok = connector_mismatches == 0 and robust_mismatches == 0 and goodness_mismatches == 0
    return ok, {
        "graphs": PROBE_GRAPHS,
        "connector_checks": connector_checks,
        "connector_mismatches": connector_mismatches,
        "robust_reports": robust_checks,
        "robust_mismatches": robust_mismatches,
        "goodness_checks": goodness_checks,
        "goodness_mismatches": goodness_mismatches,
    }


_CLAIMS: tuple[tuple[str, Callable[..., tuple[bool, dict]]], ...] = (
    ("product-graph-free", lambda seed, budget: _claim_product_free(budget)),
    ("mirrored-graph-free", lambda seed, budget: _claim_mirrored_free(budget)),
    ("barrier-codegree", lambda seed, budget: _claim_barrier_codegree(budget)),
    ("barrier-parity", lambda seed, budget: _claim_barrier_parity(budget)),
    ("composite-factor-free", lambda seed, budget: _claim_composite_factor_free(budget)),
    ("threshold-classifier", lambda seed, budget: _claim_threshold_classifier(budget)),
    ("solver-oracle", _claim_solver_oracle),
    ("kst-turan", lambda seed, budget: _claim_kst_turan(budget)),
    ("probe-exactness", _claim_probe_exactness),
)


def verify_suite(seed: int = DEFAULT_SEED, budget: int | None = None,
                 claims: Sequence[str] | None = None) -> ExperimentReport:
    """Run the verification battery and report one pass/fail row per claim.

    Failures are rows with passed=False, never exceptions; an unknown claim
    name in `claims` is a ValidationError.
    """
    known = [name for name, _ in _CLAIMS]
    if claims is None:
        selected = known
    else:
        for name in claims:
            if name not in known:
                raise ValidationError(f"unknown claim {name!r}; known: {', '.join(known)}")
        selected = [name for name in known if name in set(claims)]
    rows: list[dict] = []
    timings: list[tuple[str, float]] = []
    for name, fn in _CLAIMS:
        if name not in selected:
            continue
        started = time.perf_counter()
        passed, details = fn(seed, budget)
        timings.append((name, time.perf_counter() - started))
        rows.append({"claim": name, "passed": passed, "details": details})
    return ExperimentReport(
        experiment="verification-battery",
        parameters={"seed": seed, "claims": selected},
        rows=tuple(rows),
        timings=tuple(timings),
    )


def sweep_extremal(n_min: int, n_max: int, m: int,
                   budget: int | None = None,
                   tile: bool = True) -> ExperimentReport:
    """Barrier-graph sweep: exact codegree per order, plus factor verdicts.

    Rows whose order is not a multiple of 3m are flagged but still carry the
    exact codegree. A tiling search that would exceed the budget is recorded
    as skipped, never dropped.
    """
    if m < 1:
        raise ValidationError(f"m must be positive, got {m}")
    if n_min > n_max:
        ns: list[int] = []
    else:
        if n_min < 4:
            raise ValidationError(f"orders below 4 have no balanced split, got {n_min}")
        ns = list(range(n_min, n_max + 1))
    patterns = (("complete", complete_k_partite([m, m, m]).graph),
                ("kst", k_st(3, m, m).graph))
    rows: list[dict] = []
    timings: list[tuple[str, float]] = []
    for n in ns:
        started = time.perf_counter()
        a, b = balanced_split(n)
        g = barrier_graph(a, b).graph
        row: dict = {
            "n": n,
            "a": a,
            "b": b,
            "min_codegree": g.min_s_degree(2),
            "expected_codegree": c4_factor_codegree(n) - 1,
            "divisible": n % (3 * m) == 0,
        }
        row["matches_pattern"] = row["min_codegree"] == row["expected_codegree"]
        row["flagged"] = not row["divisible"]
        if tile:
            verdicts = {}
            for name, pattern in patterns:
                try:
                    outcome = has_perfect_tiling(g, pattern, budget=budget)
                except BudgetExceededError:
                    verdicts[name] = {"verdict": "skipped", "reason": "budget"}
                    continue
                verdicts[name] = {
                    "verdict": "found" if outcome.found else "none",
                    "reason": outcome.reason,
                }
            row["factors"] = verdicts
        rows.append(row)
        timings.append((f"n={n}", time.perf_counter() - started))
    return ExperimentReport(
        experiment="extremal-sweep",
        parameters={"n_min": n_min, "n_max": n_max, "m": m, "tile": tile},
        rows=tuple(rows),
        timings=tuple(timings),
    )
