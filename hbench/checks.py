"""Independent answer checks for the benchmark.

Nothing here calls into hypertile: every verdict the CLI prints is checked
again from the host and pattern edge lists that the benchmark wrote. Each
check returns None when the answer is correct, else a one-line reason.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Edge = tuple[int, ...]

VERIFY_CLAIMS = (
    "product-graph-free", "mirrored-graph-free", "barrier-codegree",
    "barrier-parity", "composite-factor-free", "threshold-classifier",
    "solver-oracle", "kst-turan", "probe-exactness",
)
SWEEP_ORDERS = range(12, 18)       # n = 18 takes minutes per sweep at the seed


@dataclass
class Graph:
    """A k-graph as the benchmark wrote it: vertices 0..n-1, sorted edges."""

    k: int
    n: int
    edges: frozenset[Edge]

    @classmethod
    def of(cls, k: int, n: int, edges) -> "Graph":
        return cls(k, n, frozenset(tuple(sorted(e)) for e in edges))


def parse(stdout: str) -> dict:
    """The single JSON document a subcommand prints."""
    payload = json.loads(stdout)
    if not isinstance(payload, dict):
        raise ValueError("stdout is not a JSON object")
    return payload


def _search_order(pattern: Graph) -> list[tuple[int, list[Edge]]]:
    """Pattern vertices, most attached first, each with the edges it closes."""
    order: list[int] = []
    while len(order) < pattern.n:
        placed = set(order)
        v = max((u for u in range(pattern.n) if u not in placed),
                key=lambda u: (sum(1 for e in pattern.edges
                                   if u in e and placed.intersection(e)),
                               sum(1 for e in pattern.edges if u in e), -u))
        order.append(v)
    position = {v: i for i, v in enumerate(order)}
    closes: list[list[Edge]] = [[] for _ in order]
    for e in pattern.edges:
        closes[max(position[v] for v in e)].append(e)
    return list(zip(order, closes))


def spans(host: Graph, pattern: Graph, vertices: Sequence[int]) -> bool:
    """Whether some bijection from V(pattern) onto `vertices` maps every
    pattern edge to a host edge (plain backtracking)."""
    if len(vertices) != pattern.n or len(set(vertices)) != pattern.n:
        return False
    steps = _search_order(pattern)
    image: dict[int, int] = {}

    def place(i: int, free: list[int]) -> bool:
        if i == len(steps):
            return True
        v, closes = steps[i]
        for j, h in enumerate(free):
            image[v] = h
            if all(tuple(sorted(image[u] for u in e)) in host.edges for e in closes):
                if place(i + 1, free[:j] + free[j + 1:]):
                    return True
        del image[v]
        return False

    return place(0, list(vertices))


def certificate_error(host: Graph, pattern: Graph, copies, covered,
                      perfect: bool) -> str | None:
    """Each copy embeds every pattern edge in the host, copies are disjoint,
    `covered` is their union and, when `perfect`, equals V(host)."""
    seen: set[int] = set()
    for idx, images in enumerate(copies):
        if len(images) != pattern.n or len(set(images)) != pattern.n:
            return f"copy {idx} is not an injective map of the pattern"
        if any(not isinstance(v, int) or v < 0 or v >= host.n for v in images):
            return f"copy {idx} leaves the host"
        for e in pattern.edges:
            if tuple(sorted(images[u] for u in e)) not in host.edges:
                return f"copy {idx} maps pattern edge {e} to a non-edge"
        if seen.intersection(images):
            return f"copy {idx} overlaps an earlier copy"
        seen.update(images)
    if list(covered) != sorted(seen):
        return "covered set is not the union of the copies"
    if perfect and len(seen) != host.n:
        return f"copies cover {len(seen)} of {host.n} vertices"
    return None


def parity_obstruction_error(host: Graph, pattern: Graph,
                             b_part: Sequence[int]) -> str | None:
    """None when |B| is odd, every host edge meets B evenly, and every
    2-colouring of the pattern whose edges meet B evenly colours an even
    number of vertices B. Then every copy meets B evenly and no perfect
    tiling exists."""
    b = set(b_part)
    if len(b) % 2 == 0:
        return f"|B| = {len(b)} is even"
    if any(len(b.intersection(e)) % 2 for e in host.edges):
        return "a host edge meets B in an odd number of vertices"
    for mask in range(1 << pattern.n):
        if all(sum(mask >> u & 1 for u in e) % 2 == 0 for e in pattern.edges):
            if mask.bit_count() % 2:
                return "the pattern has a copy meeting B oddly"
    return None


def tiling_error(host: Graph, pattern: Graph, stdout: str) -> str | None:
    """`tile` answered with a perfect tiling; re-check the certificate."""
    out = parse(stdout)
    if out.get("result") != "tiling":
        return f"expected a tiling, got {out.get('result')!r}"
    return certificate_error(host, pattern, out["copies"], out["covered"], True)


def none_error(host: Graph, pattern: Graph, b_part: Sequence[int],
               verdict: str, reason: str) -> str | None:
    """A none on a barrier host: divisibility when t does not divide n,
    else an exhausted search that the parity obstruction confirms."""
    if verdict != "none":
        return f"expected none, got {verdict!r}"
    if host.n % pattern.n:
        return None if reason == "divisibility" else \
            f"order {host.n} is not divisible, reason {reason!r}"
    if reason != "exhausted":
        return f"reason {reason!r} on a divisible order"
    return parity_obstruction_error(host, pattern, b_part)


def tile_none_error(host: Graph, pattern: Graph, b_part: Sequence[int],
                    stdout: str) -> str | None:
    out = parse(stdout)
    return none_error(host, pattern, b_part, out.get("result"), out.get("reason"))


def max_error(host: Graph, pattern: Graph, stdout: str) -> str | None:
    """`tile --max` must certify floor(n/t) copies, which is the upper bound
    and is attained on every host this benchmark builds."""
    out = parse(stdout)
    if out.get("result") != "max-tiling":
        return f"expected a max-tiling, got {out.get('result')!r}"
    expected = host.n // pattern.n
    if out.get("size") != expected or len(out["copies"]) != expected:
        return f"size {out.get('size')} with {len(out['copies'])} copies, expected {expected}"
    return certificate_error(host, pattern, out["copies"], out["covered"], False)


def typed_sets(host: Graph, pattern: Graph, parts: Sequence[Sequence[int]],
               type_vector: Sequence[int]) -> list[tuple[int, ...]]:
    """Every spanned vertex set with the given intersection profile."""
    pools = [itertools.combinations(sorted(p), c) for p, c in zip(parts, type_vector)]
    found = [tuple(sorted(itertools.chain(*pick))) for pick in itertools.product(*pools)]
    return sorted(s for s in found if spans(host, pattern, s))


def typed_error(expected: list[tuple[int, ...]], type_vector: Sequence[int],
                stdout: str) -> str | None:
    """`tile --type` must list exactly the expected sets, in order."""
    out = parse(stdout)
    if out.get("result") != "copies" or out.get("type") != list(type_vector):
        return "not a copy listing for the requested type"
    sets = [tuple(s) for s in out["sets"]]
    if out.get("count") != len(sets):
        return "count disagrees with the listed sets"
    if sets != expected:
        return f"{len(sets)} sets listed, {len(expected)} expected"
    return None


def lattice_member(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Whether target is an integer combination of the generators.

    Row reduction to echelon form by repeated Euclidean steps between rows,
    then back substitution with exact divisibility at each pivot.
    """
    rows = [list(g) for g in generators if any(g)]
    remaining = list(target)
    for col in range(len(remaining)):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            reduced = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (reduced if r[col] != 0 else rest).append(r)
            live = reduced
        if live:
            pivot = live[0]
            if remaining[col] % pivot[col]:
                return False
            q = remaining[col] // pivot[col]
            remaining = [a - q * b for a, b in zip(remaining, pivot)]
        elif remaining[col]:
            return False
        rows = [r for r in rest if any(r)]
    return not any(remaining)


def robust_error(host: Graph, pattern: Graph, parts: Sequence[Sequence[int]],
                 mu: Fraction, transferral: tuple[int, int],
                 typed: dict[tuple[int, ...], int], stdout: str) -> str | None:
    """`probe robust`: counts add up, the known type counts agree, the robust
    list is the set of types over mu * n^t, and the transferral verdict is
    the lattice membership of u_j - u_l."""
    out = parse(stdout)
    counts = {tuple(int(c) for c in key.split(",")): v for key, v in out["counts"].items()}
    if sum(counts.values()) != out.get("total"):
        return "type counts do not sum to the total"
    if any(sum(tv) != pattern.n or len(tv) != len(parts) for tv in counts):
        return "a type vector has the wrong shape"
    for tv, count in typed.items():
        if counts.get(tv, 0) != count:
            return f"type {tv} counted {counts.get(tv, 0)}, expected {count}"
    threshold = mu * host.n ** pattern.n
    robust = sorted(tv for tv, c in counts.items() if c >= threshold)
    if [tuple(tv) for tv in out["robust"]] != robust:
        return "robust list disagrees with the counts"
    j, l = transferral
    target = [0] * len(parts)
    target[j], target[l] = 1, -1
    if out["transferral"]["member"] != lattice_member(robust, target):
        return "transferral verdict disagrees with the lattice"
    return None


def common_link_size(host: Graph, x: int, y: int) -> int:
    """|link(x) & link(y)|: the number of single-edge (x, y)-connectors."""
    def link(v: int) -> set[Edge]:
        return {tuple(u for u in e if u != v) for e in host.edges if v in e}
    return len(link(x) & link(y))


def tileable(mask: int, spanning: frozenset[int], t: int) -> bool:
    """Whether the vertex set `mask` splits into spanning t-sets."""
    if not mask:
        return True
    low = mask & -mask
    rest = [1 << v for v in range(mask.bit_length()) if (mask ^ low) >> v & 1]
    for combo in itertools.combinations(rest, t - 1):
        block = low | sum(combo)
        if block in spanning and tileable(mask & ~block, spanning, t):
            return True
    return False


def connector_count(host: Graph, pattern: Graph, x: int, y: int, i: int) -> int:
    """(x, y)-connectors of length i counted from scratch: sets S of size
    t*i - 1 avoiding x and y with S + x and S + y both tileable."""
    spanning = frozenset(sum(1 << v for v in s)
                         for s in itertools.combinations(range(host.n), pattern.n)
                         if spans(host, pattern, s))
    others = [v for v in range(host.n) if v not in (x, y)]
    count = 0
    for s in itertools.combinations(others, pattern.n * i - 1):
        base = sum(1 << v for v in s)
        if (tileable(base | 1 << x, spanning, pattern.n)
                and tileable(base | 1 << y, spanning, pattern.n)):
            count += 1
    return count


def connectors_error(expected: int, stdout: str) -> str | None:
    out = parse(stdout)
    if out.get("count") != expected:
        return f"count {out.get('count')}, expected {expected}"
    return None


def close_error(expected: int, host: Graph, pattern: Graph, i: int, eta: Fraction,
                stdout: str) -> str | None:
    """`probe close`: the count, the exact threshold and the verdict."""
    out = parse(stdout)
    if out.get("count") != expected:
        return f"count {out.get('count')}, expected {expected}"
    threshold = eta * host.n ** (pattern.n * i - 1)
    got = Fraction(out["threshold"]["num"], out["threshold"]["den"])
    if got != threshold:
        return f"threshold {got}, expected {threshold}"
    if out.get("close") != (expected >= threshold):
        return "closeness verdict disagrees with the threshold"
    return None


def verify_error(seed: int, stdout: str) -> str | None:
    """The battery ran every claim, with this seed, and every claim passed."""
    out = parse(stdout)
    if out.get("parameters", {}).get("seed") != seed:
        return "battery ran with another seed"
    rows = out.get("rows", [])
    if [r.get("claim") for r in rows] != list(VERIFY_CLAIMS):
        return "battery rows are not the nine claims"
    failed = [r["claim"] for r in rows if r.get("passed") is not True]
    if failed:
        return f"claims failed: {', '.join(failed)}"
    return None


def min_codegree(host: Graph) -> int:
    """Minimum number of edges over all vertex pairs."""
    counts = {pair: 0 for pair in itertools.combinations(range(host.n), 2)}
    for e in host.edges:
        for pair in itertools.combinations(e, 2):
            counts[pair] += 1
    return min(counts.values())


def barrier(a: int, b: int) -> tuple[Graph, list[int]]:
    """The barrier host on A = 0..a-1, B = a..a+b-1: triples meeting A oddly."""
    n = a + b
    edges = [e for e in itertools.combinations(range(n), 3)
             if sum(1 for v in e if v < a) % 2 == 1]
    return Graph.of(3, n, edges), list(range(a, n))


def sweep_error(patterns: dict[str, Graph], stdout: str) -> str | None:
    """`sweep`: one row per order on a near-balanced split with |B| odd, the
    exact minimum codegree, and a none for each pattern, either for
    divisibility or backed by the parity obstruction."""
    out = parse(stdout)
    rows = out.get("rows", [])
    if [r.get("n") for r in rows] != list(SWEEP_ORDERS):
        return "sweep rows do not cover the requested orders"
    for row in rows:
        n, a, b = row["n"], row["a"], row["b"]
        if a + b != n or abs(a - b) > 2 or b % 2 == 0:
            return f"n={n}: split ({a}, {b}) is not near-balanced with |B| odd"
        host, b_part = barrier(a, b)
        if row["min_codegree"] != min_codegree(host):
            return f"n={n}: min codegree {row['min_codegree']}, expected {min_codegree(host)}"
        for name, pattern in patterns.items():
            verdict = row["factors"][name]
            error = none_error(host, pattern, b_part, verdict["verdict"], verdict["reason"])
            if error:
                return f"n={n} {name}: {error}"
    return None
