"""Extremal 3-graph families: parity barriers and field-product graphs.

Each builder returns a LabeledConstruction: the graph itself plus the
semantic vertex partition (named parts) and the parameters, ready for the
sidecar JSON the CLI writes next to the edge-list file.  Vertex layouts are
fixed and documented per builder, so outputs are byte-stable across runs.

Each builder hands `Hypergraph` its edges once, as a generator, and keeps
no list, cache or intermediate graph of them.  The three field-product
constructions share one pair-by-pair solve of the product identity
(`_identity_triples`); only the field tables it reads stay cached.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

from .core import Hypergraph, Partition
from .errors import UnsupportedFieldError, ValidationError
from .fields import GF


class LabeledConstruction(NamedTuple):
    """A built graph together with its named semantic parts and parameters."""

    name: str
    graph: Hypergraph
    part_map: Partition
    part_names: tuple[str, ...]
    params: Mapping[str, int]

    def part(self, name: str) -> tuple[int, ...]:
        return self.part_map.parts[self.part_names.index(name)]


def balanced_split(n: int) -> tuple[int, int]:
    """Near-equal part sizes (a, b) with b always odd.

    (n/2+1, n/2-1) for n = 0 (mod 4); (floor, ceil) for n = 1;
    (n/2, n/2) for n = 2; (ceil, floor) for n = 3.
    """
    if n < 4:
        raise ValidationError(f"split needs n >= 4, got {n}")
    r = n % 4
    if r == 0:
        return n // 2 + 1, n // 2 - 1
    if r == 1:
        return n // 2, n // 2 + 1
    if r == 2:
        return n // 2, n // 2
    return n // 2 + 1, n // 2


def _barrier_edges(a: int, b: int) -> Iterator[tuple[int, int, int]]:
    """Edges of barrier_graph(a, b) in lexicographic order: each vertex v of
    A with every pair above it in A, then with every pair in B."""
    part_b = range(a, a + b)
    for v in range(a):
        for pair in itertools.chain(itertools.combinations(range(v + 1, a), 2),
                                    itertools.combinations(part_b, 2)):
            yield (v,) + pair


def barrier_graph(a: int, b: int) -> LabeledConstruction:
    """3-graph on parts A (ids 0..a-1) and B (ids a..a+b-1) whose edges meet
    A in an odd number of vertices (1 or 3).

    Every copy of a complete 3-partite pattern, and of the generalized
    4-cycle family, meets B in an even count; with |B| odd that blocks
    perfect tilings while the minimum codegree stays near n/2.
    """
    if a < 0 or b < 0:
        raise ValidationError(f"part sizes must be nonnegative, got ({a}, {b})")
    graph = Hypergraph(3, a + b, _barrier_edges(a, b))
    return LabeledConstruction(
        name="barrier",
        graph=graph,
        part_map=Partition([range(a), range(a, a + b)], a + b, allow_empty=True),
        part_names=("A", "B"),
        params={"a": a, "b": b},
    )


def cone_graph(x: int, y: int, k: int) -> LabeledConstruction:
    """k-graph on parts X (ids 0..x-1) and Y whose edges take exactly one
    vertex from X and k-1 from Y."""
    if k < 2:
        raise ValidationError(f"uniformity must be at least 2, got {k}")
    if x < 0 or y < 0:
        raise ValidationError(f"part sizes must be nonnegative, got ({x}, {y})")
    part_x = range(x)
    part_y = range(x, x + y)
    graph = Hypergraph(k, x + y, ((v,) + rest for v in part_x
                                  for rest in itertools.combinations(part_y, k - 1)))
    return LabeledConstruction(
        name="cone",
        graph=graph,
        part_map=Partition([part_x, part_y], x + y, allow_empty=True),
        part_names=("X", "Y"),
        params={"x": x, "y": y, "k": k},
    )


def complete_k_partite(sizes: tuple[int, ...] | list[int]) -> LabeledConstruction:
    """Complete k-partite k-graph: edges are exactly the transversals."""
    sizes = tuple(sizes)
    if len(sizes) < 2:
        raise ValidationError(f"need at least 2 parts, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValidationError(f"part sizes must be positive, got {sizes}")
    parts: list[range] = []
    start = 0
    for s in sizes:
        parts.append(range(start, start + s))
        start += s
    graph = Hypergraph(len(sizes), start, itertools.product(*parts))
    return LabeledConstruction(
        name="complete",
        graph=graph,
        part_map=Partition(parts, start),
        part_names=tuple(f"V{i + 1}" for i in range(len(sizes))),
        params={f"s{i + 1}": s for i, s in enumerate(sizes)},
    )


def k_st(k: int, s: int, t: int) -> LabeledConstruction:
    """The k-graph K_{s,t}: t disjoint (k-1)-sets X_i plus an s-set Y,
    with edge set {X_i + {y}} over all i and y in Y.

    Layout: X_1..X_t first (ids 0..t(k-1)-1), then Y.
    """
    if k < 2:
        raise ValidationError(f"uniformity must be at least 2, got {k}")
    if s < 1 or t < 1:
        raise ValidationError(f"need s, t >= 1, got s = {s}, t = {t}")
    groups = [tuple(range(i * (k - 1), (i + 1) * (k - 1))) for i in range(t)]
    y_part = tuple(range(t * (k - 1), t * (k - 1) + s))
    n = t * (k - 1) + s
    graph = Hypergraph(k, n, (g + (y,) for g in groups for y in y_part))
    return LabeledConstruction(
        name="kst",
        graph=graph,
        part_map=Partition(list(groups) + [y_part], n),
        part_names=tuple(f"X{i + 1}" for i in range(t)) + ("Y",),
        params={"k": k, "s": s, "t": t},
    )


# -- field-product constructions -------------------------------------------


def _check_product_order(q: int) -> None:
    if GF(q).p == 2:  # GF raises UnsupportedFieldError off the table
        raise UnsupportedFieldError(f"product construction needs odd q, got {q}")


@lru_cache(maxsize=None)
def _tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables over element indices."""
    fld = GF(q)
    elems = list(fld.elements())
    add = [[fld.element_index(fld.add(a, b)) for b in elems] for a in elems]
    mul = [[fld.element_index(fld.mul(a, b)) for b in elems] for a in elems]
    return add, mul


def _identity_triples(q: int, past_v: bool) -> Iterator[tuple[int, int, int]]:
    """Solve the product identity pair by pair, in lexicographic order.

    Vertex v <-> the pair (x, y) of nonzero elements with indices
    x = v // (q-1) + 1 and y = v % (q-1) + 1 (row-major over the canonical
    element order).  For each pair u < v, yields (u, v, w) for every vertex
    w, u and v included, whose first component times the pair's first
    product plus its second component times the pair's second product is
    one.  With past_v, only the w whose first component is at least v's,
    which every w > v has.

    The solve is exact: for a pair with first product a and second product
    b, each first component f fixes at most one second component,
    (1 - a*f) / b, which is a vertex when it is nonzero; and w grows with f.
    """
    add, mul = _tables(q)
    m = q - 1
    one_minus = [row.index(1) for row in add]          # index of 1 - x
    inverse = [0] + [row.index(1) for row in mul[1:]]
    first = [v // m + 1 for v in range(m * m)]
    second = [v % m + 1 for v in range(m * m)]
    for u, v in itertools.combinations(range(m * m), 2):
        times_a = mul[mul[first[u]][first[v]]]
        over_b = mul[inverse[mul[second[u]][second[v]]]]
        for f in range(first[v] if past_v else 1, q):
            s = over_b[one_minus[times_a[f]]]
            if s:
                yield u, v, (f - 1) * m + s - 1


def field_product_graph(q: int) -> LabeledConstruction:
    """3-graph on the (q-1)^2 pairs of nonzero GF(q) elements whose edges are
    the triples with first-component product plus second-component product
    equal to one: the solved triples (u, v, w) with w > v.

    Contains no complete 3-partite copy with parts (1, 2, 2), because two
    fixed pairs admit at most one common completion, yet every pair of
    vertices lies in at least q-4 edges: a pair's identity has q-2 solutions
    with both components nonzero, and two of them can be the pair's own
    endpoints.  The bound is attained: q = 5, 7, 9, 11 and 13 all reach it.
    """
    _check_product_order(q)
    n = (q - 1) ** 2
    graph = Hypergraph(3, n, (t for t in _identity_triples(q, True) if t[2] > t[1]))
    return LabeledConstruction(
        name="fieldprod",
        graph=graph,
        part_map=Partition([range(n)], n),
        part_names=("V",),
        params={"q": q},
    )


def mirrored_product_graph(q: int) -> LabeledConstruction:
    """Doubled product graph: base vertices 0..(q-1)^2-1, mirror vertices
    after them.  Every edge takes exactly two base vertices and one mirror
    vertex, under the same product identity on the underlying pairs: each
    solved triple (u, v, w) gives the edge (u, v, (q-1)^2 + w).

    Edges whose mirror vertex is the twin of a base endpoint are kept
    whenever the identity holds.  Each base-side edge of the plain product
    graph corresponds to three mirrored edges, one per choice of the
    endpoint sent to the mirror, so freeness transfers back and forth.
    """
    _check_product_order(q)
    n0 = (q - 1) ** 2
    graph = Hypergraph(3, 2 * n0, ((u, v, n0 + w) for u, v, w in _identity_triples(q, False)))
    return LabeledConstruction(
        name="mirrorprod",
        graph=graph,
        part_map=Partition([range(n0), range(n0, 2 * n0)], 2 * n0),
        part_names=("base", "mirror"),
        params={"q": q},
    )


def fortified_barrier(a: int, b: int, q: int) -> LabeledConstruction:
    """Barrier graph reinforced with mirrored-product edges.

    A is the first a base vertices of the mirrored product graph, B the
    first b mirror vertices; the result is the barrier graph on (A, B)
    united with the induced mirrored edges, which raises the mixed-pair
    codegrees while keeping |B| odd, so complete 3-partite factors with
    even part sizes stay blocked.  The two edge sets are disjoint: a barrier
    edge meets A in one or three vertices, a mirrored edge in two.
    """
    if a % 2 == 0 or b % 2 == 0:
        raise ValidationError(f"both part sizes must be odd, got ({a}, {b})")
    _check_product_order(q)
    n0 = (q - 1) ** 2
    if a > n0 or b > n0:
        raise ValidationError(
            f"part sizes ({a}, {b}) exceed the {n0} vertices available per side at q = {q}")
    # Induced mirrored edges: base ids 0..a-1 keep their ids; mirror id
    # n0 + w (w < b) becomes a + w.
    mirrored = ((u, v, a + w) for u, v, w in _identity_triples(q, False) if v < a and w < b)
    graph = Hypergraph(3, a + b, itertools.chain(_barrier_edges(a, b), mirrored))
    return LabeledConstruction(
        name="fortified",
        graph=graph,
        part_map=Partition([range(a), range(a, a + b)], a + b),
        part_names=("A", "B"),
        params={"a": a, "b": b, "q": q},
    )


def fortification_window(n: int, q: int) -> bool:
    """Exact check that (q-1)^2 sits in the window [n/2 + 2/5 sqrt(n/2),
    n/2 + 1/2 sqrt(n/2)] required for the fortified barrier to reach the
    factor-free codegree value at order n."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if q < 2:
        raise ValidationError(f"q must be at least 2, got {q}")
    n0 = Fraction((q - 1) ** 2)
    x = Fraction(n, 2)
    excess = n0 - x
    # lower bound: excess >= (2/5) sqrt(x), compared without square roots
    if excess < 0 or excess * excess < Fraction(4, 25) * x:
        return False
    # upper bound: excess <= (1/2) sqrt(x)
    return excess * excess <= Fraction(1, 4) * x
