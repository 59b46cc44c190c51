"""k-uniform hypergraphs with exact degree and induced-subgraph queries.

Vertices are the integers 0..n-1.  Edges are stored as sorted tuples in
lexicographic order, so equality, hashing, iteration, and file output are
all deterministic.  Every count returned here is an exact integer; no
floating point enters this module.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import ValidationError

VertexSet = tuple[int, ...]
Edge = tuple[int, ...]
TypeVector = tuple[int, ...]


def vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Canonicalize an iterable of vertices into a sorted duplicate-free tuple."""
    vs = tuple(sorted(vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValidationError(f"duplicate vertex {a} in vertex set")
    return vs


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices 0..n-1, k >= 2."""

    __slots__ = ("k", "n", "edges", "_edge_set", "_hash")

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]] = ()):
        if k < 2:
            raise ValidationError(f"uniformity must be at least 2, got {k}")
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        canon: set[Edge] = set()
        for idx, raw in enumerate(edges):
            e = tuple(sorted(raw))
            if len(e) != k:
                raise ValidationError(f"edge {idx}: expected {k} vertices, got {len(e)}")
            if len(set(e)) != k:
                raise ValidationError(f"edge {idx}: repeated vertex in {e}")
            if e[0] < 0 or e[-1] >= n:
                raise ValidationError(f"edge {idx}: vertex out of range 0..{n - 1} in {e}")
            canon.add(e)
        self.k = k
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(canon))
        self._edge_set = frozenset(canon)
        self._hash: int | None = None

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self._edge_set

    def edge_set(self) -> frozenset[Edge]:
        return self._edge_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.k == other.k and self.n == other.n and self._edge_set == other._edge_set

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.k, self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={self.edge_count})"

    # -- derived graphs ------------------------------------------------

    def with_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        """New graph with `extra` edges added (duplicates collapse)."""
        return Hypergraph(self.k, self.n, list(self.edges) + [tuple(e) for e in extra])

    # -- degree queries ------------------------------------------------

    def degree(self, s_set: Iterable[int]) -> int:
        """Number of edges containing every vertex of `s_set`.

        For |S| = k this is edge membership (0 or 1).  |S| > k is an error.
        """
        s = vertex_set(s_set)
        self._check_vertices(s)
        if len(s) > self.k:
            raise ValidationError(f"degree set has {len(s)} vertices, uniformity is {self.k}")
        if len(s) == self.k:
            return 1 if s in self._edge_set else 0
        ss = set(s)
        return sum(1 for e in self.edges if ss.issubset(e))

    def min_s_degree(self, s: int) -> int:
        """Minimum degree over all s-subsets of the vertex set (exact).

        Counts every s-subset, including those lying in no edge.
        """
        if s < 0 or s >= self.k:
            raise ValidationError(f"s must be in 0..{self.k - 1}, got {s}")
        if self.n < s:
            raise ValidationError(f"graph has {self.n} vertices, fewer than s = {s}")
        counts: Counter[VertexSet] = Counter()
        for e in self.edges:
            for sub in itertools.combinations(e, s):
                counts[sub] += 1
        if len(counts) < math.comb(self.n, s):
            return 0
        return min(counts.values())

    # -- restricted views ----------------------------------------------

    def induced(self, u_set: Iterable[int]) -> "RelabeledGraph":
        """Subgraph induced on U, relabeled to 0..|U|-1 with a recoverable map."""
        u = vertex_set(u_set)
        self._check_vertices(u)
        uu = set(u)
        new_id = {v: i for i, v in enumerate(u)}
        edges = [tuple(new_id[v] for v in e) for e in self.edges if uu.issuperset(e)]
        return RelabeledGraph(Hypergraph(self.k, len(u), edges), u)

    def _check_vertices(self, vs: Iterable[int]) -> None:
        for v in vs:
            if v < 0 or v >= self.n:
                raise ValidationError(f"vertex {v} out of range 0..{self.n - 1}")


class RelabeledGraph(NamedTuple):
    """A derived graph plus the original ids of its relabeled vertices.

    vertices[i] is the original id of the derived graph's vertex i.
    """

    graph: Hypergraph
    vertices: VertexSet


class Partition:
    """Ordered partition of the vertex set 0..n-1 into disjoint parts."""

    __slots__ = ("parts", "n", "_part_of")

    def __init__(self, parts: Iterable[Iterable[int]], n: int | None = None,
                 allow_empty: bool = False):
        raw = [tuple(p) for p in parts]
        for p in raw:
            for v in p:
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValidationError(f"vertex {v!r} is not an integer")
        canon = tuple(vertex_set(p) for p in raw)
        seen: set[int] = set()
        total = 0
        for i, p in enumerate(canon):
            if not p and not allow_empty:
                raise ValidationError(f"part {i} is empty")
            for v in p:
                if v in seen:
                    raise ValidationError(f"vertex {v} appears in two parts")
                seen.add(v)
            total += len(p)
        if n is None:
            n = total
        if total != n or (seen and (min(seen) < 0 or max(seen) >= n)):
            raise ValidationError(f"parts do not partition 0..{n - 1}")
        self.parts = canon
        self.n = n
        part_of = [0] * n
        for i, p in enumerate(canon):
            for v in p:
                part_of[v] = i
        self._part_of = tuple(part_of)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def index_vector(self, s_set: Iterable[int]) -> TypeVector:
        """Intersection sizes of S with each part, in part order."""
        s = vertex_set(s_set)
        if any(v < 0 or v >= self.n for v in s):
            raise ValidationError(f"vertex set {s} not within ground set 0..{self.n - 1}")
        part_of = self._part_of
        profile = [0] * len(self.parts)
        for v in s:
            profile[part_of[v]] += 1
        return tuple(profile)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n == other.n and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.n, self.parts))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)}, n={self.n})"


def build(k: int, n: int, edges: Iterable[Iterable[int]] = ()) -> Hypergraph:
    """Validating constructor; rejects bad arity, repeats, and out-of-range ids."""
    return Hypergraph(k, n, edges)
