"""k-uniform hypergraphs with exact degree and induced-subgraph queries.

Vertices are the integers 0..n-1.  Edges are stored once, as sorted tuples in
lexicographic order, so equality, hashing, iteration, and file output are all
deterministic; `edge_set()` builds a frozenset on call, as keeping one would
double a large host's memory.  Every edge source takes one path in: one list,
sorted in place, adjacent repeats dropped, no set.  Timsort is linear on a
builder's sorted stream and merges the two sorted runs of `with_edges` and
`fortified_barrier` in linear time.  Counts are exact integers, never floats.

The structure queries that the solver's plans and searches read live here
too: whether a graph is complete partite (`_partite_parts`, from each
vertex's edge neighbours `_near`, which the realisation search also reads)
or a K_{s,t} shape (`_kst_shape`), and, each cached for the last eight
graphs, the link of every (k-1)-set (`_links`), which the codegrees also
read, and, from it alone, the twin classes (`_twin_classes`), from which
`_host_keep` derives the masks the embedder keeps free on a host with
twins.  Every command compiles `solver.py` when no bytecode is cached, and
its compile peak sets the floor of a short command's peak memory, so code
that needs no search state stays out of it.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
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
    """Immutable k-uniform hypergraph on vertices 0..n-1, k >= 2.  It holds its edges
    once: a kept frozenset would double its memory, so `edge_set()` builds one per call.
    Its one constructor sorts one edge list in place, so a build peaks near that."""

    __slots__ = ("k", "n", "edges", "_hash")

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]] = ()):
        if k < 2:
            raise ValidationError(f"uniformity must be at least 2, got {k}")
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        canon: list[Edge] = []
        for idx, raw in enumerate(edges):
            e = tuple(sorted(raw))
            if len(e) != k:
                raise ValidationError(f"edge {idx}: expected {k} vertices, got {len(e)}")
            if len(set(e)) != k:
                raise ValidationError(f"edge {idx}: repeated vertex in {e}")
            if e[0] < 0 or e[-1] >= n:
                raise ValidationError(f"edge {idx}: vertex out of range 0..{n - 1} in {e}")
            canon.append(e)
        canon.sort()
        self.k = k
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(
            e for i, e in enumerate(canon) if not i or e != canon[i - 1])
        self._hash: int | None = None

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        i = bisect_left(self.edges, e := tuple(sorted(e)))
        return self.edges[i:i + 1] == (e,)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.k, self.n, self.edges) == (other.k, other.n, other.edges)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.k, self.n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, edges={self.edge_count})"

    # -- derived graphs ------------------------------------------------

    def with_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        """New graph with `extra` edges added (duplicates collapse)."""
        return Hypergraph(self.k, self.n, itertools.chain(self.edges, extra))

    # -- degree queries ------------------------------------------------

    def degree(self, s_set: Iterable[int]) -> int:
        """Number of edges containing every vertex of `s_set`.

        For |S| = k this is edge membership (0 or 1).  |S| > k is an error.
        For |S| = k-1 it is the size of S's link in the link
        table of the graph, built on first use and cached.
        """
        s = vertex_set(s_set)
        self._check_vertices(s)
        if len(s) > self.k:
            raise ValidationError(f"degree set has {len(s)} vertices, uniformity is {self.k}")
        if len(s) == self.k:
            return int(self.has_edge(s))
        if len(s) == self.k - 1:
            return _links(self).get(sum(1 << v for v in s), 0).bit_count()
        ss = set(s)
        return sum(1 for e in self.edges if ss.issubset(e))

    def min_s_degree(self, s: int) -> int:
        """Minimum degree over all s-subsets of the vertex set (exact).

        Counts every s-subset, including those lying in no edge.  For
        s = k-1 it reads the link table (`_links`), which holds only the
        (k-1)-sets in some edge: fewer than C(n, k-1) keys means 0.
        """
        if s < 0 or s >= self.k:
            raise ValidationError(f"s must be in 0..{self.k - 1}, got {s}")
        if self.n < s:
            raise ValidationError(f"graph has {self.n} vertices, fewer than s = {s}")
        if s == self.k - 1:
            links = _links(self)
            if len(links) < math.comb(self.n, s):
                return 0
            return min(link.bit_count() for link in links.values())
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
        edges = (tuple(new_id[v] for v in e) for e in self.edges if uu.issuperset(e))
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


def _near(graph: Hypergraph) -> list[int]:
    """Per vertex, the mask of the vertices of the edges through it."""
    near = [0] * graph.n
    for e in graph.edges:
        full = 0
        for v in e:
            full |= 1 << v
        for v in e:
            near[v] |= full
    return near


def _partite_parts(pattern: Hypergraph) -> tuple[VertexSet, ...] | None:
    """Parts of the pattern if it is complete k-partite, else None.

    In a complete partite pattern two vertices share a part exactly when no
    edge holds both, so each vertex's part is itself and the vertices it
    never meets.  An edge's k vertices have k distinct parts, so when there
    are exactly k, each vertex lies in just one of them (a vertex in two
    would put both owners in its own part), and every edge is a transversal:
    equal counts then make the edges all the transversals.  An isolated
    vertex's part is every vertex, one too many."""
    parts = {tuple(u for u in range(pattern.n) if u == v or not near >> u & 1)
             for v, near in enumerate(_near(pattern))}
    if len(parts) != pattern.k or math.prod(map(len, parts)) != pattern.edge_count:
        return None
    return tuple(sorted(parts, key=lambda p: (len(p), p)))


def _kst_shape(pattern: Hypergraph) -> tuple[VertexSet, tuple[VertexSet, ...]] | None:
    """Core and leaf groups if the pattern is a K_{s,t} shape, else None."""
    if pattern.edge_count == 0:
        return None
    for anchor in range(pattern.n):
        through = [e for e in pattern.edges if anchor in e]
        groups = []
        covered: set[int] = set()
        ok = True
        for e in through:
            g = tuple(v for v in e if v != anchor)
            if covered.intersection(g):
                ok = False
                break
            covered.update(g)
            groups.append(g)
        if not ok or anchor in covered:
            continue
        core = tuple(v for v in range(pattern.n) if v not in covered)
        expected = {tuple(sorted(g + (y,))) for g in groups for y in core}
        if expected == set(pattern.edges):
            return core, tuple(sorted(groups))
    return None


@lru_cache(maxsize=8)
def _links(host: Hypergraph) -> dict[int, int]:
    """Bitmask of each (k-1)-set (one that lies in an edge) to the bitmask
    of the vertices that complete it to an edge."""
    links: dict[int, int] = {}
    get = links.get
    bits = [1 << v for v in range(host.n)]
    for e in host.edges:
        full = 0
        for v in e:
            full |= bits[v]
        for v in e:
            bit = bits[v]
            key = full ^ bit
            links[key] = get(key, 0) | bit
    return links


@lru_cache(maxsize=8)
def _twin_classes(graph: Hypergraph) -> list[int]:
    """Vertex masks of the graph's twin classes, by smallest vertex, read
    from the link table alone.  Swapping u and v fixes every edge through
    both or neither and maps an edge S + u + x that misses v to S + v + x,
    so it is an automorphism exactly when L(S + u) - v = L(S + v) - u for
    every (k-2)-set S that avoids u and v.  Each vertex u is tested against
    one member v of each earlier class that can hold a twin: for the rest r
    of one edge through u, a twin lies in r or completes r to an edge, so
    the candidates are r and its link, and the vertices in no edge are one
    class."""
    link = _links(graph)
    get = link.get
    sets = [sum(s) for s in itertools.combinations([1 << v for v in range(graph.n)], graph.k - 2)]
    bare = 0                                    # the vertices in no edge
    class_of: list[int] = []
    classes: list[int] = []
    for u in range(graph.n):
        bu = 1 << u
        if r := next((s | ends & -ends for s in sets if not s & bu and (ends := get(s | bu))), 0):
            candidates = (r | link[r]) & (bu - 1)
        else:
            candidates = bare
            bare |= bu
        while candidates:
            bv = candidates & -candidates
            v = bv.bit_length() - 1
            if all(get(s | bu, 0) & ~bv == get(s | bv, 0) & ~bu
                   for s in sets if not s & (bu | bv)):
                class_of.append(class_of[v])
                classes[class_of[v]] |= bu
                break
            candidates &= ~classes[class_of[v]]
        else:
            class_of.append(len(classes))
            classes.append(bu)
    return classes


def _host_keep(host: Hypergraph) -> dict[int, int] | None:
    """Per vertex bit b of the host, the mask of every vertex but b and b's
    twins below it: what the embedder keeps free once b is placed
    (`solver._compile`).  None when every twin class has one vertex."""
    classes = _twin_classes(host)
    if not any(c & (c - 1) for c in classes):
        return None
    everything = (1 << host.n) - 1
    keep = {}
    for c in classes:
        below = 0
        while c:
            b = c & -c
            below |= b
            keep[b] = everything ^ below
            c ^= b
    return keep
