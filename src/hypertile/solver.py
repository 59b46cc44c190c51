"""Copy search and exact-cover tiling at desk scale.

Everything here is exhaustive and exact: a "none" answer means the search
space was fully explored (or the instance failed the divisibility
precondition, which is reported as a distinguished reason).  Searches are
single-threaded and deterministic: hosts, copy sets, and cover candidates
are always iterated in ascending or lexicographic order, so the
first witness found is a stable function of the input.

Vertices u and v are twins when swapping them is an automorphism.  Twinhood
is an equivalence, any permutation inside its classes is an automorphism,
and `_twin_classes` finds the classes of patterns and hosts alike.

Pattern structure is analysed once per pattern and cached, and copies are
found by one search, an ordered bitset embedder: pattern vertices are
placed in a fixed order (one vertex per part in turn for complete partite
patterns, the core then the leaf groups for K_{s,t} shapes, most-constrained
first otherwise), the candidates for the next one are the free vertices
ANDed with the host's link bitset of every (k-1)-set it closes, and twins
and equal blocks (parts of equal size, leaf groups) take increasing images.
Candidates are tried in increasing order, so embeddings come in
lexicographic order, read in the placement order.  `contains_copy` returns
the first one.  Copy-set enumeration runs the embedder to every solution
and keeps each vertex set with the first embedding that reaches it as its
witness, built when it is read, so a search that returns no copy builds
none.

Tilings are searched over one table of the host's copy sets: each set's
vertex bitmask and, per vertex, a column: the bitset of the sets through
it.  The exact cover and max tiling carry one bitset of the live sets
(those disjoint from every chosen one), so a vertex's live count is an AND
and a popcount, and choosing a set clears the columns of its vertices.
In the exact cover the live sets are exactly those inside the uncovered
vertices, so the uncovered mask is the whole state of a node, and a choice
that leaves t = |V(F)| vertices is decided by looking their mask up in the
table (the sets are distinct t-sets), not by a node of its own.  A
permutation inside the host's twin classes maps copy sets to copy sets, so
a node's outcome depends only on its profile, the number of uncovered
vertices in each class: a failed profile is remembered, and a choice whose
remaining vertices have a failed profile is skipped before its node is
built.  Only failing subtrees are cut, so the branch order and the first
cover are unchanged.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .budget import charge
from .core import Hypergraph, Partition, VertexSet, vertex_set
from .errors import ValidationError
from .invariants import MAX_PATTERN_VERTICES, realisations


class Embedding(NamedTuple):
    """Injective pattern-to-host vertex map; images[i] hosts pattern vertex i."""

    images: tuple[int, ...]

    @property
    def vertex_set(self) -> VertexSet:
        return tuple(sorted(self.images))


class TilingCertificate(NamedTuple):
    """Vertex-disjoint pattern copies and the vertex set they cover."""

    embeddings: tuple[Embedding, ...]
    covered: VertexSet


REASON_FOUND = "found"
REASON_DIVISIBILITY = "divisibility"
REASON_EXHAUSTED = "exhausted"


class TilingOutcome(NamedTuple):
    """Result of a perfect-tiling search: a certificate or a verified none."""

    certificate: TilingCertificate | None
    reason: str

    @property
    def found(self) -> bool:
        return self.certificate is not None


class CopySetEnumeration(NamedTuple):
    """All pattern-spanned vertex sets, with one witness embedding each."""

    sets: tuple[VertexSet, ...]
    witnesses: Mapping[VertexSet, Embedding]


# -- pattern analysis -------------------------------------------------------


class _Plan(NamedTuple):
    order: tuple[int, ...]                # placement order of the pattern vertices
    checks: tuple[tuple[VertexSet, ...], ...]  # per position: the (k-1)-sets it closes
    twin: tuple[int, ...]                 # per position: the earlier position whose image it
                                          # must exceed (a twin or an equal block), or -1


def _partite_parts(pattern: Hypergraph) -> tuple[VertexSet, ...] | None:
    """Parts of the pattern if it is complete k-partite, else None."""
    if pattern.edge_count == 0 or pattern.n > MAX_PATTERN_VERTICES:
        return None
    for r in realisations(pattern):
        product = math.prod(r.sizes)
        if product == pattern.edge_count:
            # Every edge is a transversal of every realisation, so equal
            # counts force the edge set to be all transversals of r.
            return tuple(sorted(r.parts, key=lambda p: (len(p), p)))
    return None


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


def _generic_order(pattern: Hypergraph) -> tuple[int, ...]:
    """Vertex order that keeps edge checks early: most-constrained first."""
    degrees = [0] * pattern.n
    for e in pattern.edges:
        for v in e:
            degrees[v] += 1
    placed: list[int] = []
    placed_set: set[int] = set()
    while len(placed) < pattern.n:
        def score(v: int) -> tuple[int, int, int]:
            attached = sum(1 for e in pattern.edges
                           if v in e and any(u in placed_set for u in e))
            return (-attached, -degrees[v], v)
        v = min((u for u in range(pattern.n) if u not in placed_set), key=score)
        placed.append(v)
        placed_set.add(v)
    return tuple(placed)


@lru_cache(maxsize=256)
def _plan(pattern: Hypergraph) -> _Plan:
    parts = _partite_parts(pattern)
    blocks = parts or ()
    if parts is not None:
        # One vertex per part in turn, so edges close as early as they can.
        order = tuple(p[i] for i in range(max(map(len, parts)))
                      for p in parts if i < len(p))
    elif (shape := _kst_shape(pattern)) is not None:
        core, blocks = shape
        order = core + tuple(v for g in blocks for v in g)
    else:
        order = _generic_order(pattern)
    # An edge is checked once its last vertex (in placement order) lands.
    position = {v: i for i, v in enumerate(order)}
    checks: list[list[VertexSet]] = [[] for _ in order]
    for e in pattern.edges:
        last = max(e, key=position.__getitem__)
        checks[position[last]].append(tuple(u for u in e if u != last))
    # Increasing images within a twin class keep one embedding per copy, and
    # the lexicographically first one survives.
    classes = _twin_classes(pattern)
    mates = [next(c for c in classes if c >> v & 1) for v in range(pattern.n)]
    twin = [next((j for j in range(i - 1, -1, -1) if mates[v] >> order[j] & 1), -1)
            for i, v in enumerate(order)]
    # Swapping two whole blocks of equal size (the parts of a complete
    # partite pattern, the leaf groups of a K_{s,t} shape) is an automorphism
    # too: the first vertex of each block goes above that of the previous one.
    for prev, block in zip(blocks, blocks[1:]):
        if len(prev) == len(block):
            twin[position[block[0]]] = position[prev[0]]
    return _Plan(order, tuple(map(tuple, checks)), tuple(twin))


@lru_cache(maxsize=8)
def _links(host: Hypergraph) -> dict[int, int]:
    """Bitmask of each (k-1)-set (one that lies in an edge) to the bitmask
    of the vertices that complete it to an edge."""
    links: dict[int, int] = {}
    for e in host.edges:
        full = 0
        for v in e:
            full |= 1 << v
        for v in e:
            key = full ^ (1 << v)
            links[key] = links.get(key, 0) | (1 << v)
    return links


def _twin_classes(graph: Hypergraph) -> list[int]:
    """Vertex masks of the graph's twin classes, by smallest vertex.  Each
    vertex u is tested against one member v of each earlier class that can
    hold a twin: for any rest r of u (the mask e - u of an edge e through
    u), a twin lies in r or completes r to an edge, so the candidates are r
    and its link.  The swap of u and v is an automorphism exactly when u and
    v have equal degrees and, for every rest r of u, v is in r or in r's
    link: it fixes the edges through both, maps an edge r + u that misses v
    to r + v, an edge exactly when v is in r's link, and so maps the edges
    through u into those through v, onto them when the degrees are equal;
    as an involution it then maps the edges through v back."""
    rests: list[list[int]] = [[] for _ in range(graph.n)]
    for e in graph.edges:
        full = 0
        for v in e:
            full |= 1 << v
        for v in e:
            rests[v].append(full ^ (1 << v))
    link = _links(graph)
    bare = 0                                    # the vertices in no edge
    class_of: list[int] = []
    classes: list[int] = []
    for u, mine in enumerate(rests):
        if mine:
            candidates = (mine[0] | link[mine[0]]) & ((1 << u) - 1)
        else:
            candidates = bare
            bare |= 1 << u
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            if len(mine) == len(rests[v]) and all(
                    r >> v & 1 or link[r] >> v & 1 for r in mine):
                class_of.append(class_of[v])
                classes[class_of[v]] |= 1 << u
                break
            candidates &= ~classes[class_of[v]]
        else:
            class_of.append(len(classes))
            classes.append(1 << u)
    return classes


def _check_pair(host: Hypergraph, pattern: Hypergraph) -> None:
    if host.k != pattern.k:
        raise ValidationError(
            f"uniformity mismatch: host is {host.k}-uniform, pattern {pattern.k}-uniform")


# -- ordered bitset embedding -------------------------------------------------


def _place(host: Hypergraph, pattern: Hypergraph,
           leaf: Callable[[list[int], int, int], bool]) -> None:
    """Ordered bitset placement of the pattern into the host.

    Pattern vertices are placed in plan order.  The candidates for the next
    one are the free vertices, ANDed with the link of every (k-1)-set its
    placement closes, and kept only above the image its twin entry names;
    they are tried in increasing order, so embeddings come in lexicographic
    order, read in plan order.  Once every vertex but the last is placed,
    `leaf(bits, used, candidates)` gets the placed images (1 << image per
    pattern vertex), their mask and the nonzero candidate mask of the last
    vertex; the search stops when it returns True.
    """
    plan = _plan(pattern)
    link = _links(host).get
    order, checks, twin = plan.order, plan.checks, plan.twin
    bits = [0] * pattern.n                      # 1 << image, per placed vertex
    everything = (1 << host.n) - 1
    last = len(order) - 1

    def place(pos: int, free: int) -> bool:
        candidates = free
        for others in checks[pos]:
            key = 0
            for u in others:
                key |= bits[u]
            candidates &= link(key, 0)
            if not candidates:
                return False
        if twin[pos] >= 0:
            candidates &= -(bits[order[twin[pos]]] << 1)
        if pos == last:
            return bool(candidates) and leaf(bits, everything ^ free, candidates)
        fv = order[pos]
        while candidates:
            low = candidates & -candidates
            bits[fv] = low
            if place(pos + 1, free ^ low):
                return True
            candidates ^= low
        return False

    place(0, everything)


def contains_copy(host: Hypergraph, pattern: Hypergraph) -> Embedding | None:
    """First copy of the pattern in the host, or None (verified exhaustive):
    the lexicographically first embedding, read in the plan's order.

    Vertices need not be spanned; the copy may use any host vertices.
    """
    _check_pair(host, pattern)
    if pattern.n > host.n:
        return None
    if pattern.edge_count == 0:
        return Embedding(tuple(range(pattern.n)))
    last = _plan(pattern).order[-1]
    found: list[Embedding] = []

    def leaf(bits: list[int], used: int, candidates: int) -> bool:
        bits[last] = candidates & -candidates
        found.append(Embedding(tuple(b.bit_length() - 1 for b in bits)))
        return True

    _place(host, pattern, leaf)
    return found[0] if found else None


# -- copy-set enumeration ----------------------------------------------------


def _copy_masks(host: Hypergraph, pattern: Hypergraph) -> dict[int, tuple[int, ...]]:
    """Vertex mask of every copy of the pattern in the host, mapped to the
    images of the first embedding (in `_place` order) that reaches it."""
    last = _plan(pattern).order[-1]
    reached: dict[int, tuple[int, ...]] = {}

    def leaf(bits: list[int], used: int, candidates: int) -> bool:
        while candidates:
            low = candidates & -candidates
            mask = used | low
            if mask not in reached:
                bits[last] = low
                reached[mask] = tuple(b.bit_length() - 1 for b in bits)
            candidates ^= low
        return False

    _place(host, pattern, leaf)
    return reached


class _Witnesses(Mapping):
    """Read-only map of each copy set, in lexicographic order, to its
    witness: the first embedding that reached it, built each time it is
    read."""

    def __init__(self, first: dict[VertexSet, tuple[int, ...]]):
        self._first = first

    def __getitem__(self, s: VertexSet) -> Embedding:
        return Embedding(self._first[s])

    def __contains__(self, s: object) -> bool:
        return s in self._first

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self._first)

    def __len__(self) -> int:
        return len(self._first)

    def __repr__(self) -> str:
        return repr(dict(self))


def enumerate_copy_sets(host: Hypergraph, pattern: Hypergraph,
                        budget: int | None = None) -> CopySetEnumeration:
    """All vertex sets spanned by a pattern copy, in lexicographic order.

    The sets are grown by the embedder (`_copy_masks`).  A set's witness is
    the first embedding that reached it, built when it is read, so a search
    that prints no copy builds no witness.  The number of t-subsets,
    C(n, t), is charged to the budget.
    """
    _check_pair(host, pattern)
    if pattern.n == 0:
        raise ValidationError("pattern has no vertices")
    if pattern.n > host.n:
        return CopySetEnumeration((), {})
    charge(math.comb(host.n, pattern.n), budget, "copy-set enumeration")
    first = dict(sorted((tuple(sorted(images)), images)
                        for images in _copy_masks(host, pattern).values()))
    return CopySetEnumeration(tuple(first), _Witnesses(first))


# -- exact cover -------------------------------------------------------------


def _profile_units(n: int, classes: Sequence[int]) -> list[int] | None:
    """Per vertex, its unit in the profile key of a vertex mask, the sum of
    its vertices' units: a vertex in a single-vertex class is its own bit,
    and a larger class counts its vertices in a field above bit n.  None
    when every class is a single vertex, where the key is the mask."""
    big = [c for c in classes if c & (c - 1)]
    if not big:
        return None
    units = [1 << v for v in range(n)]
    shift = n
    for c in big:
        scan = c
        while scan:
            units[(scan & -scan).bit_length() - 1] = 1 << shift
            scan &= scan - 1
        shift += c.bit_count().bit_length()
    return units


def _exact_cover_first(sets: Sequence[VertexSet], masks: Sequence[int],
                       cols: Sequence[int], index: dict[int, int],
                       target: int, classes: Sequence[int] = ()) -> list[int] | None:
    """First exact cover of the vertex mask `target` by the sets, distinct
    t-sets, under the fail-first column rule: branch on the uncovered vertex
    v with the fewest live candidates, counted as
    `(live & cols[v]).bit_count()`, ties to the smallest id, failing at once
    on a vertex with none; try them in ascending index (input) order.  The
    sets through any vertex outside `target` are dead from the start, and
    choosing a set kills the sets through its vertices, so at every node
    `live` is exactly the sets inside `uncovered`: a node's outcome depends
    on `uncovered` alone.  So an option that leaves t vertices is not
    searched: the only t-set inside them is the set of them, and `index`
    (mask to set index) says whether it is a candidate.

    `classes` are vertex masks of twin classes of the host whose copy sets
    the sets are (`_twin_classes`): a permutation inside them maps the sets
    onto themselves, so the outcome depends only on the profile of
    `uncovered`, its count in each class.  Each node carries `state`, its
    key: the packed profile (`_profile_units`) when some class has two
    vertices or more, else (no classes given, or all single) the mask
    itself.  A set's key, the sum of its vertices' units, is subtracted to
    reach the child's.  A node whose
    options have all failed puts its key in `dead`, and an option that
    leaves more than t vertices is skipped, before its child's `live` is
    built, when the child's key is in `dead`.  This prunes only failing
    subtrees and keeps the branch order."""
    chosen: list[int] = []
    dead: set[int] = set()
    units = _profile_units(len(cols), classes)
    if units is None:
        key, state = masks.__getitem__, target
    else:
        def key(ci: int) -> int:
            return sum(map(units.__getitem__, sets[ci]))
        state = sum(u for v, u in enumerate(units) if target >> v & 1)
    t = len(sets[0]) if sets else 0
    live = (1 << len(sets)) - 1
    for v, col in enumerate(cols):
        if not target >> v & 1:
            live ^= live & col

    def cover(uncovered: int, state: int, live: int) -> bool:
        if uncovered == 0:
            return True
        best, best_count = -1, len(sets) + 1
        scan = uncovered
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            count = (live & cols[v]).bit_count()
            if count == 0:
                return False
            if count < best_count:
                best, best_count = v, count
        options = live & cols[best]
        while options:
            low = options & -options
            ci = low.bit_length() - 1
            rest = uncovered ^ masks[ci]
            if rest.bit_count() == t:
                if rest in index:
                    chosen.extend((ci, index[rest]))
                    return True
            elif (after := state - key(ci)) not in dead:
                touching = 0
                for u in sets[ci]:
                    touching |= cols[u]
                chosen.append(ci)
                if cover(rest, after, live ^ (live & touching)):
                    return True
                chosen.pop()
            options ^= low
        dead.add(state)
        return False

    if cover(target, state, live):
        return chosen
    return None


def _max_packing_first(sets: Sequence[VertexSet], masks: Sequence[int],
                       cols: Sequence[int], t: int) -> list[int]:
    """Largest disjoint family of the t-sets, by branch and bound on the
    smallest available vertex: each live candidate through it in ascending
    index order, then leaving it uncovered, as the next pass of a loop, so
    the search nests once per chosen copy.  A node is cut when covering
    every available vertex could not beat the incumbent, which also ends
    the search when nothing is available."""
    best: list[int] = []
    current: list[int] = []

    def search(available: int, live: int) -> None:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        while len(current) + available.bit_count() // t > len(best):
            v = (available & -available).bit_length() - 1
            through = options = live & cols[v]
            while options:
                low = options & -options
                ci = low.bit_length() - 1
                touching = 0
                for u in sets[ci]:
                    touching |= cols[u]
                current.append(ci)
                search(available ^ masks[ci], live ^ (live & touching))
                current.pop()
                options ^= low
            available ^= 1 << v
            live ^= through

    search((1 << len(cols)) - 1, (1 << len(sets)) - 1)
    return best


def _candidate_tables(n: int, sets: Sequence[VertexSet]
                      ) -> tuple[list[int], list[int], dict[int, int]]:
    """Each set's vertex mask, each vertex's column (the bitset of the sets
    through it) and the index of each mask: the sets are distinct."""
    masks = [sum(1 << v for v in s) for s in sets]
    cols = [bytearray((len(sets) + 7) // 8) for _ in range(n)]
    for ci, s in enumerate(sets):
        for v in s:
            cols[v][ci >> 3] |= 1 << (ci & 7)
    index = {m: ci for ci, m in enumerate(masks)}
    return masks, [int.from_bytes(c, "little") for c in cols], index


def _too_deep(host: Hypergraph, pattern: Hypergraph) -> ValidationError:
    return ValidationError(
        f"search too deep for n/t = {host.n}/{pattern.n}: it nests past the "
        f"interpreter's recursion limit of {sys.getrecursionlimit()}")


def has_perfect_tiling(host: Hypergraph, pattern: Hypergraph,
                       budget: int | None = None) -> TilingOutcome:
    """Perfect-tiling search: certificate, or a verified-exhaustive none.

    A host order not divisible by the pattern order is reported as none
    with the distinguished divisibility reason, without any search.  The
    cover recurses once per chosen copy; a search that nests past the
    interpreter's recursion limit raises ValidationError.
    """
    _check_pair(host, pattern)
    if pattern.n == 0:
        raise ValidationError("pattern has no vertices")
    if host.n % pattern.n != 0:
        return TilingOutcome(None, REASON_DIVISIBILITY)
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    try:
        solution = _exact_cover_first(enum.sets, *_candidate_tables(host.n, enum.sets),
                                      (1 << host.n) - 1, _twin_classes(host))
    except RecursionError:
        raise _too_deep(host, pattern) from None
    if solution is None:
        return TilingOutcome(None, REASON_EXHAUSTED)
    embeddings = tuple(enum.witnesses[enum.sets[ci]] for ci in solution)
    return TilingOutcome(TilingCertificate(embeddings, tuple(range(host.n))), REASON_FOUND)


def max_tiling(host: Hypergraph, pattern: Hypergraph,
               budget: int | None = None) -> tuple[int, TilingCertificate]:
    """Largest vertex-disjoint family of pattern copies, by branch and bound
    over the copy sets (see `_max_packing_first`).  The packing recurses once
    per chosen copy; a search that nests past the interpreter's recursion
    limit raises ValidationError."""
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    masks, cols, _ = _candidate_tables(host.n, enum.sets)
    try:
        best = _max_packing_first(enum.sets, masks, cols, pattern.n)
    except RecursionError:
        raise _too_deep(host, pattern) from None
    embeddings = tuple(enum.witnesses[enum.sets[ci]] for ci in best)
    covered = vertex_set(v for ci in best for v in enum.sets[ci])
    return len(best), TilingCertificate(embeddings, covered)


def copies_of_type(host: Hypergraph, pattern: Hypergraph, partition: Partition,
                   type_vector: Sequence[int], budget: int | None = None) -> list[VertexSet]:
    """Copy sets whose intersection profile with the partition equals the type."""
    tv = tuple(type_vector)
    if partition.n != host.n:
        raise ValidationError(
            f"partition covers {partition.n} vertices, host has {host.n}")
    if len(tv) != len(partition.parts):
        raise ValidationError(
            f"type vector has {len(tv)} coordinates, partition has {len(partition.parts)} parts")
    if any(c < 0 for c in tv):
        raise ValidationError(f"type vector has a negative coordinate: {tv}")
    if sum(tv) != pattern.n:
        raise ValidationError(
            f"type vector sums to {sum(tv)}, pattern has {pattern.n} vertices")
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    return [s for s in enum.sets if partition.index_vector(s) == tv]


def verify_certificate(host: Hypergraph, pattern: Hypergraph,
                       certificate: TilingCertificate,
                       require_perfect: bool = False) -> bool:
    """Check a certificate against the host: valid embeddings, pairwise
    disjoint, covered set consistent, and (when asked) covering V(host)."""
    try:
        _check_pair(host, pattern)
    except ValidationError:
        return False
    edge_set = host.edge_set()
    seen: set[int] = set()
    for emb in certificate.embeddings:
        if len(emb.images) != pattern.n:
            return False
        if len(set(emb.images)) != pattern.n:
            return False
        if any(v < 0 or v >= host.n for v in emb.images):
            return False
        if any(tuple(sorted(emb.images[u] for u in e)) not in edge_set
               for e in pattern.edges):
            return False
        if seen.intersection(emb.images):
            return False
        seen.update(emb.images)
    if tuple(sorted(seen)) != certificate.covered:
        return False
    if require_perfect and certificate.covered != tuple(range(host.n)):
        return False
    return True
