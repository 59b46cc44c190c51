"""Copy search and exact-cover tiling at desk scale.

Everything here is exhaustive and exact: a "none" answer means the search
space was fully explored (or the instance failed the divisibility
precondition, which is reported as a distinguished reason).  Searches are
single-threaded and deterministic: hosts, copy sets, and cover candidates
are always iterated in ascending or lexicographic order, so the
first witness found is a stable function of the input.

Vertices u and v are twins when swapping them is an automorphism.  Twinhood
is an equivalence, any permutation inside its classes is an automorphism,
and `_twin_classes` finds the classes of patterns and hosts alike from the
link table alone.

Pattern structure is analysed once per pattern and cached, and copies are
found by one search, an ordered bitset embedder: pattern vertices are
placed in a fixed order (one vertex per part in turn for complete partite
patterns, the core then the leaf groups for K_{s,t} shapes, most-constrained
first otherwise), the candidates for the next one are the free vertices
ANDed with the host's link bitset of every (k-1)-set it closes, and twins
and equal blocks (parts of equal size, leaf groups) take increasing images.
Candidates are tried in increasing order, so embeddings come in
lexicographic order, read in the placement order.  A position stops once
fewer candidates are left than the rest of its twin class needs (its room),
which cuts only empty subtrees.  Each pattern's plan is compiled once into
nested loops, one per position, and each link lookup sits at the depth where
its (k-1)-set's last vertex lands, so it is made once for all the positions
that close the set.  A forward check drops the second-to-last position's
candidates that no image of the last one completes to an edge; no embedding
is lost, also when the two are twins (`_compile`).  `contains_copy` returns
the first one.  Copy-set enumeration runs the embedder to every solution and
keeps each vertex set with the first embedding that reaches it as its
witness, built when it is read, so a search that returns no copy builds
none.  On a host with twins it also gives positions whose images share a
host twin class increasing images, which the first embedding onto each set
obeys (`_copy_masks`), so it reaches a set through fewer embeddings.

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
vertices in each class.  One key rule holds the profile: an uncovered
vertex whose class has one vertex is its own bit, and a larger class's
count sits in a field above the vertices, so on a host without twins the
key is the uncovered mask.  A failed node's key is remembered, and a choice
whose remaining vertices have a failed key is skipped before its node is
built.  Only failing subtrees are cut, so the branch order and the first
cover are unchanged.  Both searches are one loop over an explicit stack
with a frame per open ancestor (its state, the options it has still to try
and the set it chose), so how deep they go is bounded by the host, not by
the interpreter's recursion limit.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

from .budget import charge
from .core import (Hypergraph, Partition, VertexSet, _host_keep, _kst_shape, _links,
                   _partite_parts, _twin_classes, vertex_set)
from .errors import ValidationError


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
    twin: tuple[int, ...]                 # per position: the earlier position whose image it
                                          # must exceed (a twin or an equal block), or -1
    room: tuple[int, ...]                 # per position: positions from it on in its twin class
    kernel: Callable[..., bool]           # the search, compiled (`_compile`)


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
    """The pattern's placement order, twin bounds, room and compiled search.
    `room` counts twins, not the `twin` chain: a block's first vertex is no
    twin of the block before it, and has other candidates."""
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
    position = {v: i for i, v in enumerate(order)}
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
    room = tuple(sum(mates[v] >> u & 1 for u in order[i:]) for i, v in enumerate(order))
    return _Plan(order, tuple(twin), room, _compile(order, pattern.edges, twin, room))


# CPython nests at most 20 blocks statically in one function.
_LOOPS_PER_KERNEL = 19


def _compile(order: Sequence[int], edges: Sequence[VertexSet], twin: Sequence[int],
             room: Sequence[int], sort_host_twins: bool = False) -> Callable[..., bool]:
    """The plan's search as nested loops, compiled once per plan:
    `kernel(link, leaf, bits, everything)` runs `_place`'s search.  An edge
    is checked at the position of its last vertex in `order`, which closes
    the (k-1)-set of the others.

    Each position p but the last has a `while` loop over its candidates
    `c{p}`, taking the image bit `b{p}` and leaving the free mask `f{p+1}`.
    The loop ends once fewer than `room[p] - 1` candidates are left after
    `b{p}`.  That is exact: swapping p's vertex with a later twin maps each
    edge closing at p to one through the twin, so the twin meets the same
    links, goes above `b{p}` and sees a smaller free mask; the later twins
    need distinct images in what is left of `c{p}`, which only shrinks.
    The link of each (k-1)-set that a later position closes is looked up
    once, in the loop of the set's own last position, and ANDed into that
    later position's pending mask (`m{q}_{p}`, or the lookup `k{p}_{i}`
    itself); an empty one moves to the next candidate at once.  Such a
    candidate's subtree would be empty, so the embeddings and their order
    are those of one position at a time.  The last position calls the leaf
    inline.  One function holds at most _LOOPS_PER_KERNEL loops: the
    innermost calls the next, `kernel{i}`, with the free mask, the placed
    bits and the pending masks.  The source holds only integers from the
    plan.  Before the loop of the second-to-last position p, when the last
    one q has a pending mask and closes an edge S + p + q with S placed, a
    forward check keeps p's candidates in the link of S + w for a possible
    image w of q (free, in q's mask, above a placed twin bound), looking w
    up until they cover `c{p}`.  Every embedding puts q at such a w, and if
    q is p's twin, the swap of the two puts p's image in q's mask, so the
    room test at p stays exact.

    With `sort_host_twins` the kernel takes `keep` (`_host_keep`) after
    `everything`, and placing b leaves `f & keep[b]`, which also drops b's
    host twins below b, so positions whose images share a host twin class
    take increasing images (exact: see `_copy_masks`).  The free mask then
    no longer tells what is placed: the leaf gets the OR of the placed bits,
    and a split carries them all."""
    where = {v: i for i, v in enumerate(order)}
    closing: list[dict[tuple[int, ...], list[int]]] = [{} for _ in order]
    for e in edges:
        *at, q = sorted(where[v] for v in e)
        closing[at[-1]].setdefault(tuple(at), []).append(q)
    pending: dict[int, str] = {}                # position -> name of its pending mask
    head = "link, leaf, bits, everything" + (", keep" if sort_host_twins else "")
    src = [f"def kernel0({head}):", "    f0 = everything"]
    pad = "    "
    last = len(order) - 1
    for p, v in enumerate(order):
        terms = [f"f{p}"]
        if p in pending:
            terms.append(pending.pop(p))
        if twin[p] >= 0:
            terms.append(f"-(b{twin[p]} << 1)")
        src.append(f"{pad}c{p} = {' & '.join(terms)}")
        shared = [at[:-1] for at, targets in closing[p].items() if last in targets]
        if p == last - 1 and shared and last in pending:
            bound = f" & -(b{twin[last]} << 1)" if 0 <= twin[last] < p else ""
            key = "".join(f"b{j} | " for j in shared[0])
            src += [f"{pad}r = c{p}", f"{pad}w = f{p} & {pending[last]}{bound}",
                    f"{pad}while r and w:", f"{pad}    x = w & -w", f"{pad}    w ^= x",
                    f"{pad}    r &= ~link({key}x, 0)", f"{pad}c{p} ^= r"]
        if p == last:
            used = (f"everything ^ f{p}" if not sort_host_twins
                    else f"placed | b{p - 1}" if p else "0")
            src += [f"{pad}if c{p} and leaf(bits, {used}, c{p}):",
                    f"{pad}    return True"]
            break
        if sort_host_twins and p == last - 1:
            src.append(f"{pad}placed = {' | '.join(f'b{j}' for j in range(p)) or '0'}")
        src += [f"{pad}while c{p}:",
                f"{pad}    b{p} = c{p} & -c{p}",
                f"{pad}    c{p} ^= b{p}"]
        if room[p] == 2:
            src += [f"{pad}    if not c{p}:", f"{pad}        break"]
        elif room[p] > 2:
            src += [f"{pad}    if c{p}.bit_count() < {room[p] - 1}:", f"{pad}        break"]
        step = f"f{p} & keep[b{p}]" if sort_host_twins else f"f{p} ^ b{p}"
        src += [f"{pad}    bits[{v}] = b{p}", f"{pad}    f{p + 1} = {step}"]
        pad += "    "
        for i, (at, targets) in enumerate(closing[p].items()):
            found = f"k{p}_{i}"
            src += [f"{pad}{found} = link({' | '.join(f'b{j}' for j in at)}, 0)",
                    f"{pad}if not {found}:",
                    f"{pad}    continue"]
            for q in targets:
                if q in pending:
                    src += [f"{pad}m{q}_{p} = {pending[q]} & {found}",
                            f"{pad}if not m{q}_{p}:",
                            f"{pad}    continue"]
                    pending[q] = f"m{q}_{p}"
                else:
                    pending[q] = found
        if (p + 1) % _LOOPS_PER_KERNEL == 0 and p + 2 < len(order):
            later = set(twin[p + 1:])           # the placed bits read past this call
            if sort_host_twins:
                later.update(range(p + 1))      # the leaf's placed mask reads them all
            for keys in closing[p + 1:]:
                later.update(*keys)
            carried = ", ".join([f"f{p + 1}", *(f"b{j}" for j in range(p + 1) if j in later),
                                 *sorted(set(pending.values()))])
            call = f"kernel{(p + 1) // _LOOPS_PER_KERNEL}({head}, {carried})"
            src += [f"{pad}if {call}:", f"{pad}    return True", "    return False", f"def {call}:"]
            pad = "    "
    src.append("    return False")
    namespace: dict[str, Callable[..., bool]] = {}
    exec(compile("\n".join(src), "<plan kernel>", "exec"), namespace)
    return namespace["kernel0"]


@lru_cache(maxsize=256)
def _sorted_kernel(pattern: Hypergraph) -> Callable[..., bool]:
    """The plan's search under the host twin rule (`_compile`), compiled on
    first use."""
    plan = _plan(pattern)
    return _compile(plan.order, pattern.edges, plan.twin, plan.room, sort_host_twins=True)


def _check_pair(host: Hypergraph, pattern: Hypergraph) -> None:
    if host.k != pattern.k:
        raise ValidationError(
            f"uniformity mismatch: host is {host.k}-uniform, pattern {pattern.k}-uniform")


# -- ordered bitset embedding -------------------------------------------------


def _place(host: Hypergraph, pattern: Hypergraph,
           leaf: Callable[[list[int], int, int], bool], sort_host_twins: bool = False) -> None:
    """Ordered bitset placement of the pattern into the host.

    Pattern vertices are placed in plan order.  The candidates for the next
    one are the free vertices, ANDed with the link of every (k-1)-set its
    placement closes, and kept only above the image its twin entry names;
    they are tried in increasing order, so embeddings come in lexicographic
    order, read in plan order.  Once every vertex but the last is placed,
    `leaf(bits, used, candidates)` gets the placed images (1 << image per
    pattern vertex), their mask and the nonzero candidate mask of the last
    vertex; the search stops when it returns True.

    The plan is compiled to nested loops, one per position (`_compile`),
    and each link lookup sits in the loop where its (k-1)-set's last vertex
    lands, so it is made once for every position that closes the set, and
    an empty link ends the candidate there, as too few candidates for the
    rest of a twin class (`room`) end the loop.  With `sort_host_twins`, on
    a host with a twin class of two or more vertices, positions whose images
    share a host class also take increasing images (`_sorted_kernel`).
    Other hosts, and patterns that are one twin class, whose images all
    increase already, run the plain kernel.  A pattern with more vertices
    than the host has no placement, and the search is not run.
    """
    if pattern.n > host.n:
        return
    plan = _plan(pattern)
    search = (_links(host).get, leaf, [0] * pattern.n, (1 << host.n) - 1)
    keep = _host_keep(host) if sort_host_twins and plan.room[0] < pattern.n else None
    if keep is None:
        plan.kernel(*search)
    else:
        _sorted_kernel(pattern)(*search, keep)


def contains_copy(host: Hypergraph, pattern: Hypergraph) -> Embedding | None:
    """First copy of the pattern in the host, or None (verified exhaustive):
    the lexicographically first embedding, read in the plan's order.

    Vertices need not be spanned; the copy may use any host vertices.
    """
    _check_pair(host, pattern)
    if pattern.edge_count == 0:
        return Embedding(tuple(range(pattern.n))) if pattern.n <= host.n else None
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
    images of the first embedding (in `_place` order) that reaches it.

    The search sorts host twins: positions whose images land in one host
    twin class take increasing images, in plan order, so a twin-rich host
    reaches each set through few embeddings (`complete18-kst322`: one per
    set, against 45).  That keeps every set and its witness.  Let phi be the
    lexicographically first embedding onto a set S, read in plan order.  If
    phi put v at position i and its host twin u < v at a later position j,
    then (u v) o phi would be an embedding onto S, equal to phi before i and
    smaller at i.  So phi obeys the host rule, as it obeys the pattern's
    twin and block rules, and every rule only drops embeddings: the visit
    order is a subsequence of the plain search's, and phi is still the first
    to reach S."""
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

    _place(host, pattern, leaf, sort_host_twins=True)
    return reached


class _Witnesses(Mapping):
    """Read-only map of each copy set, in lexicographic order, to its
    witness: the first embedding that reached it, kept by vertex mask
    (`_copy_masks`) and built each time it is read."""

    def __init__(self, sets: tuple[VertexSet, ...], first: dict[int, tuple[int, ...]]):
        self._sets, self._first = sets, first

    def __getitem__(self, s: VertexSet) -> Embedding:
        images = self._first.get(sum(1 << v for v in s)) if isinstance(s, tuple) else None
        if images is None or tuple(sorted(images)) != s:
            raise KeyError(s)
        return Embedding(images)

    def __iter__(self) -> Iterator[VertexSet]:
        return iter(self._sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __repr__(self) -> str:
        return repr(dict(self))


def enumerate_copy_sets(host: Hypergraph, pattern: Hypergraph,
                        budget: int | None = None) -> CopySetEnumeration:
    """All vertex sets spanned by a pattern copy, in lexicographic order.

    The sets are grown by the embedder (`_copy_masks`), which on a host
    with twins gives positions whose images share a twin class increasing
    images: that drops embeddings, never a set or its witness.  A set's
    witness is the first embedding that reached it, built when it is read,
    so a search that prints no copy builds no witness.  The number of t-subsets,
    C(n, t), is charged to the budget.
    """
    _check_pair(host, pattern)
    if pattern.n == 0:
        raise ValidationError("pattern has no vertices")
    charge(math.comb(host.n, pattern.n), budget, "copy-set enumeration")
    first = _copy_masks(host, pattern)
    sets = tuple(sorted(tuple(sorted(images)) for images in first.values()))
    return CopySetEnumeration(sets, _Witnesses(sets, first))


# -- exact cover -------------------------------------------------------------


# (sets, masks, cols, index, singles, fields): see `_table`
_Table = tuple[Sequence[VertexSet], list[int], list[int], dict[int, int], int,
               tuple[tuple[int, int], ...]]


def _exact_cover_first(table: _Table, target: int,
                       dead: set[int] | None = None) -> list[int] | None:
    """First exact cover of the vertex mask `target` by the table's sets,
    distinct t-sets, under the fail-first column rule: branch on the
    uncovered vertex v with the fewest live candidates, counted as
    `(live & cols[v]).bit_count()`, ties to the smallest id, failing at once
    on a vertex with none; try them in ascending index (input) order.  The
    sets through any vertex outside `target` are dead from the start, and
    choosing a set kills the sets through its vertices, so at every node
    `live` is exactly the sets inside `uncovered`: a node's outcome depends
    on `uncovered` alone.  So an option that leaves t vertices is not
    searched: the only t-set inside them is the set of them, and `index`
    (mask to set index) says whether it is a candidate.  A target of t
    vertices is decided by the same lookup, with no node.

    A permutation inside the twin classes the table was built with maps the
    sets onto themselves, so the outcome depends only on the profile of
    `uncovered`, its count in each class, which its key holds (`_table`).
    A node that fails, on a vertex with no live candidate or once all its
    options have failed, puts its key in `dead`, and an option that leaves
    more than t vertices is skipped, before its child's `live` is built,
    when the child's key is in `dead`.  This prunes only failing subtrees
    and keeps the branch order.  The root's key is never read: its failure
    ends the search.  A key fails or not by the table alone, whatever the
    target, so calls over one table may share one `dead` set."""
    sets, masks, cols, index, singles, fields = table
    t = len(sets[0]) if sets else 0
    if not target:
        return []
    if target.bit_count() == t:
        return [index[target]] if target in index else None
    if dead is None:
        dead = set()
    live = (1 << len(sets)) - 1
    for v, col in enumerate(cols):
        if not target >> v & 1:
            live ^= live & col

    def options_at(uncovered: int, live: int) -> int:
        """The live sets through the uncovered vertex with the fewest, or 0
        when some uncovered vertex has none."""
        best, best_count = -1, len(sets) + 1
        scan = uncovered
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            count = (live & cols[v]).bit_count()
            if count == 0:
                return 0
            if count < best_count:
                best, best_count = v, count
        return live & cols[best]

    # One frame per open ancestor: its uncovered mask, key, live sets,
    # options still to try, and the set it chose.
    stack: list[tuple[int, int, int, int, int]] = []
    uncovered, state, options = target, 0, options_at(target, live)
    while True:
        if options:
            low = options & -options
            options ^= low
            ci = low.bit_length() - 1
            rest = uncovered ^ masks[ci]
            if rest.bit_count() == t:
                if rest in index:
                    return [frame[4] for frame in stack] + [ci, index[rest]]
                continue
            after = rest & singles
            for c, shift in fields:
                after |= (rest & c).bit_count() << shift
            if after not in dead:
                touching = 0
                for u in sets[ci]:
                    touching |= cols[u]
                stack.append((uncovered, state, live, options, ci))
                uncovered, state, live = rest, after, live ^ (live & touching)
                options = options_at(rest, live)
        elif stack:
            dead.add(state)
            uncovered, state, live, options, _ = stack.pop()
        else:
            return None


def _max_packing_first(table: _Table, t: int) -> list[int]:
    """Largest disjoint family of the table's t-sets, by branch and bound on
    the smallest available vertex: each live candidate through it in
    ascending index order, then leaving it uncovered.  A node is cut when
    covering every available vertex could not beat the incumbent, which
    also ends the search when nothing is available."""
    sets, masks, cols = table[:3]
    best: list[int] = []
    # One frame per open ancestor: its available vertices and live sets, the
    # options still to try at its branch vertex, the set it chose, and the
    # branch vertex's bit and live sets, cleared when it is left uncovered.
    # The root has no branch vertex yet, so its first clearing does nothing.
    stack: list[tuple[int, int, int, int, int, int]] = []
    available, live = (1 << len(cols)) - 1, (1 << len(sets)) - 1
    bit = through = options = 0
    while True:
        while options:
            low = options & -options
            options ^= low
            ci = low.bit_length() - 1
            touching = 0
            for u in sets[ci]:
                touching |= cols[u]
            rest = available ^ masks[ci]
            depth = len(stack) + 1
            if depth > len(best):
                best = [frame[3] for frame in stack] + [ci]
            if depth + rest.bit_count() // t > len(best):
                stack.append((available, live, options, ci, bit, through))
                available, live = rest, live ^ (live & touching)
                bit = available & -available
                through = options = live & cols[bit.bit_length() - 1]
        available ^= bit
        live ^= through
        if len(stack) + available.bit_count() // t > len(best):
            bit = available & -available
            through = options = live & cols[bit.bit_length() - 1]
        elif stack:
            available, live, options, _, bit, through = stack.pop()
        else:
            return best


def _table(n: int, sets: Sequence[VertexSet], classes: Sequence[int] = ()) -> _Table:
    """The searches' table over the sets, distinct vertex sets of the
    vertices below n: the sets, each set's vertex mask, each vertex's column
    (the bitset of the sets through it), the index of each mask, and the
    layout of the exact cover's failed-state keys over the twin classes
    `classes` (`_twin_classes`): `singles`, the vertices whose class has one
    vertex, and per larger class its mask and the shift of its field, which
    starts above bit n and is as wide as the class size's bit length.  A
    vertex mask's key is its `singles` bits, each larger class's count in
    its field, so with no classes given it is the mask itself."""
    masks = [sum(1 << v for v in s) for s in sets]
    cols = [bytearray((len(sets) + 7) // 8) for _ in range(n)]
    for ci, s in enumerate(sets):
        for v in s:
            cols[v][ci >> 3] |= 1 << (ci & 7)
    index = {m: ci for ci, m in enumerate(masks)}
    singles, fields, shift = (1 << n) - 1, [], n
    for c in classes:
        if c & (c - 1):
            singles ^= c
            fields.append((c, shift))
            shift += c.bit_count().bit_length()
    return (sets, masks, [int.from_bytes(c, "little") for c in cols], index, singles,
            tuple(fields))


def has_perfect_tiling(host: Hypergraph, pattern: Hypergraph,
                       budget: int | None = None) -> TilingOutcome:
    """Perfect-tiling search: certificate, or a verified-exhaustive none.

    A host order not divisible by the pattern order is reported as none
    with the distinguished divisibility reason, without any search.
    """
    _check_pair(host, pattern)
    if pattern.n == 0:
        raise ValidationError("pattern has no vertices")
    if host.n % pattern.n != 0:
        return TilingOutcome(None, REASON_DIVISIBILITY)
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    solution = _exact_cover_first(_table(host.n, enum.sets, _twin_classes(host)),
                                  (1 << host.n) - 1)
    if solution is None:
        return TilingOutcome(None, REASON_EXHAUSTED)
    embeddings = tuple(enum.witnesses[enum.sets[ci]] for ci in solution)
    return TilingOutcome(TilingCertificate(embeddings, tuple(range(host.n))), REASON_FOUND)


def max_tiling(host: Hypergraph, pattern: Hypergraph,
               budget: int | None = None) -> tuple[int, TilingCertificate]:
    """Largest vertex-disjoint family of pattern copies, by branch and bound
    over the copy sets (see `_max_packing_first`)."""
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    best = _max_packing_first(_table(host.n, enum.sets), pattern.n)
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
    seen: set[int] = set()
    for emb in certificate.embeddings:
        if len(emb.images) != pattern.n:
            return False
        if len(set(emb.images)) != pattern.n:
            return False
        if any(v < 0 or v >= host.n for v in emb.images):
            return False
        if not all(host.has_edge(emb.images[u] for u in e) for e in pattern.edges):
            return False
        if seen.intersection(emb.images):
            return False
        seen.update(emb.images)
    if tuple(sorted(seen)) != certificate.covered:
        return False
    if require_perfect and certificate.covered != tuple(range(host.n)):
        return False
    return True
