"""Slow reference implementations used to pin expected values.

Everything here trades speed for obviousness: direct counting with
itertools, no pruning, no caching, and no code shared with the package
under test.  Tests compare the fast implementations against these.  The
one exception to "no pruning", `pruned_ordered_embeddings`, reaches plans
too long for a permutation scan; it is itself tested against
`ordered_embeddings`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def codegree(n: int, edges, s_set) -> int:
    key = set(s_set)
    return sum(1 for e in edges if key <= set(e))


def index_vector(parts, s_set) -> tuple[int, ...]:
    """How many vertices of the set lie in each part, in part order."""
    return tuple(len(set(part) & set(s_set)) for part in parts)


def min_codegree(n: int, edges, s: int) -> int:
    subs = list(itertools.combinations(range(n), s))
    if not subs:
        return len(edges)
    return min(codegree(n, edges, sub) for sub in subs)


def links(n: int, k: int, edges) -> dict:
    """Each (k-1)-subset of range(n) that some edge contains, as a vertex
    bitmask, to the bitmask of the vertices that complete it to an edge."""
    eset = {frozenset(e) for e in edges}
    out = {}
    for sub in itertools.combinations(range(n), k - 1):
        completions = sum(1 << v for v in range(n)
                          if v not in sub and frozenset(sub + (v,)) in eset)
        if completions:
            out[sum(1 << v for v in sub)] = completions
    return out


def rainbow_colorings(n: int, k: int, edges):
    """All surjective k-colorings of range(n) under which every edge is rainbow."""
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        if all(len({assign[v] for v in e}) == k for e in edges):
            yield assign


def partitions_by_coloring(n: int, k: int, edges) -> set:
    """Canonical unordered class partitions, deduplicated across color swaps."""
    found = set()
    for assign in rainbow_colorings(n, k, edges):
        classes = tuple(sorted(
            tuple(v for v in range(n) if assign[v] == c) for c in range(k)))
        found.add(classes)
    return found


def sigma_by_coloring(n: int, k: int, edges) -> Fraction | None:
    """min class size / n over all realisations; None when not k-partite."""
    best = None
    for classes in partitions_by_coloring(n, k, edges):
        val = Fraction(min(len(c) for c in classes), n)
        if best is None or val < best:
            best = val
    return best


def common_completions(n: int, k: int, edges, x: int, y: int) -> int:
    """Number of (k-1)-sets S avoiding {x, y} with S+x and S+y both edges."""
    eset = {frozenset(e) for e in edges}
    rest = sorted(set(range(n)) - {x, y})
    count = 0
    for sub in itertools.combinations(rest, k - 1):
        if frozenset(sub + (x,)) in eset and frozenset(sub + (y,)) in eset:
            count += 1
    return count


def product_vertex(q: int, v: int) -> tuple[int, int]:
    """Vertex v of the field product graph as a pair of nonzero residues mod q."""
    return v // (q - 1) + 1, v % (q - 1) + 1


def product_pair_degrees(q: int) -> dict:
    """Pair degrees of the field product 3-graph for a prime q, by direct count.

    Vertices are the pairs of nonzero residues mod q, labelled as in
    product_vertex; {u, v, w} is an edge iff u1*v1*w1 + u2*v2*w2 = 1 mod q.
    Returns {(u, v): number of third vertices w completing an edge} for
    every u < v.
    """
    if q < 3 or any(q % d == 0 for d in range(2, q)):
        raise ValueError(f"q must be an odd prime, got {q}")
    n = (q - 1) ** 2
    pts = [product_vertex(q, v) for v in range(n)]
    degrees = {}
    for u, v in itertools.combinations(range(n), 2):
        a = pts[u][0] * pts[v][0]
        b = pts[u][1] * pts[v][1]
        degrees[(u, v)] = sum(
            1 for w, (x, y) in enumerate(pts)
            if w != u and w != v and (a * x + b * y) % q == 1)
    return degrees


def product_edges(q: int, poly=None) -> list:
    """Edges of the field product 3-graph by scanning every triple.

    The field is the integers mod q for a prime q.  For q = p^m pass the
    monic reduction polynomial (coefficients ascending, leading 1 included):
    element i is then the polynomial whose coefficients are the base-p
    digits of i, lowest first.  Vertices are labelled as in product_vertex,
    and {u, v, w} is an edge iff u1*v1*w1 + u2*v2*w2 = 1.
    """
    if poly is None:
        p, m = q, 1
    else:
        m = len(poly) - 1
        p = next(d for d in range(2, q + 1) if q % d == 0)

    def digits(a: int) -> list:
        return [a // p ** i % p for i in range(m)]

    def number(coeffs) -> int:
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    def times(a: int, b: int) -> int:
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for d in range(2 * m - 2, m - 1, -1):
            top, prod[d] = prod[d], 0
            for j in range(m):
                prod[d - m + j] -= top * poly[j]
        return number(prod[:m])

    add = [[number(x + y for x, y in zip(digits(a), digits(b))) for b in range(q)]
           for a in range(q)]
    mul = [[times(a, b) for b in range(q)] for a in range(q)]
    pts = [product_vertex(q, v) for v in range((q - 1) ** 2)]
    return [(u, v, w) for u, v, w in itertools.combinations(range(len(pts)), 3)
            if add[mul[mul[pts[u][0]][pts[v][0]]][pts[w][0]]]
                  [mul[mul[pts[u][1]][pts[v][1]]][pts[w][1]]] == 1]


def mirrored_mixed_degrees(q: int) -> dict:
    """Mixed pair degrees of the mirrored product 3-graph for a prime q, by
    direct count.

    Base vertex v and mirror vertex n0 + v (n0 = (q-1)^2) both stand for the
    pair product_vertex(q, v); {u, v, n0 + w} with base vertices u != v is
    an edge iff u1*v1*w1 + u2*v2*w2 = 1 mod q, and w may be u or v.  Returns
    {(u, n0 + w): number of base vertices v != u completing an edge} for
    every base u and every w.
    """
    if q < 3 or any(q % d == 0 for d in range(2, q)):
        raise ValueError(f"q must be an odd prime, got {q}")
    n0 = (q - 1) ** 2
    pts = [product_vertex(q, v) for v in range(n0)]
    return {(u, n0 + w): sum(
                1 for v in range(n0)
                if v != u and (pts[u][0] * pts[v][0] * pts[w][0]
                               + pts[u][1] * pts[v][1] * pts[w][1]) % q == 1)
            for u in range(n0) for w in range(n0)}


def block_tiling_exists(n: int, host_edges, pat_n: int, pat_edges) -> bool:
    """Perfect tiling by scanning partitions into blocks and all bijections."""
    if pat_n <= 0 or n % pat_n:
        return False
    eset = {frozenset(e) for e in host_edges}
    pedges = [tuple(e) for e in pat_edges]

    def embeds(block) -> bool:
        for perm in itertools.permutations(block):
            if all(frozenset(perm[v] for v in e) in eset for e in pedges):
                return True
        return False

    def rec(free: frozenset) -> bool:
        if not free:
            return True
        head = min(free)
        rest = sorted(free - {head})
        for tail in itertools.combinations(rest, pat_n - 1):
            block = (head,) + tail
            if embeds(block) and rec(free - set(block)):
                return True
        return False

    return rec(frozenset(range(n)))


def connector_count(n: int, host_edges, pat_n: int, pat_edges,
                    x: int, y: int, i: int) -> int:
    """(x, y)-connectors of length i by their definition: the sets S of
    pat_n*i - 1 vertices avoiding x and y such that the subgraphs induced on
    S + x and on S + y both have perfect tilings, each decided by
    block_tiling_exists after relabelling the block to 0..len-1."""
    def tiles(block) -> bool:
        label = {v: j for j, v in enumerate(sorted(block))}
        inside = [[label[v] for v in e] for e in host_edges
                  if all(v in label for v in e)]
        return block_tiling_exists(len(label), inside, pat_n, pat_edges)

    rest = [v for v in range(n) if v != x and v != y]
    return sum(1 for s in itertools.combinations(rest, pat_n * i - 1)
               if tiles(s + (x,)) and tiles(s + (y,)))


def first_witness(host_edges, pat_edges, vertex_set, order):
    """The witness rule for copy sets, by brute force over bijections.

    Returns images[v] for each pattern vertex v in 0..len(vertex_set)-1, or
    None when no bijection onto vertex_set keeps every pattern edge a host
    edge.  The witness is the lexicographically first tuple of images, read
    in the vertex order `order`.
    """
    eset = {frozenset(e) for e in host_edges}
    vs = sorted(vertex_set)
    for perm in itertools.permutations(vs):
        images = dict(zip(order, perm))
        if all(frozenset(images[v] for v in e) in eset for e in pat_edges):
            return tuple(images[v] for v in range(len(vs)))
    return None


def copy_sets_by_scan(n: int, host_edges, pat_n: int, pat_edges, order):
    """Copy-set enumeration by scanning every pat_n-subset of range(n) in
    lexicographic order, with first_witness as the witness rule.

    Returns (sets, witnesses): the spanned subsets and each one's witness
    images.
    """
    sets, witnesses = [], {}
    for subset in itertools.combinations(range(n), pat_n):
        witness = first_witness(host_edges, pat_edges, subset, order)
        if witness is not None:
            sets.append(subset)
            witnesses[subset] = witness
    return tuple(sets), witnesses


def first_copy(n: int, host_edges, pat_edges, order):
    """The lexicographically first injective map of the pattern into
    range(n), read in the vertex order `order`, that keeps every pattern
    edge a host edge: images[v] per pattern vertex v, or None."""
    eset = {frozenset(e) for e in host_edges}
    for perm in itertools.permutations(range(n), len(order)):
        images = dict(zip(order, perm))
        if all(frozenset(images[v] for v in e) in eset for e in pat_edges):
            return tuple(images[v] for v in range(len(order)))
    return None


def ordered_embeddings(n: int, host_edges, pat_edges, order, twin):
    """Every injective map of the pattern into range(n) that keeps each
    pattern edge a host edge and puts the image of order[p] above that of
    order[twin[p]] wherever twin[p] >= 0, in lexicographic order read in
    `order`: images[v] per pattern vertex v."""
    eset = {frozenset(e) for e in host_edges}
    found = []
    for perm in itertools.permutations(range(n), len(order)):
        if any(t >= 0 and perm[p] < perm[t] for p, t in enumerate(twin)):
            continue
        images = dict(zip(order, perm))
        if all(frozenset(images[v] for v in e) in eset for e in pat_edges):
            found.append(tuple(images[v] for v in range(len(order))))
    return found


def pruned_ordered_embeddings(n: int, host_edges, pat_edges, order, twin):
    """The list of `ordered_embeddings`, for plans of 20 or more positions,
    where a scan of every permutation is out of reach.

    The maps are built one position at a time, in itertools' order, and a
    prefix is dropped as soon as it breaks a twin bound or maps an edge
    whose vertices it has all placed to a non-edge: every map extending it
    fails the same test, so the list is the same.
    """
    eset = {frozenset(e) for e in host_edges}
    where = {v: p for p, v in enumerate(order)}
    placed_at = [[] for _ in order]             # per position: the edges it completes
    for e in pat_edges:
        placed_at[max(where[v] for v in e)].append(e)
    images = [0] * len(order)                   # per pattern vertex
    used: set[int] = set()
    found = []

    def extend(p: int) -> None:
        if p == len(order):
            found.append(tuple(images))
            return
        low = images[order[twin[p]]] + 1 if twin[p] >= 0 else 0
        for x in range(low, n):
            if x in used:
                continue
            images[order[p]] = x
            if all(frozenset(images[v] for v in e) in eset for e in placed_at[p]):
                used.add(x)
                extend(p + 1)
                used.discard(x)

    extend(0)
    return found


def twin_classes(n: int, edges) -> list[int]:
    """Vertex masks of the twin classes, by smallest vertex: the class of u
    is u and every v such that swapping u and v in every edge gives back
    the same edge set."""
    eset = {frozenset(e) for e in edges}

    def twins(u: int, v: int) -> bool:
        swap = {u: v, v: u}
        return {frozenset(swap.get(w, w) for w in e) for e in eset} == eset

    classes = {sum(1 << v for v in range(n) if v == u or twins(u, v)) for u in range(n)}
    return sorted(classes, key=lambda c: c & -c)


def host_sorted(n: int, host_edges, embeddings, order):
    """The embeddings (images[v] per pattern vertex v) whose images increase
    within each class of `twin_classes(n, host_edges)`, read in the vertex
    order `order`, in their given order."""
    classes = twin_classes(n, host_edges)

    def increasing(images) -> bool:
        seen = [-1] * len(classes)
        for v in order:
            c = next(i for i, c in enumerate(classes) if c >> images[v] & 1)
            if images[v] < seen[c]:
                return False
            seen[c] = images[v]
        return True

    return [images for images in embeddings if increasing(images)]


def first_cover(n: int, sets):
    """The first exact cover of range(n) by the given sets, as indices.

    The fail-first rule, rebuilt from scratch at every node: branch on the
    uncovered vertex with the fewest sets inside the uncovered part (ties
    to the smallest vertex; a vertex with none fails the node at once), and
    try its sets in index order.  None when no exact cover exists.
    """
    blocks = [frozenset(s) for s in sets]

    def cover(uncovered: frozenset):
        if not uncovered:
            return []
        best = None
        for v in sorted(uncovered):
            alive = [i for i, b in enumerate(blocks) if v in b and b <= uncovered]
            if not alive:
                return None
            if best is None or len(alive) < len(best):
                best = alive
        for i in best:
            rest = cover(uncovered - blocks[i])
            if rest is not None:
                return [i] + rest
        return None

    return cover(frozenset(range(n)))


def first_max_packing(n: int, sets, t: int):
    """The largest family of disjoint sets that branch and bound finds first.

    Branch on the smallest available vertex: take each set that contains it
    and lies in the available part, in index order, then leave the vertex
    out.  A family replaces the incumbent only when strictly larger, and a
    node is cut when even t-sized sets over every available vertex could
    not beat the incumbent.  Returns the family's indices in choice order.
    """
    blocks = [frozenset(s) for s in sets]
    best: list = []

    def search(available: frozenset, current: list) -> None:
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if not available or len(current) + len(available) // t <= len(best):
            return
        v = min(available)
        for i, b in enumerate(blocks):
            if v in b and b <= available:
                search(available - b, current + [i])
        search(available - {v}, current)

    search(frozenset(range(n)), [])
    return best


def c4_free_max_edges(n: int) -> int:
    """ex(n, K(2,2)) by scanning every graph on n vertices.  Usable for n <= 6."""
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") <= best:
            continue
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        ok = True
        for u in range(n):
            for v in range(u + 1, n):
                if bin(adj[u] & adj[v]).count("1") >= 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = bin(mask).count("1")
    return best


def lattice_member_box(generators, target, box: int) -> bool:
    """Integer-span membership with coefficients confined to [-box, box]."""
    dim = len(target)
    for coeffs in itertools.product(range(-box, box + 1), repeat=len(generators)):
        vec = tuple(
            sum(c * g[i] for c, g in zip(coeffs, generators)) for i in range(dim))
        if vec == tuple(target):
            return True
    return False


def greedy_barrier_split(n: int, edges, gamma):
    """The greedy swap search for a balanced barrier split, on vertex lists.

    Starts from A = {0, ..., n//2 - 1}; takes the first swap (u in A, w not
    in A, both ascending) that lowers the count of barrier edges missing
    from the host, and repeats to a local minimum.  Returns (A, missing) if
    missing <= gamma * n^3, else (None, None).
    """
    a_size = n // 2
    edge_sets = [set(e) for e in edges]
    barrier_total = (a_size * (a_size - 1) * (a_size - 2) // 6
                     + a_size * (n - a_size) * (n - a_size - 1) // 2)

    def missing_for(a_list) -> int:
        a = set(a_list)
        return barrier_total - sum(len(e & a) % 2 for e in edge_sets)

    a_list = list(range(a_size))
    missing = missing_for(a_list)
    improved = True
    while improved and missing > 0:
        improved = False
        for u in sorted(a_list):
            for w in sorted(set(range(n)) - set(a_list)):
                trial = [v for v in a_list if v != u] + [w]
                m2 = missing_for(trial)
                if m2 < missing:
                    a_list, missing, improved = trial, m2, True
                    break
            if improved:
                break
    if Fraction(missing) <= Fraction(gamma) * n ** 3:
        return tuple(sorted(a_list)), missing
    return None, None
