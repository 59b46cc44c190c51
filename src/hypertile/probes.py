"""Finite, exact versions of the absorption-method quantities.

The asymptotic definitions used in absorption arguments (connector counts,
closeness, robust copy distributions, lattice transferrals, goodness, and
extremal witnesses) are evaluated here literally on a concrete host graph:
thresholds like eta * n^(ti-1) are compared in exact rational arithmetic,
and every count comes from exhaustive enumeration under the budget guard.
Connector probes build one copy-set table per host, kept for the next probe
of the same host and pattern; whether H[S + x] tiles is decided by the
exact cover restricted to the vertex mask of S + x.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .budget import charge
from .core import Hypergraph, Partition, TypeVector
from .errors import ValidationError
# has_perfect_tiling stays bound here because hbench's tracer self-test reads it.
from .solver import (_check_pair, _copy_masks, _exact_cover_first, _Table, _table,
                     enumerate_copy_sets, has_perfect_tiling)


def _connector_size(host: Hypergraph, pattern: Hypergraph, i: int) -> int:
    """|S| = t*i - 1, the size of a length-i connector, checked against the host."""
    if pattern.n == 0:
        raise ValidationError("pattern has no vertices")
    if i < 1:
        raise ValidationError(f"connector length must be positive, got {i}")
    size = pattern.n * i - 1
    if size > host.n - 2:
        raise ValidationError(
            f"connector size {size} exceeds the {host.n - 2} vertices available")
    return size


def close_threshold(host: Hypergraph, pattern: Hypergraph, i: int, eta) -> Fraction:
    """eta * n^(ti-1): the fewest length-i connectors that make a pair
    (i, eta)-close.  A negative eta is rejected before anything is counted."""
    eta_f = Fraction(eta)
    if eta_f < 0:
        raise ValidationError(f"eta must be nonnegative, got {eta}")
    return eta_f * host.n ** _connector_size(host, pattern, i)


def count_connectors(host: Hypergraph, pattern: Hypergraph, x: int, y: int,
                     i: int, budget: int | None = None) -> int:
    """Number of (x, y)-connectors of length i.

    A connector is a set S disjoint from {x, y} with |S| = |V(F)|*i - 1
    such that both H[S + {x}] and H[S + {y}] admit perfect pattern tilings,
    decided per vertex mask over one copy-set table of the host, whose
    covers share one set of failed states (`_exact_cover_first`).  Every call
    charges the budget for the C(n-2, |S|) candidates and for the C(n, t)
    of that table's enumeration, also when the table is the one the last
    call built (`_connector_table`), so no answer and no budget error
    depends on earlier calls.
    """
    if x == y:
        raise ValidationError("connector endpoints must differ")
    for v in (x, y):
        if v < 0 or v >= host.n:
            raise ValidationError(f"vertex {v} out of range 0..{host.n - 1}")
    size = _connector_size(host, pattern, i)
    charge(math.comb(host.n - 2, size), budget, "connector enumeration")
    _check_pair(host, pattern)
    charge(math.comb(host.n, pattern.n), budget, "copy-set enumeration")
    table = _connector_table(host, pattern)
    dead: set[int] = set()                      # failed states, shared by the probe's covers

    def tiles(target: int) -> bool:
        return _exact_cover_first(table, target, dead) is not None

    others = [1 << v for v in range(host.n) if v != x and v != y]
    return sum(1 for s in itertools.combinations(others, size)
               if tiles(sum(s) | 1 << x) and tiles(sum(s) | 1 << y))


@lru_cache(maxsize=1)
def _connector_table(host: Hypergraph, pattern: Hypergraph) -> _Table:
    """The table of the host's copy sets, in lexicographic order, for the
    connector probes.  It charges nothing: `count_connectors` charges every
    call, with the caller's budget."""
    return _table(host.n, sorted(tuple(sorted(images))
                                 for images in _copy_masks(host, pattern).values()))


class RobustVectorReport(NamedTuple):
    """Exact per-type copy-set counts and the mu-robust index vectors."""

    counts: dict[TypeVector, int]
    robust: tuple[TypeVector, ...]
    mu: Fraction
    parts: int

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def robust_vectors(host: Hypergraph, pattern: Hypergraph, partition: Partition,
                   mu, budget: int | None = None) -> RobustVectorReport:
    """Index vectors carried by at least mu * n^t pattern copies.

    Copies are counted as spanned vertex sets; the per-type counts are
    grouped from the exhaustive copy-set enumeration, so they always sum to
    the total number of copy sets.
    """
    if partition.n != host.n:
        raise ValidationError(
            f"partition covers {partition.n} vertices, host has {host.n}")
    mu_f = Fraction(mu)
    if mu_f < 0:
        raise ValidationError(f"mu must be nonnegative, got {mu}")
    enum = enumerate_copy_sets(host, pattern, budget=budget)
    counts: dict[TypeVector, int] = {}
    for s in enum.sets:
        tv = partition.index_vector(s)
        counts[tv] = counts.get(tv, 0) + 1
    threshold = mu_f * host.n ** pattern.n
    robust = tuple(sorted(tv for tv, c in counts.items() if Fraction(c) >= threshold))
    return RobustVectorReport(
        counts=counts,
        robust=robust,
        mu=mu_f,
        parts=len(partition.parts),
    )


def _lattice_member(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact membership of target in the integer lattice the generators span.

    Column-style Hermite elimination: gcd-reduce the columns row by row,
    peel the target along each pivot, and demand exact divisibility.
    """
    dim = len(target)
    cols = [list(g) for g in generators]
    for g in cols:
        if len(g) != dim:
            raise ValidationError("generator dimension mismatch")
    t = list(target)
    start = 0
    for row in range(dim):
        while True:
            nz = [j for j in range(start, len(cols)) if cols[j][row] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            for j in nz:
                if j != j0:
                    q = cols[j][row] // cols[j0][row]
                    if q:
                        cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
        nz = [j for j in range(start, len(cols)) if cols[j][row] != 0]
        if nz:
            j0 = nz[0]
            cols[start], cols[j0] = cols[j0], cols[start]
            g = cols[start][row]
            if t[row] % g != 0:
                return False
            q = t[row] // g
            if q:
                t = [a - q * b for a, b in zip(t, cols[start])]
            start += 1
        elif t[row] != 0:
            return False
    return all(v == 0 for v in t)


def has_transferral(report: RobustVectorReport, j: int, l: int) -> bool:
    """Whether u_j - u_l lies in the integer lattice of the robust vectors."""
    if j == l:
        raise ValidationError("transferral needs two distinct part indices")
    for idx in (j, l):
        if idx < 0 or idx >= report.parts:
            raise ValidationError(
                f"part index {idx} out of range 0..{report.parts - 1}")
    target = [0] * report.parts
    target[j] = 1
    target[l] = -1
    return _lattice_member(report.robust, target)


class GoodnessReport(NamedTuple):
    """Per-vertex difference degrees against a comparison graph."""

    good: tuple[bool, ...]
    difference_degrees: tuple[int, ...]
    threshold: Fraction


def classify_goodness(host: Hypergraph, against: Hypergraph, alpha) -> GoodnessReport:
    """Label each vertex good iff its degree in (against minus host) is at
    most alpha * n^(k-1), compared exactly."""
    if host.n != against.n or host.k != against.k:
        raise ValidationError(
            f"graphs must share the ground set: ({host.k}, {host.n}) vs "
            f"({against.k}, {against.n})")
    alpha_f = Fraction(alpha)
    if alpha_f < 0:
        raise ValidationError(f"alpha must be nonnegative, got {alpha}")
    degrees = [0] * host.n
    host_edges = host.edge_set()
    for e in against.edges:
        if e not in host_edges:
            for v in e:
                degrees[v] += 1
    threshold = alpha_f * host.n ** (host.k - 1)
    good = tuple(Fraction(d) <= threshold for d in degrees)
    return GoodnessReport(good, tuple(degrees), threshold)


class ExtremalWitness(NamedTuple):
    """Balanced split certifying closeness to a barrier graph, if one exists.

    exhaustive is False when the order was too large for the full split scan
    and only the greedy swap heuristic ran; a None partition is then only a
    failure to find, not a proof of absence.
    """

    partition: Partition | None
    exhaustive: bool
    missing_edges: int | None


EXHAUSTIVE_SPLIT_LIMIT = 16


def extremal_witness(host: Hypergraph, gamma) -> ExtremalWitness:
    """Search for a balanced split (A, B), |A| <= |B|, with the barrier graph
    on it gamma-contained in the host.

    Exhaustive over all splits up to EXHAUSTIVE_SPLIT_LIMIT vertices; beyond
    it a deterministic greedy swap search runs and the result is flagged
    non-exhaustive.
    """
    if host.k != 3:
        raise ValidationError(f"extremal witness applies to 3-graphs, got k = {host.k}")
    gamma_f = Fraction(gamma)
    if gamma_f < 0:
        raise ValidationError(f"gamma must be nonnegative, got {gamma}")
    n = host.n
    if n < 2:
        raise ValidationError(f"need at least 2 vertices, got {n}")
    a_size = n // 2
    allowance = gamma_f * n ** 3
    edge_masks = [sum(1 << v for v in e) for e in host.edges]
    everything = (1 << n) - 1
    b_size = n - a_size
    barrier_total = math.comb(a_size, 3) + a_size * math.comb(b_size, 2)

    def missing_for(a_mask: int) -> int:
        present = 0
        for em in edge_masks:
            if (em & a_mask).bit_count() % 2 == 1:
                present += 1
        return barrier_total - present

    def members(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    def witness(a_mask: int, missing: int, exhaustive: bool) -> ExtremalWitness:
        parts = [members(a_mask), members(everything ^ a_mask)]
        return ExtremalWitness(Partition(parts, n), exhaustive, missing)

    if n <= EXHAUSTIVE_SPLIT_LIMIT:
        for a_set in itertools.combinations(range(n), a_size):
            a_mask = sum(1 << v for v in a_set)
            missing = missing_for(a_mask)
            if Fraction(missing) <= allowance:
                return witness(a_mask, missing, True)
        return ExtremalWitness(None, True, None)

    # Greedy: start from the identity split, take the first strictly
    # improving swap (u from A, then w from B, both in id order), repeat to
    # a local minimum.
    a_mask = (1 << a_size) - 1
    missing = missing_for(a_mask)
    while missing > 0:
        for u, w in itertools.product(members(a_mask), members(everything ^ a_mask)):
            trial = a_mask ^ (1 << u | 1 << w)
            if (m := missing_for(trial)) < missing:
                a_mask, missing = trial, m
                break
        else:
            break
    if Fraction(missing) <= allowance:
        return witness(a_mask, missing, False)
    return ExtremalWitness(None, False, None)
