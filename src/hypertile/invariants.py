"""k-partite realisations of a pattern and the tiling-threshold formulas.

A realisation of a k-graph F is a partition of V(F) into k nonempty
classes such that every edge meets every class exactly once.  From the set
of realisations three invariants drive the codegree threshold for perfect
F-tilings: the achievable class sizes, their pairwise differences, and the
minimum class-size ratio sigma(F).  All of that is exact; only the
threshold evaluators at the bottom return binary64 display values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import Hypergraph, Partition
from .errors import NotKPartiteError, ValidationError

# The realisation search is exponential in the pattern's order, so
# `realisations`, `invariants` and `mycroft_threshold` refuse patterns above
# this size.  Copy search and tiling do not read realisations: their plans
# take patterns of any size.
MAX_PATTERN_VERTICES = 14


def realisations(pattern: Hypergraph) -> list[Partition]:
    """All partitions of V(F) into k nonempty transversal classes.

    Deduplicated up to permutation of the classes: each appears once, its
    classes ordered by least vertex, and the list is sorted.  Empty iff F
    is not k-partite.  The search of _class_masks leaves the isolated
    vertices of a pattern with edges out; each of its results is expanded
    here by putting every isolated vertex in every class in turn.
    """
    n = pattern.n
    found, isolated = _class_masks(pattern)
    for v in isolated:
        found = [masks[:c] + (masks[c] | 1 << v,) + masks[c + 1:]
                 for masks in found for c in range(pattern.k)]
    return sorted((Partition([[v for v in range(n) if m >> v & 1]
                              for m in sorted(masks, key=lambda m: m & -m)], n)
                   for masks in found), key=lambda p: p.parts)


def _class_masks(pattern: Hypergraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """The realisations of the vertices in some edge, as k-tuples of class
    bitmasks in search order, and the isolated vertices left out.  An
    edgeless pattern leaves none out: the search runs over all its vertices.

    One loop over an explicit stack: the i-th searched vertex holds label
    labels[i].  Labels are opened in first-use order (restricted growth),
    so each unordered partition appears once, and a vertex may join a class
    iff the class holds none of the vertices it shares an edge with.
    """
    k = pattern.k
    n = pattern.n
    if n > MAX_PATTERN_VERTICES:
        raise ValidationError(
            f"pattern has {n} vertices; realisation enumeration is capped at "
            f"{MAX_PATTERN_VERTICES}")
    conflicts = [0] * n
    for e in pattern.edges:
        full = 0
        for v in e:
            full |= 1 << v
        for v in e:
            conflicts[v] |= full
    if pattern.edges:
        searched = [v for v, c in enumerate(conflicts) if c]
        isolated = [v for v, c in enumerate(conflicts) if not c]
    else:
        searched, isolated = list(range(n)), []
    w = len(searched)
    if w < k:
        return [], isolated
    bits = [1 << v for v in searched]
    avoid = [conflicts[v] for v in searched]
    classes = [0] * k
    found: list[tuple[int, ...]] = []
    labels = [-1] * w
    opened = [0] * w                            # labels used before the i-th vertex
    i = 0
    while i >= 0:
        lab = labels[i]
        used = opened[i]
        if lab >= 0:
            classes[lab] ^= bits[i]
        elif used + w - i < k:
            # Even giving every later vertex a new label cannot reach k classes.
            i -= 1
            continue
        top = used + 1 if used < k else k
        lab += 1
        while lab < top and classes[lab] & avoid[i]:
            lab += 1
        if lab == top:
            labels[i] = -1
            i -= 1
            continue
        labels[i] = lab
        classes[lab] |= bits[i]
        if lab == used:
            used += 1
        if i + 1 < w:
            i += 1
            opened[i] = used
        elif used == k:
            found.append(tuple(classes))
    return found, isolated


class InvariantReport(NamedTuple):
    """Exact realisation invariants of a pattern."""

    k: int
    vertices: int
    s_set: tuple[int, ...]          # achievable class sizes, sorted
    d_set: tuple[int, ...]          # absolute pairwise size differences, sorted, 0 included
    gcd: int | None                 # gcd of the nonzero differences; None iff d_set == (0,)
    sigma: Fraction                 # min s_set / |V(F)|
    realisation_count: int


def invariants(pattern: Hypergraph) -> InvariantReport:
    """Compute the class-size invariants; raises NotKPartiteError if none exist.

    Isolated vertices are counted, not listed.  The search of _class_masks
    over the vertices in some edge already opens all k classes, so the m
    isolated vertices it leaves out go in any of them: k^m realisations
    each, with the class sizes raised by every composition of m into k
    parts.  (An edgeless pattern leaves none out.)  Only the sorted class
    sizes of the search's results are kept, and each difference is taken
    within one sorted size vector.
    """
    k = pattern.k
    n = pattern.n
    found, isolated = _class_masks(pattern)
    if not found:
        raise NotKPartiteError(
            f"pattern on {n} vertices admits no {k}-partite realisation")
    sizes = {tuple(sorted([m.bit_count() for m in masks])) for masks in found}
    if isolated:
        sizes = {tuple(sorted([a + b for a, b in zip(base, extra)]))
                 for base in sizes for extra in _compositions(len(isolated), k)}
    s_vals: set[int] = set()
    d_vals: set[int] = {0}
    for full in sizes:
        s_vals.update(full)
        d_vals.update(b - a for i, a in enumerate(full) for b in full[i + 1:])
    nonzero = sorted(d_vals - {0})
    return InvariantReport(
        k=k,
        vertices=n,
        s_set=tuple(sorted(s_vals)),
        d_set=tuple(sorted(d_vals)),
        gcd=math.gcd(*nonzero) if nonzero else None,
        sigma=Fraction(min(s_vals), n),
        realisation_count=len(found) * k ** len(isolated),
    )


def _compositions(m: int, k: int) -> list[tuple[int, ...]]:
    """Every way to write m as an ordered sum of k nonnegative integers."""
    if k == 1:
        return [(m,)]
    return [(first, *rest) for first in range(m + 1)
            for rest in _compositions(m - first, k - 1)]


CASE_BALANCED = "sizes_one_or_gcd_sizes_gt1"
CASE_GCD_ONE = "gcd_diffs_eq1"
CASE_MIXED = "gcd_sizes_eq1_gcd_diffs_gt1"


class ThresholdReport(NamedTuple):
    """Classification and display value of the perfect-tiling codegree threshold."""

    case_tag: str
    value: float | None
    n: int
    alpha: Fraction
    sigma: Fraction | None
    smallest_prime: int | None      # smallest prime factor of gcd, mixed case only


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValidationError(f"no prime factor for {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def mycroft_threshold(pattern: Hypergraph, n: int, alpha) -> ThresholdReport:
    """Codegree threshold for perfect F-tilings of a k-partite pattern F.

    Cases, checked in order:
      1. class sizes all 1, or their gcd exceeds 1  ->  n/2 + alpha*n
      2. gcd of the size differences is 1           ->  sigma*n + alpha*n
      3. size gcd 1 but difference gcd > 1          ->  max(sigma*n, n/p) + alpha*n
         with p the smallest prime factor of the difference gcd.
    When every realisation is balanced (difference set {0}) the difference
    gcd is undefined and the size tests alone decide: that always lands in
    case 1, since the sizes are then a single value.
    """
    if n <= 0:
        raise ValidationError(f"host order must be positive, got {n}")
    a = Fraction(alpha)
    inv = invariants(pattern)  # raises NotKPartiteError when F is not k-partite
    if inv.s_set == (1,) or math.gcd(*inv.s_set) > 1:
        value = n / 2 + float(a) * n
        return ThresholdReport(CASE_BALANCED, value, n, a, inv.sigma, None)
    assert inv.gcd is not None, "unbalanced realisations exist, so some difference is nonzero"
    if inv.gcd == 1:
        value = float(inv.sigma) * n + float(a) * n
        return ThresholdReport(CASE_GCD_ONE, value, n, a, inv.sigma, None)
    p = smallest_prime_factor(inv.gcd)
    value = max(float(inv.sigma) * n, n / p) + float(a) * n
    return ThresholdReport(CASE_MIXED, value, n, a, inv.sigma, p)


# -- closed-form codegree bounds ------------------------------------------


def balanced_factor_codegree(n: int, m: int) -> float:
    """Codegree that forces a K^3(m)-factor: n/2 + m^(1/m) * n^(1 - 1/m)."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if m < 2:
        raise ValidationError(f"m must be at least 2, got {m}")
    return n / 2 + m ** (1 / m) * n ** (1 - 1 / m)


def factor_free_codegree(n: int) -> float:
    """Codegree achieved by a K^3(2)-factor-free family: n/2 + sqrt(2n)/5 - 3."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    return n / 2 + math.sqrt(2 * n) / 5 - 3


def c4_factor_codegree(n: int) -> int:
    """Exact codegree threshold for factors of the generalized 4-cycle family.

    floor(n/2) - 1 when n = 1 (mod 4), ceil(n/2) - 1 otherwise.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if n % 4 == 1:
        return n // 2 - 1
    return -(-n // 2) - 1


def kst_bound(n: int, s: int, t: int) -> float:
    """Upper bound on edges of an n-vertex 2-graph with no K(s,t) subgraph.

    0.5 * ((t-1)^(1/s) * n^(2 - 1/s) + (s+1) * n), valid for t >= s >= 2.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if s < 2 or t < s:
        raise ValidationError(f"need t >= s >= 2, got s = {s}, t = {t}")
    return 0.5 * ((t - 1) ** (1 / s) * n ** (2 - 1 / s) + (s + 1) * n)
