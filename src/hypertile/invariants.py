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

    Deduplicated up to permutation of the classes: the search assigns class
    labels in first-use order (restricted growth), so each unordered
    partition appears exactly once.  Empty list iff F is not k-partite.
    The search is the class-mask search of _class_masks; each result
    becomes one Partition.
    """
    n = pattern.n
    return sorted((Partition([[v for v in range(n) if m >> v & 1] for m in masks], n)
                   for masks in _class_masks(pattern)), key=lambda p: p.parts)


def _class_masks(pattern: Hypergraph) -> list[tuple[int, ...]]:
    """The realisations as k-tuples of class bitmasks, in search order.

    Vertex v may join class lab iff the class holds none of the earlier
    vertices that share an edge with v (conflicts[v]).
    """
    k = pattern.k
    n = pattern.n
    if n > MAX_PATTERN_VERTICES:
        raise ValidationError(
            f"pattern has {n} vertices; realisation enumeration is capped at "
            f"{MAX_PATTERN_VERTICES}")
    if n < k:
        return []
    # For a k-uniform edge, "meets every class exactly once" means all k
    # vertices get pairwise distinct labels.
    conflicts = [0] * n
    for e in pattern.edges:
        for i, v in enumerate(e):
            for u in e[:i]:
                conflicts[v] |= 1 << u
    classes = [0] * k
    found: list[tuple[int, ...]] = []

    def assign(v: int, used: int) -> None:
        if v == n:
            if used == k:
                found.append(tuple(classes))
            return
        # Even giving every later vertex a new label cannot reach k classes.
        if used + (n - v) < k:
            return
        bit = 1 << v
        for lab in range(min(used + 1, k)):
            if not classes[lab] & conflicts[v]:
                classes[lab] |= bit
                assign(v + 1, max(used, lab + 1))
                classes[lab] ^= bit

    assign(0, 0)
    return found


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
    """Compute the class-size invariants; raises NotKPartiteError if none exist."""
    reals = _class_masks(pattern)
    if not reals:
        raise NotKPartiteError(
            f"pattern on {pattern.n} vertices admits no {pattern.k}-partite realisation")
    s_vals: set[int] = set()
    d_vals: set[int] = {0}
    for masks in reals:
        sizes = [m.bit_count() for m in masks]
        s_vals.update(sizes)
        for i, a in enumerate(sizes):
            for b in sizes[i + 1:]:
                d_vals.add(abs(a - b))
    nonzero = sorted(d_vals - {0})
    return InvariantReport(
        k=pattern.k,
        vertices=pattern.n,
        s_set=tuple(sorted(s_vals)),
        d_set=tuple(sorted(d_vals)),
        gcd=math.gcd(*nonzero) if nonzero else None,
        sigma=Fraction(min(s_vals), pattern.n),
        realisation_count=len(reals),
    )


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
