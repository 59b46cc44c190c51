"""Arithmetic in GF(q) for prime powers q <= 49.

Elements are canonical residues: plain ints 0..p-1 when q is prime, and
coefficient tuples of length m (ascending powers, entries mod p) when
q = p^m with m > 1.  Extension fields use a fixed table of monic reduction
polynomials so that element order, and hence every construction built on
top, is stable across runs and platforms.
"""

from __future__ import annotations

from typing import Iterator, Union

from .errors import UnsupportedFieldError, ValidationError

FieldElement = Union[int, tuple[int, ...]]

# Monic irreducible reduction polynomials, coefficients ascending, the
# leading 1 included.  One fixed choice per supported extension order.
REDUCTION_POLYS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),            # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),         # x^3 + x + 1 over GF(2)
    9: (2, 2, 1),            # x^2 + 2x + 2 over GF(3)
    16: (1, 1, 0, 0, 1),     # x^4 + x + 1 over GF(2)
    25: (2, 4, 1),           # x^2 + 4x + 2 over GF(5)
    27: (1, 2, 0, 1),        # x^3 + 2x + 1 over GF(3)
    49: (3, 6, 1),           # x^2 + 6x + 3 over GF(7)
}


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^m with p prime, or raise."""
    if q < 2:
        raise UnsupportedFieldError(f"field order must be at least 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise UnsupportedFieldError(f"{q} is not a prime power")
    return p, m


class GF:
    """The field GF(q) = GF(p^m), with exact arithmetic on canonical residues."""

    __slots__ = ("q", "p", "m", "_poly")

    def __init__(self, q: int):
        p, m = _prime_power(q)
        if m > 1 and q not in REDUCTION_POLYS:
            raise UnsupportedFieldError(
                f"no reduction polynomial on file for q = {q}; "
                f"supported extension orders: {sorted(REDUCTION_POLYS)}")
        self.q = q
        self.p = p
        self.m = m
        self._poly = REDUCTION_POLYS.get(q)

    # -- element plumbing -----------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return 0 if self.m == 1 else (0,) * self.m

    @property
    def one(self) -> FieldElement:
        return 1 if self.m == 1 else (1,) + (0,) * (self.m - 1)

    def check(self, a: FieldElement) -> FieldElement:
        """Validate that `a` is a canonical residue of this field."""
        if self.m == 1:
            if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.p:
                raise ValidationError(f"{a!r} is not an element of GF({self.q})")
            return a
        if (not isinstance(a, tuple) or len(a) != self.m
                or any(not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < self.p
                       for c in a)):
            raise ValidationError(f"{a!r} is not an element of GF({self.q})")
        return a

    def element_index(self, a: FieldElement) -> int:
        """Position of `a` in the canonical element order."""
        self.check(a)
        if self.m == 1:
            return a  # type: ignore[return-value]
        return sum(c * self.p ** i for i, c in enumerate(a))  # type: ignore[arg-type]

    def element_at(self, index: int) -> FieldElement:
        """Inverse of element_index."""
        if not 0 <= index < self.q:
            raise ValidationError(f"element index {index} out of range 0..{self.q - 1}")
        if self.m == 1:
            return index
        coeffs = []
        for _ in range(self.m):
            coeffs.append(index % self.p)
            index //= self.p
        return tuple(coeffs)

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in a fixed deterministic order (zero first)."""
        for i in range(self.q):
            yield self.element_at(i)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self.check(a)
        self.check(b)
        if self.m == 1:
            return (a + b) % self.p  # type: ignore[operator]
        return tuple((x + y) % self.p for x, y in zip(a, b))  # type: ignore[arg-type]

    def neg(self, a: FieldElement) -> FieldElement:
        self.check(a)
        if self.m == 1:
            return (-a) % self.p  # type: ignore[operator]
        return tuple((-x) % self.p for x in a)  # type: ignore[union-attr]

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self.check(a)
        self.check(b)
        if self.m == 1:
            return (a * b) % self.p  # type: ignore[operator]
        # Schoolbook product, then reduction by the fixed monic polynomial.
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):  # type: ignore[arg-type]
            if x:
                for j, y in enumerate(b):  # type: ignore[arg-type]
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        poly = self._poly
        assert poly is not None
        for d in range(len(prod) - 1, self.m - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                # x^d = x^(d-m) * (x^m - lower terms of the reduction poly)
                for j in range(self.m):
                    prod[d - self.m + j] = (prod[d - self.m + j] - c * poly[j]) % self.p
        return tuple(prod[: self.m])

    def inv(self, a: FieldElement) -> FieldElement:
        self.check(a)
        if a == self.zero:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.q})")
        # q <= 49, so a^(q-2) by square-and-multiply is plenty fast.
        result = self.one
        base = a
        e = self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return self.q == other.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def field(q: int) -> GF:
    """Construct GF(q); rejects non prime powers and off-table extensions."""
    return GF(q)
