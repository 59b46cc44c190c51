"""Field arithmetic checks.

The laws are tested exhaustively over all element triples for every
supported order up to 27; that is at most 27^3 combinations per law, so
brute force is fine and leaves nothing to chance.
"""

import itertools

import pytest

from hypertile import GF, field
from hypertile.errors import UnsupportedFieldError, ValidationError

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field(q)
    elems = list(f.elements())
    assert len(elems) == q
    assert len(set(elems)) == q
    zero, one = f.zero, f.one
    for a in elems:
        assert f.add(a, zero) == a
        assert f.mul(a, one) == a
        assert f.add(a, f.neg(a)) == zero
        if a != zero:
            assert f.mul(a, f.inv(a)) == one
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_ORDERS + [49])
def test_frobenius_fixed_points(q):
    # x^q = x for every x
    f = field(q)
    for a in f.elements():
        power = f.one
        for _ in range(q):
            power = f.mul(power, a) if a != f.zero else f.zero
        result = a if a == f.zero else power
        assert result == a


@pytest.mark.parametrize("q", SMALL_ORDERS + [49])
def test_characteristic(q):
    f = field(q)
    total = f.zero
    for _ in range(f.p):
        total = f.add(total, f.one)
    assert total == f.zero


def test_element_order_round_trip():
    for q in (7, 9, 16):
        f = field(q)
        for i, a in enumerate(f.elements()):
            assert f.element_index(a) == i
            assert f.element_at(i) == a


def test_unsupported_orders():
    for q in (0, 1, 6, 10, 12, 15, 100):
        with pytest.raises(UnsupportedFieldError):
            field(q)
    # prime power without a reduction polynomial on file
    with pytest.raises(UnsupportedFieldError):
        field(121)


def test_check_rejects_foreign_values():
    f = field(9)
    with pytest.raises(ValidationError):
        f.check(3)  # prime-field style value in an extension field
    with pytest.raises(ValidationError):
        f.check((1, 3))  # coefficient out of range
    with pytest.raises(ValidationError):
        f.check((1, 0, 0))  # wrong length
    g = field(5)
    with pytest.raises(ValidationError):
        g.check(5)
    with pytest.raises(ValidationError):
        g.check(True)  # bools are not residues
    assert g.check(4) == 4


def test_zero_has_no_inverse():
    for q in (5, 8):
        with pytest.raises(ZeroDivisionError):
            field(q).inv(field(q).zero)


def test_field_equality_by_order():
    assert field(9) == GF(9)
    assert field(9) != field(3)
