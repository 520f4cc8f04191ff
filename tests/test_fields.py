import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiverhh.errors import FieldError, ParseError
from quiverhh.fields import (
    PrimeField,
    Rationals,
    field_parse,
    is_prime,
    primitive_root_of_unity,
)


def test_field_parse():
    assert field_parse("rational") == Rationals()
    assert field_parse("fp:7") == PrimeField(7)
    with pytest.raises(ParseError):
        field_parse("fp:6")
    with pytest.raises(ParseError):
        field_parse("gf:7")


def test_descriptors_value_comparable():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert Rationals() != PrimeField(7)
    assert len({PrimeField(7), PrimeField(7), Rationals()}) == 2


def test_rational_arithmetic():
    f = Rationals()
    assert f.div(Fraction(2, 3), Fraction(1, 3)) == 2
    with pytest.raises(FieldError):
        f.div(f.one(), f.zero())
    assert f.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    with pytest.raises(FieldError):
        f.div(1, 0)


def test_scalar_literals():
    f = Rationals()
    assert f.parse_scalar("-4/6") == Fraction(-2, 3)
    assert f.format_scalar(Fraction(-2, 3)) == "-2/3"
    p = PrimeField(11)
    assert p.parse_scalar("-1") == 10
    with pytest.raises(ParseError):
        p.parse_scalar("1/2")
    with pytest.raises(ParseError):
        f.parse_scalar("x")


def test_roots_of_unity_examples():
    assert primitive_root_of_unity(3, PrimeField(7)) == 2
    assert primitive_root_of_unity(4, PrimeField(13)) == 5
    assert primitive_root_of_unity(3, Rationals()) is None
    assert primitive_root_of_unity(2, Rationals()) == -1
    assert primitive_root_of_unity(1, Rationals()) == 1
    assert primitive_root_of_unity(5, PrimeField(7)) is None


def test_roots_of_unity_exhaustive():
    for p in range(2, 101):
        if not is_prime(p):
            continue
        field = PrimeField(p)
        for n in range(1, 13):
            root = primitive_root_of_unity(n, field)
            assert (root is not None) == ((p - 1) % n == 0)
            if root is not None:
                assert pow(root, n, p) == 1
                assert all(pow(root, k, p) != 1 for k in range(1, n))


def test_field_axioms_random():
    rng = random.Random(1)
    for field in (Rationals(), PrimeField(13)):
        for _ in range(100):
            if field.kind == "rationals":
                a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            else:
                a, b, c = (rng.randrange(13) for _ in range(3))
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if not field.is_zero(a):
                assert field.mul(a, field.inv(a)) == field.one()


# ints and Fractions, integral (Fraction(4, 2)) and not
RATIONAL_INPUTS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


def _canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@given(RATIONAL_INPUTS, RATIONAL_INPUTS, st.integers(min_value=1, max_value=5))
def test_rationals_agree_with_fraction_in_canonical_form(a, b, k):
    f = Rationals()
    fa, fb = Fraction(a), Fraction(b)
    cases = [
        (f.add(a, b), fa + fb),
        (f.sub(a, b), fa - fb),
        (f.mul(a, b), fa * fb),
        (f.neg(f.add(a, 0)), -fa),  # neg keeps the form of its argument
        (f.from_int(fa.numerator), Fraction(fa.numerator)),
        (f.parse_scalar(str(fa)), fa),
        (f.parse_scalar(f"{fa.numerator * k}/{fa.denominator * k}"), fa),
        (f.zero(), Fraction(0)),
        (f.one(), Fraction(1)),
    ]
    if fb:
        cases += [(f.inv(b), 1 / fb), (f.div(a, b), fa / fb)]
    for got, want in cases:
        assert got == want
        assert _canonical(got), repr(got)
        assert f.format_scalar(got) == str(want)
