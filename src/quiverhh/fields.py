"""Exact scalar arithmetic over the rationals and over prime fields.

Scalar values are plain Python objects.  A rational is kept in one canonical
form: an ``int`` when it is integral, a ``fractions.Fraction`` with
denominator > 1 otherwise.  An element of F_p is an ``int`` residue in
[0, p).  A field object supplies the operations, so the linear algebra and
rewriting layers stay field-agnostic.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from .errors import FieldError, ParseError

_INT_RE = re.compile(r"-?[0-9]+$")
_FRAC_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)$")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for word-sized integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; use the Rationals / PrimeField subclasses."""

    kind = None  # "rationals" | "prime_field"
    characteristic = 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        if self.is_zero(b):
            raise FieldError("division by zero")
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def parse_scalar(self, text: str):
        raise NotImplementedError

    def format_scalar(self, a) -> str:
        return str(a)


def _canonical(x):
    """A rational in canonical form: the int itself, or a Fraction's numerator
    when its denominator is 1."""
    if x.__class__ is int or x.denominator != 1:
        return x
    return x.numerator


class Rationals(Field):
    """The rationals, each scalar an ``int`` when integral and a ``Fraction``
    with denominator > 1 otherwise.

    The scalars of the engine's algebras are mostly integers, and int
    arithmetic skips the normalisation every Fraction operation runs.
    ``add``, ``sub``, ``mul``, ``inv`` and ``parse_scalar`` return canonical
    scalars; ``neg`` keeps its argument's form.  An int and a Fraction of the
    same value compare and hash equal and print the same text, so the form
    never shows in a coordinate or a report."""

    kind = "rationals"
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return operator.index(n)

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return _canonical(Fraction(a.denominator, a.numerator))

    def is_zero(self, a):
        return a == 0

    def parse_scalar(self, text):
        text = text.strip()
        if _INT_RE.match(text):
            return int(text)
        m = _FRAC_RE.match(text)
        if m:
            return _canonical(Fraction(int(m.group(1)), int(m.group(2))))
        raise ParseError(f"bad rational literal {text!r}")

    def __repr__(self):
        return "Rationals()"

    def __str__(self):
        return "rational"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


class PrimeField(Field):
    kind = "prime_field"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        if p.bit_length() > 62:
            raise FieldError(f"modulus {p} does not fit in a machine word")
        self.p = p
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse_scalar(self, text):
        text = text.strip()
        if _INT_RE.match(text):
            return int(text) % self.p
        raise ParseError(f"bad residue literal {text!r} for fp:{self.p}")

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __str__(self):
        return f"fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime_field", self.p))


def field_parse(text: str) -> Field:
    """Parse a field spec: ``rational`` or ``fp:<prime>``."""
    text = text.strip()
    if text == "rational":
        return Rationals()
    if text.startswith("fp:"):
        body = text[3:]
        if not body.isdigit():
            raise ParseError(f"bad field spec {text!r}")
        try:
            return PrimeField(int(body))
        except FieldError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"bad field spec {text!r}")


def _multiplicative_order_is(field: PrimeField, x: int, n: int, prime_divisors) -> bool:
    if pow(x, n, field.p) != 1:
        return False
    return all(pow(x, n // q, field.p) != 1 for q in prime_divisors)


def _prime_divisors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root_of_unity(n: int, field: Field):
    """Smallest element of multiplicative order exactly n, or None.

    Over the rationals only n = 1, 2 have solutions.  Over F_p a solution
    exists iff n divides p - 1.
    """
    if n < 1:
        raise FieldError("order must be positive")
    if field.kind == "rationals":
        if n == 1:
            return field.one()
        if n == 2:
            return field.from_int(-1)
        return None
    p = field.p
    if (p - 1) % n != 0:
        return None
    divisors = _prime_divisors(n)
    for x in range(1, p):
        if _multiplicative_order_is(field, x, n, divisors):
            return x
    return None
