"""Exact coefficient fields: prime fields GF(p) and the rationals.

Every computation in the package runs over one of these two field kinds;
there is no floating point anywhere.  Field objects are small immutable
value objects used as tags on matrices, algebras and modules.
"""

from __future__ import annotations

import numbers
from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce to Fraction with plain-int internals (numpy ints sneak in otherwise)."""
    if isinstance(x, Fraction):
        if type(x.numerator) is int and type(x.denominator) is int:
            return x
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    return Fraction(x)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Common interface of the two supported fields."""

    kind: str

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def key(self):
        raise NotImplementedError

    # element protocol -------------------------------------------------
    def normalize(self, x):
        raise NotImplementedError

    def parse(self, s: str):
        """Parse a decimal-string coefficient like "2" or "-1/3"."""
        raise NotImplementedError

    def to_str(self, x) -> str:
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError


class PrimeField(Field):
    """GF(p) with elements represented as ints in [0, p)."""

    kind = "prime"

    # p is kept small so that matrices stay exact in float64: a product of
    # two reduced entries is below 2^40, and linalg.matmul_mod sums dot
    # products in chunks of 2^51 / (p-1)^2 >= 2048 terms between reductions.
    MAX_P = 1 << 20

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > self.MAX_P:
            raise ValueError(f"prime {p} too large (limit {self.MAX_P})")
        self.p = p

    def key(self):
        return ("prime", self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def normalize(self, x):
        return int(x) % self.p

    def parse(self, s: str):
        num, slash, den = s.strip().partition("/")
        try:
            num, d = int(num), int(den) % self.p if slash else 1
        except ValueError:
            raise ValueError(f"invalid coefficient {s!r}") from None
        if d == 0:
            raise ValueError(f"coefficient {s!r} has a denominator divisible by {self.p}")
        return self.normalize(num * pow(d, self.p - 2, self.p))

    def to_str(self, x) -> str:
        return str(int(x) % self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)


class RationalField(Field):
    """The field of rationals, with exact Fraction arithmetic."""

    kind = "rationals"

    def key(self):
        return ("rationals",)

    def __repr__(self) -> str:
        return "QQ"

    def normalize(self, x):
        return as_fraction(x)

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except ZeroDivisionError:
            raise ValueError(f"coefficient {s!r} has denominator 0") from None

    def to_str(self, x) -> str:
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "prime":
        if "p" not in obj:
            raise ValueError("prime field JSON is missing the key 'p'")
        if type(obj["p"]) is not int:
            raise ValueError(f"prime field JSON key 'p' must be an int, not {obj['p']!r}")
        return GF(obj["p"])
    if kind == "rationals":
        return QQ
    raise ValueError(f"unknown field kind {kind!r}")


def field_to_json(f: Field) -> dict:
    if isinstance(f, PrimeField):
        return {"kind": "prime", "p": f.p}
    return {"kind": "rationals"}
