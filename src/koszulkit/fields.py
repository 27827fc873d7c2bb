"""Coefficient fields: exact rationals and prime fields GF(p).

Field elements are plain Python objects supporting +, -, *, / and ==.
Rationals are fractions.Fraction values, or gmpy2.mpq values when the
optional gmpy2 accelerator is installed, always in lowest terms with
positive denominator.  Prime-field elements are GFElement instances
holding a residue in [0, p).
"""

from __future__ import annotations

from .errors import InputError

# rational(num, den=1) is the backend's constructor, in lowest terms
try:
    from gmpy2 import mpq as rational
    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is optional; the stdlib path is the default
    from fractions import Fraction as rational
    RATIONAL_BACKEND = "fractions.Fraction"


DEFAULT_MODULUS = 32003

# Miller-Rabin with the primes up to 37 as bases decides primality of
# every n below this bound (Jiang-Deng 2014); larger moduli are refused.
MAX_MODULUS = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < MAX_MODULUS."""
    if n >= MAX_MODULUS:
        raise InputError("modulus %d is not below %d, the bound of the proven "
                         "primality test" % (n, MAX_MODULUS))
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
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


class GFElement:
    """Residue class modulo a prime, with field arithmetic."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        # Fermat inverse: o^(p-2)
        return GFElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o.__truediv__(self)

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "GF(%d)(%d)" % (self.p, self.v)

    def __str__(self):
        return str(self.v)


class RationalField:
    """The field of exact rational numbers."""

    char = 0

    def of(self, value):
        """Coerce an int (or rational) into the field."""
        return rational(value)

    @property
    def zero(self):
        return rational(0)

    @property
    def one(self):
        return rational(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The finite field GF(p) for a prime modulus p."""

    def __init__(self, p: int = DEFAULT_MODULUS):
        if not is_prime(p):
            raise InputError("modulus %r is not prime" % (p,))
        self.p = p
        self.char = p

    def of(self, value):
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise ValueError("mixed moduli")
            return value
        return GFElement(self.p, int(value))

    @property
    def zero(self):
        return GFElement(self.p, 0)

    @property
    def one(self):
        return GFElement(self.p, 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
